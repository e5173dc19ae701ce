"""fusionforge benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` first repeats that untraced measurement for half the time,
then records spans around every library call for the other half; it
reports the per-layer metrics, prints the per-layer self times and
writes the spans to ``.perfbench/trace-<workload>-<seed>.json``.
Workloads and their checks are in ``workloads.py``; see ``README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong output,
or an exact count that differs between passes or from an earlier run of
the same code, makes the run incorrect and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib.util import find_spec
from time import perf_counter

from tracing import END, NAME, START, Tracer, Untraced, durations_by_name, self_time_by_layer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = {"full": 7, "smoke": 1}
LAYERS = ("search", "rings", "spectral", "criteria", "corpus", "bialgebra")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("census", "rank5", "ineq"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measure for this long; at least one full pass is measured")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for testing the benchmark itself")
    p.add_argument("--setup-probe", action="store_true",
                   help="only set the workload up, then exit (timed by the parent run)")
    return p.parse_args(argv)


def import_library():
    """Import fusionforge from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "fusionforge", "__init__.py")):
        sys.exit(f"benchmark: no fusionforge sources under {SRC}")
    sys.path.insert(0, SRC)
    import fusionforge

    if os.path.dirname(os.path.dirname(os.path.abspath(fusionforge.__file__))) != SRC:
        sys.exit(f"benchmark: fusionforge imported from {fusionforge.__file__}, not {SRC}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# measurement


def measure_setup(args, size_name) -> list:
    """Seconds from a fresh interpreter to the workload being ready, once
    per repeat: interpreter start, import, warm-up call and input set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_REPEATS[size_name]):
        t0 = perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(perf_counter() - t0)
        if done.returncode != 0:
            sys.exit(f"benchmark: set-up probe failed:\n{done.stderr}")
    return times


def measure(wl, tracer, seconds, PassRecord) -> list:
    """Run passes back to back for ``seconds``: at least one, and no pass
    that would end past ``seconds`` if it took as long as the last one."""
    passes = []
    t_start = perf_counter()
    while not passes or perf_counter() - t_start + pass_wall(passes[-1]) <= seconds:
        first_span = len(tracer.spans)
        rec = PassRecord(tracer)
        wl.run_pass(rec)
        rec.spans = tracer.spans[first_span:]
        passes.append(rec)
    return passes


def percentile(xs, q):
    """Linear-interpolated percentile ``q`` (0-100) of ``xs``."""
    xs = sorted(xs)
    k = (len(xs) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(n):
    """The highest of a few percentiles that has at least ten samples beyond it."""
    return next((q for q in (99.9, 99, 95, 90, 75) if n * (1 - q / 100) >= 10), 50)


def pass_wall(rec):
    return sum(rec.latencies)


def end_to_end(passes, setup_times) -> dict:
    return {
        "wall_s": (statistics.median(pass_wall(r) for r in passes), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(rec) -> dict:
    """Per-layer metrics of one traced pass: counts and library counters
    from the pass record, times from its spans."""
    by_name = durations_by_name(rec.spans)
    self_s = self_time_by_layer(rec.spans)
    c, kernel_s = rec.counts, rec.kernel_s
    search_calls_s = (by_name["search.enumerate_fusion_rings"]
                      + by_name["search.rank5_three_selfadjoint_family"])
    suite_s = by_name["bialgebra.inequality_suite"]
    wall = pass_wall(rec)
    m = {
        "search.kernel_s": (kernel_s, "s"),
        "search.nodes": (c["search.nodes"], "count"),
        "search.nodes_per_s": (c["search.nodes"] / kernel_s if kernel_s else 0.0, "1/s"),
        "search.prune_knapsack": (c["search.prune_knapsack"], "count"),
        "search.prune_associativity": (c["search.prune_associativity"], "count"),
        "search.raw_solutions": (c["search.raw_solutions"], "count"),
        "search.rings": (c["search.rings"], "count"),
        "search.dedup_yield": (c["search.rings"] / c["search.raw_solutions"]
                               if c["search.raw_solutions"] else 0.0, "ratio"),
        "search.overhead_s": (search_calls_s - kernel_s, "s"),
        "search.enumerate_s": (by_name["search.enumerate_types"]
                               + by_name["search.enumerate_involutions"], "s"),
        "search.units": (c["search.units"], "count"),
        "rings.is_simple_s": (by_name["rings.is_simple"], "s"),
        "spectral.character_table_s": (by_name["spectral.character_table"], "s"),
        "criteria.schur_s": (by_name["criteria.schur_commutative"], "s"),
        "criteria.schur_pass": (c["criteria.schur_pass"], "count"),
        "corpus.load_s": (by_name["corpus.corpus"], "s"),
        "corpus.loads": (c["corpus.loads"], "count"),
        "bialgebra.build_s": (by_name["bialgebra.canonical_from_fusion_data"], "s"),
        "bialgebra.suite_s": (suite_s, "s"),
        "bialgebra.ms_per_sample": (suite_s * 1e3 / c["bialgebra.samples"]
                                    if c["bialgebra.samples"] else 0.0, "ms"),
        "bialgebra.samples": (c["bialgebra.samples"], "count"),
        "bialgebra.evals": (c["bialgebra.evals"], "count"),
        "bialgebra.theorem_violations": (c["bialgebra.theorem_violations"], "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    m["trace.uncovered_s"] = (wall - sum(self_s[layer] for layer in LAYERS), "s")
    m["trace.spans"] = (len(rec.spans), "count")
    return m


def median_metrics(per_pass) -> dict:
    return {k: (statistics.median(p[k][0] for p in per_pass), per_pass[0][k][1])
            for k in per_pass[0]}


# ---------------------------------------------------------------------------
# determinism of exact counts


def code_digest() -> str:
    """Hash of the library sources and data plus the benchmark's own code."""
    h = hashlib.sha256()
    files = [os.path.join(HERE, f) for f in sorted(os.listdir(HERE)) if f.endswith(".py")]
    for d, dirs, names in sorted(os.walk(os.path.join(SRC, "fusionforge"))):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        files += [os.path.join(d, n) for n in sorted(names)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def check_counts(passes, key) -> list:
    """Exact counts must agree between passes and with every earlier run of
    the same code on this workload (kept in ``.perfbench/counts.json``)."""
    errors = []
    first = dict(passes[0].counts)
    for i, rec in enumerate(passes[1:], start=1):
        if dict(rec.counts) != first:
            errors.append(f"pass {i} counts {dict(rec.counts)} differ from pass 0 {first}")
    path = os.path.join(STATE_DIR, "counts.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    if key in known and known[key] != first:
        errors.append(f"counts {first} differ from an earlier run of this code {known[key]}")
    elif key not in known:
        known[key] = first
        os.makedirs(STATE_DIR, exist_ok=True)
        with open(path + ".tmp", "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)
    for e in errors:
        print(f"DETERMINISM ERROR: {e}", file=sys.stderr)
    return errors


# ---------------------------------------------------------------------------
# environment and report


def environment() -> dict:
    import numpy
    from fusionforge import search

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for d, dirs, names in os.walk(os.path.join(SRC, "fusionforge")):
        for n in names:
            if n.endswith(".py"):
                with open(os.path.join(d, n)) as f:
                    src_lines += sum(1 for _ in f)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": find_spec("numba") is not None,
        "kernel_backend": "compiled" if search._HAVE_NUMBA else "python",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "src_fusionforge_lines": src_lines,
    }


def print_metrics(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")


def write_trace(args, env, traced, per_pass):
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, f"trace-{args.workload}-{args.seed}.json")
    t0 = traced[0].spans[0][START] if traced[0].spans else 0.0
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "span_fields": ["id", "parent", "op", "name", "start_s", "end_s"],
        "passes": [
            {
                "self_s": {k: v[0] for k, v in m.items() if k.endswith(".self_s")},
                "uncovered_s": m["trace.uncovered_s"][0],
                "spans": [s[:NAME + 1] + [s[START] - t0, s[END] - t0]
                          for s in rec.spans],
            }
            for rec, m in zip(traced, per_pass)
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_library()
    size_name = "smoke" if args.smoke else "full"
    wl = workloads.WORKLOADS[args.workload](workloads.SIZES[size_name], args.seed)
    workloads.warm_up()
    wl.prepare()
    if args.setup_probe:
        return 0
    wl.load_references()
    env = environment()
    print(f"fusionforge benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={size_name}")
    print("environment " + json.dumps(env, sort_keys=True))

    setup_times = measure_setup(args, size_name)
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = measure(wl, Untraced(), budget, workloads.PassRecord)
    traced = measure(wl, Tracer(), budget, workloads.PassRecord) if args.trace else []
    passes = untraced + traced

    e2e = end_to_end(untraced, setup_times)
    lat_ms = [x * 1e3 for r in untraced for x in r.latencies]
    q = tail_percentile(len(lat_ms))
    tail = (f"p{q:g} {percentile(lat_ms, q):.6g} ms (the highest percentile with at "
            f"least ten ops beyond it), ") if q > 90 else ""
    print(f"untraced: {len(untraced)} passes, {len(lat_ms)} ops, op latency "
          f"p50 {percentile(lat_ms, 50):.6g} ms, p90 {percentile(lat_ms, 90):.6g} ms, "
          f"{tail}{len(setup_times)} set-ups")
    print_metrics("end-to-end (untraced)", e2e)
    metrics = e2e
    if args.trace:
        per_pass = [layer_metrics(r) for r in traced]
        metrics = median_metrics(per_pass)
        traced_wall = statistics.median(pass_wall(r) for r in traced)
        metrics["trace.overhead_s"] = (traced_wall - e2e["wall_s"][0], "s")
        print(f"traced: {len(traced)} passes; per-layer values are medians over them")
        print_metrics("per-layer (traced)", metrics)
        print("self time by layer, share of the traced pass:")
        for layer in LAYERS + ("trace.uncovered",):
            name = f"{layer}.self_s" if layer in LAYERS else "trace.uncovered_s"
            print(f"  {layer:<16} {metrics[name][0]:>12.6g} s "
                  f"{100 * metrics[name][0] / traced_wall:6.2f} %")
        print("spans written to " + write_trace(args, env, traced, per_pass))

    key = f"{code_digest()}:{args.workload}:{size_name}"
    count_errors = check_counts(passes, key)
    attempted = sum(len(r.latencies) for r in passes)
    failed = sum(len(r.failed) for r in passes)
    correct = failed == 0 and not count_errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

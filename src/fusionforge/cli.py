"""Command-line interface.

Subcommands operate on corpus ids (or aliases) or on FRT files; reports
go to stdout, diagnostics to stderr.  Exit codes: 0 success, 1
mathematical negative under ``--gate`` (e.g. the Schur criterion fails),
2 usage, parse or file errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bialgebra, corpus, criteria, rings, search, spectral
from .errors import FusionError, ParseError, SearchTimeout

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _load(ref: str) -> rings.FusionData:
    """A corpus id/alias, else a path to an FRT file."""
    if os.path.exists(ref):
        return corpus.load_fusion_ring(ref, label=os.path.basename(ref))
    try:
        return corpus.get(ref).fd
    except KeyError:
        raise ParseError(f"{ref!r} is neither a corpus id nor an existing file")


def _print_complex(z: complex) -> str:
    if abs(z.imag) < 1e-12:
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}i"


def cmd_verify(args) -> int:
    fd = _load(args.ring)
    report = rings.verify_axioms(fd)
    print(f"ring: {fd.label or args.ring} (rank {fd.rank}, mode {fd.mode})")
    for c in report.checks:
        state = "ok" if c.ok else f"FAIL at {c.witness} (residual {c.residual:g})"
        print(f"  {c.name}: {state}")
    if not report.all_ok:
        return EXIT_NEGATIVE if args.gate else EXIT_OK
    return EXIT_OK


def cmd_info(args) -> int:
    fd = _load(args.ring)
    rep = criteria.obstruction_report(fd)
    if args.json:
        print(json.dumps(rep.to_dict(), indent=2))
        return EXIT_OK
    print(f"ring: {fd.label or args.ring}")
    print(f"  rank: {rep.rank}")
    print(f"  FPdim: {rep.fpdim:.10g}")
    print(f"  type: {rep.type_string}")
    print(f"  integral: {rep.integral}  commutative: {rep.commutative}")
    print(f"  simple: {rep.simple}  perfect: {rep.perfect}  "
          f"frobenius_type: {rep.frobenius_type}")
    if rep.schur is not None:
        print(f"  schur: {rep.schur}")
    if rep.falsifier is not None:
        print(f"  schur falsifier: counterexample, value {rep.falsifier.value:.9g}")
    elif not rep.commutative:
        print(f"  schur falsifier: no counterexample in {criteria.FALSIFIER_SAMPLES} samples "
              "(NOT a proof)")
    print(f"  coefficient bounds hold: {rep.coefficient_bounds_hold}")
    return EXIT_OK


def cmd_chartable(args) -> int:
    fd = _load(args.ring)
    ct = spectral.character_table(fd)
    if args.json:
        sig12 = lambda v: float(f"{v:.12g}")  # 12 significant digits
        payload = {
            "rank": ct.rank,
            "residual": ct.residual,
            "table": [
                [[sig12(z.real), sig12(z.imag)] for z in row] for row in ct.lam
            ],
        }
        print(json.dumps(payload, indent=2))
    elif args.csv:
        for row in ct.lam:
            print(",".join(f"{z.real:.12g},{z.imag:.12g}" for z in row))
    else:
        print(f"character table of {fd.label or args.ring} "
              f"(residual {ct.residual:.3g}):")
        for row in ct.lam:
            print("  " + "  ".join(f"{_print_complex(z):>18s}" for z in row))
    return EXIT_OK


def cmd_schur(args) -> int:
    fd = _load(args.ring)
    if rings.is_commutative(fd):
        ct = spectral.character_table(fd)
        rep = criteria.schur_commutative(ct)
        print(rep)
        if args.all_triples:
            for (a, b, c), v in zip(criteria._sorted_triples(ct.rank), rep.values):
                print(f"  ({a + 1},{b + 1},{c + 1}) -> {v:.12g}")
        ok = rep.holds
    else:
        if args.all_triples:
            print("--all-triples: a noncommutative ring has no character table "
                  "to list", file=sys.stderr)
        print("noncommutative ring: sampling falsifier "
              f"({args.samples} samples, seed {args.seed})", file=sys.stderr)
        witness = criteria.schur_noncommutative_falsify(fd, args.samples, args.seed)
        if witness is None:
            print(f"no counterexample found in {args.samples} samples "
                  "(NOT a proof that the property holds)")
            ok = True
        else:
            print(f"counterexample: value {witness.value:.9g}")
            ok = False
    return EXIT_OK if ok or not args.gate else EXIT_NEGATIVE


def cmd_subrings(args) -> int:
    fd = _load(args.ring)
    subs = rings.proper_subrings(fd)
    print(f"{fd.label or args.ring}: {len(subs)} proper fusion subring(s)")
    for S in subs:
        print("  {" + ", ".join(str(j + 1) for j in sorted(S)) + "}")
    if args.gate and subs:
        return EXIT_NEGATIVE  # not simple
    return EXIT_OK


def _constraints_from(args, max_mult) -> search.SearchConstraints:
    return search.SearchConstraints(
        fpdim=args.fpdim,
        rank=args.rank,
        require_divisibility=args.frobenius,
        require_perfect=args.perfect,
        min_d2=args.min_d2,
        require_gcd_one=args.gcd_one,
        exclude_prime_power_products=args.exclude_ppp,
        growth_cap=args.growth_cap,
        max_multiplicity=max_mult,
    )


def cmd_classify_types(args) -> int:
    types = search.enumerate_types(_constraints_from(args, None))
    for sig in types:
        print(f"{sig}  rank={sig.rank} fpdim={sig.fpdim}")
    print(f"total: {len(types)} type(s)", file=sys.stderr)
    return EXIT_OK


def cmd_classify(args) -> int:
    report = search.classify(
        _constraints_from(args, args.max_mult),
        node_budget=args.budget_nodes,
        wall_budget=args.budget_secs,
        threads=args.threads,
        checkpoint=args.resume,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        rings_shown = []
        for tr in report.types:
            print(f"type {tr.signature}: {len(tr.rings)} ring(s), "
                  f"{len(tr.simple)} simple, {len(tr.schur_pass)} Schur-pass "
                  f"[nodes {tr.stats.nodes}, prune_knapsack {tr.stats.prune_knapsack}, "
                  f"prune_associativity {tr.stats.prune_associativity}, "
                  f"prune_symmetry {tr.stats.prune_symmetry}]")
            shown = tr.simple if args.simple else tr.rings
            if args.schur:  # tr.schur_pass holds the very objects of tr.rings
                passed = {id(fd) for fd in tr.schur_pass}
                shown = [fd for fd in shown if id(fd) in passed]
            rings_shown += shown
        print(f"total rings: {len(rings_shown)}"
              + ("" if report.complete else "  (INCOMPLETE: budget exhausted)"))
        if args.emit:
            for fd in rings_shown:
                print(corpus.serialize_fusion_ring(fd))
    if not report.complete:
        print("warning: search budget exhausted, report is partial", file=sys.stderr)
    return EXIT_OK


def cmd_rank5_family(args) -> int:
    stats = search.SearchStats()
    fam = search.rank5_three_selfadjoint_family(
        args.max_mult, node_budget=args.budget_nodes, stats=stats
    )
    n_simple = sum(1 for fd in fam if rings.is_simple(fd))
    n_fail = sum(
        1
        for fd in fam
        if not criteria.schur_commutative(spectral.character_table(fd)).holds
    )
    print(f"multiplicity <= {args.max_mult}: {len(fam)} ring(s) up to equivalence, "
          f"{n_simple} simple, Schur fails on {n_fail}")
    print(f"nodes: {stats.nodes}  prune_knapsack: {stats.prune_knapsack}  "
          f"prune_associativity: {stats.prune_associativity}  "
          f"prune_symmetry: {stats.prune_symmetry}", file=sys.stderr)
    if args.emit:
        for fd in fam:
            print(corpus.serialize_fusion_ring(fd))
    return EXIT_OK


def cmd_bialg_rank3(args) -> int:
    params = bialgebra.Rank3Type1Params(args.d2, args.d3, args.a)
    res = bialgebra.rank3_dual_schur(params)
    data = res["data"]
    print(f"d2={args.d2} d3={args.d3} a={args.a}")
    print(f"  lambda2={data.lambda2:.10g} lambda3={data.lambda3:.10g}")
    print(f"  nu2={data.nu2:.10g} nu3={data.nu3:.10g}")
    print(f"  dual Schur min over triples: {res['min_value']:.10g} "
          f"at {res['worst_triple']} -> holds={res['holds']}")
    if args.gate and not res["holds"]:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_ineq_suite(args) -> int:
    fd = _load(args.ring)
    bialg = bialgebra.canonical_from_fusion_data(fd)
    rep = bialgebra.inequality_suite(bialg, num_samples=args.samples, seed=args.seed)
    if args.json:
        print(json.dumps(rep.to_dict(), indent=2))
    else:
        print(f"inequality suite on {fd.label or args.ring} "
              f"({args.samples} samples, seed {args.seed}):")
        for c in rep.checks:
            kind = "falsifier" if c.is_falsifier else "theorem"
            print(f"  {c.name:22s} worst slack {c.worst_slack:+.3e} "
                  f"violations {c.violations:4d}  [{kind}]")
        if rep.probes_skipped:
            print(f"targeted dual-projection probes skipped: {rep.probes_skipped}")
        print(f"theorem-backed violations: {rep.theorem_violations}")
    if args.gate and rep.theorem_violations:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_corpus(args) -> int:
    if args.action == "list":
        if args.outdir is not None:
            print("error: --outdir applies to 'corpus export' only", file=sys.stderr)
            return EXIT_USAGE
        for e in corpus.corpus():
            alias = f" ({', '.join(e.aliases)})" if e.aliases else ""
            group = f" group={e.group}" if e.group else ""
            print(f"{e.id}{alias}: rank {e.fd.rank}, type {e.expected_type}{group}")
    elif args.action == "export":
        outdir = "." if args.outdir is None else args.outdir
        os.makedirs(outdir, exist_ok=True)
        for e in corpus.corpus():
            path = os.path.join(outdir, f"{e.id}.frt")
            with open(path, "w") as f:
                f.write(corpus.serialize_fusion_ring(e.fd, label=e.id))
        print(f"exported {len(corpus.corpus())} rings to {outdir}", file=sys.stderr)
    return EXIT_OK


def _at_least(kind, minimum):
    """An argparse ``type``: ``kind(text)``, at least ``minimum`` (0 or 1)."""
    def parse(text):
        value = kind(text)
        if not value >= minimum:  # also rejects a NaN
            raise argparse.ArgumentTypeError(
                f"must be {'positive' if minimum else 'nonnegative'}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fusionforge",
        description="fusion rings, categorification obstructions, classification search",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def ring_cmd(name, fn, **kw):
        q = sub.add_parser(name, **kw)
        q.add_argument("ring", help="corpus id, alias, or FRT file path")
        q.set_defaults(fn=fn)
        return q

    verify = ring_cmd("verify", cmd_verify, help="check the fusion ring axioms")
    q = ring_cmd("info", cmd_info, help="predicates and obstruction summary")
    q.add_argument("--json", action="store_true")
    q = ring_cmd("chartable", cmd_chartable, help="character table")
    q.add_argument("--json", action="store_true")
    q.add_argument("--csv", action="store_true")
    schur = ring_cmd("schur", cmd_schur, help="Schur product criterion")
    schur.add_argument("--all-triples", action="store_true")
    schur.add_argument("--samples", type=_at_least(int, 0), default=criteria.FALSIFIER_SAMPLES)
    subrings = ring_cmd("subrings", cmd_subrings, help="proper fusion subrings")

    def search_flags(q):
        q.add_argument("--fpdim", type=_at_least(int, 1), required=True)
        q.add_argument("--rank", type=_at_least(int, 1))
        q.add_argument("--perfect", action="store_true")
        q.add_argument("--frobenius", action="store_true",
                       help="require every dimension to divide FPdim")
        q.add_argument("--min-d2", type=int, default=1)
        q.add_argument("--gcd-one", action="store_true")
        q.add_argument("--exclude-ppp", action="store_true",
                       help="skip FPdim of the form p^a q^b or pqr")
        q.add_argument("--growth-cap", action="store_true")

    q = sub.add_parser("classify-types", help="enumerate candidate types")
    search_flags(q)
    q.set_defaults(fn=cmd_classify_types)

    q = sub.add_parser("classify", help="full classification search")
    search_flags(q)
    q.add_argument("--max-mult", type=_at_least(int, 0))
    q.add_argument("--simple", action="store_true")
    q.add_argument("--schur", action="store_true")
    q.add_argument("--json", action="store_true")
    q.add_argument("--emit", action="store_true", help="print found rings as FRT")
    q.add_argument("--budget-nodes", type=_at_least(int, 0), default=10**9)
    q.add_argument("--budget-secs", type=_at_least(float, 0))
    q.add_argument("--resume", metavar="FILE",
                   help="JSONL checkpoint of completed (type, involution) units")
    q.add_argument("--threads", type=_at_least(int, 1), default=1, help="worker processes")
    q.set_defaults(fn=cmd_classify)

    q = sub.add_parser("rank5-family",
                       help="rank-5 rings with exactly three self-adjoint objects")
    q.add_argument("--max-mult", type=_at_least(int, 0), required=True)
    q.add_argument("--emit", action="store_true")
    q.add_argument("--budget-nodes", type=_at_least(int, 0), default=10**10)
    q.set_defaults(fn=cmd_rank5_family)

    rank3 = sub.add_parser("bialg-rank3", help="rank-3 dual Schur test")
    rank3.add_argument("--d2", type=float, required=True)
    rank3.add_argument("--d3", type=float, required=True)
    rank3.add_argument("--a", type=float, required=True)
    rank3.set_defaults(fn=cmd_bialg_rank3)

    ineq = ring_cmd("ineq-suite", cmd_ineq_suite,
                    help="run the Fourier-analytic inequality checkers")
    ineq.add_argument("--samples", type=_at_least(int, 1), default=1000)
    ineq.add_argument("--json", action="store_true")

    # the shared flags, each on exactly the commands that read it
    for q in (verify, schur, subrings, rank3, ineq):
        q.add_argument("--gate", action="store_true", help="exit 1 on a mathematical negative")
    for q in (schur, ineq):
        q.add_argument("--seed", type=_at_least(int, 0), default=0,
                       help="seed of the random samples")

    q = sub.add_parser("corpus", help="list or export the embedded corpus")
    q.add_argument("action", choices=["list", "export"])
    q.add_argument("--outdir", help="directory for 'export' (default: the current one)")
    q.set_defaults(fn=cmd_corpus)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except SearchTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (FusionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

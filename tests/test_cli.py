import argparse
import glob
import json
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from fusionforge import corpus, criteria, rings, search, spectral
from fusionforge.cli import EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, build_parser, main
from test_bialgebra import _s3_group_ring

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def s3_file(tmp_path):
    """The group ring of S3, the smallest noncommutative fusion ring, as an FRT file."""
    path = tmp_path / "s3.frt"
    path.write_text(corpus.serialize_fusion_ring(_s3_group_ring()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_verify_psl25(self, capsys):
        code, out, _ = run(capsys, "verify", "psl25")
        assert code == EXIT_OK
        assert "associativity: ok" in out

    def test_info_json(self, capsys):
        code, out, _ = run(capsys, "info", "--json", "f660")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["simple"] is True and payload["schur_holds"] is True

    def test_info_text(self, capsys):
        code, out, _ = run(capsys, "info", "psl25")
        assert code == EXIT_OK
        assert "  FPdim: 60\n" in out and "  simple: True" in out
        assert "  schur: Schur product criterion holds" in out
        assert "schur falsifier" not in out  # commutative: the character table decides

    def test_info_noncommutative_reports_falsifier(self, capsys, s3_file):
        code, out, _ = run(capsys, "info", s3_file)
        assert code == EXIT_OK
        assert "  commutative: False" in out
        assert ("  schur falsifier: no counterexample in 10000 samples (NOT a proof)\n"
                in out)
        code, out, err = run(capsys, "schur", s3_file, "--samples", "500", "--gate")
        assert code == EXIT_OK
        assert "sampling falsifier (500 samples" in err
        assert "no counterexample found in 500 samples (NOT a proof" in out

    def test_schur_ruled_out(self, capsys):
        code, out, _ = run(capsys, "schur", "r7-210-ruledout")
        assert code == EXIT_OK
        assert "-1.54761905" in out

    def test_schur_all_triples(self, capsys):
        code, out, _ = run(capsys, "schur", "--all-triples", "r7-210-ruledout")
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if ln.startswith("  (")]
        m = 7
        assert len(lines) == m * (m + 1) * (m + 2) // 6
        triples = [tuple(int(i) for i in ln.split(")")[0].strip(" (").split(",")) for ln in lines]
        assert triples == sorted(triples) and all(a <= b <= c for a, b, c in triples)
        values = [float(ln.split("->")[1]) for ln in lines]
        assert abs(min(values) - (-65.0 / 42.0)) <= 1e-8

    def test_schur_all_triples_on_noncommutative_ring(self, capsys, s3_file):
        """The falsifier runs as without the flag, and one stderr line says
        there is no character table to list."""
        plain = run(capsys, "schur", s3_file, "--samples", "50")
        code, out, err = run(capsys, "schur", s3_file, "--samples", "50", "--all-triples")
        assert (code, out) == plain[:2]
        assert err == ("--all-triples: a noncommutative ring has no character table "
                       "to list\n" + plain[2])

    def test_schur_gate_exit(self, capsys):
        code, _, _ = run(capsys, "schur", "r7-210-ruledout", "--gate")
        assert code == EXIT_NEGATIVE
        code, _, _ = run(capsys, "schur", "f210", "--gate")
        assert code == EXIT_OK

    def test_chartable_csv(self, capsys):
        code, out, _ = run(capsys, "chartable", "--csv", "z4")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 4

    def test_chartable_json(self, capsys):
        code, out, _ = run(capsys, "chartable", "--json", "z3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["rank"] == 3 and payload["residual"] < 1e-9
        lam = np.array([[complex(*z) for z in row] for row in payload["table"]])
        assert np.allclose(lam[:, 0], 1) and np.allclose(lam[0], 1)
        assert np.allclose(lam.conj().T @ lam, 3 * np.eye(3))

    def test_verify_gate_on_failing_axiom(self, capsys, tmp_path):
        """x2 x2 = 1, x3 x3 = 1 and x2 x3 = 0 pass every check but associativity."""
        p = tmp_path / "nonassoc.frt"
        p.write_text("frt 1\nrank 3\ndual 1 2 3\nmatrix 1\n1 0 0\n0 1 0\n0 0 1\n"
                     "matrix 2\n0 1 0\n1 0 0\n0 0 0\nmatrix 3\n0 0 1\n0 0 0\n1 0 0\n")
        code, out, _ = run(capsys, "verify", str(p))
        assert code == EXIT_OK and "associativity: FAIL at (2, 2, 3, 3)" in out
        code, gated, _ = run(capsys, "verify", str(p), "--gate")
        assert code == EXIT_NEGATIVE and gated == out

    def test_subrings(self, capsys):
        code, out, _ = run(capsys, "subrings", "z4")
        assert code == EXIT_OK and "{1, 3}" in out
        gated = run(capsys, "subrings", "z4", "--gate")
        assert gated == (EXIT_NEGATIVE, out, "")  # z4 is not simple

    def test_chartable_text_prints_complex_values(self, capsys):
        code, out, _ = run(capsys, "chartable", "z3")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("character table of z3 (residual ")
        assert lines[1].split() == ["1", "1", "1"]
        assert sorted(lines[2].split()[1:]) == ["-0.5+0.866025403784i", "-0.5-0.866025403784i"]

    def test_classify_budget_exhausted_warns(self, capsys):
        code, out, err = run(capsys, "classify", "--fpdim", "210", "--rank", "7", "--perfect",
                             "--frobenius", "--min-d2", "3", "--gcd-one", "--exclude-ppp",
                             "--growth-cap", "--budget-nodes", "64")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "total rings: 0  (INCOMPLETE: budget exhausted)"
        assert err == "warning: search budget exhausted, report is partial\n"

    def test_unknown_ring(self, capsys):
        code, _, err = run(capsys, "verify", "definitely-not-a-ring")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "no-such-command")
        assert code == EXIT_USAGE

    def test_ring_path_is_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", str(tmp_path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_file_input(self, capsys, tmp_path, psl25):
        p = tmp_path / "ring.frt"
        p.write_text(corpus.serialize_fusion_ring(psl25))
        code, out, _ = run(capsys, "verify", str(p))
        assert code == EXIT_OK


class TestSearchCommands:
    def test_classify_types(self, capsys):
        code, out, _ = run(
            capsys, "classify-types", "--fpdim", "60", "--rank", "5",
            "--perfect", "--frobenius",
        )
        assert code == EXIT_OK
        assert out.strip() == "[[1,1],[3,2],[4,1],[5,1]]  rank=5 fpdim=60"

    def test_classify_60(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--fpdim", "60", "--rank", "5", "--perfect",
            "--frobenius", "--min-d2", "3", "--gcd-one", "--exclude-ppp",
            "--growth-cap", "--simple", "--json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["complete"] is True
        assert sum(t["rings_found"] for t in payload["types"]) == 1
        assert sum(t["prune_symmetry"] for t in payload["types"]) > 0

    def test_classify_schur_emit(self, capsys):
        """Of the two FPdim-21 rank-5 rings, --schur lists and --emit prints
        the one that passes the Schur criterion."""
        argv = ("classify", "--fpdim", "21", "--rank", "5")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK and "2 ring(s), 0 simple, 1 Schur-pass" in out
        code, out, _ = run(capsys, *argv, "--schur", "--emit")
        assert code == EXIT_OK
        _, text = out.split("total rings: 1\n")
        fd = corpus.parse_fusion_ring(text)
        assert fd.rank == 5 and rings.type_signature(fd).fpdim == 21
        assert criteria.schur_commutative(spectral.character_table(fd)).holds

    def test_classify_text_reports_symmetry_prunes(self, capsys):
        code, out, _ = run(capsys, "classify", "--fpdim", "60", "--rank", "5", "--perfect",
                           "--frobenius")
        assert code == EXIT_OK
        assert ("[nodes 91, prune_knapsack 211, prune_associativity 4, prune_symmetry 5]"
                in out)

    def test_classify_bad_checkpoint(self, capsys, tmp_path):
        ckpt = tmp_path / "run.jsonl"
        ckpt.write_text("not json\n{}\n")
        code, _, err = run(capsys, "classify", "--fpdim", "6", "--rank", "3",
                           "--resume", str(ckpt))
        assert code == EXIT_USAGE
        assert "line 1: bad checkpoint record" in err

    def test_classify_unusable_checkpoint_path(self, capsys, tmp_path):
        """A checkpoint path that is a directory, or a file under a missing
        directory, is a usage error with one line, not a traceback."""
        for path in (tmp_path, tmp_path / "missing" / "run.jsonl"):
            code, out, err = run(capsys, "classify", "--fpdim", "6", "--rank", "3",
                                 "--resume", str(path))
            assert code == EXIT_USAGE and out == "", path
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err

    def test_negative_max_mult_is_a_usage_error(self, capsys):
        """A count, budget or size below its least meaningful value is
        rejected at parse time, naming the option."""
        classify = ("classify", "--fpdim", "60", "--rank", "5")
        for argv, message in (
            (classify + ("--max-mult", "-2"), "--max-mult: must be nonnegative"),
            (("rank5-family", "--max-mult", "-1"), "--max-mult: must be nonnegative"),
            (("ineq-suite", "psl25", "--samples", "-5"), "--samples: must be positive"),
            (("ineq-suite", "psl25", "--samples", "0"), "--samples: must be positive"),
            (("ineq-suite", "psl25", "--seed", "-1"), "--seed: must be nonnegative"),
            (("schur", "psl25", "--samples", "-1"), "--samples: must be nonnegative"),
            (("schur", "psl25", "--seed", "-1"), "--seed: must be nonnegative"),
            (classify + ("--budget-nodes", "-3"), "--budget-nodes: must be nonnegative"),
            (("rank5-family", "--max-mult", "1", "--budget-nodes", "-3"),
             "--budget-nodes: must be nonnegative"),
            (classify + ("--budget-secs", "-1"), "--budget-secs: must be nonnegative"),
            (classify + ("--budget-secs", "nan"), "--budget-secs: must be nonnegative"),
            (classify + ("--threads", "-2"), "--threads: must be positive"),
            (classify + ("--threads", "0"), "--threads: must be positive"),
            (("classify", "--fpdim", "-5"), "--fpdim: must be positive"),
            (("classify-types", "--fpdim", "0"), "--fpdim: must be positive"),
            (classify[:3] + ("--rank", "0"), "--rank: must be positive"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_USAGE and out == "", argv
            assert f"argument {message}" in err, err

    def test_rank5_family_smoke(self, capsys):
        code, out, err = run(capsys, "rank5-family", "--max-mult", "1")
        assert code == EXIT_OK
        assert "5 ring(s)" in out
        assert all(f"{k}: " in err for k in ("prune_knapsack", "prune_associativity",
                                             "prune_symmetry"))

    def test_rank5_family_counts(self, capsys):
        """The paper's rank-5 numbers at multiplicity 4."""
        code, out, _ = run(capsys, "rank5-family", "--max-mult", "4")
        assert code == EXIT_OK
        assert out == ("multiplicity <= 4: 47 ring(s) up to equivalence, 4 simple, "
                       "Schur fails on 6\n")

    def test_rank5_family_emit(self, capsys):
        code, out, _ = run(capsys, "rank5-family", "--max-mult", "1", "--emit")
        assert code == EXIT_OK
        texts = [t.split("\n", 1)[1] for t in out.split("# r5sa-")[1:]]  # drop the label
        assert [corpus.parse_fusion_ring(t) for t in texts] == \
            search.rank5_three_selfadjoint_family(1)

    def test_search_timeout_exits_1(self, capsys):
        code, out, err = run(capsys, "rank5-family", "--max-mult", "4", "--budget-nodes", "10")
        assert (code, out, err) == (EXIT_NEGATIVE, "", "error: node budget 10 exhausted\n")

    def test_bialg_rank3(self, capsys):
        code, out, _ = run(
            capsys, "bialg-rank3", "--d2", "1000", "--d3", "500",
            "--a", "0.750001", "--gate",
        )
        assert code == EXIT_NEGATIVE
        assert "holds=False" in out
        for d2 in ("nan", "inf"):
            code, out, err = run(capsys, "bialg-rank3", "--d2", d2, "--d3", "500", "--a", "0.5")
            assert code == EXIT_USAGE and out == ""
            assert err == (f"error: Rank3Type1Params(d2={d2}, d3=500.0, a=0.5): "
                           "d2, d3 and a must be finite\n")

    def test_ineq_suite(self, capsys):
        code, out, _ = run(capsys, "ineq-suite", "z5", "--samples", "20")
        assert code == EXIT_OK
        assert "theorem-backed violations: 0" in out
        assert "probes skipped" not in out

    def test_ineq_suite_reports_skipped_probes(self, capsys, s3_file):
        code, out, _ = run(capsys, "ineq-suite", s3_file, "--samples", "5")
        assert code == EXIT_OK
        assert "targeted dual-projection probes skipped: NotCommutative" in out
        code, out, _ = run(capsys, "ineq-suite", "--json", s3_file, "--samples", "5")
        assert json.loads(out)["probes_skipped"].startswith("NotCommutative")


class TestCorpusCommands:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "corpus", "list")
        assert code == EXIT_OK
        assert "si60-1 (psl25)" in out

    def test_list_rejects_outdir(self, capsys, tmp_path):
        code, out, err = run(capsys, "corpus", "list", "--outdir", str(tmp_path / "none"))
        assert code == EXIT_USAGE and out == ""
        assert "--outdir" in err and err.startswith("error: ")

    def test_export_and_reload(self, capsys, tmp_path):
        code, _, err = run(capsys, "corpus", "export", "--outdir", str(tmp_path))
        assert code == EXIT_OK
        reloaded = corpus.load_fusion_ring(tmp_path / "si60-1.frt")
        assert reloaded == corpus.get("psl25").fd

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "chartable", "f210")
        _, out2, _ = run(capsys, "chartable", "f210")
        assert out1 == out2


class TestSurface:
    def test_each_option_on_the_commands_that_read_it(self):
        """Every subcommand accepts exactly the options it reads; the
        top-level parser takes only the help flag."""
        search = {"--fpdim", "--rank", "--perfect", "--frobenius", "--min-d2",
                  "--gcd-one", "--exclude-ppp", "--growth-cap"}
        expected = {
            "verify": {"--gate"},
            "info": {"--json"},
            "chartable": {"--json", "--csv"},
            "schur": {"--all-triples", "--samples", "--gate", "--seed"},
            "subrings": {"--gate"},
            "classify-types": search,
            "classify": search | {"--max-mult", "--simple", "--schur", "--json", "--emit",
                                  "--budget-nodes", "--budget-secs", "--resume",
                                  "--threads"},
            "rank5-family": {"--max-mult", "--emit", "--budget-nodes"},
            "bialg-rank3": {"--d2", "--d3", "--a", "--gate"},
            "ineq-suite": {"--samples", "--json", "--gate", "--seed"},
            "corpus": {"--outdir"},
        }
        parser = build_parser()
        options = lambda p: {s for a in p._actions for s in a.option_strings}
        assert options(parser) == {"-h", "--help"}
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        found = {name: options(q) - {"-h", "--help"} for name, q in sub.choices.items()}
        assert found == expected


def _readme_block(heading):
    """The first fenced block of the README after ``heading``, without its
    language tag."""
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    return text.split(heading, 1)[1].split("```", 2)[1].split("\n", 1)[1]


def _readme_commands():
    """The command lines of the README's "Command line" block, with the
    backslash continuations joined."""
    block = _readme_block("## Command line")
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


class TestDocs:
    def test_readme_commands_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # corpus export writes under the cwd
        failed = []
        for argv in _readme_commands():
            assert argv[0] == "fusionforge", argv
            code, _, err = run(capsys, *argv[1:])
            if code != EXIT_OK:
                failed.append((" ".join(argv), code, err.splitlines()[-1:]))
        assert not failed

    def test_readme_library_tour_runs(self, tmp_path, monkeypatch):
        """The README's Python block runs, and what its comments state holds."""
        monkeypatch.chdir(tmp_path)
        ns = {}
        exec(_readme_block("## Library tour"), ns)
        ff, fd, ct = ns["ff"], ns["fd"], ns["ct"]
        assert ff.verify_axioms(fd).all_ok and ff.rings.is_simple(fd)
        assert np.allclose(ff.fp_dimensions(fd), [1, 3, 3, 4, 5], rtol=0, atol=1e-9)
        assert ff.schur_commutative(ct).holds
        # Schur holds, so the least dual coefficient is 0 up to rounding
        assert ff.dual_fusion_coefficients(fd, ct).min() > -ff.criteria.decision_tol(60)
        assert len(ns["report"].simple_rings) == 15

    @pytest.mark.parametrize("demo", sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))),
                             ids=os.path.basename)
    def test_demo_runs(self, demo):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, demo], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

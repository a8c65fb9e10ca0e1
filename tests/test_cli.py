import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import latstab
from latstab import parse_lattice_file, parse_lattice_text
from latstab.cli import _json, main


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text("2 2\n2 0\n0 1/2\n")
    return str(path)


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


def _source_env() -> dict:
    """The environment with this checkout's latstab first on PYTHONPATH."""
    src = str(Path(latstab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def doc_of(out: str) -> dict:
    doc = json.loads(out)
    assert doc["schema"] == 1
    return doc


class TestEnvelope:
    def test_dual(self, run, mixed_file):
        code, out, _ = run("dual", mixed_file)
        assert code == 0
        doc = doc_of(out)
        assert doc["command"] == "dual"
        assert doc["results"]["dual_basis"] == [["1/2", "0"], ["0", "2"]]
        assert doc["results"]["double_dual_matches"] is True
        assert doc["results"]["display"]["dual_basis"] == [[0.5, 0.0], [0.0, 2.0]]

    def test_deterministic_output(self, run, mixed_file):
        _, first, _ = run("stability-radius", mixed_file, "--delta", "1/4",
                          "--eps2", "1/100", "--restarts", "4")
        _, second, _ = run("stability-radius", mixed_file, "--delta", "1/4",
                           "--eps2", "1/100", "--restarts", "4")
        assert first == second

    def test_timings_opt_in(self, run, mixed_file):
        _, without, _ = run("minima", mixed_file)
        _, with_t, _ = run("minima", mixed_file, "--timings")
        assert "timings" not in doc_of(without)
        assert "wall_s" in doc_of(with_t)["timings"]

    def test_stdin_dash(self, run, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 1\n1\n"))
        code, out, _ = run("dual", "-")
        assert code == 0
        assert doc_of(out)["results"]["dual_basis"] == [["1"]]


class TestCommands:
    def test_json_reads_dataclass_fields(self):
        L = parse_lattice_text("2 2\n2 0\n0 1/2\n")
        latstab.dual(L)  # keeps data on L beside its one field
        assert _json(L) == {"basis": [["2", "0"], ["0", "1/2"]]}

    def test_minima_json_and_csv(self, run, mixed_file):
        _, out, _ = run("minima", mixed_file)
        assert doc_of(out)["results"]["minima_sq"] == ["1/4", "4"]
        _, out, _ = run("minima", mixed_file, "--csv")
        assert out.splitlines() == ["k,minimum_sq,coords", "1,1/4,0 1", "2,4,1 0"]

    def test_reduce_both_kinds(self, run, tmp_path):
        path = tmp_path / "skew.txt"
        path.write_text("2 2\n201 200\n200 199\n")
        _, out, _ = run("reduce", str(path))
        assert doc_of(out)["results"]["norms_sq"] == ["1", "1"]
        _, out, _ = run("reduce", str(path), "--kind", "minkowski")
        assert doc_of(out)["results"]["kind"] == "minkowski"

    def test_svp_with_listing(self, run, mixed_file):
        _, out, _ = run("svp", mixed_file, "--r2", "1")
        doc = doc_of(out)
        assert doc["results"]["norm_sq"] == "1/4"
        assert doc["results"]["within"]["count"] == 2

    def test_svp_csv_without_listing(self, run, mixed_file):
        code, out, _ = run("svp", mixed_file, "--csv")
        assert code == 0
        assert out.splitlines() == ["coords,norm_sq", "0 1,1/4"]

    def test_cvp(self, run, tmp_path):
        path = tmp_path / "z2.txt"
        path.write_text("2 2\n1 0\n0 1\n")
        _, out, _ = run("cvp", str(path), "-x", "2/5 3/5")
        doc = doc_of(out)
        assert doc["results"]["nearest"]["point"] == ["0", "1"]
        assert doc["results"]["nearest"]["dist_sq"] == "8/25"

    def test_covering(self, run, mixed_file):
        _, out, _ = run("covering", mixed_file)
        doc = doc_of(out)
        assert doc["results"]["lower_sq"] == "17/16"
        assert doc["results"]["exact"] is True

    def test_round_and_near_dual(self, run, mixed_file):
        _, out, _ = run("round-dual", mixed_file, "-x", "13/50 0")
        assert doc_of(out)["results"]["rounded"]["point"] == ["1/2", "0"]
        _, out, _ = run("near-dual", mixed_file, "-x", "13/50 0")
        assert doc_of(out)["results"]["nearest"]["point"] == ["1/2", "0"]

    def test_probe_and_stability(self, run, tmp_path):
        path = tmp_path / "z1.txt"
        path.write_text("1 1\n1\n")
        _, out, _ = run("probe", str(path), "--delta", "1/4", "--r2", "4",
                        "--restarts", "4")
        assert doc_of(out)["results"]["f_hat_sq"] == "1/64"
        _, out, _ = run("stability-radius", str(path), "--delta", "1/4",
                        "--eps2", "1/100", "--restarts", "4")
        doc = doc_of(out)
        assert doc["results"]["estimated_r_sq"] == "9"
        assert [g["radius_sq"] for g in doc["results"]["grid"]] == ["1", "4", "9"]
        assert doc["results"]["levels_dropped"] == 0
        _, out, _ = run("stability-radius", str(path), "--delta", "1/4",
                        "--eps2", "1/100", "--restarts", "4", "--max-levels", "2")
        assert doc_of(out)["results"]["levels_dropped"] == 1

    def test_sharpness(self, run, mixed_file):
        code, out, _ = run("sharpness", mixed_file)
        assert code == 0
        doc = doc_of(out)
        assert doc["results"]["dist_sq"] == "1/36"
        assert doc["results"]["holds"] is True

    def test_family_csv(self, run):
        code, out, _ = run("family", "--d", "1,10", "--restarts", "4", "--csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "scale,minimum_sq,dual_minimum_sq,mu_dual_sq,estimated_r_sq"
        assert lines[1].startswith("1,1,1,")
        assert lines[2].startswith("10,1,1/100,101/400,")

    def test_gen_roundtrip(self, run, tmp_path):
        out_path = tmp_path / "g.txt"
        code, out, _ = run("gen", "--seed", "7", "--n", "3", "--m", "2",
                           "-o", str(out_path))
        assert code == 0
        doc = doc_of(out)
        L = parse_lattice_file(str(out_path))
        assert doc["results"]["basis"] == [[str(a) for a in row] for row in L.basis]
        assert parse_lattice_text(doc["results"]["serialized"]).basis == L.basis

    def test_gen_deterministic(self, run):
        _, a, _ = run("gen", "--seed", "11", "--n", "2", "--m", "2")
        _, b, _ = run("gen", "--seed", "11", "--n", "2", "--m", "2")
        assert a == b

    def test_linear_almost_near(self, run):
        _, out, _ = run("linear-almost-near", "--matrix", "1 1", "-b", "1",
                        "-x", "1/2 5")
        doc = doc_of(out)
        assert doc["results"]["y"] == ["-7/4", "11/4"]
        assert doc["results"]["sigma_min_sq_lower"] == "2"


class TestExitCodes:
    def test_hypothesis_verdicts(self, run, mixed_file):
        code, _, _ = run("hypothesis", mixed_file, "-x", "1/6 0",
                         "--delta", "1/3", "--r2", "20")
        assert code == 0
        code, out, _ = run("hypothesis", mixed_file, "-x", "1/2 1/5",
                           "--delta", "1/10", "--r2", "4")
        assert code == 1
        assert doc_of(out)["results"]["holds"] is False

    def test_transference_clean(self, run, mixed_file):
        code, _, _ = run("transference", mixed_file)
        assert code == 0

    def test_missing_file(self, run):
        code, out, err = run("cvp", "/nonexistent/basis.txt", "-x", "1 2")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_malformed_lattice(self, run, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0\n0 x\n")
        code, _, err = run("dual", str(path))
        assert code == 2
        assert "rational token" in err

    def test_budget_exhaustion(self, run, mixed_file, monkeypatch):
        monkeypatch.setenv("LATSTAB_NODE_BUDGET", "3")
        code, _, err = run("minima", mixed_file)
        assert code == 2
        assert "budget" in err

    def test_bad_budget_env(self, run, monkeypatch):
        monkeypatch.setenv("LATSTAB_NODE_BUDGET", "lots")
        code, _, err = run("dual", "-")
        assert code == 2
        assert "LATSTAB_NODE_BUDGET" in err

    def test_usage_error(self, run):
        code, _, _ = run("reduce")
        assert code == 2

    def test_bad_rational_flag(self, run, mixed_file):
        code, _, _ = run("hypothesis", mixed_file, "-x", "0 0",
                         "--delta", "0.25", "--r2", "1")
        assert code == 2

    def test_exact_covering_above_rank_cap(self, run, tmp_path):
        path = tmp_path / "z4.txt"
        rows = "\n".join(" ".join("1" if i == j else "0" for j in range(4))
                         for i in range(4))
        path.write_text(f"4 4\n{rows}\n")
        code, _, err = run("covering", str(path), "--mode", "exact")
        assert code == 2
        assert "rank" in err

    def test_near_dual_outside_span(self, run, tmp_path):
        path = tmp_path / "plane.txt"
        path.write_text("3 2\n1 0 0\n0 1 0\n")
        code, out, err = run("near-dual", str(path), "-x", "0 0 1")
        assert (code, out) == (2, "")
        assert err == "error: target is outside span(L)\n"
        code, _, err = run("cvp", str(path), "-x", "0 0 1")
        assert code == 2 and err.endswith("rerun with --project\n")

    @pytest.mark.parametrize("argv", [
        ("cvp", "-x", "1 2 3"),
        ("near-dual", "-x", "1 2 3"),
        ("hypothesis", "-x", "1 2 3", "--delta", "1/4", "--r2", "4"),
        ("round-dual", "-x", "1 2 3"),
    ])
    def test_dimension_mismatch(self, run, mixed_file, argv):
        code, out, err = run(argv[0], mixed_file, *argv[1:])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "entries" in err

    def test_linear_shape_mismatch(self, run):
        code, out, err = run("linear-almost-near", "--matrix", "1 1", "-b", "1", "-x", "1 2 3")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "shape" in err

    @pytest.mark.parametrize("argv", [
        ("dual", "L/x"),
        ("gen", "--seed", "7", "--n", "3", "--m", "3", "-o", "L/out"),
    ])
    def test_os_error(self, run, mixed_file, argv):
        # mixed.txt is a file, so a path under it is NotADirectoryError
        code, out, err = run(*[a.replace("L", mixed_file) for a in argv])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "Not a directory" in err

    def test_dimension_mismatch_under_optimize(self, mixed_file):
        # -O strips asserts, so the check must be an explicit error
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "latstab.cli", "cvp", mixed_file, "-x", "1 2 3"],
            capture_output=True, text=True, env=_source_env(), timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.count("\n") == 1 and "entries" in proc.stderr

    @pytest.mark.parametrize("extra", [(), ("--csv",)])
    def test_reader_closes_stdout_early(self, extra):
        # about 200 KB of CSV and 1.8 MB of JSON, far more than a pipe holds,
        # so a write meets the closed pipe
        mixed = str(Path(__file__).parent / "golden" / "mixed.txt")
        proc = subprocess.Popen(
            [sys.executable, "-m", "latstab.cli", "svp", mixed, "--r2", "10000", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_source_env())
        try:
            head = proc.stdout.read(10)
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()
        assert head == (b"coords,nor" if extra else b'{\n  "budge')

    @pytest.mark.parametrize("budget_env, argv", [
        (None, ("stability-radius", "L", "--delta", "1/4", "--eps2", "1/100",
                "--max-levels", "0")),
        (None, ("probe", "L", "--delta", "1/4", "--r2", "4", "--iters", "0")),
        (None, ("probe", "L", "--delta", "1/4", "--r2", "4", "--restarts", "-1")),
        (None, ("covering", "L", "--mode", "heuristic", "--restarts", "-1")),
        (None, ("family", "--restarts", "-1")),
        (None, ("minima", "L", "--node-budget", "0")),
        (None, ("minima", "L", "--node-budget", "-1")),
        ("0", ("minima", "L")),
        (None, ("family", "--d", "")),
        (None, ("family", "--d", ",")),
    ])
    def test_bad_counts(self, run, mixed_file, monkeypatch, budget_env, argv):
        if budget_env is not None:
            monkeypatch.setenv("LATSTAB_NODE_BUDGET", budget_env)
        code, out, err = run(*[mixed_file if a == "L" else a for a in argv])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "at least" in err


GOLDEN = Path(__file__).parent / "golden"
RATIONALS = ["1/4", "1/5", "1/100", "4", "0", "-3", "0.25", "x", ""]
VECTORS = ["1/3 0", "2/5 3/5", "1/2 1/5", "1 2 3", "1 a", ""]
COUNTS = ["1", "3", "0", "-1", "x"]
MIXED = str(GOLDEN / "mixed.txt")
LATTICES = [MIXED, MIXED, str(GOLDEN / "g732.txt"), str(GOLDEN / "missing.txt"), str(GOLDEN),
            os.path.join(MIXED, "x"), None]
# subcommand -> (takes a lattice, {flag: tokens, or None for a switch}); the
# restart and level counts are always given, so that no run is expensive
FUZZ_FLAGS = {
    "dual": (True, {}),
    "minima": (True, {"--csv": None, "--node-budget": COUNTS}),
    "reduce": (True, {"--kind": ["lll", "minkowski", "other"], "--delta": RATIONALS}),
    "svp": (True, {"--r2": RATIONALS, "--csv": None}),
    "cvp": (True, {"-x": VECTORS, "--project": None}),
    "covering": (True, {"--mode": ["exact", "heuristic"], "--restarts": ["0", "0", "-1"],
                        "--seed": COUNTS}),
    "transference": (True, {"--seed": COUNTS}),
    "hypothesis": (True, {"-x": VECTORS, "--delta": RATIONALS, "--r2": RATIONALS}),
    "round-dual": (True, {"-x": VECTORS}),
    "near-dual": (True, {"-x": VECTORS}),
    "probe": (True, {"--delta": RATIONALS, "--r2": RATIONALS, "--restarts": ["0", "0", "-1"],
                     "--iters": COUNTS}),
    "stability-radius": (True, {"--delta": RATIONALS, "--eps2": RATIONALS,
                                "--restarts": ["0"], "--max-levels": ["1", "0", "-1"],
                                "--csv": None}),
    "sharpness": (True, {"--r2": RATIONALS}),
    "family": (False, {"--c": RATIONALS, "--d": ["1,10", "1/2", "", ",", "3,x"],
                       "--delta": RATIONALS, "--eps2": RATIONALS,
                       "--restarts": ["0", "0", "-1"], "--csv": None}),
    "gen": (False, {"--seed": COUNTS, "--n": COUNTS, "--m": COUNTS,
                    "--entry-bound": COUNTS, "--min-l1sq": RATIONALS}),
    "linear-almost-near": (False, {"--matrix": ["1 1", "1 0; 0 1", "1 2; 2 4", "1 2; 3", ";"],
                                   "-b": VECTORS, "-x": VECTORS, "--seed": COUNTS}),
}
ALWAYS = {"--restarts", "--max-levels"}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    takes_lattice, flags = FUZZ_FLAGS[command]
    argv = [command]
    if takes_lattice and (path := draw(st.sampled_from(LATTICES))) is not None:
        argv.append(path)
    for flag, tokens in flags.items():
        if flag in ALWAYS or draw(st.integers(0, 3)):
            argv += [flag] if tokens is None else [flag, draw(st.sampled_from(tokens))]
    return argv


@settings(max_examples=150, derandomize=True)  # the same argv on every run
@given(cli_argv())
def test_fuzz_exit_codes(argv):
    """Any argv exits 0, 1 or 2, never with a traceback; exit 2 is one line.
    main runs in process, so an exception it lets out fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"LATSTAB_NODE_BUDGET": "5000"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        if "--csv" not in argv:
            assert doc_of(out.getvalue())["command"] == argv[0]

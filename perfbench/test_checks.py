"""The benchmark's checks accept real latstab output and reject corrupted output.

    python3 -m pytest perfbench -q
"""

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from latstab import random_lattice, serialize_lattice  # noqa: E402
from latstab.cli import main  # noqa: E402

SKEW = ((F(3), F(1)), (F(1), F(4)))


def cli_json(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def sweep_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "skew.txt"
    path.write_text("2 2\n3 1\n1 4\n")
    return cli_json("stability-radius", str(path), "--delta", "1/4", "--eps2", "1/100",
                    "--max-levels", "6", "--restarts", "4")


def test_stability_radius_output_passes(sweep_doc):
    assert workloads.check_stability_radius(sweep_doc, SKEW, F(1, 4), F(1, 100)) == []


def test_witness_nudged_off_the_feasible_set_is_rejected(sweep_doc):
    doc = copy.deepcopy(sweep_doc)
    level = doc["results"]["grid"][-1]
    x = [F(a) for a in level["witness"]]
    u = SKEW[0]
    # move u.x by 3/10, more than delta away from where it was
    shift = F(3, 10) / oracle.dot(u, u)
    level["witness"] = [str(a + shift * b) for a, b in zip(x, u)]
    problems = workloads.check_stability_radius(doc, SKEW, F(1, 4), F(1, 100))
    assert any("violates the hypothesis" in p for p in problems)


def test_wrong_f_hat_is_rejected(sweep_doc):
    doc = copy.deepcopy(sweep_doc)
    level = doc["results"]["grid"][0]
    level["f_hat_sq"] = str(F(level["f_hat_sq"]) * F(99, 100))
    problems = workloads.check_stability_radius(doc, SKEW, F(1, 4), F(1, 100))
    assert any("not the witness's distance" in p for p in problems)


def test_non_reduced_basis_is_rejected(tmp_path):
    L = random_lattice(5, 6, 6)
    path = tmp_path / "b.txt"
    path.write_text(serialize_lattice(L))
    ref = workloads._Reference(L.basis)
    doc = cli_json("reduce", str(path), "--kind", "lll")
    assert ref.check_lll(doc) == []
    bad = [[F(a) for a in r] for r in doc["results"]["basis"]]
    bad[1] = [a + b for a, b in zip(bad[1], bad[0])]  # same lattice, not size reduced
    doc["results"]["basis"] = [[str(a) for a in r] for r in bad]
    doc["results"]["norms_sq"] = [str(oracle.dot(r, r)) for r in bad]
    problems = ref.check_lll(doc)
    assert any("mu[1][0]" in p for p in problems)


def test_reference_lll_matches_latstab():
    from latstab import lll

    for seed in range(3):
        B = random_lattice(seed, 7, 7).basis
        assert oracle.lll(B)[0] == lll(random_lattice(seed, 7, 7)).basis


def test_z2_fault_is_refuted_only_at_the_smaller_epsilon():
    wrong = cli_json("family", "--c", "1", "--d", "1", "--eps2", "1/120")
    problems = workloads.check_family(wrong, F(1), F(1), F(1, 4), F(1, 120))
    assert len(problems) == 1 and "probe underestimates" in problems[0]
    fine = cli_json("family", "--c", "1", "--d", "1", "--restarts", "4")
    assert workloads.check_family(fine, F(1), F(1), F(1, 4), F(1, 100)) == []


def test_box_scan_matches_a_direct_count():
    # up to sign, Z^2 has 2, 2, 2 and 4 vectors of norm^2 1, 2, 4 and 5
    Z2 = ((F(1), F(0)), (F(0), F(1)))
    assert [q for _, q in oracle.box_vectors(Z2, 5)] == [1, 1, 2, 2, 4, 4, 5, 5, 5, 5]
    assert oracle.nearest_dist_sq(Z2, (F(1, 3), F(1, 2))) == F(1, 9) + F(1, 4)

"""Command line front end.

Every command reads exact rational input ("p/q" tokens), computes exactly,
and prints one JSON document: rationals appear as "p/q" strings with float
counterparts under "display" keys. Output for a given input is byte for
byte deterministic unless --timings is requested. Commands that evaluate a
claim (hypothesis, transference) exit 1 when the claim fails; usage,
parse, and resource errors exit 2.

    latstab gen --seed 7 --n 3 --m 3 -o basis.txt
    latstab dual basis.txt
    latstab stability-radius basis.txt --delta 1/4 --eps2 1/100
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from fractions import Fraction
from math import sqrt

from . import __version__, linalg
from .enumeration import (
    DEFAULT_NODE_BUDGET,
    NearResult,
    closest_vector,
    covering_radius,
    list_vectors,
    shortest_vector,
    successive_minima,
)
from .errors import LatticeError, NotInSpan, ParseError
from .generate import random_lattice
from .latfile import (
    parse_lattice_file,
    parse_lattice_text,
    parse_rational,
    parse_vector,
    serialize_lattice,
    write_lattice_file,
)
from .lattice import Lattice, double_dual_check, dual
from .reduction import DEFAULT_DELTA, lll, minkowski_reduce
from .stability import (
    ProbeConfig,
    check_hypothesis,
    degenerate_family,
    near_dual_vector,
    probe_worst_distance,
    residual_amplification,
    round_in_dual_coordinates,
    sharpness_witness,
    stability_radius,
    transference_check,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_ERROR = 2


def _rat(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _rats(v) -> list[str]:
    return [_rat(a) for a in v]


def _ratm(M) -> list[list[str]]:
    return [_rats(row) for row in M]


def _fls(v) -> list[float]:
    return [float(a) for a in v]


def _near(r: NearResult) -> dict:
    return {
        "coords": list(r.coords),
        "point": _rats(r.point),
        "dist_sq": _rat(r.dist_sq),
        "display": {"point": _fls(r.point), "dist": sqrt(float(r.dist_sq))},
    }


def _load_lattice(path: str) -> Lattice:
    if path == "-":
        return parse_lattice_text(sys.stdin.read())
    return parse_lattice_file(path)


def _arg_rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ParseError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _arg_rational_list(text: str) -> list[Fraction]:
    return [_arg_rational(tok) for tok in text.split(",") if tok]


def _arg_count(least: int):
    """argparse type for an integer of at least `least`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return parse


_positive = _arg_count(1)
_nonnegative = _arg_count(0)


def _env_budget() -> int:
    raw = os.environ.get("LATSTAB_NODE_BUDGET")
    try:
        return DEFAULT_NODE_BUDGET if raw is None else _positive(raw)
    except argparse.ArgumentTypeError as e:
        raise ParseError(f"LATSTAB_NODE_BUDGET {e}") from None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, exit code 2."""

    def error(self, message):
        self.exit(EXIT_ERROR, f"error: {message}\n")


def _cmd_dual(args):
    L = _load_lattice(args.lattice)
    W = dual(L)
    results = {
        "dual_basis": _ratm(W.basis),
        "double_dual_matches": double_dual_check(L),
        "display": {"dual_basis": [_fls(r) for r in W.basis]},
    }
    doc = {"command": "dual", "inputs": {"basis": _ratm(L.basis)}, "results": results}
    return doc, EXIT_OK, None


def _cmd_minima(args):
    L = _load_lattice(args.lattice)
    mins = successive_minima(L, node_budget=args.node_budget)
    results = {
        "minima_sq": _rats(mins.minima_sq),
        "achieving_coords": [list(c) for c in mins.achieving_vectors],
        "display": {"minima": [sqrt(float(q)) for q in mins.minima_sq]},
    }
    doc = {
        "command": "minima",
        "inputs": {"basis": _ratm(L.basis)},
        "results": results,
        "budgets": {"node_budget": args.node_budget},
    }
    rows = [["k", "minimum_sq", "coords"]]
    rows += [[k + 1, _rat(q), " ".join(map(str, c))]
             for k, (q, c) in enumerate(zip(mins.minima_sq, mins.achieving_vectors))]
    return doc, EXIT_OK, rows


def _cmd_reduce(args):
    L = _load_lattice(args.lattice)
    if args.kind == "lll":
        red = lll(L, args.delta)
    else:
        red = minkowski_reduce(L, node_budget=args.node_budget)
    results = {
        "kind": red.kind,
        "basis": _ratm(red.basis),
        "norms_sq": _rats(red.norms_sq),
        "parameter": _rat(red.parameter) if red.parameter is not None else None,
        "display": {"basis": [_fls(r) for r in red.basis],
                    "norms": [sqrt(float(q)) for q in red.norms_sq]},
    }
    doc = {"command": "reduce", "inputs": {"basis": _ratm(L.basis), "kind": args.kind},
           "results": results, "budgets": {"node_budget": args.node_budget}}
    return doc, EXIT_OK, None


def _cmd_svp(args):
    L = _load_lattice(args.lattice)
    coords, nsq = shortest_vector(L, node_budget=args.node_budget)
    v = linalg.vec_mat(linalg.as_vec(coords), L.basis)
    results = {
        "coords": list(coords),
        "vector": _rats(v),
        "norm_sq": _rat(nsq),
        "display": {"vector": _fls(v), "norm": sqrt(float(nsq))},
    }
    listed = [(coords, nsq)]
    if args.r2 is not None:
        found = list_vectors(L, args.r2, node_budget=args.node_budget)
        results["within"] = {
            "radius_sq": _rat(found.radius_sq),
            "count": len(found),
            "vectors": [{"coords": list(c), "norm_sq": _rat(q)} for c, q in found],
        }
        listed = found.vectors
    rows = [["coords", "norm_sq"]]
    rows += [[" ".join(map(str, c)), _rat(q)] for c, q in listed]
    doc = {"command": "svp", "inputs": {"basis": _ratm(L.basis)},
           "results": results, "budgets": {"node_budget": args.node_budget}}
    if args.r2 is not None:
        doc["inputs"]["radius_sq"] = _rat(args.r2)
    return doc, EXIT_OK, rows


def _cmd_cvp(args):
    L = _load_lattice(args.lattice)
    x = parse_vector(args.x)
    try:
        near = closest_vector(L, x, project=args.project, node_budget=args.node_budget)
    except NotInSpan:
        raise NotInSpan("target is outside span(L); rerun with --project") from None
    results = {"nearest": _near(near), "projected": args.project}
    doc = {"command": "cvp", "inputs": {"basis": _ratm(L.basis), "x": _rats(x)},
           "results": results, "budgets": {"node_budget": args.node_budget}}
    return doc, EXIT_OK, None


def _cmd_covering(args):
    L = _load_lattice(args.lattice)
    bounds = covering_radius(L, args.mode, seed=args.seed, restarts=args.restarts,
                             node_budget=args.node_budget)
    results = {
        "lower_sq": _rat(bounds.lower_sq),
        "upper_sq": _rat(bounds.upper_sq),
        "exact": bounds.exact,
        "witness": _rats(bounds.witness),
        "display": {"lower": sqrt(float(bounds.lower_sq)),
                    "upper": sqrt(float(bounds.upper_sq)),
                    "witness": _fls(bounds.witness)},
    }
    doc = {"command": "covering", "inputs": {"basis": _ratm(L.basis), "mode": args.mode},
           "results": results, "seed": args.seed,
           "budgets": {"node_budget": args.node_budget}}
    return doc, EXIT_OK, None


def _interval_json(c) -> dict:
    return {"lhs_lower_sq": _rat(c.lhs_lower_sq), "lhs_upper_sq": _rat(c.lhs_upper_sq),
            "bound_sq": _rat(c.bound_sq), "verdict": c.verdict}


def _cmd_transference(args):
    L = _load_lattice(args.lattice)
    rep = transference_check(L, node_budget=args.node_budget, seed=args.seed)
    results = {
        "rank": rep.rank,
        "minima_sq": _rats(rep.minima_sq),
        "dual_minima_sq": _rats(rep.dual_minima_sq),
        "mu_dual": {"lower_sq": _rat(rep.mu_dual.lower_sq),
                    "upper_sq": _rat(rep.mu_dual.upper_sq),
                    "exact": rep.mu_dual.exact},
        "per_k": [{"k": c.k, "product_sq": _rat(c.product_sq),
                   "rank_bound_sq": _rat(c.rank_bound_sq),
                   "within_rank_bound": c.within_rank_bound,
                   "factorial_bound_sq": _rat(c.factorial_bound_sq),
                   "within_factorial_bound": c.within_factorial_bound}
                  for c in rep.per_k],
        "covering_pair": _interval_json(rep.covering_pair),
        "covering_pair_factorial": _interval_json(rep.covering_pair_factorial),
        "dual_basis_bound": _interval_json(rep.dual_basis_bound),
        "all_satisfied": rep.all_satisfied,
        "any_violation": rep.any_violation,
    }
    doc = {"command": "transference", "inputs": {"basis": _ratm(L.basis)},
           "results": results, "seed": args.seed,
           "budgets": {"node_budget": args.node_budget}}
    return doc, EXIT_VERDICT if rep.any_violation else EXIT_OK, None


def _cmd_hypothesis(args):
    L = _load_lattice(args.lattice)
    x = parse_vector(args.x)
    rep = check_hypothesis(L, x, args.delta, args.r2, node_budget=args.node_budget)
    results = {
        "holds": rep.holds,
        "checked_count": rep.checked_count,
        "violations": [{"coords": list(v.coords), "inner_product": _rat(v.inner_product),
                        "dist_to_int": _rat(v.dist_to_int)} for v in rep.violations],
    }
    doc = {"command": "hypothesis",
           "inputs": {"basis": _ratm(L.basis), "x": _rats(x),
                      "delta": _rat(args.delta), "radius_sq": _rat(args.r2)},
           "results": results, "budgets": {"node_budget": args.node_budget}}
    return doc, EXIT_OK if rep.holds else EXIT_VERDICT, None


def _cmd_round_dual(args):
    L = _load_lattice(args.lattice)
    x = parse_vector(args.x)
    near = round_in_dual_coordinates(L, x)
    doc = {"command": "round-dual",
           "inputs": {"basis": _ratm(L.basis), "x": _rats(x)},
           "results": {"rounded": _near(near)}}
    return doc, EXIT_OK, None


def _cmd_near_dual(args):
    L = _load_lattice(args.lattice)
    x = parse_vector(args.x)
    near = near_dual_vector(L, x, node_budget=args.node_budget)
    doc = {"command": "near-dual",
           "inputs": {"basis": _ratm(L.basis), "x": _rats(x)},
           "results": {"nearest": _near(near)},
           "budgets": {"node_budget": args.node_budget}}
    return doc, EXIT_OK, None


def _probe_cfg(args) -> ProbeConfig:
    return ProbeConfig(seed=args.seed, restarts=args.restarts,
                       max_iters=args.iters, node_budget=args.node_budget)


def _cmd_probe(args):
    L = _load_lattice(args.lattice)
    f_hat, witness = probe_worst_distance(L, args.delta, args.r2, _probe_cfg(args))
    results = {
        "f_hat_sq": _rat(f_hat),
        "witness": _rats(witness),
        "display": {"f_hat": sqrt(float(f_hat)), "witness": _fls(witness)},
    }
    doc = {"command": "probe",
           "inputs": {"basis": _ratm(L.basis), "delta": _rat(args.delta),
                      "radius_sq": _rat(args.r2)},
           "results": results, "seed": args.seed,
           "budgets": {"node_budget": args.node_budget, "restarts": args.restarts,
                       "max_iters": args.iters}}
    return doc, EXIT_OK, None


def _probe_json(probe) -> dict:
    return {
        "delta": _rat(probe.delta),
        "epsilon_sq": _rat(probe.epsilon_sq),
        "estimated_r_sq": _rat(probe.estimated_r_sq),
        "grid": [{"radius_sq": _rat(r), "f_hat_sq": _rat(f), "witness": _rats(w)}
                 for r, f, w in zip(probe.radius_grid, probe.f_hat_sq, probe.witnesses)],
        "base_radius_sq": _rat(probe.base_radius_sq),
        "base_bound_sq": _rat(probe.base_bound_sq),
        "sufficient_radius_sq": _rat(probe.sufficient_radius_sq),
        "sufficient_bound_sq": _rat(probe.sufficient_bound_sq),
        "scaling_steps": probe.scaling_steps,
        "reduction_kind": probe.reduction_kind,
        "display": {"estimated_r": sqrt(float(probe.estimated_r_sq)),
                    "curve": [[float(r), float(f)]
                              for r, f in zip(probe.radius_grid, probe.f_hat_sq)]},
    }


def _cmd_stability_radius(args):
    L = _load_lattice(args.lattice)
    probe = stability_radius(L, args.delta, args.eps2, _probe_cfg(args),
                             max_levels=args.max_levels)
    doc = {"command": "stability-radius",
           "inputs": {"basis": _ratm(L.basis), "delta": _rat(args.delta),
                      "epsilon_sq": _rat(args.eps2)},
           "results": _probe_json(probe), "seed": args.seed,
           "budgets": {"node_budget": args.node_budget, "restarts": args.restarts,
                       "max_iters": args.iters, "max_levels": args.max_levels}}
    rows = [["radius_sq", "f_hat_sq"]]
    rows += [[_rat(r), _rat(f)] for r, f in zip(probe.radius_grid, probe.f_hat_sq)]
    return doc, EXIT_OK, rows


def _cmd_sharpness(args):
    L = _load_lattice(args.lattice)
    wit = sharpness_witness(L, verify_radius_sq=args.r2, node_budget=args.node_budget)
    results = {
        "x": _rats(wit.x),
        "delta": _rat(wit.report.delta),
        "holds": wit.report.holds,
        "checked_count": wit.report.checked_count,
        "dist_sq": _rat(wit.near.dist_sq),
        "nearest": _near(wit.near),
        "display": {"x": _fls(wit.x), "dist": sqrt(float(wit.near.dist_sq))},
    }
    doc = {"command": "sharpness",
           "inputs": {"basis": _ratm(L.basis), "verify_radius_sq": _rat(args.r2)},
           "results": results, "budgets": {"node_budget": args.node_budget}}
    return doc, EXIT_OK if wit.report.holds else EXIT_VERDICT, None


def _cmd_family(args):
    fam = degenerate_family(args.c, args.d, delta=args.delta, epsilon_sq=args.eps2,
                            cfg=ProbeConfig(seed=args.seed, restarts=args.restarts,
                                            node_budget=args.node_budget))
    members = []
    for diag in fam:
        members.append({
            "scale": _rat(diag.scale),
            "basis": _ratm(diag.lattice.basis),
            "minima_sq": _rats(diag.minima_sq),
            "dual_minima_sq": _rats(diag.dual_minima_sq),
            "mu_dual_sq": _rat(diag.mu_dual_sq),
            "estimated_r_sq": _rat(diag.probe.estimated_r_sq),
            "sufficient_radius_sq": _rat(diag.probe.sufficient_radius_sq),
            "display": {"mu_dual": sqrt(float(diag.mu_dual_sq)),
                        "estimated_r": sqrt(float(diag.probe.estimated_r_sq))},
        })
    doc = {"command": "family",
           "inputs": {"c": _rat(args.c), "d": _rats(args.d),
                      "delta": _rat(args.delta), "epsilon_sq": _rat(args.eps2)},
           "results": {"members": members}, "seed": args.seed,
           "budgets": {"node_budget": args.node_budget, "restarts": args.restarts}}
    rows = [["scale", "minimum_sq", "dual_minimum_sq", "mu_dual_sq", "estimated_r_sq"]]
    rows += [[_rat(d.scale), _rat(d.minima_sq[0]), _rat(d.dual_minima_sq[0]),
              _rat(d.mu_dual_sq), _rat(d.probe.estimated_r_sq)] for d in fam]
    return doc, EXIT_OK, rows


def _cmd_gen(args):
    L = random_lattice(args.seed, args.n, args.m, entry_bound=args.entry_bound,
                       min_lambda1_sq=args.min_l1sq)
    text = serialize_lattice(L)
    results = {"basis": _ratm(L.basis), "serialized": text}
    if args.out:
        write_lattice_file(args.out, L)
        results["written_to"] = args.out
    doc = {"command": "gen",
           "inputs": {"n": args.n, "m": args.m, "entry_bound": args.entry_bound,
                      "min_lambda1_sq": _rat(args.min_l1sq) if args.min_l1sq is not None else None},
           "results": results, "seed": args.seed}
    return doc, EXIT_OK, None


def _cmd_linear(args):
    A = linalg.as_mat([parse_vector(row) for row in args.matrix.split(";") if row.strip()])
    b = parse_vector(args.b)
    x = parse_vector(args.x)
    rep = residual_amplification(A, b, x, seed=args.seed)
    results = {
        "y": _rats(rep.y),
        "residual_norm_sq": _rat(rep.residual_norm_sq),
        "correction_norm_sq": _rat(rep.correction_norm_sq),
        "sigma_min_sq_lower": _rat(rep.sigma_min_sq_lower),
        "display": {"y": _fls(rep.y),
                    "residual": sqrt(float(rep.residual_norm_sq)),
                    "correction": sqrt(float(rep.correction_norm_sq)),
                    "sigma_min_lower": rep.sigma_min_lower,
                    "sigma_min_estimate": rep.sigma_min_estimate},
    }
    doc = {"command": "linear-almost-near",
           "inputs": {"matrix": _ratm(A), "b": _rats(b), "x": _rats(x)},
           "results": results, "seed": args.seed}
    return doc, EXIT_OK, None


def build_parser(default_budget: int) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latstab",
        description="Exact rational lattice computations: duals, reduction, "
                    "enumeration, and almost-near stability probes.")
    parser.add_argument("--version", action="version", version=f"latstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_, func, *, csv_ok=False, budget=True, seeded=False, probing=False):
        p = sub.add_parser(name, help=help_, description=help_)
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (makes output non-deterministic)")
        if csv_ok:
            p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
        if budget:
            p.add_argument("--node-budget", type=_positive, default=default_budget,
                           help="enumeration node cap (env LATSTAB_NODE_BUDGET)")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="PRNG seed")
        if probing:
            p.add_argument("--restarts", type=_nonnegative, default=32, help="probe restarts")
            p.add_argument("--iters", type=_positive, default=200, help="probe ascent iterations")
        p.set_defaults(func=func)
        return p

    p = add("dual", "dual basis and the double-dual identity check", _cmd_dual, budget=False)
    p.add_argument("lattice", help="lattice file, or - for stdin")

    p = add("minima", "successive minima with achieving vectors", _cmd_minima, csv_ok=True)
    p.add_argument("lattice")

    p = add("reduce", "basis reduction", _cmd_reduce)
    p.add_argument("lattice")
    p.add_argument("--kind", choices=("lll", "minkowski"), default="lll")
    p.add_argument("--delta", type=_arg_rational, default=DEFAULT_DELTA,
                   help="Lovasz parameter for --kind lll")

    p = add("svp", "shortest nonzero vector; --r2 also lists all within", _cmd_svp, csv_ok=True)
    p.add_argument("lattice")
    p.add_argument("--r2", type=_arg_rational, default=None, help="list radius, squared")

    p = add("cvp", "nearest lattice point to x", _cmd_cvp)
    p.add_argument("lattice")
    p.add_argument("-x", required=True, help="target vector, e.g. '2/5 3/5'")
    p.add_argument("--project", action="store_true",
                   help="allow x outside span(L); distance includes the offset")

    p = add("covering", "covering radius bounds", _cmd_covering, seeded=True)
    p.add_argument("lattice")
    p.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    p.add_argument("--restarts", type=_nonnegative, default=16)

    p = add("transference", "minima and covering inequalities against the dual "
                            "(exit 1 on violation)", _cmd_transference, seeded=True)
    p.add_argument("lattice")

    p = add("hypothesis", "check |u.x| near-integrality up to a radius "
                          "(exit 1 when violated)", _cmd_hypothesis)
    p.add_argument("lattice")
    p.add_argument("-x", required=True)
    p.add_argument("--delta", type=_arg_rational, required=True)
    p.add_argument("--r2", type=_arg_rational, required=True, help="constraint radius, squared")

    p = add("round-dual", "nearby dual vector via coordinate rounding", _cmd_round_dual,
            budget=False)
    p.add_argument("lattice")
    p.add_argument("-x", required=True)

    p = add("near-dual", "exactly nearest dual vector", _cmd_near_dual)
    p.add_argument("lattice")
    p.add_argument("-x", required=True)

    p = add("probe", "worst feasible distance to the dual at one radius", _cmd_probe,
            seeded=True, probing=True)
    p.add_argument("lattice")
    p.add_argument("--delta", type=_arg_rational, required=True)
    p.add_argument("--r2", type=_arg_rational, required=True)

    p = add("stability-radius", "probe the whole radius grid and report where the "
                                "worst distance falls below epsilon", _cmd_stability_radius,
            csv_ok=True, seeded=True, probing=True)
    p.add_argument("lattice")
    p.add_argument("--delta", type=_arg_rational, required=True)
    p.add_argument("--eps2", type=_arg_rational, required=True, help="epsilon, squared")
    p.add_argument("--max-levels", type=_positive, default=32)

    p = add("sharpness", "witness that threshold 1/3 is unimprovable", _cmd_sharpness)
    p.add_argument("lattice")
    p.add_argument("--r2", type=_arg_rational, default=Fraction(100),
                   help="verification radius, squared")

    p = add("family", "diagonal family with a collapsing dual direction", _cmd_family,
            csv_ok=True, seeded=True)
    p.add_argument("--c", type=_arg_rational, default=Fraction(1))
    p.add_argument("--d", type=_arg_rational_list, default=[Fraction(1), Fraction(10), Fraction(100)],
                   help="comma separated scales, e.g. 1,10,100")
    p.add_argument("--delta", type=_arg_rational, default=Fraction(1, 4))
    p.add_argument("--eps2", type=_arg_rational, default=Fraction(1, 100))
    p.add_argument("--restarts", type=_nonnegative, default=32)

    p = add("gen", "seeded random integer basis", _cmd_gen, budget=False, seeded=True)
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--m", type=int, required=True, help="rank")
    p.add_argument("--entry-bound", type=int, default=9)
    p.add_argument("--min-l1sq", type=_arg_rational, default=None,
                   help="rescale until the shortest vector squared reaches this")
    p.add_argument("-o", "--out", default=None, help="also write a lattice file")

    p = add("linear-almost-near", "nearest exact solution of Ay=b and the residual "
                                  "amplification certificate", _cmd_linear,
            budget=False, seeded=True)
    p.add_argument("--matrix", required=True, help="rows separated by ';', e.g. '1 0; 3 1'")
    p.add_argument("-b", required=True)
    p.add_argument("-x", required=True)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser(_env_budget())
    except LatticeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    t0 = time.perf_counter()
    try:
        doc, code, rows = args.func(args)
    except (LatticeError, FileNotFoundError, IsADirectoryError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    if getattr(args, "csv", False):
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(rows)
        return code
    doc = {"schema": 1, **doc}
    if args.timings:
        doc["timings"] = {"wall_s": round(time.perf_counter() - t0, 6)}
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

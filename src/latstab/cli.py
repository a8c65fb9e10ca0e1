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

A command function takes the parsed arguments and the lattice (None for
commands without a lattice argument) and returns (results, exit code, CSV
rows or None). `main` builds the rest of the document: the lattice and the
declared inputs, the seed and the declared budgets.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
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
from .lattice import double_dual_check, dual
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


def _json(value, display=False):
    """The JSON form of a result: a Fraction becomes its "p/q" text, or a
    float anywhere under a "display" key; a dataclass becomes the dict of its
    fields and a tuple or list a list."""
    if isinstance(value, Fraction):
        return float(value) if display else str(value)
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _json(v, display or k == "display") for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json(v, display) for v in value]
    return value


def _near(r: NearResult) -> dict:
    return {**vars(r), "display": {"point": r.point, "dist": sqrt(r.dist_sq)}}


def _arg(parse):
    """argparse type from a parser that raises ParseError."""
    def convert(text: str):
        try:
            return parse(text)
        except ParseError as e:
            raise argparse.ArgumentTypeError(str(e)) from e
    return convert


def _parse_matrix(text: str):
    return tuple(parse_vector(row) for row in text.split(";") if row.strip())


def _parse_scales(text: str) -> list[Fraction]:
    scales = [parse_rational(tok) for tok in text.split(",") if tok]
    if not scales:
        raise ParseError("must list at least one scale")
    return scales


def _count(least: int):
    """Parser of an integer of at least `least`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ParseError(f"must be an integer, got {text!r}") from None
        if value < least:
            raise ParseError(f"must be at least {least}, got {value}")
        return value
    return parse


_rational = _arg(parse_rational)
_vector = _arg(parse_vector)
_positive = _arg(_count(1))
_nonnegative = _arg(_count(0))


def _env_budget() -> int:
    raw = os.environ.get("LATSTAB_NODE_BUDGET")
    try:
        return DEFAULT_NODE_BUDGET if raw is None else _count(1)(raw)
    except ParseError as e:
        raise ParseError(f"LATSTAB_NODE_BUDGET {e}") from None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, exit code 2."""

    def error(self, message):
        self.exit(EXIT_ERROR, f"error: {message}\n")


def _cmd_dual(args, L):
    W = dual(L)
    return {"dual_basis": W.basis, "double_dual_matches": double_dual_check(L),
            "display": {"dual_basis": W.basis}}, EXIT_OK, None


def _cmd_minima(args, L):
    mins = successive_minima(L, node_budget=args.node_budget)
    results = {"minima_sq": mins.minima_sq, "achieving_coords": mins.achieving_vectors,
               "display": {"minima": [sqrt(q) for q in mins.minima_sq]}}
    rows = [["k", "minimum_sq", "coords"]]
    rows += [[k, q, " ".join(map(str, c))]
             for k, (q, c) in enumerate(zip(mins.minima_sq, mins.achieving_vectors), 1)]
    return results, EXIT_OK, rows


def _cmd_reduce(args, L):
    if args.kind == "lll":
        red = lll(L, args.delta)
    else:
        red = minkowski_reduce(L, node_budget=args.node_budget)
    return {"kind": red.kind, "basis": red.basis, "norms_sq": red.norms_sq,
            "parameter": red.parameter,
            "display": {"basis": red.basis,
                        "norms": [sqrt(q) for q in red.norms_sq]}}, EXIT_OK, None


def _cmd_svp(args, L):
    coords, nsq = shortest_vector(L, node_budget=args.node_budget)
    v = linalg.vec_mat(linalg.as_vec(coords), L.basis)
    results = {"coords": coords, "vector": v, "norm_sq": nsq,
               "display": {"vector": v, "norm": sqrt(nsq)}}
    listed = [(coords, nsq)]
    if "radius_sq" in vars(args):
        found = list_vectors(L, args.radius_sq, node_budget=args.node_budget)
        results["within"] = {"radius_sq": found.radius_sq, "count": len(found),
                             "vectors": [{"coords": c, "norm_sq": q} for c, q in found]}
        listed = found.vectors
    rows = [["coords", "norm_sq"]] + [[" ".join(map(str, c)), q] for c, q in listed]
    return results, EXIT_OK, rows


def _cmd_cvp(args, L):
    try:
        near = closest_vector(L, args.x, project=args.project, node_budget=args.node_budget)
    except NotInSpan:
        raise NotInSpan("target is outside span(L); rerun with --project") from None
    return {"nearest": _near(near), "projected": args.project}, EXIT_OK, None


def _cmd_covering(args, L):
    bounds = covering_radius(L, args.mode, seed=args.seed, restarts=args.restarts,
                             node_budget=args.node_budget)
    return {**vars(bounds), "display": {"lower": sqrt(bounds.lower_sq),
                                        "upper": sqrt(bounds.upper_sq),
                                        "witness": bounds.witness}}, EXIT_OK, None


def _cmd_transference(args, L):
    rep = transference_check(L, node_budget=args.node_budget, seed=args.seed)
    mu = rep.mu_dual
    results = {**vars(rep),
               "mu_dual": {"lower_sq": mu.lower_sq, "upper_sq": mu.upper_sq, "exact": mu.exact},
               "all_satisfied": rep.all_satisfied, "any_violation": rep.any_violation}
    return results, EXIT_VERDICT if rep.any_violation else EXIT_OK, None


def _cmd_hypothesis(args, L):
    rep = check_hypothesis(L, args.x, args.delta, args.radius_sq, node_budget=args.node_budget)
    results = {"holds": rep.holds, "checked_count": rep.checked_count,
               "violations": rep.violations}
    return results, EXIT_OK if rep.holds else EXIT_VERDICT, None


def _cmd_round_dual(args, L):
    return {"rounded": _near(round_in_dual_coordinates(L, args.x))}, EXIT_OK, None


def _cmd_near_dual(args, L):
    near = near_dual_vector(L, args.x, node_budget=args.node_budget)
    return {"nearest": _near(near)}, EXIT_OK, None


def _probe_cfg(args) -> ProbeConfig:
    return ProbeConfig(seed=args.seed, restarts=args.restarts,
                       max_iters=args.max_iters, node_budget=args.node_budget)


def _cmd_probe(args, L):
    f_hat, witness = probe_worst_distance(L, args.delta, args.radius_sq, _probe_cfg(args))
    return {"f_hat_sq": f_hat, "witness": witness,
            "display": {"f_hat": sqrt(f_hat), "witness": witness}}, EXIT_OK, None


def _cmd_stability_radius(args, L):
    probe = stability_radius(L, args.delta, args.epsilon_sq, _probe_cfg(args),
                             max_levels=args.max_levels)
    curve = list(zip(probe.radius_grid, probe.f_hat_sq))
    results = {k: getattr(probe, k) for k in (
        "delta", "epsilon_sq", "estimated_r_sq", "base_radius_sq", "base_bound_sq",
        "sufficient_radius_sq", "sufficient_bound_sq", "scaling_steps", "reduction_kind",
        "levels_dropped")}
    results["grid"] = [{"radius_sq": r, "f_hat_sq": f, "witness": w}
                       for (r, f), w in zip(curve, probe.witnesses)]
    results["display"] = {"estimated_r": sqrt(probe.estimated_r_sq), "curve": curve}
    return results, EXIT_OK, [["radius_sq", "f_hat_sq"], *curve]


def _cmd_sharpness(args, L):
    wit = sharpness_witness(L, verify_radius_sq=args.verify_radius_sq,
                            node_budget=args.node_budget)
    results = {"x": wit.x, "delta": wit.report.delta, "holds": wit.report.holds,
               "checked_count": wit.report.checked_count, "dist_sq": wit.near.dist_sq,
               "nearest": _near(wit.near),
               "display": {"x": wit.x, "dist": sqrt(wit.near.dist_sq)}}
    return results, EXIT_OK if wit.report.holds else EXIT_VERDICT, None


def _cmd_family(args, _):
    fam = degenerate_family(args.c, args.d, delta=args.delta, epsilon_sq=args.epsilon_sq,
                            cfg=ProbeConfig(seed=args.seed, restarts=args.restarts,
                                            node_budget=args.node_budget))
    members = [{"scale": d.scale, "basis": d.lattice.basis, "minima_sq": d.minima_sq,
                "dual_minima_sq": d.dual_minima_sq, "mu_dual_sq": d.mu_dual_sq,
                "estimated_r_sq": d.probe.estimated_r_sq,
                "sufficient_radius_sq": d.probe.sufficient_radius_sq,
                "display": {"mu_dual": sqrt(d.mu_dual_sq),
                            "estimated_r": sqrt(d.probe.estimated_r_sq)}}
               for d in fam]
    rows = [["scale", "minimum_sq", "dual_minimum_sq", "mu_dual_sq", "estimated_r_sq"]]
    rows += [[d.scale, d.minima_sq[0], d.dual_minima_sq[0], d.mu_dual_sq,
              d.probe.estimated_r_sq] for d in fam]
    return {"members": members}, EXIT_OK, rows


def _cmd_gen(args, _):
    L = random_lattice(args.seed, args.n, args.m, entry_bound=args.entry_bound,
                       min_lambda1_sq=args.min_lambda1_sq)
    results = {"basis": L.basis, "serialized": serialize_lattice(L)}
    if args.out:
        write_lattice_file(args.out, L)
        results["written_to"] = args.out
    return results, EXIT_OK, None


def _cmd_linear(args, _):
    rep = residual_amplification(args.matrix, args.b, args.x, seed=args.seed)
    results = {k: getattr(rep, k) for k in (
        "y", "residual_norm_sq", "correction_norm_sq", "sigma_min_sq_lower")}
    results["display"] = {"y": rep.y, "residual": sqrt(rep.residual_norm_sq),
                          "correction": sqrt(rep.correction_norm_sq),
                          "sigma_min_lower": rep.sigma_min_lower,
                          "sigma_min_estimate": rep.sigma_min_estimate}
    return results, EXIT_OK, None


def build_parser(default_budget: int) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latstab",
        description="Exact rational lattice computations: duals, reduction, "
                    "enumeration, and almost-near stability probes.")
    parser.add_argument("--version", action="version", version=f"latstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_, func, *, inputs=(), budgets=("node_budget",), lattice=True,
            csv_ok=False, seeded=False):
        """A subcommand. `inputs` and `budgets` name the argument dests that
        go into the document's "inputs" and "budgets"; a --node-budget option
        exists exactly when "node_budget" is a budget, and --restarts/--iters
        when "max_iters" is."""
        p = sub.add_parser(name, help=help_, description=help_)
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (makes output non-deterministic)")
        if lattice:
            p.add_argument("lattice", help="lattice file, or - for stdin")
        if csv_ok:
            p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
        if "node_budget" in budgets:
            p.add_argument("--node-budget", type=_positive, default=default_budget,
                           help="enumeration node cap (env LATSTAB_NODE_BUDGET)")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="PRNG seed")
        if "max_iters" in budgets:
            p.add_argument("--restarts", type=_nonnegative, default=32, help="probe restarts")
            p.add_argument("--iters", dest="max_iters", type=_positive, default=200,
                           help="probe ascent iterations")
        p.set_defaults(func=func, inputs=inputs, budgets=budgets)
        return p

    add("dual", "dual basis and the double-dual identity check", _cmd_dual, budgets=())

    add("minima", "successive minima with achieving vectors", _cmd_minima, csv_ok=True)

    p = add("reduce", "basis reduction", _cmd_reduce, inputs=("kind",))
    p.add_argument("--kind", choices=("lll", "minkowski"), default="lll")
    p.add_argument("--delta", type=_rational, default=DEFAULT_DELTA,
                   help="Lovasz parameter for --kind lll")

    p = add("svp", "shortest nonzero vector; --r2 also lists all within", _cmd_svp,
            inputs=("radius_sq",), csv_ok=True)
    # left out of the namespace, and so of "inputs", unless given
    p.add_argument("--r2", dest="radius_sq", type=_rational, default=argparse.SUPPRESS,
                   help="list radius, squared")

    p = add("cvp", "nearest lattice point to x", _cmd_cvp, inputs=("x",))
    p.add_argument("-x", type=_vector, required=True, help="target vector, e.g. '2/5 3/5'")
    p.add_argument("--project", action="store_true",
                   help="allow x outside span(L); distance includes the offset")

    p = add("covering", "covering radius bounds", _cmd_covering, inputs=("mode",), seeded=True)
    p.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    p.add_argument("--restarts", type=_nonnegative, default=16)

    add("transference", "minima and covering inequalities against the dual "
                        "(exit 1 on violation)", _cmd_transference, seeded=True)

    p = add("hypothesis", "check |u.x| near-integrality up to a radius "
                          "(exit 1 when violated)", _cmd_hypothesis,
            inputs=("x", "delta", "radius_sq"))
    p.add_argument("-x", type=_vector, required=True)
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--r2", dest="radius_sq", type=_rational, required=True,
                   help="constraint radius, squared")

    p = add("round-dual", "nearby dual vector via coordinate rounding", _cmd_round_dual,
            inputs=("x",), budgets=())
    p.add_argument("-x", type=_vector, required=True)

    p = add("near-dual", "exactly nearest dual vector", _cmd_near_dual, inputs=("x",))
    p.add_argument("-x", type=_vector, required=True)

    p = add("probe", "worst feasible distance to the dual at one radius", _cmd_probe,
            inputs=("delta", "radius_sq"), budgets=("node_budget", "restarts", "max_iters"),
            seeded=True)
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--r2", dest="radius_sq", type=_rational, required=True)

    p = add("stability-radius", "probe the whole radius grid and report where the "
                                "worst distance falls below epsilon", _cmd_stability_radius,
            inputs=("delta", "epsilon_sq"),
            budgets=("node_budget", "restarts", "max_iters", "max_levels"),
            csv_ok=True, seeded=True)
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--eps2", dest="epsilon_sq", type=_rational, required=True,
                   help="epsilon, squared")
    p.add_argument("--max-levels", type=_positive, default=32)

    p = add("sharpness", "witness that threshold 1/3 is unimprovable", _cmd_sharpness,
            inputs=("verify_radius_sq",))
    p.add_argument("--r2", dest="verify_radius_sq", type=_rational, default=Fraction(100),
                   help="verification radius, squared")

    p = add("family", "diagonal family with a collapsing dual direction", _cmd_family,
            inputs=("c", "d", "delta", "epsilon_sq"), budgets=("node_budget", "restarts"),
            lattice=False, csv_ok=True, seeded=True)
    p.add_argument("--c", type=_rational, default=Fraction(1))
    p.add_argument("--d", type=_arg(_parse_scales), default=_parse_scales("1,10,100"),
                   help="comma separated scales, e.g. 1,10,100")
    p.add_argument("--delta", type=_rational, default=Fraction(1, 4))
    p.add_argument("--eps2", dest="epsilon_sq", type=_rational, default=Fraction(1, 100))
    p.add_argument("--restarts", type=_nonnegative, default=32)

    p = add("gen", "seeded random integer basis", _cmd_gen,
            inputs=("n", "m", "entry_bound", "min_lambda1_sq"), budgets=(), lattice=False,
            seeded=True)
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--m", type=int, required=True, help="rank")
    p.add_argument("--entry-bound", type=int, default=9)
    p.add_argument("--min-l1sq", dest="min_lambda1_sq", type=_rational, default=None,
                   help="rescale until the shortest vector squared reaches this")
    p.add_argument("-o", "--out", default=None, help="also write a lattice file")

    p = add("linear-almost-near", "nearest exact solution of Ay=b and the residual "
                                  "amplification certificate", _cmd_linear,
            inputs=("matrix", "b", "x"), budgets=(), lattice=False, seeded=True)
    p.add_argument("--matrix", type=_arg(_parse_matrix), required=True,
                   help="rows separated by ';', e.g. '1 0; 3 1'")
    p.add_argument("-b", type=_vector, required=True)
    p.add_argument("-x", type=_vector, required=True)

    return parser


def _fail(e: Exception) -> int:
    print(f"error: {e}", file=sys.stderr)
    return EXIT_ERROR


def main(argv=None) -> int:
    try:
        args = build_parser(_env_budget()).parse_args(argv)
    except SystemExit as e:  # argparse: usage errors, --help, --version
        return int(e.code or 0)
    except ParseError as e:  # a bad LATSTAB_NODE_BUDGET
        return _fail(e)
    t0 = time.perf_counter()
    given = vars(args)
    L = None
    try:
        if "lattice" in given:
            path = args.lattice
            L = parse_lattice_text(sys.stdin.read()) if path == "-" else parse_lattice_file(path)
        results, code, rows = args.func(args, L)
    except (LatticeError, OSError, ValueError) as e:
        return _fail(e)
    try:
        if getattr(args, "csv", False):
            csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
        else:
            doc = {"schema": 1, "command": args.command, "results": results,
                   "inputs": {k: given[k] for k in args.inputs if k in given}}
            if L is not None:
                doc["inputs"]["basis"] = L.basis
            if "seed" in given:
                doc["seed"] = args.seed
            if args.budgets:
                doc["budgets"] = {k: given[k] for k in args.budgets}
            if args.timings:
                doc["timings"] = {"wall_s": round(time.perf_counter() - t0, 6)}
            json.dump(_json(doc), sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; quiet the flush at exit too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads: their inputs, commands and output checks.

Inputs are drawn from the benchmark seed. Every check compares a command's
JSON output with the reference arithmetic in ``oracle`` (which does not
import latstab) or with properties the method must have; none compares with
a saved copy of earlier output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable

import oracle

DELTA = F(1, 4)
EPS2 = F(1, 100)


@dataclass
class Op:
    """One command of a round and the check of its output."""

    label: str
    args: list[str]
    check: Callable[[dict], list[str]]  # problems found in the parsed JSON output
    known_fault: bool = False           # fails today because of a documented fault


@dataclass
class Inputs:
    """What a workload's set-up writes and its commands read."""

    gen_args: list[list[str]] = field(default_factory=list)  # `latstab gen` runs, each with -o
    bases: dict[str, tuple] = field(default_factory=dict)    # file name -> basis it must hold
    ops: list[Op] = field(default_factory=list)


def rats(v) -> tuple:
    return tuple(F(a) for a in v)


def parse_basis_text(text: str) -> tuple:
    """The plain lattice format: header "n m", then m rows of n rationals."""
    toks = [t for line in text.splitlines() for t in line.split("#", 1)[0].split()]
    n, m = int(toks[0]), int(toks[1])
    body = [F(t) for t in toks[2:]]
    if len(body) != n * m:
        raise ValueError("malformed basis file")
    return tuple(tuple(body[i * n:(i + 1) * n]) for i in range(m))


def _problems_if(cond: bool, msg: str) -> list[str]:
    return [] if cond else [msg]


# ---------------------------------------------------------------- radius-sweep

SWEEP_LAMBDA_SQ = 16
SWEEP_LATTICES = 10
SWEEP_MAX_LEVELS = 8
SWEEP_MAX_VECTORS = 70


def _sufficient_radius(B):
    """The analytic level of `stability_radius`, from a basis achieving the
    successive minima (for rank <= 3 such a basis is Minkowski reduced)."""
    _, vecs = oracle.minima(B)
    sum_w = sum(oracle.dot(w, w) for w in oracle.dual_basis(vecs))
    K = max(1, oracle.ceil_sqrt(DELTA * DELTA * len(B) * sum_w / EPS2))
    return K * K * max(oracle.dot(v, v) for v in vecs)


def _sweep_candidate_ok(B) -> bool:
    """Keep bases whose full grid has at least SWEEP_MAX_LEVELS levels and at
    most SWEEP_MAX_VECTORS constraint vectors: every kept lattice then probes
    the same number of levels, so runs on different seeds do similar work."""
    vecs = oracle.box_vectors(B, _sufficient_radius(B))
    return len({q for _, q in vecs}) >= SWEEP_MAX_LEVELS and len(vecs) <= SWEEP_MAX_VECTORS


def radius_sweep(seed: int, random_lattice) -> Inputs:
    inp = Inputs()
    gen_seed = seed * 1000
    while len(inp.bases) < SWEEP_LATTICES:
        gen_seed += 1
        B = random_lattice(gen_seed, 3, 3, min_lambda1_sq=SWEEP_LAMBDA_SQ).basis
        if not _sweep_candidate_ok(B):
            continue
        name = f"sweep-{gen_seed}.txt"
        inp.gen_args.append(["gen", "--seed", str(gen_seed), "--n", "3", "--m", "3",
                             "--min-l1sq", str(SWEEP_LAMBDA_SQ), "-o", name])
        inp.bases[name] = B
        inp.ops.append(Op(
            label=f"stability-radius {name}",
            args=["stability-radius", name, "--delta", str(DELTA), "--eps2", str(EPS2),
                  "--max-levels", str(SWEEP_MAX_LEVELS)],
            check=lambda doc, B=B: check_stability_radius(doc, B, DELTA, EPS2)))
    return inp


def check_stability_radius(doc: dict, B, delta, eps2) -> list[str]:
    """The radius-sweep checks of one `stability-radius` output."""
    res = doc["results"]
    m = len(B)
    if tuple(rats(r) for r in doc["inputs"]["basis"]) != B:
        return ["echoed input basis differs from the file"]
    radii = [F(g["radius_sq"]) for g in res["grid"]]
    f_hat = [F(g["f_hat_sq"]) for g in res["grid"]]
    witnesses = [rats(g["witness"]) for g in res["grid"]]
    est = F(res["estimated_r_sq"])
    K = res["scaling_steps"]
    base_r, base_b = F(res["base_radius_sq"]), F(res["base_bound_sq"])
    suff_r, suff_b = F(res["sufficient_radius_sq"]), F(res["sufficient_bound_sq"])
    out: list[str] = []

    mins, _ = oracle.minima(B)
    out += _problems_if(res["reduction_kind"] == "minkowski", "rank-3 input not Minkowski reduced")
    out += _problems_if(base_r == mins[-1], f"base radius {base_r} != lambda_m^2 {mins[-1]}")
    out += _problems_if(K == max(1, oracle.ceil_sqrt(base_b / eps2)) and suff_r == K * K * base_r
                        and suff_b == base_b / (K * K), "sufficient level is inconsistent")

    vecs = oracle.box_vectors(B, suff_r)
    norms = sorted({q for _, q in vecs})
    if not radii:
        return out + ["empty grid"]
    out += _problems_if(radii[:-1] == norms[:len(radii) - 1] and radii[-1] == norms[-1],
                        "grid radii are not the lattice norms up to the sufficient level")
    out += _problems_if(all(a >= b for a, b in zip(f_hat, f_hat[1:])), "curve increases")
    out += _problems_if(f_hat[-1] <= eps2, "top level above epsilon^2")
    first = next((r for r, f in zip(radii, f_hat) if f <= eps2), None)
    out += _problems_if(est == first, f"estimated_r_sq {est} is not the first level <= eps^2")

    W = oracle.dual_basis(B)
    cover = max(oracle.dot(b, b) for b in B)
    rounding_bound = m * delta * delta * sum(oracle.dot(w, w) for w in W)
    for r2, f, x in zip(radii, f_hat, witnesses):
        bad = [u for u, q in vecs if q <= r2 and oracle.dist_to_int(oracle.dot(u, x)) > delta]
        if bad:
            out.append(f"witness at r^2={r2} violates the hypothesis on {bad[0]}")
        if oracle.nearest_dist_sq(W, x) != f:
            out.append(f"f_hat^2 at r^2={r2} is not the witness's distance^2 to the dual")
        if r2 >= cover and f > rounding_bound:
            out.append(f"f_hat^2 at r^2={r2} exceeds the rounding bound {rounding_bound}")
    return out


# ----------------------------------------------------------- degenerate-family

FAMILY_SCALES = (1, 10, 100)
Z2_FAULT_EPS2 = F(1, 120)


def degenerate_family(seed: int, random_lattice=None) -> Inputs:
    inp = Inputs()
    for d in FAMILY_SCALES:
        inp.ops.append(Op(
            label=f"family --d {d}",
            args=["family", "--c", "1", "--d", str(d), "--delta", str(DELTA),
                  "--eps2", str(EPS2), "--seed", str(seed)],
            check=lambda doc, d=d: check_family(doc, F(1), F(d), DELTA, EPS2)))
    # Z^2 at eps^2 = 1/120: the probe misses the feasible point (1/12, 1/24),
    # so the reported radius is too small. Seed-independent on purpose.
    inp.ops.append(Op(
        label="family Z^2 --eps2 1/120",
        args=["family", "--c", "1", "--d", "1", "--delta", str(DELTA),
              "--eps2", str(Z2_FAULT_EPS2)],
        check=lambda doc: check_family(doc, F(1), F(1), DELTA, Z2_FAULT_EPS2),
        known_fault=True))
    return inp


def check_family(doc: dict, c, d, delta, eps2) -> list[str]:
    """Diagnostics of c*Z x d*Z against closed forms and box scans. Also the
    point (1/(12c), 1/(24d)): if it is feasible at the reported radius, it
    must lie within epsilon of the dual."""
    members = doc["results"]["members"]
    if len(members) != 1:
        return [f"expected one member, got {len(members)}"]
    mem = members[0]
    B = ((c, F(0)), (F(0), d))
    W = oracle.dual_basis(B)
    out: list[str] = []
    out += _problems_if(F(mem["scale"]) == d, "wrong scale")
    out += _problems_if(tuple(rats(r) for r in mem["basis"]) == B, "wrong member basis")
    out += _problems_if(tuple(rats(mem["minima_sq"])) == oracle.minima(B)[0], "wrong minima")
    out += _problems_if(tuple(rats(mem["dual_minima_sq"])) == oracle.minima(W)[0],
                        "wrong dual minima")
    # the dual basis is orthogonal, so its deepest hole is half the diagonal
    out += _problems_if(F(mem["mu_dual_sq"]) == sum(oracle.dot(w, w) for w in W) / 4,
                        "wrong dual covering radius")
    K = max(1, oracle.ceil_sqrt(delta * delta * 2 * sum(oracle.dot(w, w) for w in W) / eps2))
    suff = K * K * max(c * c, d * d)
    out += _problems_if(F(mem["sufficient_radius_sq"]) == suff, "wrong sufficient radius")
    est = F(mem["estimated_r_sq"])
    vecs = oracle.box_vectors(B, suff)
    out += _problems_if(est in {q for _, q in vecs}, "estimated radius is not a lattice norm")
    x = (1 / (12 * c), 1 / (24 * d))
    feasible = all(oracle.dist_to_int(oracle.dot(u, x)) <= delta for u, q in vecs if q <= est)
    dist = oracle.nearest_dist_sq(W, x)
    if feasible and dist > eps2:
        out.append(f"probe underestimates: x={x} is feasible at r^2={est} with "
                   f"dist^2={dist} > eps^2={eps2}")
    return out


# ------------------------------------------------------------ reduce-enumerate

# (rank, band of Gram-Schmidt computations latstab's LLL makes on the basis)
REDUCE_BASES = ((12, 100, 130), (13, 120, 150), (14, 140, 170))


def reduce_enumerate(seed: int, random_lattice) -> Inputs:
    inp = Inputs()
    rng = random.Random(seed)
    gen_seed = seed * 1000
    for m, lo, hi in REDUCE_BASES:
        while True:
            gen_seed += 1
            B = random_lattice(gen_seed, m, m).basis
            if lo <= oracle.lll(B)[1] <= hi:
                break
        name = f"reduce-{gen_seed}.txt"
        inp.gen_args.append(["gen", "--seed", str(gen_seed), "--n", str(m), "--m", str(m),
                             "-o", name])
        inp.bases[name] = B
        ref = _Reference(B)
        x = tuple(F(rng.randint(-60, 60), 7) for _ in range(m))
        inp.ops += [
            Op(f"reduce {name}", ["reduce", name, "--kind", "lll"],
               lambda doc, ref=ref: ref.check_lll(doc)),
            Op(f"minima {name}", ["minima", name], lambda doc, ref=ref: ref.check_minima(doc)),
            Op(f"svp {name}", ["svp", name, "--r2", str(ref.list_radius_sq)],
               lambda doc, ref=ref: ref.check_svp(doc)),
            Op(f"cvp {name}", ["cvp", name, "-x", " ".join(map(str, x))],
               lambda doc, ref=ref, x=x: ref.check_cvp(doc, x)),
        ]
    return inp


class _Reference:
    """Reference facts about one high-rank basis, where box scans are out of
    reach: an independent LLL basis, the Gram determinant, and a listing
    radius 1.2x the Gaussian heuristic for lambda_1^2."""

    def __init__(self, B):
        self.B = B
        self.m = len(B)
        self.gram_det = oracle.det(oracle.gram(B))
        gh = self.m / (2 * math.pi * math.e) * float(self.gram_det) ** (1 / self.m)
        self.list_radius_sq = math.ceil(1.2 * gh)
        self.lll = oracle.lll(B)[0]

    def _vector(self, coords):
        return oracle.vec_mat(coords, self.B)

    def check_lll(self, doc) -> list[str]:
        res = doc["results"]
        R = tuple(rats(r) for r in res["basis"])
        out = _problems_if(res["kind"] == "lll" and F(res["parameter"]) == F(3, 4),
                           "wrong kind or parameter")
        out += _problems_if(oracle.same_lattice(self.B, R), "LLL output spans another lattice")
        out += oracle.lll_violations(R, F(3, 4))
        out += _problems_if(tuple(rats(res["norms_sq"])) == tuple(oracle.dot(r, r) for r in R),
                            "wrong norms")
        return out

    def check_minima(self, doc) -> list[str]:
        res = doc["results"]
        mins = [F(q) for q in res["minima_sq"]]
        vecs = [self._vector(c) for c in res["achieving_coords"]]
        out = _problems_if(len(mins) == self.m and len(vecs) == self.m, "wrong count")
        out += _problems_if([oracle.dot(v, v) for v in vecs] == mins, "norms differ from minima")
        out += _problems_if(all(a <= b for a, b in zip(mins, mins[1:])), "minima not sorted")
        out += _problems_if(oracle.rank(vecs) == self.m, "achieving vectors are dependent")
        # Minkowski's second theorem, with gamma_m <= 1 + m/4
        prod = math.prod(mins)
        out += _problems_if(self.gram_det <= prod <= F(4 + self.m, 4) ** self.m * self.gram_det,
                            "minima break Minkowski's second theorem")
        # the first k rows of a basis are k independent lattice vectors
        norms = [oracle.dot(b, b) for b in self.lll]
        out += _problems_if(all(mins[k] <= max(norms[:k + 1]) for k in range(self.m)),
                            "a minimum exceeds the reference LLL basis")
        out += _problems_if(norms[0] <= 2 ** (self.m - 1) * mins[0], "lambda_1 is too small")
        return out

    def check_svp(self, doc) -> list[str]:
        res = doc["results"]
        v = self._vector(res["coords"])
        nsq = F(res["norm_sq"])
        out = _problems_if(rats(res["vector"]) == v and oracle.dot(v, v) == nsq and any(v),
                           "shortest vector does not match its coordinates")
        b1 = oracle.dot(self.lll[0], self.lll[0])
        out += _problems_if(b1 <= 2 ** (self.m - 1) * nsq <= 2 ** (self.m - 1) * b1,
                            "shortest vector outside the LLL bounds")
        within = res["within"]
        out += _problems_if(F(within["radius_sq"]) == self.list_radius_sq, "wrong radius")
        listed = [(tuple(e["coords"]), F(e["norm_sq"])) for e in within["vectors"]]
        out += _problems_if(within["count"] == len(listed), "count differs from the list")
        seen = set()
        for coords, q in listed:
            u = self._vector(coords)
            if not any(u) or oracle.dot(u, u) != q or q > self.list_radius_sq or q < nsq:
                out.append(f"bad listed vector {coords}")
            key = max(coords, tuple(-a for a in coords))
            if key in seen:
                out.append(f"vector {coords} listed twice")
            seen.add(key)
        out += _problems_if(listed == sorted(listed, key=lambda p: (p[1], p[0])), "list unsorted")
        # completeness spot checks: the shortest vector and short reference rows
        for w in [v] + [b for b in self.lll if oracle.dot(b, b) <= self.list_radius_sq]:
            c = oracle.coordinates(self.B, w)
            if oracle.dot(w, w) <= self.list_radius_sq and max(c, tuple(-a for a in c)) not in seen:
                out.append(f"lattice vector {w} missing from the listing")
        return out

    def check_cvp(self, doc, x) -> list[str]:
        near = doc["results"]["nearest"]
        p = self._vector(near["coords"])
        dsq = F(near["dist_sq"])
        r = oracle.sub(x, p)
        out = _problems_if(rats(near["point"]) == p and oracle.dot(r, r) == dsq,
                           "CVP point or distance does not match its coordinates")
        out += _problems_if(dsq <= oracle.babai_rounding_dist_sq(self.lll, x),
                            "CVP answer is farther than Babai rounding")
        return out


WORKLOADS = {
    "radius-sweep": radius_sweep,
    "degenerate-family": degenerate_family,
    "reduce-enumerate": reduce_enumerate,
}

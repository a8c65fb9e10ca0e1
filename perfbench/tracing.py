"""Span tracing around latstab's layer entry points, from outside the package.

Run as a launcher in place of ``python -m latstab.cli``:

    python perfbench/tracing.py SPANS.json ARGS...

It imports latstab, wraps the public entry points of each layer (and the few
private ones whose calls are the work the benchmark counts), runs
``latstab.cli.main(ARGS)`` and writes every span (name, start, end, parent)
plus a few counters to SPANS.json when the command ends. ``summarize`` turns
the span files of a round into the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from fractions import Fraction
from math import exp, log

# layer module -> functions wrapped in it; the span name is "<layer>.<function>".
TARGETS = {
    "linalg": ["rank", "det", "invert", "solve", "gram", "gram_schmidt",
               "rowspace_coefficients", "project_onto_rowspace", "null_space", "hnf"],
    "reduction": ["lll", "minkowski_reduce", "_lll_rows"],
    "enumeration": ["list_vectors", "shortest_vector", "successive_minima", "closest_vector",
                    "covering_radius", "_voronoi_vertex_data", "_is_voronoi_relevant",
                    "_se_scan"],
    "stability": ["stability_radius", "probe_worst_distance", "almost_near_linear",
                  "degenerate_family"],
    "lattice": ["dual"],
    "generate": ["random_lattice"],
    "latfile": ["parse_lattice_file"],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counters = {"nodes": 0, "relevant": 0, "relevance_tests": 0}
        self.f_hat_sq: list[str] = []

    def wrap(self, name: str, f, after=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            result = None
            try:
                result = f(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent)
                if after is not None:
                    after(args, result)

        return traced

    def install(self) -> None:
        import latstab.cli  # noqa: F401  (imports every layer)

        mods = [m for k, m in sys.modules.items() if k == "latstab" or k.startswith("latstab.")]
        hooks = {
            "_se_scan": self._count_nodes,
            "_is_voronoi_relevant": self._count_relevant,
            "stability_radius": self._keep_curve,
        }
        for layer, funcs in TARGETS.items():
            home = sys.modules[f"latstab.{layer}"]
            for fname in funcs:
                orig = getattr(home, fname, None)
                if orig is None:
                    print(f"trace: latstab.{layer}.{fname} not found", file=sys.stderr)
                    continue
                wrapped = self.wrap(f"{layer}.{fname}", orig, hooks.get(fname))
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)

    def _count_nodes(self, args, _result) -> None:
        budget = args[4] if len(args) > 4 else None
        if budget is not None and hasattr(budget, "cap"):
            self.counters["nodes"] += budget.cap - budget.left

    def _count_relevant(self, _args, result) -> None:
        self.counters["relevance_tests"] += 1
        self.counters["relevant"] += bool(result)

    def _keep_curve(self, _args, result) -> None:
        if result is not None:
            self.f_hat_sq += [str(f) for f in result.f_hat_sq]

    def dump(self, path: str, start_s: float | None) -> None:
        # every span is closed by now: the launcher dumps after main returns
        doc = {"names": self.names, "spans": self.spans,
               "counters": self.counters, "f_hat_sq": self.f_hat_sq,
               "start_s": start_s}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _launch(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import latstab.cli

    main = tracer.wrap("cli.main", latstab.cli.main)
    spawned = os.environ.get("PERFBENCH_SPAWN_T")
    start_s = time.monotonic() - float(spawned) if spawned else None
    try:
        return main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, start_s)


def _self_times(doc) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its direct children's."""
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, float] = {}
    for i, (name_id, t0, t1, _) in enumerate(spans):
        layer = names[name_id].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (t1 - t0) - child[i]
    return out


def summarize(docs: list[dict], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one round, from the span files of its commands."""
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    nodes = relevant = tests = 0
    curve: list = []
    starts = []
    n_spans = 0
    for doc in docs:
        names = doc["names"]
        n_spans += len(doc["spans"])
        for name_id, t0, t1, _ in doc["spans"]:
            name = names[name_id]
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (t1 - t0)
        for layer, s in _self_times(doc).items():
            self_s[layer] = self_s.get(layer, 0.0) + s
        nodes += doc["counters"]["nodes"]
        relevant += doc["counters"]["relevant"]
        tests += doc["counters"]["relevance_tests"]
        curve += doc["f_hat_sq"]
        if doc["start_s"] is not None:
            starts.append(doc["start_s"])

    def c(name):
        return count.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    curve = [Fraction(f) for f in curve]
    gmean = 0.0 if not curve or 0 in curve else exp(sum(log(f) for f in curve) / len(curve))
    return {
        "linalg.self_s": self_s.get("linalg", 0.0),
        "linalg.solves": c("linalg.invert") + c("linalg.solve"),
        "linalg.rank_calls": c("linalg.rank"),
        "linalg.gram_schmidt_calls": c("linalg.gram_schmidt"),
        "reduction.self_s": self_s.get("reduction", 0.0),
        "reduction.lll_calls": c("reduction._lll_rows"),
        "reduction.minkowski_s": t("reduction.minkowski_reduce"),
        "enumeration.self_s": self_s.get("enumeration", 0.0),
        "enumeration.nodes": nodes,
        "enumeration.cvp_calls": c("enumeration.closest_vector"),
        "enumeration.cvp_s": t("enumeration.closest_vector"),
        "enumeration.list_calls": c("enumeration.list_vectors"),
        "enumeration.list_s": t("enumeration.list_vectors"),
        "enumeration.voronoi_builds": c("enumeration._voronoi_vertex_data"),
        "enumeration.voronoi_s": t("enumeration._voronoi_vertex_data"),
        "enumeration.voronoi_relevant_ratio": relevant / tests if tests else 0.0,
        "stability.self_s": self_s.get("stability", 0.0),
        "stability.probe_calls": c("stability.probe_worst_distance"),
        "stability.linear_solves": c("stability.almost_near_linear"),
        "stability.certified_dist_sq_gmean": gmean,
        "cli.start_s": statistics.median(starts) if starts else 0.0,
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.output_bytes": output_bytes,
        "lattice.dual_calls": c("lattice.dual"),
        "generate.self_s": self_s.get("generate", 0.0),
        "latfile.parse_s": t("latfile.parse_lattice_file"),
        "trace.spans": n_spans,
    }


if __name__ == "__main__":
    sys.exit(_launch(sys.argv[1:]))

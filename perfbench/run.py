"""Benchmark: README workloads of the latstab CLI, end to end and per layer.

    python3 perfbench/run.py --workload radius-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. Every command runs in its own
``python -m latstab.cli`` process, as a user runs it, so interpreter start
and latstab's per-lattice caches are cold for each one. A round runs every
command of the workload once, in sequence; the timed phase repeats whole
rounds until --seconds have passed. Outputs are checked after the timed phase
(see workloads.py). With --trace 1 the run first times one plain round, then
runs the commands through tracing.py and reports per-layer metrics instead.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_s_p50": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "linalg.self_s": "s", "linalg.solves": "count", "linalg.rank_calls": "count",
    "linalg.gram_schmidt_calls": "count",
    "reduction.self_s": "s", "reduction.lll_calls": "count", "reduction.minkowski_s": "s",
    "enumeration.self_s": "s", "enumeration.nodes": "count", "enumeration.cvp_calls": "count",
    "enumeration.cvp_s": "s", "enumeration.list_calls": "count", "enumeration.list_s": "s",
    "enumeration.voronoi_builds": "count", "enumeration.voronoi_s": "s",
    "enumeration.voronoi_relevant_ratio": "ratio",
    "stability.self_s": "s", "stability.probe_calls": "count",
    "stability.linear_solves": "count", "stability.certified_dist_sq_gmean": "length_sq",
    "cli.start_s": "s", "cli.self_s": "s", "cli.output_bytes": "bytes",
    "lattice.dual_calls": "count", "generate.self_s": "s", "latfile.parse_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s",
}


@dataclass
class CommandResult:
    code: int
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_kb: int


class Runner:
    """Starts latstab processes in the work directory, one at a time."""

    def __init__(self, src: Path, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p)

    def run(self, argv: list[str], spans: Path | None = None) -> CommandResult:
        """Run one process; with `spans`, through the tracing launcher."""
        if spans is None:
            cmd = [sys.executable, "-m", "latstab.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans), *argv]
        return self._spawn(cmd)

    def cold_import(self) -> CommandResult:
        return self._spawn([sys.executable, "-c", "import latstab.cli"])

    def _spawn(self, cmd: list[str]) -> CommandResult:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        env = dict(self.env, PERFBENCH_SPAWN_T=repr(time.monotonic()))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, stdout=out, stderr=err, env=env)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CommandResult(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                             seconds, usage.ru_maxrss)


def set_up(runner: Runner, inputs: workloads.Inputs, traced: bool) -> tuple[float, list[Path]]:
    """Write the workload's basis files with `latstab gen` and import latstab
    once; returns the elapsed time and the span files of a traced set-up."""
    spans = []
    t0 = time.perf_counter()
    for i, argv in enumerate(inputs.gen_args):
        path = runner.work / f"spans-setup-{i}.json" if traced else None
        res = runner.run(argv, path)
        if res.code != 0:
            raise RuntimeError(f"set-up command {argv} exited {res.code}: {res.stderr[-300:]!r}")
        if path is not None:
            spans.append(path)
    if runner.cold_import().code != 0:
        raise RuntimeError("latstab does not import")
    elapsed = time.perf_counter() - t0
    for name, basis in inputs.bases.items():
        if workloads.parse_basis_text((runner.work / name).read_text()) != basis:
            raise RuntimeError(f"{name} does not hold the selected basis")
    return elapsed, spans


def run_round(runner: Runner, ops: list[workloads.Op], tag: str | None):
    """Every command once, in sequence. With a tag, traced."""
    t0 = time.perf_counter()
    results, spans = [], []
    for i, op in enumerate(ops):
        path = runner.work / f"spans-{tag}-{i}.json" if tag else None
        results.append(runner.run(op.args, path))
        spans.append(path)
    return time.perf_counter() - t0, results, spans


class Checker:
    """Checks every command result; identical outputs are checked once."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []
        self._memo: dict[tuple[str, bytes], list[str]] = {}

    def add(self, op: workloads.Op, res: CommandResult) -> None:
        self.attempted += 1
        key = (op.label, res.stdout)
        if key not in self._memo:
            self._memo[key] = self._problems(op, res)
        problems = self._memo[key]
        if problems:
            self.failed += 1
            (self.known if op.known_fault else self.unexpected).append(
                f"{op.label}: {problems[0]}")

    @staticmethod
    def _problems(op: workloads.Op, res: CommandResult) -> list[str]:
        if res.code != 0:
            tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            return [f"exit code {res.code}: {tail[0]}"]
        try:
            doc = json.loads(res.stdout)
        except ValueError:
            return ["output is not JSON"]
        try:
            return op.check(doc)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            return [f"malformed output: {type(e).__name__}: {e}"]


def end_to_end(runner: Runner, inputs: workloads.Inputs, checker: Checker,
               seconds: float) -> dict[str, float]:
    setups = [set_up(runner, inputs, traced=False)[0] for _ in range(SETUP_REPEATS)]
    walls, latencies, rss = [], [], []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        wall, results, _ = run_round(runner, inputs.ops, None)
        walls.append(wall)
        latencies += [r.seconds for r in results]
        rss += [r.maxrss_kb for r in results]
        for op, res in zip(inputs.ops, results):
            checker.add(op, res)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "item_s_p50": statistics.median(latencies),
        "peak_rss_mb": max(rss) / 1024,
    }


def per_layer(runner: Runner, inputs: workloads.Inputs, checker: Checker,
              seconds: float) -> dict[str, float]:
    _, setup_spans = set_up(runner, inputs, traced=True)
    plain_wall, results, _ = run_round(runner, inputs.ops, None)
    for op, res in zip(inputs.ops, results):
        checker.add(op, res)
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        wall, results, spans = run_round(runner, inputs.ops, f"round{len(rounds)}")
        for op, res in zip(inputs.ops, results):
            checker.add(op, res)
        docs = [json.loads(p.read_text()) for p in spans]
        layer = tracing.summarize(docs, sum(len(r.stdout) for r in results))
        layer["trace.overhead_s"] = wall - plain_wall
        rounds.append(layer)
    metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    setup_docs = [json.loads(p.read_text()) for p in setup_spans]
    metrics["generate.self_s"] = tracing.summarize(setup_docs, 0)["generate.self_s"]
    return metrics


def measure(args) -> dict:
    src = Path.cwd() / "src"
    if not (src / "latstab" / "cli.py").is_file():
        raise SystemExit(f"error: no latstab sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    from latstab.generate import random_lattice

    inputs = workloads.WORKLOADS[args.workload](args.seed, random_lattice)
    work = HERE / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(src, work)
    checker = Checker()
    if args.trace:
        metrics, units = per_layer(runner, inputs, checker, args.seconds), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(runner, inputs, checker, args.seconds), END_TO_END_UNITS

    for f in work.iterdir():
        if not f.name.startswith("spans-"):
            f.unlink()
    result = {
        "correct": not checker.unexpected,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    for line in sorted(set(checker.known)):
        print(f"known fault: {line}")
    for line in sorted(set(checker.unexpected)):
        print(f"WRONG: {line}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = measure(args)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Pipeline benchmark for tagfuse.

    python3 perfbench/run.py --workload default-5k --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One run sets up the workload's inputs from ``--seed``, then repeats timed
passes of CLI calls (at least one, more while another fits in
``--seconds``), checks every call's outputs and prints one metric per line
followed by a JSON result as the last line. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` adds one traced pass
through perfbench/tracer.py and reports the per-layer metrics instead.
``--workload all`` runs every workload in turn. Work files go to
``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import uuid

from workloads import (
    ROOT,
    REFERENCE_DIR,
    SRC,
    STAGES,
    UPSTREAM,
    WORK,
    WORKLOADS,
    Caller,
    SetupError,
    corpus_seed,
    fresh_dir,
    write_inputs,
)
from checks import Checker, changed_files, digests
import tracer

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")


def load_reference(workload, seed: int) -> dict:
    path = os.path.join(REFERENCE_DIR, f"{workload.corpus}-{corpus_seed(seed)}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Run:
    """One measured run of one workload: set-up, timed passes, checks."""

    def __init__(self, workload, seed: int, reference: dict | None):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.dir = os.path.join(WORK, workload.name)
        self.calls = []  # every checked call of every pass
        self.passes: list[list] = []
        self.tables: dict[str, dict] = {}
        self.overlap: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.template: str | None = None

    def setup(self) -> float:
        """Write the inputs (and, for a sweep, run the upstream stages).

        Inputs are written ``SETUP_REPEATS`` times and the median kept; the
        upstream stages of a sweep run once.
        """
        data = os.path.join(self.dir, "data")
        times = []
        for _ in range(1 if self.workload.sweep else SETUP_REPEATS):
            fresh_dir(data)
            started = time.perf_counter()
            self.inputs = write_inputs(self.workload, self.seed, data)
            times.append(time.perf_counter() - started)
        setup_s = statistics.median(times)
        if self.workload.sweep:
            started = time.perf_counter()
            self.template = fresh_dir(os.path.join(self.dir, "base"))
            caller = Caller(self.inputs.config, os.path.join(self.dir, "logs", "setup"))
            checker = Checker(self.template, self.inputs.topics, None)
            for stage in UPSTREAM:
                call = caller([stage], self.template)
                checker(call)
                if call.failure:
                    raise SetupError(f"set-up stage {stage}: {call.failure} (log {call.log}.err)")
            setup_s += time.perf_counter() - started
        return setup_s

    def run_pass(self, caller: Caller, hook=None) -> list:
        """One timed pass from a fresh output directory.

        ``hook(call, out_dir)`` runs after each call and before its check.
        """
        out = fresh_dir(os.path.join(self.dir, "out"), self.template)
        tables = None if self.reference is None else self.reference["tables"]
        checker = Checker(out, self.inputs.topics, tables)
        calls = []
        for argv in self.workload.calls():
            call = caller(argv, out)
            if hook:
                hook(call, out)
            checker(call)
            calls.append(call)
        self.calls.extend(calls)
        self.tables.update(checker.tables)
        self.overlap = checker.overlap or self.overlap
        self.digests = digests(out)
        return calls

    def measure(self, seconds: float) -> None:
        """Untraced passes: at least one, then more while one more fits."""
        caller = Caller(self.inputs.config, os.path.join(self.dir, "logs", "timed"))
        started = time.perf_counter()
        while True:
            self.passes.append(self.run_pass(caller))
            if time.perf_counter() - started + statistics.median(self.pass_walls()) > seconds:
                return

    def pass_walls(self) -> list[float]:
        return [sum(c.wall_s for c in calls) for calls in self.passes]

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        wall = statistics.median(self.pass_walls())
        tagging_passes = len(self.workload.depths) if self.workload.sweep else 1
        failed = sum(c.failure is not None for c in self.calls)
        return {
            "wall_s": wall,
            "articles_per_s": self.inputs.n_articles * tagging_passes / wall,
            "peak_rss_mb": max(c.rss_mb for c in self.calls),
            "setup_s": setup_s,
            "ops_failed_frac": failed / len(self.calls),
            "f1_a2": self.tables.get("Fusion2", {}).get("f1", 0.0),
        }

    def per_layer(self) -> dict[str, float]:
        """Stage times of the untraced passes, then one traced pass."""
        metrics: dict[str, float] = {}
        for stage in STAGES:
            per_pass = [sum(c.wall_s for c in calls if c.stage == stage) for calls in self.passes]
            metrics[f"stage.{stage}.s"] = statistics.median(per_pass)
            metrics[f"stage.{stage}.rss_mb"] = max(
                (c.rss_mb for calls in self.passes for c in calls if c.stage == stage), default=0.0
            )
        metrics["cli.import.s"] = import_seconds()

        run_id = f"{self.workload.name}-{self.seed}-{uuid.uuid4().hex[:8]}"
        caller = Caller(
            self.inputs.config,
            os.path.join(self.dir, "logs", "traced"),
            launcher=[TRACER, "{log}.spans.jsonl", run_id],
        )
        traced = self.run_pass(caller)
        spans = [(c.log + ".spans.jsonl", c.stage, c.wall_s) for c in traced]
        metrics.update(tracer.summarize([s for s in spans if os.path.exists(s[0])]))
        metrics.update(self.overlap)
        if self.reference is not None:
            metrics["artifacts.changed"] = changed_files(
                self.digests, self.reference["digests"][self.workload.name]
            )
        return metrics


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing ``tagfuse.cli``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORT_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import tagfuse.cli"], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it is one."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libraries = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libraries):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    """Results are comparable only when these match."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
        "corpus_seed": corpus_seed(seed),
        "commit": git_commit(),
    }


def declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    declared = declared_metrics(trace)
    workload = WORKLOADS[name]
    run = Run(workload, seed, load_reference(workload, seed))
    setup_s = run.setup()
    run.measure(seconds)
    values = run.end_to_end(setup_s)
    if trace:
        values.update(run.per_layer())
    failed = sum(c.failure is not None for c in run.calls)
    for call in run.calls:
        if call.failure:
            print(f"FAILED {' '.join(call.argv)}: {call.failure} (log {call.log}.err)", file=sys.stderr)
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    result = {"correct": failed == 0, "attempted": len(run.calls), "failed": failed, "metrics": metrics}
    record = {
        "workload": name,
        "environment": environment(seed),
        "passes": len(run.passes),
        "ops_failed_frac": values["ops_failed_frac"],
        **result,
        "calls": [dataclasses.asdict(c) for c in run.calls],
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"== {name} (seed {seed}, {len(run.passes)} timed pass(es))")
    print("environment " + json.dumps(record["environment"]))
    print(f"  {'ops_failed_frac':<40} {values['ops_failed_frac']:.4f} ratio")
    for metric, value in metrics.items():
        print(f"  {metric:<40} {value['value']:.6g} {value['unit']}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tagfuse", "cli.py")):
        print(f"no tagfuse sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced launcher for the tagfuse CLI, and the summary of its spans.

    python perfbench/tracer.py SPANS_FILE RUN_ID <tagfuse cli arguments>

The launcher imports every ``tagfuse`` module, wraps the public functions
and public methods of each (``cli`` excepted), then calls
``tagfuse.cli.main``. Each wrapped call records a span (id, parent, name,
start, end) in memory, and a few calls also add exact work counts; both
are written to SPANS_FILE when the CLI returns. Nothing in the program
changes: a later change may add spans inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
from collections import defaultdict

# Called once per fusion candidate, about 10^6 times in a depth sweep; a
# span each would cost more than the work it measures. Its time stays in
# the self time of ``fusion.fuse``.
UNTRACED = {"fusion.combined_rank"}
UNWRAPPED_MODULES = {"cli"}
ROOT_SPAN = "cli.main"


def _size(path: str) -> int:
    return os.path.getsize(path)


# Span name -> f(arg, result) -> {metric: count}; ``arg(name)`` returns the
# call's argument of that name.
COUNTERS = {
    "text.tokenize": lambda arg, r: {"text.tokens": len(r)},
    "semantic.fit_vocabulary": lambda arg, r: {"semantic.vocabulary_size": len(r)},
    "semantic.vectorize": lambda arg, r: {"semantic.tfidf_nnz": r.matrix.nnz},
    "classifier.train": lambda arg, r: {"classifier.train_rows": r.n_positives + r.n_negatives},
    "forest.RandomForest.predict_proba": lambda arg, r: {"forest.RandomForest.predict_proba.rows": len(r)},
    "synsets.synset_rank": lambda arg, r: {"synsets.S_total": len(r)},
    "ranking.read_ranked_list": lambda arg, r: {"ranking.read_ranked_list.entries": len(r)},
    "index.Index.save": lambda arg, r: {"index.artifact_bytes": _size(arg("path"))},
    "manifest.append_entry": lambda arg, r: {
        "manifest.bytes_hashed": sum(map(_size, [*arg("inputs"), *arg("outputs")]))
    },
}


class Tracer:
    """Spans and counts of one process, kept in memory until ``write``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.stack = [0]
        self.next_id = 1

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.next_id
            self.next_id += 1
            parent = self.stack[-1]
            self.stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((span, parent, name, start, end))
            if counter:
                arg = lambda key: signature.bind(*args, **kwargs).arguments[key]  # noqa: E731
                for key, value in counter(arg, result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        """Replace every public function and method of ``tagfuse`` modules."""
        import tagfuse

        modules = {
            info.name: importlib.import_module(f"tagfuse.{info.name}")
            for info in pkgutil.iter_modules(tagfuse.__path__)
        }
        wrapped = {}
        for short, module in modules.items():
            if short in UNWRAPPED_MODULES:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and f"{short}.{attr}" not in UNTRACED:
                    wrapped[obj] = self.wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{short}.{attr}")
        # Rebind every module-level name, so calls through ``from .x import f``
        # and calls inside the defining module both go through the wrapper.
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, member in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if attr.startswith("_") or name in UNTRACED:
                continue
            if inspect.isfunction(member):
                setattr(cls, attr, self.wrap(member, name))
            elif isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self.wrap(member.__func__, name)))

    def calibrate(self, n: int = 20000) -> float:
        """Seconds a span adds to one call, from a traced and a bare no-op."""

        def noop():
            pass

        traced = self.wrap(noop, "calibration")
        started = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(n):
            traced()
        cost = (time.perf_counter() - started - bare) / n
        del self.spans[-n:]
        return max(cost, 0.0)

    def write(self, path: str, argv: list[str], setup_s: float, per_span_s: float) -> None:
        """Write the spans; the header's ``overhead_s`` is the tracer's own cost:
        set-up, ``per_span_s`` for each span, and this serialization."""
        started = time.perf_counter()
        prefix = f"{self.run_id}/{os.getpid()}"
        lines = [
            json.dumps(
                {
                    "run": self.run_id,
                    "id": f"{prefix}/{span}",
                    "parent": None if parent is None else f"{prefix}/{parent}",
                    "name": name,
                    "start": start,
                    "end": end,
                }
            )
            for span, parent, name, start, end in self.spans
        ]
        overhead = setup_s + len(self.spans) * per_span_s + time.perf_counter() - started
        header = {"run": self.run_id, "argv": argv, "counts": self.counts, "overhead_s": overhead}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([json.dumps(header), *lines]) + "\n")


def main(argv: list[str]) -> int:
    spans_path, run_id, *cli_args = argv
    from tagfuse import cli  # the imports an untraced call pays too

    started = time.perf_counter()
    tracer = Tracer(run_id)
    tracer.install()
    per_span_s = tracer.calibrate()
    setup_s = time.perf_counter() - started
    start = time.perf_counter()
    try:
        return cli.main(cli_args)
    finally:
        tracer.spans.append((0, None, ROOT_SPAN, start, time.perf_counter()))
        tracer.write(spans_path, cli_args, setup_s, per_span_s)


def summarize(calls: list[tuple[str, str, float]]) -> dict[str, float]:
    """Per-layer metrics from traced calls given as (spans file, stage, wall).

    ``<span>.s`` is self time: the span's duration minus the time its
    traced children cover. ``stage.<S>.unattributed_s`` is the part of the
    call's wall time that no layer span covers: interpreter start, imports,
    the CLI's own code and the tracer's set-up. ``trace.overhead_s`` is the
    tracer's own cost as each process estimated it.
    """
    metrics: dict[str, float] = defaultdict(float)
    for path, stage, wall in calls:
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            spans = [json.loads(line) for line in fh]
        covered: dict[str, float] = defaultdict(float)
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        root = next(s["id"] for s in spans if s["parent"] is None)
        for span in spans:
            if span["id"] == root:
                continue
            metrics[f"{span['name']}.s"] += span["end"] - span["start"] - covered[span["id"]]
            metrics[f"{span['name']}.calls"] += 1
        metrics[f"stage.{stage}.unattributed_s"] += wall - covered[root]
        metrics["trace.overhead_s"] += header["overhead_s"]
        for key, value in header["counts"].items():
            metrics[key] += value
    return dict(metrics)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

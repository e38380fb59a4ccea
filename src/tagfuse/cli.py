"""Command-line pipeline driver.

Subcommands map to pipeline stages and communicate only through files in
the output directory, so expensive stages (indexing, embedding, training)
are computed once and reused across fusion-depth sweeps:

    index       build and save the inverted index
    embed       TF-IDF from the index's tokens, truncated SVD; save embeddings
    train-rank  per topic, one worker per CPU: build dataset, train forest,
                rank the corpus
    synset      per topic: rank the corpus by synonym-set search
    fuse        fuse the two rankings per topic and invert to tags
    eval        score every method against ground truth
    all         run the six stages above in order
    bench       generate a synthetic corpus, then run the full pipeline

Logs go to standard error; the evaluation table also prints to standard
output. Exit codes: 0 success, 2 configuration or usage error, 3 data or
pipeline failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import logging
import math
import os
import signal
import sys
import threading
import time

from . import __version__
from .benchmark import generate, topic_names
from .classifier import build_dataset, rank_corpus, train
from .config import RunConfig, load_config, topic_slug
from .corpus import ingest_corpus, load_ground_truth, save_corpus, save_ground_truth, write_jsonl
from .errors import ConfigError, TagfuseError, UntrainableTopic
from .evaluation import format_table, sweep, write_plot_series
from .fusion import fuse, invert, write_assignments
from .index import Index, build_ground_truth, build_index, check_fields
from .manifest import append_entry, config_fingerprint, file_sha256, manifest_key, read_manifest
from .ranking import (
    ORIGIN_CLASSIFIER, ORIGIN_FUSION, ORIGIN_SYNSET, read_ranked_list, write_ranked_list,
)
from .semantic import SemanticMatrix, truncated_svd, unmap_freed_arrays, vectorize
from .seeds import derive_seed
from .synsets import load_synsets, save_synsets, synset_rank

logger = logging.getLogger(__name__)


class Workspace:
    """Canonical artifact locations inside one output directory, and the
    files one stage run reads and writes there."""

    def __init__(self, output_dir: str, command: str):
        self.root = output_dir
        self.command = command
        self.inputs: dict[str, str] = {}  # each file read, to its digest
        self.outputs: list[str] = []
        self.extra: dict = {}  # further keys for the manifest line
        # Each manifest key to the latest entry that wrote it.
        self._writers = {key: e for e in read_manifest(output_dir) for key in e["outputs"]}

    def path(self, *parts: str) -> str:
        return os.path.join(self.root, *parts)

    @property
    def index_path(self) -> str:
        return self.path("index.pkl")

    @property
    def embedding_paths(self) -> tuple[str, str]:
        return self.path("embedding.npy"), self.path("embedding.json")

    def classifier_list_path(self, topic: str) -> str:
        return self.path("ranked", "classifier", f"{topic_slug(topic)}.tsv")

    def synset_list_path(self, topic: str) -> str:
        return self.path("ranked", "synset", f"{topic_slug(topic)}.tsv")

    def fusion_list_path(self, a: int, topic: str) -> str:
        return self.path("fusion", f"a{a}", f"{topic_slug(topic)}.tsv")

    def tags_path(self, a: int) -> str:
        return self.path("tags", f"tags_a{a}.jsonl")

    def writer(self, path: str) -> dict | None:
        """The manifest entry of the stage that last wrote ``path``."""
        return self._writers.get(manifest_key(self.root, path))

    def input(self, path: str, producer: str | None = None) -> str:
        """Digest and record a file the stage reads, before it reads it. A file
        that ``producer`` or any manifest entry writes must hold the bytes its
        latest writer recorded, and so must that writer's inputs but its own
        outputs, or TagfuseError names the stage to re-run."""
        if producer and not os.path.exists(path):
            raise ConfigError(f"missing {path}; run 'tagfuse {producer}' first")
        digest = self.inputs[path] = file_sha256(path)
        if (writer := self.writer(path)) is None and producer is None:
            return path
        stage = (writer["command"] if writer else producer).removesuffix("-generate")  # bench
        rerun = f"{'delete it and ' if stage == self.command else ''}re-run 'tagfuse {stage}'"
        if writer is None:
            raise TagfuseError(f"{path}: no manifest entry wrote it; {rerun}")
        if writer["outputs"][manifest_key(self.root, path)] != digest:
            raise TagfuseError(f"{path}: changed since 'tagfuse {stage}' wrote it; {rerun}")
        if stage == self.command:  # train-rank's last report: held to its own bytes
            return path
        for source, seen in writer["inputs"].items():
            latest = self._writers.get(source)
            if latest and source not in writer["outputs"] and latest["outputs"][source] != seen:
                raise TagfuseError(f"{path}: built from an older {source}; {rerun}")
        return path

    def output(self, path: str) -> str:
        """Record a file the stage writes; return the partial path to write
        it at, which ``_run`` renames to ``path`` once the stage succeeds."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self.outputs.append(path)
        return path + ".partial"


@contextlib.contextmanager
def _signals_held():
    """Hold SIGINT and SIGTERM back until the block exits, then raise them.

    A handler that records them holds them back; a blocking signal mask
    would not, since the kernel hands a signal to any thread that does not
    block it, such as a BLAS thread, and Python then runs the handler in the
    main thread all the same. Only the main thread runs handlers."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    held = []
    previous = {
        sig: signal.signal(sig, lambda signum, frame: held.append(signum))
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        yield
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        for sig in held:
            signal.raise_signal(sig)


@contextlib.contextmanager
def _run(cfg: RunConfig, command: str):
    """Run one stage in a fresh :class:`Workspace`, which reads the manifest.

    On success every output is renamed into place, then the manifest gets
    one line with exactly the recorded inputs and outputs. On any failure
    the partial files are removed and no line is written, so the previous
    artifacts stay as they were. A SIGINT or SIGTERM that arrives during
    the renames or the manifest line waits until both are done.
    """
    started = time.time()
    ws = Workspace(cfg.output_dir, command)
    try:
        yield ws
        with _signals_held():
            for path in ws.outputs:
                os.replace(path + ".partial", path)
            append_entry(
                cfg.output_dir, command, cfg.seed, config_fingerprint(cfg),
                ws.inputs, ws.outputs, started, ws.extra,
            )
    except BaseException:
        for path in ws.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + ".partial")
        raise


def _require_input(path: str | None, what: str) -> str:
    if not path:
        raise ConfigError(f"config does not set {what}")
    if not os.path.exists(path):
        raise ConfigError(f"{what} does not exist: {path}")
    return path


def _load_index(cfg: RunConfig, ws: Workspace) -> Index:
    """The saved index, if built from ``corpus_path``, its entry's one input."""
    path = ws.input(ws.index_path, "index")
    [(corpus, digest)] = ws.writer(path)["inputs"].items()
    if cfg.corpus_path and file_sha256(cfg.corpus_path) != digest:
        raise TagfuseError(f"{path} was built from {corpus}, not from corpus_path "
                           f"{cfg.corpus_path}; re-run 'tagfuse index'")
    return Index.load(path)


def _topics(cfg: RunConfig) -> list[str]:
    if not cfg.topics:
        raise ConfigError("config must list at least one topic")
    return list(cfg.topics)


# -- stages ---------------------------------------------------------------


def stage_index(cfg: RunConfig) -> None:
    with _run(cfg, "index") as ws:
        corpus = ingest_corpus(ws.input(_require_input(cfg.corpus_path, "corpus_path")))
        build_index(corpus, cfg.index).save(ws.output(ws.index_path))


def stage_embed(cfg: RunConfig) -> None:
    unmap_freed_arrays()
    with _run(cfg, "embed") as ws:
        tfidf = vectorize(_load_index(cfg, ws), cfg.semantic)
        sem = truncated_svd(tfidf, cfg.semantic, seed=derive_seed(cfg.seed, "svd"))
        sem.save(*map(ws.output, ws.embedding_paths))
        ws.extra = {"vocabulary_size": tfidf.matrix.shape[1], "k": cfg.semantic.k}


# Set only in train-rank's pool workers: the config, index and embedding
# they inherit through fork.
_topic_inputs: tuple = ()


def _inherit_topic_inputs(*inputs) -> None:
    global _topic_inputs
    _topic_inputs = inputs
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # the pool ends its workers by SIGTERM


def _train_topic(topic: str, path: str) -> tuple[str | None, dict]:
    """Dataset, forest and ranked list (written to ``path``) for one topic,
    in a pool worker.

    Returns ``(None, record)`` for the training report's "trained" list, or
    ``(warning, record)`` for its "skipped" list when ``build_dataset`` finds
    the topic untrainable. A skipped topic still gets a classifier list, an
    empty one, so that ``fuse`` reads every topic the same way.
    """
    cfg, index, sem = _topic_inputs
    try:
        positives, negatives = build_dataset(topic, index, cfg.classifier, seed=cfg.seed)
    except UntrainableTopic as exc:
        write_ranked_list(([], []), topic, ORIGIN_CLASSIFIER, path)
        return f"skipping topic: {exc}", exc.record
    forest = train(topic, positives, negatives, sem, cfg.classifier, seed=cfg.seed)
    write_ranked_list(rank_corpus(forest, sem, cfg.classifier), topic, ORIGIN_CLASSIFIER, path)
    oob = forest.oob_accuracy
    return None, {
        "topic": topic,
        "positives": forest.n_positives,
        "negatives": forest.n_negatives,
        "oob_accuracy": None if math.isnan(oob) else oob,  # JSON has no NaN
    }


def stage_train_rank(cfg: RunConfig) -> None:
    # Imported here: at module level they would slow every CLI start.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with _run(cfg, "train-rank") as ws:
        index = _load_index(cfg, ws)
        sem = SemanticMatrix.load(*[ws.input(p, "embed") for p in ws.embedding_paths])
        # Recorded here: a worker's copy of ``ws`` records nothing.
        topics = _topics(cfg)
        paths = [ws.output(ws.classifier_list_path(t)) for t in topics]
        # The operator's report; a --topics run keeps the other topics' records.
        summary_path = ws.path("ranked", "classifier", "_training.json")
        summary: dict[str, list[dict]] = {"trained": [], "skipped": []}
        if os.path.exists(summary_path):
            with open(ws.input(summary_path, "train-rank"), encoding="utf-8") as fh:
                old = json.load(fh)
            summary = {k: [r for r in old[k] if r["topic"] not in topics] for k in summary}

        # Topics are independent (each has its own seeds), so they train in
        # parallel, one worker per CPU this process may run on (per CPU where
        # there is no affinity call, as on macOS). Fork, not the platform
        # default, lets the workers inherit the index and embedding instead
        # of unpickling them; the CLI starts no thread of its own.
        affinity = getattr(os, "sched_getaffinity", None)
        with ProcessPoolExecutor(
            min(len(affinity(0)) if affinity else os.cpu_count() or 1, len(topics)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_inherit_topic_inputs,
            initargs=(cfg, index, sem),
        ) as pool:
            results = list(pool.map(_train_topic, topics, paths))

        for warning, record in results:
            if warning:
                logger.warning("%s", warning)
            summary["skipped" if warning else "trained"].append(record)
        with open(ws.output(summary_path), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
        ws.extra = {"skipped_topics": [record["topic"] for warning, record in results if warning]}


def stage_synset(cfg: RunConfig) -> None:
    with _run(cfg, "synset") as ws:
        index = _load_index(cfg, ws)
        check_fields(cfg.synset_search.fields, index.fields, "synset_search.fields", "indexed")
        synsets = load_synsets(
            ws.input(_require_input(cfg.synsets_path, "synsets_path")), _topics(cfg)
        )
        for topic in _topics(cfg):
            ranked = synset_rank(synsets[topic], index, cfg.synset_search)
            path = ws.output(ws.synset_list_path(topic))
            write_ranked_list(ranked, topic, ORIGIN_SYNSET, path)


@contextlib.contextmanager
def _without_cyclic_gc():
    """Pause the cyclic garbage collector, which would keep re-scanning the
    stage's many acyclic lists and tuples; restore its state on exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_without_cyclic_gc()
def stage_fuse(cfg: RunConfig) -> None:
    with _run(cfg, "fuse") as ws:
        # Each topic is fused once, at the greatest depth: the list at depth
        # a is its first a * |S| entries.
        a_max = max(cfg.fusion.a_values)
        deepest = {}  # topic to (|S|, fused ids, their combined ranks)
        for topic in _topics(cfg):
            classifier_path = ws.input(ws.classifier_list_path(topic), "train-rank")
            synset_path = ws.input(ws.synset_list_path(topic), "synset")
            classifier_ids, _ = read_ranked_list(classifier_path, topic, ORIGIN_CLASSIFIER)
            synset_ids, _ = read_ranked_list(synset_path, topic, ORIGIN_SYNSET)
            if not synset_ids:  # a topic foreign to the corpus must not kill a batch run
                logger.warning("topic %r: empty synset list, fusion is empty", topic)
            deepest[topic] = len(synset_ids), *fuse(synset_ids, classifier_ids, a_max)
        for a in sorted(cfg.fusion.a_values):
            fused = {}  # topic to the ids of its list at depth a
            for topic, (size, ids, ranks) in deepest.items():
                fused[topic] = ids[: a * size]
                path = ws.output(ws.fusion_list_path(a, topic))
                write_ranked_list((fused[topic], ranks[: a * size]), topic, ORIGIN_FUSION, path)
            assignments = invert(fused, score_threshold=cfg.fusion.score_threshold)
            write_assignments(assignments, ws.output(ws.tags_path(a)))
        ws.extra = {"score_threshold": cfg.fusion.score_threshold}  # eval inverts with it too


def _load_truth(cfg: RunConfig, ws: Workspace) -> dict[str, set[str]]:
    if cfg.ground_truth_path:
        path = ws.input(_require_input(cfg.ground_truth_path, "ground_truth_path"))
        return load_ground_truth(path, _topics(cfg))
    if cfg.ground_truth_fields:
        index = _load_index(cfg, ws)
        check_fields(cfg.ground_truth_fields, index.fields, "ground_truth_fields", "indexed")
        return build_ground_truth(index, _topics(cfg), cfg.ground_truth_fields)
    raise ConfigError("config sets neither ground_truth_path nor ground_truth_fields")


@_without_cyclic_gc()
def stage_eval(cfg: RunConfig) -> None:
    with _run(cfg, "eval") as ws:
        topics = _topics(cfg)
        truth = _load_truth(cfg, ws)

        def id_columns(origin, path, stage):  # of each topic's list at path(topic)
            return {t: read_ranked_list(ws.input(path(t), stage), t, origin)[0] for t in topics}

        # A method's tags are its lists inverted, as fuse inverted the fused lists.
        methods = {"Synset": invert(id_columns(ORIGIN_SYNSET, ws.synset_list_path, "synset"))}
        threshold = cfg.fusion.score_threshold
        for a in sorted(cfg.fusion.a_values):
            paths = {t: ws.fusion_list_path(a, t) for t in topics}
            fused = id_columns(ORIGIN_FUSION, paths.get, "fuse")
            for path in paths.values():
                if (published := ws.writer(path)["score_threshold"]) != threshold:
                    raise TagfuseError(f"{path}: fused under fusion.score_threshold {published}, "
                                       f"but this config sets {threshold}; re-run 'tagfuse fuse'")
            methods[f"Fusion{a}"] = invert(fused, score_threshold=threshold)

        reports = sweep(methods, truth, topics)
        table = format_table(reports)
        table_path, records_path, series_path = (
            ws.output(ws.path("reports", name))
            for name in ("evaluation.txt", "evaluation.jsonl", "plot_series.tsv")
        )
        with open(table_path, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        write_jsonl(reports, records_path)
        write_plot_series(reports, series_path)
        print(table)


# Pipeline order: ``all`` runs the stages as listed.
_STAGES = {
    "index": stage_index,
    "embed": stage_embed,
    "train-rank": stage_train_rank,
    "synset": stage_synset,
    "fuse": stage_fuse,
    "eval": stage_eval,
}


def stage_all(cfg: RunConfig) -> None:
    for name, stage in _STAGES.items():
        logger.info("stage: %s", name)
        stage(cfg)


def stage_bench(cfg: RunConfig) -> None:
    spec = cfg.benchmark
    with _run(cfg, "bench-generate") as ws:
        corpus, truth, synsets = generate(spec)
        corpus_path, synsets_path, truth_path = (
            ws.path("data", name)
            for name in ("corpus.jsonl", "synsets.jsonl", "ground_truth.jsonl")
        )
        save_corpus(corpus, ws.output(corpus_path))
        save_synsets(synsets, ws.output(synsets_path))
        save_ground_truth(truth, ws.output(truth_path))
        del corpus, truth, synsets  # not held through the stages, which read the files
        ws.extra = {"benchmark": dataclasses.asdict(spec)}

    pipeline_cfg = dataclasses.replace(
        cfg,
        corpus_path=corpus_path,
        synsets_path=synsets_path,
        ground_truth_path=truth_path,
        ground_truth_fields=None,
        topics=tuple(topic_names(spec)),
    )
    stage_all(pipeline_cfg)


# -- entry point ----------------------------------------------------------


class _Terminated(BaseException):
    """A SIGTERM, raised in the running stage so that ``_run`` removes its partials."""

    @staticmethod
    def handler(signum, frame):
        raise _Terminated


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.output_dir is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.output_dir)
    if getattr(args, "topics", None) is not None:
        wanted = [t.strip() for t in args.topics.split(",") if t.strip()]
        if not wanted:  # an empty shell variable must not stand for every topic
            raise ConfigError("--topics names no topic")
        unknown = [t for t in wanted if t not in cfg.topics]
        if unknown:
            raise ConfigError(f"--topics not in config: {unknown}")
        cfg = dataclasses.replace(cfg, topics=tuple(wanted))
    if getattr(args, "a", None) is not None:
        cfg = dataclasses.replace(
            cfg, fusion=dataclasses.replace(cfg.fusion, a_values=(args.a,))
        )
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagfuse",
        description="Tag a scientific corpus with topics by fusing synonym-set "
        "search and a semantic classifier.",
    )
    parser.add_argument("--version", action="version", version=f"tagfuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # --topics only where the other topics' outputs stay (their own files;
    # train-rank merges its report), not where one output covers every topic.
    def add(name: str, help_text: str, topics_flag: bool = False, a_flag: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--config", default=None, help="JSON config file (bench runs on defaults without one)"
        )
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--output-dir", default=None, help="override the output directory")
        if topics_flag:
            p.add_argument("--topics", default=None, help="comma-separated subset of topics")
        if a_flag:
            p.add_argument("--a", type=int, default=None, help="single fusion depth factor")
        p.add_argument("-v", "--verbose", action="store_true", help="debug-level logging")
        return p

    add("index", "build and save the inverted index")
    add("embed", "compute and save document embeddings")
    add("train-rank", "train per-topic classifiers and rank the corpus", topics_flag=True)
    add("synset", "rank the corpus by synonym-set search", topics_flag=True)
    add("fuse", "fuse rankings and emit tag assignments", a_flag=True)
    add("eval", "evaluate methods against ground truth", a_flag=True)
    add("all", "run index, embed, train-rank, synset, fuse, eval", a_flag=True)
    add("bench", "generate a synthetic corpus and run the pipeline", a_flag=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # A SIGTERM still ends the process by SIGTERM, once the stage cleaned up.
    main_thread = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _Terminated.handler) if main_thread else None
    try:
        if args.config is not None:
            cfg = load_config(args.config)
        elif args.command == "bench":
            cfg = RunConfig(output_dir="runs/bench")
        else:
            raise ConfigError("--config is required (only 'bench' runs without one)")
        cfg = _apply_overrides(cfg, args)
        if args.command == "all":
            stage_all(cfg)
        elif args.command == "bench":
            stage_bench(cfg)
        else:
            _STAGES[args.command](cfg)
    except ConfigError as exc:
        logger.error("%s", exc)
        return 2
    except (TagfuseError, OSError) as exc:  # OSError: an unreadable input
        logger.error("%s", exc)
        return 3
    except _Terminated:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.raise_signal(signal.SIGTERM)
    finally:
        if main_thread:
            signal.signal(signal.SIGTERM, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())

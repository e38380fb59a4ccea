"""Command-line pipeline driver.

Subcommands map to pipeline stages and communicate only through files in
the output directory, so expensive stages (indexing, embedding, training)
are computed once and reused across fusion-depth sweeps:

    index       build and save the inverted index
    embed       fit vocabulary, TF-IDF, truncated SVD; save embeddings
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
import dataclasses
import json
import logging
import math
import os
import sys
import time

from . import __version__
from .benchmark import generate, topic_names
from .classifier import build_dataset, rank_corpus, train
from .config import RunConfig, load_config, topic_slug
from .corpus import (
    Corpus,
    ingest_corpus,
    load_ground_truth,
    save_corpus,
    save_ground_truth,
)
from .errors import ConfigError, InsufficientPositives, TagfuseError
from .evaluation import format_table, sweep, write_plot_series
from .fusion import fuse, invert, read_assignments, write_assignments
from .index import Index, build_ground_truth, build_index, check_corpus_fields
from .manifest import append_entry, config_fingerprint
from .ranking import (
    ORIGIN_CLASSIFIER, ORIGIN_FUSION, RankedList, read_ranked_list, write_ranked_list
)
from .semantic import SemanticMatrix, truncated_svd, vectorize
from .seeds import derive_seed
from .synsets import load_synsets, save_synsets, synset_rank

logger = logging.getLogger(__name__)


class Workspace:
    """Canonical artifact locations inside one output directory."""

    def __init__(self, output_dir: str):
        self.root = output_dir

    def path(self, *parts: str) -> str:
        return os.path.join(self.root, *parts)

    @property
    def index_path(self) -> str:
        return self.path("index.pkl")

    @property
    def embedding_prefix(self) -> str:
        return self.path("embedding")

    def classifier_list_path(self, topic: str) -> str:
        return self.path("ranked", "classifier", f"{topic_slug(topic)}.tsv")

    def synset_list_path(self, topic: str) -> str:
        return self.path("ranked", "synset", f"{topic_slug(topic)}.tsv")

    @property
    def training_summary_path(self) -> str:
        return self.path("ranked", "classifier", "_training.json")

    def fusion_list_path(self, a: int, topic: str) -> str:
        return self.path("fusion", f"a{a}", f"{topic_slug(topic)}.tsv")

    def tags_path(self, a: int) -> str:
        return self.path("tags", f"tags_a{a}.jsonl")

    def report_path(self, name: str) -> str:
        return self.path("reports", name)

    def ensure(self, *parts: str) -> str:
        full = self.path(*parts)
        os.makedirs(full, exist_ok=True)
        return full


def _require(path: str, hint: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"missing {path}; run 'tagfuse {hint}' first")
    return path


def _require_input(path: str | None, what: str) -> str:
    if not path:
        raise ConfigError(f"config does not set {what}")
    if not os.path.exists(path):
        raise ConfigError(f"{what} does not exist: {path}")
    return path


def _topics(cfg: RunConfig) -> list[str]:
    if not cfg.topics:
        raise ConfigError("config must list at least one topic")
    return list(cfg.topics)


def _load_corpus(cfg: RunConfig) -> Corpus:
    return ingest_corpus(_require_input(cfg.corpus_path, "corpus_path"))


def _record(cfg, command, inputs, outputs, started, extra=None):
    append_entry(
        cfg.output_dir,
        command,
        cfg.seed,
        config_fingerprint(cfg),
        inputs,
        outputs,
        started,
        extra,
    )


# -- stages ---------------------------------------------------------------


def stage_index(cfg: RunConfig) -> None:
    started = time.time()
    ws = Workspace(cfg.output_dir)
    corpus = _load_corpus(cfg)
    index = build_index(corpus, cfg.index)
    ws.ensure()
    index.save(ws.index_path)
    _record(cfg, "index", [cfg.corpus_path], [ws.index_path], started)


def stage_embed(cfg: RunConfig) -> None:
    started = time.time()
    ws = Workspace(cfg.output_dir)
    corpus = _load_corpus(cfg)
    tfidf = vectorize(corpus, cfg.semantic)
    sem = truncated_svd(tfidf, cfg.semantic, seed=derive_seed(cfg.seed, "svd"))
    ws.ensure()
    sem.save(ws.embedding_prefix)
    _record(
        cfg,
        "embed",
        [cfg.corpus_path],
        [f"{ws.embedding_prefix}.npy", f"{ws.embedding_prefix}.json"],
        started,
        extra={"vocabulary_size": tfidf.matrix.shape[1], "k": cfg.semantic.k},
    )


# Set only in train-rank's pool workers: the config, workspace, index and
# embedding they inherit through fork.
_topic_inputs: tuple = ()


def _inherit_topic_inputs(*inputs) -> None:
    global _topic_inputs
    _topic_inputs = inputs


def _train_topic(topic: str) -> tuple[str | None, dict]:
    """Dataset, forest and ranked list for one topic, in a pool worker.

    Returns ``(None, record)`` for the training report's "trained" list, or
    ``(warning, record)`` for its "skipped" list when the topic has too few
    positives. A skipped topic still gets a classifier list, an empty one,
    so that ``fuse`` reads every topic the same way.
    """
    cfg, ws, index, sem = _topic_inputs
    path = ws.classifier_list_path(topic)
    try:
        dataset = build_dataset(topic, index, cfg.classifier, seed=cfg.seed)
    except InsufficientPositives as exc:
        write_ranked_list(RankedList(topic, ORIGIN_CLASSIFIER), path)
        record = {"topic": topic, "positives": exc.found, "required": exc.required}
        return f"skipping topic: {exc}", record
    forest = train(dataset, sem, cfg.classifier, seed=cfg.seed)
    write_ranked_list(rank_corpus(topic, forest, sem, cfg.classifier), path)
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

    started = time.time()
    ws = Workspace(cfg.output_dir)
    index = Index.load(_require(ws.index_path, "index"))
    _require(f"{ws.embedding_prefix}.json", "embed")
    sem = SemanticMatrix.load(ws.embedding_prefix)
    ws.ensure("ranked", "classifier")

    # Topics are independent (each has its own seeds), so they train in
    # parallel, one worker per CPU this process may run on. Fork, not the
    # platform default, lets the workers inherit the index and embedding
    # instead of unpickling them; the CLI starts no thread of its own.
    topics = _topics(cfg)
    with ProcessPoolExecutor(
        min(len(os.sched_getaffinity(0)), len(topics)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_inherit_topic_inputs,
        initargs=(cfg, ws, index, sem),
    ) as pool:
        results = list(pool.map(_train_topic, topics))

    # A report for the operator; no stage reads it.
    summary: dict[str, list[dict]] = {"trained": [], "skipped": []}
    for warning, record in results:
        if warning:
            logger.warning("%s", warning)
        summary["skipped" if warning else "trained"].append(record)
    with open(ws.training_summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    _record(
        cfg,
        "train-rank",
        [ws.index_path, f"{ws.embedding_prefix}.npy"],
        [*map(ws.classifier_list_path, topics), ws.training_summary_path],
        started,
        extra={"skipped_topics": [s["topic"] for s in summary["skipped"]]},
    )


def stage_synset(cfg: RunConfig) -> None:
    started = time.time()
    ws = Workspace(cfg.output_dir)
    index = Index.load(_require(ws.index_path, "index"))
    unindexed = [f for f in cfg.synset_search.fields if f not in index.fields]
    if unindexed:
        raise ConfigError(
            f"synset_search.fields names unindexed {unindexed} "
            f"(indexed fields: {list(index.fields)})"
        )
    synsets = load_synsets(
        _require_input(cfg.synsets_path, "synsets_path"), _topics(cfg)
    )
    ws.ensure("ranked", "synset")
    outputs = []
    for topic in _topics(cfg):
        ranked = synset_rank(synsets[topic], index, cfg.synset_search)
        out = ws.synset_list_path(topic)
        write_ranked_list(ranked, out)
        outputs.append(out)
    _record(cfg, "synset", [cfg.synsets_path, ws.index_path], outputs, started)


def stage_fuse(cfg: RunConfig) -> None:
    started = time.time()
    ws = Workspace(cfg.output_dir)
    inputs: list[str] = []
    outputs: list[str] = []
    synset_lists: dict[str, RankedList] = {}
    classifier_lists: dict[str, RankedList] = {}
    for topic in _topics(cfg):
        classifier_path = _require(ws.classifier_list_path(topic), "train-rank")
        synset_path = _require(ws.synset_list_path(topic), "synset")
        classifier_lists[topic] = read_ranked_list(classifier_path)
        synset_lists[topic] = read_ranked_list(synset_path)
        inputs += [classifier_path, synset_path]

    # Each topic is fused once, at the greatest depth: the list at depth a
    # is its first a * |S| entries.
    a_max = max(cfg.fusion.a_values)
    deepest = {t: fuse(synset_lists[t], classifier_lists[t], a_max) for t in synset_lists}
    for a in sorted(cfg.fusion.a_values):
        ws.ensure("fusion", f"a{a}")
        ws.ensure("tags")
        fused = {
            t: RankedList(t, ORIGIN_FUSION, full.entries[: a * len(synset_lists[t])])
            for t, full in deepest.items()
        }
        for topic, flist in fused.items():
            outputs.append(ws.fusion_list_path(a, topic))
            write_ranked_list(flist, outputs[-1])
        assignments = invert(fused, score_threshold=cfg.fusion.score_threshold)
        tags_out = ws.tags_path(a)
        write_assignments(assignments, tags_out)
        outputs.append(tags_out)
    _record(cfg, "fuse", inputs, outputs, started)


def _load_truth(cfg: RunConfig):
    if cfg.ground_truth_path:
        return (
            load_ground_truth(
                _require_input(cfg.ground_truth_path, "ground_truth_path"),
                _topics(cfg),
            ),
            [cfg.ground_truth_path],
        )
    if cfg.ground_truth_fields:
        corpus = _load_corpus(cfg)
        check_corpus_fields(corpus, cfg.ground_truth_fields, "ground_truth_fields")
        truth = build_ground_truth(corpus, _topics(cfg), cfg.ground_truth_fields)
        return truth, [cfg.corpus_path]
    raise ConfigError("config sets neither ground_truth_path nor ground_truth_fields")


def stage_eval(cfg: RunConfig) -> None:
    started = time.time()
    ws = Workspace(cfg.output_dir)
    truth, inputs = _load_truth(cfg)

    synset_lists: dict[str, RankedList] = {}
    for topic in _topics(cfg):
        path = _require(ws.synset_list_path(topic), "synset")
        synset_lists[topic] = read_ranked_list(path)
        inputs.append(path)
    methods = {"Synset": invert(synset_lists)}
    for a in sorted(cfg.fusion.a_values):
        path = _require(ws.tags_path(a), "fuse")
        methods[f"Fusion{a}"] = read_assignments(path)
        inputs.append(path)

    reports = sweep(methods, truth, _topics(cfg))
    ws.ensure("reports")
    table = format_table(reports)
    table_path = ws.report_path("evaluation.txt")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    records_path = ws.report_path("evaluation.jsonl")
    with open(records_path, "w", encoding="utf-8") as fh:
        for report in reports:
            fh.write(json.dumps(dataclasses.asdict(report), ensure_ascii=False) + "\n")
    series_path = ws.report_path("plot_series.tsv")
    write_plot_series(reports, series_path)
    print(table)
    _record(
        cfg, "eval", inputs, [table_path, records_path, series_path], started
    )


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
    started = time.time()
    ws = Workspace(cfg.output_dir)
    spec = cfg.benchmark
    corpus, truth, synsets = generate(spec)
    data_dir = ws.ensure("data")
    corpus_path = os.path.join(data_dir, "corpus.jsonl")
    synsets_path = os.path.join(data_dir, "synsets.jsonl")
    truth_path = os.path.join(data_dir, "ground_truth.jsonl")
    save_corpus(corpus, corpus_path)
    save_synsets(synsets, synsets_path)
    save_ground_truth(truth, truth_path)
    _record(
        cfg,
        "bench-generate",
        [],
        [corpus_path, synsets_path, truth_path],
        started,
        extra={"benchmark": dataclasses.asdict(spec)},
    )

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


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.output_dir is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.output_dir)
    if getattr(args, "topics", None):
        wanted = [t.strip() for t in args.topics.split(",") if t.strip()]
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

    # --topics only where each topic's output is its own file: a subset
    # would otherwise overwrite or score outputs that cover every topic.
    def add(name: str, help_text: str, topics_flag: bool = False, a_flag: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--config",
            default=None,
            help="JSON config file (bench runs on defaults without one)",
        )
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument(
            "--output-dir", default=None, help="override the output directory"
        )
        if topics_flag:
            p.add_argument(
                "--topics", default=None, help="comma-separated subset of topics"
            )
        if a_flag:
            p.add_argument(
                "--a", type=int, default=None, help="single fusion depth factor"
            )
        p.add_argument(
            "-v", "--verbose", action="store_true", help="debug-level logging"
        )
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
    except TagfuseError as exc:
        logger.error("%s", exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

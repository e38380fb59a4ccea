import concurrent.futures
import json
import logging
import os
import pickle
import shutil
import signal
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import tagfuse.corpus
import tagfuse.semantic
from tagfuse import cli
from tagfuse.benchmark import BenchmarkSpec, generate, topic_names
from tagfuse.classifier import train
from tagfuse.cli import main
from tagfuse.config import topic_slug
from tagfuse.corpus import load_ground_truth, save_corpus
from tagfuse.errors import TagfuseError
from tagfuse.evaluation import evaluate
from tagfuse.fusion import write_assignments
from tagfuse.manifest import MANIFEST_NAME, file_sha256, read_manifest
from tagfuse.ranking import ORIGIN_CLASSIFIER, read_ranked_list

from conftest import load_tags, run_on_damaged_copy, run_python, snapshot

BENCH = {
    "n_topics": 4,
    "docs_per_topic": 60,
    "vocab_per_topic": 8,
    "background_vocab_size": 150,
    "doc_length": 30,
    "seed": 3,
}

SECTIONS = {
    "semantic": {"k": 24},
    "classifier": {"n_trees": 20, "min_positives": 10},
}

TOPICS = topic_names(BenchmarkSpec(**BENCH))


def write_config(path, **extra):
    raw = {**SECTIONS, **extra}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return str(path)


def derived_config(stage_config, tmp_path, **changes):
    """The stage config with some keys replaced, writing to its own output."""
    with open(stage_config[0], encoding="utf-8") as fh:
        raw = json.load(fh)
    raw.update(changes, output_dir=str(tmp_path / "out"))
    return write_config(tmp_path / "config.json", **raw)


def copy_upstream(bench_out, out):
    """Copy the index, the embedding and the manifest of a bench run into ``out``."""
    out.mkdir()
    for name in ("index.pkl", "embedding.npy", "embedding.json", MANIFEST_NAME):
        shutil.copy(os.path.join(bench_out, name), out / name)


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    """One full bench pipeline; its artifacts back several tests."""
    root = tmp_path_factory.mktemp("bench")
    out = str(root / "out")
    config = write_config(root / "config.json", benchmark=BENCH, output_dir=out, seed=5)
    assert main(["bench", "--config", config]) == 0
    return config, out


@pytest.fixture(scope="module")
def stage_config(bench_run, tmp_path_factory):
    """Config for stage-by-stage runs over the bench-generated data."""
    _, bench_out = bench_run
    root = tmp_path_factory.mktemp("stages")
    out = str(root / "out")
    config = write_config(
        root / "stage_config.json",
        output_dir=out,
        seed=5,
        topics=TOPICS,
        corpus_path=os.path.join(bench_out, "data", "corpus.jsonl"),
        synsets_path=os.path.join(bench_out, "data", "synsets.jsonl"),
        ground_truth_path=os.path.join(bench_out, "data", "ground_truth.jsonl"),
    )
    return config, out


class TestBenchPipeline:
    def test_all_artifacts_exist(self, bench_run):
        _, out = bench_run
        expected = [
            "index.pkl",
            "embedding.npy",
            "embedding.json",
            "ranked/classifier/_training.json",
            "manifest.jsonl",
            "data/corpus.jsonl",
            "data/synsets.jsonl",
            "data/ground_truth.jsonl",
            "reports/evaluation.txt",
            "reports/evaluation.jsonl",
            "reports/plot_series.tsv",
        ]
        for topic in ("domain00", "domain01-studies", "domain02", "domain03-studies"):
            expected.append(f"ranked/classifier/{topic}.tsv")
            expected.append(f"ranked/synset/{topic}.tsv")
            for a in (1, 2, 3, 4):
                expected.append(f"fusion/a{a}/{topic}.tsv")
        for a in (1, 2, 3, 4):
            expected.append(f"tags/tags_a{a}.jsonl")
        missing = [p for p in expected if not os.path.exists(os.path.join(out, p))]
        assert not missing

    def test_the_generated_records_are_freed_before_the_stages_run(
        self, tmp_path, monkeypatch
    ):
        generated = []  # weak references to the generated records

        def recording_generate(spec):
            corpus, truth, synsets = generate(spec)
            generated.extend(map(weakref.ref, corpus))
            return corpus, truth, synsets

        class IndexStarted(Exception):
            pass

        def counting_index(cfg):
            raise IndexStarted(sum(ref() is not None for ref in generated))

        monkeypatch.setattr(cli, "generate", recording_generate)
        monkeypatch.setitem(cli._STAGES, "index", counting_index)
        config = write_config(tmp_path / "config.json", benchmark=BENCH,
                              output_dir=str(tmp_path / "out"))
        with pytest.raises(IndexStarted) as started:
            main(["bench", "--config", config])
        assert len(generated) == len(TOPICS) * BENCH["docs_per_topic"]
        assert started.value.args == (0,)  # records alive when index started

    def test_no_topics_were_skipped(self, bench_run):
        _, out = bench_run
        with open(os.path.join(out, "ranked", "classifier", "_training.json")) as fh:
            summary = json.load(fh)
        assert summary["skipped"] == []
        assert [t["topic"] for t in summary["trained"]] == TOPICS

    def test_training_summary_reports_oob_accuracy(self, bench_run):
        _, out = bench_run
        with open(os.path.join(out, "ranked", "classifier", "_training.json")) as fh:
            trained = json.load(fh)["trained"]
        for entry in trained:
            assert set(entry) == {"topic", "positives", "negatives", "oob_accuracy"}
            assert 0.0 <= entry["oob_accuracy"] <= 1.0

    def test_evaluation_reports_every_method(self, bench_run):
        _, out = bench_run
        with open(os.path.join(out, "reports", "evaluation.jsonl")) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        methods = [r["method"] for r in records]
        assert methods == ["Synset", "Fusion1", "Fusion2", "Fusion3", "Fusion4"]
        for r in records:
            assert set(r) == {
                "method", "intersection_size", "common_match", "precision",
                "recall", "f1", "jaccard", "hamming_loss",
                "label_cardinality_pred", "label_cardinality_true",
                "cardinality_difference",
            }

    def test_manifest_digests_match_the_files(self, bench_run):
        _, out = bench_run
        entries = read_manifest(out)
        commands = [e["command"] for e in entries]
        assert commands == [
            "bench-generate", "index", "embed", "train-rank",
            "synset", "fuse", "eval",
        ]
        for entry in entries:
            for path, digest in {**entry["inputs"], **entry["outputs"]}.items():
                assert not os.path.isabs(path), path  # all inside the output directory
                assert file_sha256(os.path.join(out, path)) == digest, entry["command"]

    def test_every_entry_records_peak_memory(self, bench_run):
        _, out = bench_run
        for entry in read_manifest(out):
            assert entry["peak_rss_mb"] > 0, entry["command"]

    def test_eval_reads_the_truth_and_the_ranked_lists_and_no_tag_file(self, bench_run):
        _, out = bench_run
        [entry] = [e for e in read_manifest(out) if e["command"] == "eval"]
        lists = [f"{topic_slug(t)}.tsv" for t in TOPICS]
        assert list(entry["inputs"]) == sorted([
            "data/ground_truth.jsonl",
            *(f"ranked/synset/{name}" for name in lists),
            *(f"fusion/a{a}/{name}" for a in (1, 2, 3, 4) for name in lists),
        ])


def test_score_threshold_scores_the_published_tags(tmp_path):
    """Each FusionN record scores the tag file that fuse wrote at depth N,
    thinned by ``fusion.score_threshold``."""
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "config.json", benchmark=BENCH, output_dir=str(out), seed=5,
        fusion={"score_threshold": 0.5},
    )
    assert main(["bench", "--config", config]) == 0
    truth = load_ground_truth(str(out / "data" / "ground_truth.jsonl"))
    with open(out / "reports" / "evaluation.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert [r["method"] for r in records] == ["Synset", "Fusion1", "Fusion2", "Fusion3", "Fusion4"]
    for a, record in enumerate(records[1:], start=1):
        tags = load_tags(out / "tags" / f"tags_a{a}.jsonl")
        assert min(score for pairs in tags.values() for _, score in pairs) >= 0.5
        assert record == evaluate(tags, truth, TOPICS, method=f"Fusion{a}")


class TestStagePipeline:
    def test_stages_run_in_order_and_match_bench(self, stage_config, bench_run):
        config, out = stage_config
        _, bench_out = bench_run
        for command in ("index", "embed", "train-rank", "synset", "fuse", "eval"):
            assert main([command, "--config", config]) == 0, command
        stage_tags = open(os.path.join(out, "tags", "tags_a2.jsonl"), "rb").read()
        bench_tags = open(os.path.join(bench_out, "tags", "tags_a2.jsonl"), "rb").read()
        assert stage_tags == bench_tags

    def test_importing_the_cli_loads_no_numerics_pool_or_pickle(self):
        # pytest's own process already holds them: run in a fresh interpreter.
        script = (
            "import sys\n"
            "import tagfuse.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('numpy', 'scipy', 'multiprocessing', 'pickle', 'ctypes')))\n"
        )
        result = run_python("-c", script)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_stages_without_numerics_never_load_numpy(
        self, stage_config, bench_run, tmp_path
    ):
        # pytest's own process already holds numpy: run in a fresh interpreter.
        _, bench_out = bench_run
        config = derived_config(stage_config, tmp_path)
        shutil.copytree(
            os.path.join(bench_out, "ranked", "classifier"),
            tmp_path / "out" / "ranked" / "classifier",
        )
        shutil.copy(os.path.join(bench_out, MANIFEST_NAME), tmp_path / "out")
        script = (
            "import sys\n"
            "import tagfuse.cli\n"
            "for stage in ('index', 'synset', 'fuse', 'eval'):\n"
            "    code = tagfuse.cli.main([stage, '--config', sys.argv[1]])\n"
            "    assert code == 0, stage\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
        )
        result = run_python("-c", script, config)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"
        assert os.path.exists(tmp_path / "out" / "reports" / "evaluation.txt")

    def test_embed_never_loads_scipy_linalg(self, stage_config, bench_run, tmp_path):
        """``import scipy.linalg`` maps a second OpenBLAS into the process, and
        ``import scipy.sparse`` adds about 17 MB to ``embed``'s peak: it runs
        scipy's sparse kernels loaded from their file instead."""
        _, bench_out = bench_run
        config = derived_config(stage_config, tmp_path)
        copy_upstream(bench_out, tmp_path / "out")
        script = (
            "import sys\n"
            "import tagfuse.cli\n"
            "assert tagfuse.cli.main(['embed', '--config', sys.argv[1]]) == 0\n"
            "print([m for m in ('scipy.sparse', 'scipy.linalg') if m in sys.modules])\n"
        )
        result = run_python("-c", script, config)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_embed_hands_the_svd_a_matrix_it_reads_without_a_copy(
        self, stage_config, bench_run, tmp_path, monkeypatch
    ):
        """Every product of the SVD reads the arrays ``vectorize`` returned."""
        _, bench_out = bench_run
        config = derived_config(stage_config, tmp_path)
        copy_upstream(bench_out, tmp_path / "out")
        vectorized, read = [], []
        vectorize, add_doc_side = cli.vectorize, tagfuse.semantic._add_doc_side

        def recording_vectorize(*args):
            vectorized.append(vectorize(*args))
            return vectorized[-1]

        def recording_add_doc_side(a, *args):
            read.append(a)
            return add_doc_side(a, *args)

        monkeypatch.setattr(cli, "vectorize", recording_vectorize)
        monkeypatch.setattr(tagfuse.semantic, "_add_doc_side", recording_add_doc_side)
        assert main(["embed", "--config", config]) == 0
        [tfidf] = vectorized
        assert read
        for a in read:
            for name in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(a, name), getattr(tfidf.matrix, name)), name

    @pytest.mark.parametrize(
        "stage, counter",
        [("train-rank", None), ("synset", "synsets.S_total"),
         ("fuse", "ranking.read_ranked_list.entries")],
        ids=["train-rank", "synset", "fuse"],
    )
    def test_traced_stage_succeeds(self, stage_config, bench_run, tmp_path, stage, counter):
        # The per-layer tracer wraps train-rank's pool workers too; its
        # counters take len() of what the synset and list-reading functions return.
        _, bench_out = bench_run
        config = derived_config(stage_config, tmp_path)
        copy_upstream(bench_out, tmp_path / "out")
        if stage == "fuse":
            shutil.copytree(os.path.join(bench_out, "ranked"), tmp_path / "out" / "ranked")
        tracer = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
        spans = tmp_path / "spans.jsonl"
        result = run_python(tracer, str(spans), "run", stage, "--config", config)
        assert result.returncode == 0, result.stderr
        header = json.loads(spans.read_text(encoding="utf-8").splitlines()[0])
        assert header["argv"][0] == stage
        if counter:
            assert header["counts"][counter] > 0
        else:
            summary = tmp_path / "out" / "ranked" / "classifier" / "_training.json"
            report = json.loads(summary.read_text(encoding="utf-8"))
            assert len(report["trained"]) == len(TOPICS)

    def test_eval_prints_the_table(self, stage_config, capsys):
        config, _ = stage_config
        assert main(["eval", "--config", config]) == 0
        table = capsys.readouterr().out
        assert "Method" in table and "CommonMatch" in table
        for method in ("Synset", "Fusion1", "Fusion4"):
            assert method in table

    def test_undefined_oob_accuracy_is_written_as_null(
        self, stage_config, tmp_path, monkeypatch
    ):
        config = derived_config(stage_config, tmp_path)
        for command in ("index", "embed"):
            assert main([command, "--config", config]) == 0, command

        def no_oob_rows(*args, **kwargs):
            forest = train(*args, **kwargs)
            forest.oob_accuracy = float("nan")
            return forest

        monkeypatch.setattr(cli, "train", no_oob_rows)
        assert main(["train-rank", "--config", config]) == 0
        path = tmp_path / "out" / "ranked" / "classifier" / "_training.json"
        text = path.read_text(encoding="utf-8")
        assert "NaN" not in text
        assert all(t["oob_accuracy"] is None for t in json.loads(text)["trained"])

    def test_fuse_reads_no_training_report(self, stage_config, bench_run, tmp_path):
        _, bench_out = bench_run
        config = derived_config(stage_config, tmp_path)
        out = tmp_path / "out"
        shutil.copytree(os.path.join(bench_out, "ranked"), out / "ranked")
        shutil.copy(os.path.join(bench_out, MANIFEST_NAME), out)
        (out / "ranked" / "classifier" / "_training.json").unlink()
        assert main(["fuse", "--config", config]) == 0
        for a in (1, 2, 3, 4):
            lists = [f"fusion/a{a}/{topic_slug(t)}.tsv" for t in TOPICS]
            for rel in (*lists, f"tags/tags_a{a}.jsonl"):
                with open(os.path.join(bench_out, rel), "rb") as fh:
                    assert (out / rel).read_bytes() == fh.read(), rel
        entry = read_manifest(str(out))[-1]
        assert entry["command"] == "fuse"
        assert not [p for p in entry["inputs"] if p.endswith("_training.json")]

    def test_train_rank_reads_only_the_index_and_the_embedding(
        self, stage_config, bench_run, tmp_path, monkeypatch
    ):
        _, bench_out = bench_run
        config = derived_config(stage_config, tmp_path)
        out = tmp_path / "out"
        copy_upstream(bench_out, out)
        ingests = []

        def counting_ingest(path):
            # Raises too: a call in a pool worker appends to the worker's copy.
            ingests.append(path)
            raise AssertionError(f"train-rank ingested {path}")

        monkeypatch.setattr(cli, "ingest_corpus", counting_ingest)
        monkeypatch.setattr(tagfuse.corpus, "ingest_corpus", counting_ingest)
        assert main(["train-rank", "--config", config]) == 0
        assert ingests == []
        entry = read_manifest(str(out))[-1]
        assert entry["command"] == "train-rank"
        assert set(entry["inputs"]) == {"index.pkl", "embedding.npy", "embedding.json"}
        for topic in TOPICS:
            listed = os.path.join(bench_out, "ranked", "classifier", f"{topic_slug(topic)}.tsv")
            written = out / "ranked" / "classifier" / f"{topic_slug(topic)}.tsv"
            assert written.read_bytes() == open(listed, "rb").read()

    def test_embed_reads_only_the_index(
        self, stage_config, bench_run, tmp_path, monkeypatch
    ):
        _, bench_out = bench_run
        config = derived_config(stage_config, tmp_path)
        out = tmp_path / "out"
        copy_upstream(bench_out, out)
        for name in ("embedding.npy", "embedding.json"):
            (out / name).unlink()

        def no_ingest(path):
            raise AssertionError(f"embed ingested {path}")

        monkeypatch.setattr(cli, "ingest_corpus", no_ingest)
        assert main(["embed", "--config", config]) == 0
        entry = read_manifest(str(out))[-1]
        assert entry["command"] == "embed" and list(entry["inputs"]) == ["index.pkl"]
        for name in ("embedding.npy", "embedding.json"):
            with open(os.path.join(bench_out, name), "rb") as fh:
                assert (out / name).read_bytes() == fh.read(), name

    def test_loading_the_index_never_unpickles(
        self, stage_config, bench_run, tmp_path, monkeypatch
    ):
        _, bench_out = bench_run
        config = derived_config(stage_config, tmp_path)
        out = tmp_path / "out"
        copy_upstream(bench_out, out)

        def refuse(*args, **kwargs):
            raise AssertionError("unpickled")

        for name in ("load", "loads", "Unpickler"):
            monkeypatch.setattr(pickle, name, refuse)
        for command in ("train-rank", "synset"):
            assert main([command, "--config", config]) == 0, command
        for origin in ("classifier", "synset"):
            for topic in TOPICS:
                rel = os.path.join("ranked", origin, f"{topic_slug(topic)}.tsv")
                with open(os.path.join(bench_out, rel), "rb") as fh:
                    assert (out / rel).read_bytes() == fh.read(), rel

    def test_a_override_restricts_the_sweep(self, stage_config, capsys):
        config, _ = stage_config
        assert main(["eval", "--config", config, "--a", "2"]) == 0
        table = capsys.readouterr().out
        assert "Fusion2" in table
        assert "Fusion3" not in table and "Fusion1" not in table

    def test_topics_override_subset(self, stage_config, tmp_path):
        config, out = stage_config
        sub_out = str(tmp_path / "subset")
        assert main(["index", "--config", config, "--output-dir", sub_out]) == 0
        assert (
            main(
                [
                    "synset", "--config", config, "--output-dir", sub_out,
                    "--topics", "domain00",
                ]
            )
            == 0
        )
        assert os.path.exists(os.path.join(sub_out, "ranked", "synset", "domain00.tsv"))
        assert not os.path.exists(
            os.path.join(sub_out, "ranked", "synset", "domain02.tsv")
        )

    def test_train_rank_on_some_topics_keeps_the_others_records(
        self, stage_config, bench_run, tmp_path
    ):
        _, bench_out = bench_run
        config = derived_config(stage_config, tmp_path)
        out = tmp_path / "out"
        shutil.copytree(bench_out, out)
        report = out / "ranked" / "classifier" / "_training.json"
        full = report.read_bytes()
        args = ["train-rank", "--config", config]
        assert main([*args, "--topics", f"{TOPICS[0]},{TOPICS[2]}"]) == 0
        trained = json.loads(full)["trained"]
        assert json.loads(report.read_bytes()) == {
            "trained": [trained[i] for i in (1, 3, 0, 2)], "skipped": []
        }
        assert "ranked/classifier/_training.json" in read_manifest(str(out))[-1]["inputs"]
        # A run over every topic writes the report a first run writes.
        assert main(args) == 0
        assert report.read_bytes() == full

    @pytest.mark.parametrize("topics", ["nope", "", ","])  # "": an empty shell variable
    def test_unknown_topics_override_is_a_usage_error(self, stage_config, caplog, topics):
        config, _ = stage_config
        assert main(["synset", "--config", config, "--topics", topics]) == 2
        assert [r.message for r in caplog.records][-1].startswith("--topics ")

    @pytest.mark.parametrize("command", ["fuse", "eval", "all", "bench"])
    def test_topics_flag_only_where_each_topic_has_its_own_output(
        self, stage_config, capsys, command
    ):
        config, _ = stage_config
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--config", config, "--topics", TOPICS[0]])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --topics" in capsys.readouterr().err


class TestTopicPool:
    """train-rank fans topics out over one worker per CPU in the affinity
    mask; its outputs do not depend on how many workers there are."""

    def run(self, stage_config, bench_run, tmp_path, monkeypatch, cpus):
        _, bench_out = bench_run
        out = tmp_path / f"out-{len(cpus)}"
        copy_upstream(bench_out, out)
        topics = ["absent topic", *TOPICS[:2], "another absent topic", *TOPICS[2:]]
        config = derived_config(stage_config, tmp_path, topics=topics)
        workers = []

        def recording_pool(max_workers, **kwargs):
            workers.append(max_workers)
            return ProcessPoolExecutor(max_workers, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
        assert main(["train-rank", "--config", config, "--output-dir", str(out)]) == 0
        assert workers == [len(cpus)]
        return out / "ranked" / "classifier"

    def test_one_and_three_workers_write_the_same_files(
        self, stage_config, bench_run, tmp_path, monkeypatch, caplog
    ):
        with caplog.at_level(logging.WARNING, logger="tagfuse.cli"):
            one = self.run(stage_config, bench_run, tmp_path, monkeypatch, {0})
            three = self.run(stage_config, bench_run, tmp_path, monkeypatch, {0, 1, 2})
        names = sorted(os.listdir(one))
        assert names == sorted(os.listdir(three))
        assert len(names) == len(TOPICS) + 3
        for name in names:
            assert (one / name).read_bytes() == (three / name).read_bytes(), name
        _, bench_out = bench_run
        for topic in TOPICS:
            name = f"{topic_slug(topic)}.tsv"
            bench_list = os.path.join(bench_out, "ranked", "classifier", name)
            assert (one / name).read_bytes() == open(bench_list, "rb").read()
        summary = json.loads((one / "_training.json").read_text(encoding="utf-8"))
        assert [s["topic"] for s in summary["skipped"]] == [
            "absent topic", "another absent topic"
        ]
        assert [t["topic"] for t in summary["trained"]] == TOPICS
        for topic in ("absent topic", "another absent topic"):
            path = str(one / f"{topic_slug(topic)}.tsv")
            assert read_ranked_list(path, topic, ORIGIN_CLASSIFIER) == ([], [])
        skips = [r.message for r in caplog.records if "skipping topic" in r.message]
        assert len(skips) == 4
        assert ["another" in m for m in skips] == [False, True, False, True]


    def test_without_an_affinity_call_one_worker_per_cpu_writes_the_same_lists(
        self, spec_run, tmp_path, caplog, monkeypatch
    ):
        """macOS has no ``os.sched_getaffinity``."""
        monkeypatch.delattr(os, "sched_getaffinity")
        code, errors = run_on_damaged_copy(
            spec_run, tmp_path, caplog, ".", lambda out: None, "train-rank")
        assert (code, errors) == (0, [])
        ci, copy = spec_run("ci"), tmp_path / "ci-copy"
        assert snapshot(copy, MANIFEST_NAME) == snapshot(ci, MANIFEST_NAME)
        assert read_manifest(str(copy))[-1]["command"] == "train-rank"


class TestStageRunner:
    """A stage renames its outputs into place and appends its manifest line
    only when it succeeds; a failed stage leaves the directory as it was."""

    def previous_run(self, bench_run, tmp_path, *dirs):
        """A copy of the bench's output directory whose files under ``dirs``
        hold bytes no stage writes, so a rewrite in place would show."""
        _, bench_out = bench_run
        out = tmp_path / "out"
        shutil.copytree(bench_out, out)
        for path in (p for d in dirs for p in (out / d).rglob("*") if p.is_file()):
            path.write_bytes(b"previous run\n")
        return out, snapshot(out)

    def test_fuse_failing_at_the_second_depth_changes_nothing(
        self, stage_config, bench_run, tmp_path, monkeypatch
    ):
        out, before = self.previous_run(bench_run, tmp_path, "fusion", "tags")
        config = derived_config(stage_config, tmp_path)
        written = []

        def failing_write(assignments, path):
            written.append(path)
            if len(written) == 2:
                raise TagfuseError("disk full")
            write_assignments(assignments, path)

        monkeypatch.setattr(cli, "write_assignments", failing_write)
        assert main(["fuse", "--config", config]) == 3
        assert len(written) == 2
        assert snapshot(out) == before

    def test_train_rank_failing_in_a_worker_changes_nothing(
        self, stage_config, bench_run, tmp_path, monkeypatch, caplog
    ):
        out, _ = self.previous_run(bench_run, tmp_path, "ranked/classifier")
        # train-rank reads its last report first: it keeps the recorded bytes.
        report = os.path.join("ranked", "classifier", "_training.json")
        shutil.copy(os.path.join(bench_run[1], report), out / report)
        before = snapshot(out)
        config = derived_config(stage_config, tmp_path)

        def failing_train(topic, *args, **kwargs):
            if topic == TOPICS[2]:
                raise TagfuseError(f"cannot train {topic}")
            return train(topic, *args, **kwargs)

        monkeypatch.setattr(cli, "train", failing_train)
        with caplog.at_level(logging.ERROR):
            assert main(["train-rank", "--config", config]) == 3
        assert [r.message for r in caplog.records if r.levelno >= logging.ERROR] == [
            f"cannot train {TOPICS[2]}"
        ]
        assert snapshot(out) == before

    # Each run, in a fresh interpreter that pytest's own handlers stay out of,
    # copies ``out`` and runs fuse there; the k-th rename sends the process a
    # SIGINT. A second thread stands for the BLAS threads numpy starts: the
    # kernel may hand the signal to any thread that does not block it.
    INTERRUPTED_FUSE = """
import os, shutil, signal, sys, threading
from tagfuse.cli import main
config, out, renames, threads = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
for _ in range(threads - 1):
    threading.Thread(target=threading.Event().wait, daemon=True).start()
replace = os.replace
for k in range(1, renames + 1):
    shutil.copytree(out, f"{out}-{k}")
    calls = []

    def interrupting_replace(src, dst):
        calls.append(dst)
        if len(calls) == k:
            os.kill(os.getpid(), signal.SIGINT)
        replace(src, dst)

    os.replace = interrupting_replace
    try:
        main(["fuse", "--config", config, "--output-dir", f"{out}-{k}"])
    except KeyboardInterrupt:
        print(k)
    finally:
        os.replace = replace
"""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_an_interrupted_commit_is_whole_or_absent(
        self, stage_config, bench_run, tmp_path, threads
    ):
        out, before = self.previous_run(bench_run, tmp_path, "fusion", "tags")
        config = derived_config(stage_config, tmp_path)
        _, bench_out = bench_run
        [fuse] = [e for e in read_manifest(bench_out) if e["command"] == "fuse"]
        renames = len(fuse["outputs"])
        result = run_python("-c", self.INTERRUPTED_FUSE, config, str(out), str(renames),
                            str(threads))
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [str(k) for k in range(1, renames + 1)]
        for k in range(1, renames + 1):
            run = f"{out}-{k}"
            if snapshot(run) == before:  # the old outputs, and no new line
                continue
            # The new outputs, each with its digest on one new manifest line.
            *entries, entry = read_manifest(run)
            assert len(entries) == len(read_manifest(out)), k
            assert entries == read_manifest(out), k
            assert entry["command"] == "fuse", k
            assert {p: file_sha256(os.path.join(run, p)) for p in entry["outputs"]} == (
                entry["outputs"]
            ), k
            assert sorted(entry["outputs"]) == sorted(fuse["outputs"]), k
            assert snapshot(run, MANIFEST_NAME) == snapshot(bench_out, MANIFEST_NAME), k

    # In a fresh interpreter: fuse sends itself a SIGTERM once its first tag
    # file is written, while its outputs are still partial files.
    TERMINATED_FUSE = """
import os, signal, sys
from tagfuse import cli
write = cli.write_assignments

def terminating_write(assignments, path):
    write(assignments, path)
    os.kill(os.getpid(), signal.SIGTERM)

cli.write_assignments = terminating_write
cli.main(["fuse", "--config", sys.argv[1]])
"""

    def test_a_sigterm_in_a_stage_removes_its_partials_and_ends_the_process(
        self, stage_config, bench_run, tmp_path
    ):
        out, before = self.previous_run(bench_run, tmp_path, "fusion", "tags")
        config = derived_config(stage_config, tmp_path)
        result = run_python("-c", self.TERMINATED_FUSE, config)
        assert result.returncode == -signal.SIGTERM, result.stderr
        assert snapshot(out) == before  # no partial file; the old outputs and manifest

    def test_a_stage_commits_outside_the_main_thread(self, stage_config, bench_run, tmp_path):
        out, _ = self.previous_run(bench_run, tmp_path, "fusion", "tags")
        config = derived_config(stage_config, tmp_path)
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            assert pool.submit(main, ["fuse", "--config", config]).result() == 0
        _, bench_out = bench_run
        assert snapshot(out, MANIFEST_NAME) == snapshot(bench_out, MANIFEST_NAME)

    @pytest.mark.parametrize("spec", ["bench", "ci"])
    def test_every_artifact_is_the_output_of_exactly_one_entry(self, bench_run, spec_run, spec):
        # A stray ``.partial`` file would show in the snapshot.
        out = bench_run[1] if spec == "bench" else spec_run(spec)
        outputs = [path for entry in read_manifest(out) for path in entry["outputs"]]
        files = snapshot(out, MANIFEST_NAME)
        assert sorted(outputs) == sorted(files)


class TestChain:
    """A stage reads a file of the output directory only with the bytes the
    manifest records for its latest writer, and only if that writer's own
    inputs are still the latest."""

    def test_topics_runs_a_depth_sweep_and_a_copied_directory_pass(
        self, stage_config, bench_run, tmp_path
    ):
        _, bench_out = bench_run
        config = derived_config(stage_config, tmp_path)
        out = tmp_path / "out"
        shutil.copytree(bench_out, out)
        runs = [["train-rank", "--topics", TOPICS[0]], ["synset", "--topics", TOPICS[1]]]
        runs += [[command, "--a", str(a)] for a in (1, 2, 3, 4) for command in ("fuse", "eval")]
        for args in [*runs, ["eval"]]:
            assert main([*args, "--config", config]) == 0, args
        # --topics reorders the training report's records, and nothing else changed.
        unchanged = MANIFEST_NAME, "_training.json"
        assert snapshot(out, *unchanged) == snapshot(bench_out, *unchanged)
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        for command in ("fuse", "eval"):
            assert main([command, "--config", config, "--output-dir", str(copy), "--a", "2"]) == 0
        assert snapshot(copy, MANIFEST_NAME, "reports") == snapshot(out, MANIFEST_NAME, "reports")

    def test_a_changed_pipeline_reruns_into_the_same_directory(
        self, stage_config, bench_run, tmp_path
    ):
        # Each re-run writes a new embedding, which train-rank's last report
        # was not built from: train-rank reads that report all the same.
        bench_config, bench_out = bench_run
        out = tmp_path / "out"
        shutil.copytree(bench_out, out)
        config = derived_config(stage_config, tmp_path)
        assert main(["all", "--config", config, "--seed", "7"]) == 0
        assert main(["bench", "--config", bench_config, "--output-dir", str(out)]) == 0
        assert snapshot(out, MANIFEST_NAME) == snapshot(bench_out, MANIFEST_NAME)

    def test_a_split_commit_exits_three(self, stage_config, bench_run, tmp_path, caplog):
        # Outputs renamed into place with no manifest line, as a SIGKILL
        # between the renames and the append leaves them.
        _, bench_out = bench_run
        out = tmp_path / "out"
        shutil.copytree(bench_out, out)
        manifest = (out / MANIFEST_NAME).read_bytes()
        assert main(["train-rank", "--config", derived_config(stage_config, tmp_path, seed=6)]) == 0
        (out / MANIFEST_NAME).write_bytes(manifest)
        config = derived_config(stage_config, tmp_path)
        path = out / "ranked" / "classifier" / f"{topic_slug(TOPICS[0])}.tsv"
        with caplog.at_level(logging.ERROR):
            assert main(["fuse", "--config", config]) == 3
            (out / MANIFEST_NAME).unlink()  # and a first run's lines all lost
            assert main(["fuse", "--config", config]) == 3
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [
            f"{path}: changed since 'tagfuse train-rank' wrote it; re-run 'tagfuse train-rank'",
            f"{path}: no manifest entry wrote it; re-run 'tagfuse train-rank'",
        ]

    def test_a_torn_manifest_line_exits_three_naming_it(
        self, stage_config, bench_run, tmp_path, caplog
    ):
        _, bench_out = bench_run
        out = tmp_path / "out"
        shutil.copytree(bench_out, out)
        manifest = out / MANIFEST_NAME
        lines = len(manifest.read_text(encoding="utf-8").splitlines())
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write('{"command": "fuse", "inp')
        with caplog.at_level(logging.ERROR):
            assert main(["eval", "--config", derived_config(stage_config, tmp_path)]) == 3
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and errors[0].startswith(f"{manifest}:{lines + 1}: "), errors
        assert not (out / "reports" / "evaluation.txt.partial").exists()

    def test_eval_under_another_score_threshold_than_fuse_exits_three(
        self, stage_config, bench_run, tmp_path, caplog
    ):
        _, bench_out = bench_run
        out = tmp_path / "out"
        shutil.copytree(bench_out, out)
        published = derived_config(stage_config, tmp_path, fusion={"score_threshold": 0.5})
        assert main(["fuse", "--config", published]) == 0
        config = derived_config(stage_config, tmp_path)
        with caplog.at_level(logging.ERROR):
            assert main(["eval", "--config", config, "--a", "2"]) == 3
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        path = out / "fusion" / "a2" / f"{topic_slug(TOPICS[0])}.tsv"
        assert errors == [
            f"{path}: fused under fusion.score_threshold 0.5, but this config sets None; "
            "re-run 'tagfuse fuse'"
        ]

    def test_stages_after_index_check_the_configured_corpus(self, tmp_path, caplog):
        # Two default-spec corpora with the same article ids.
        corpora = []
        for seed in (0, 1):
            corpora.append(str(tmp_path / f"corpus-{seed}.jsonl"))
            save_corpus(generate(BenchmarkSpec(seed=seed))[0], corpora[-1])
        out = tmp_path / "out"
        topics = topic_names(BenchmarkSpec())
        keys = dict(output_dir=str(out), topics=topics, synsets_path=corpora[0])
        assert main(["index", "--config", write_config(
            tmp_path / "index.json", corpus_path=corpora[0], **keys)]) == 0
        config = write_config(tmp_path / "config.json", corpus_path=corpora[1],
                              ground_truth_fields=["subjects"], **keys)
        with caplog.at_level(logging.ERROR):
            for command in ("embed", "train-rank", "synset", "eval"):
                assert main([command, "--config", config]) == 3, command
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == 4 * [
            f"{out / 'index.pkl'} was built from {corpora[0]}, not from corpus_path "
            f"{corpora[1]}; re-run 'tagfuse index'"
        ]


class TestFailureModes:
    def test_stage_before_its_inputs_names_the_missing_stage(
        self, stage_config, tmp_path, caplog
    ):
        config, _ = stage_config
        empty_out = str(tmp_path / "empty")
        with caplog.at_level(logging.ERROR):
            code = main(["fuse", "--config", config, "--output-dir", empty_out])
        assert code == 2
        assert any("run 'tagfuse train-rank' first" in r.message for r in caplog.records)

    def test_train_rank_requires_the_index(self, stage_config, tmp_path, caplog):
        config, _ = stage_config
        empty_out = str(tmp_path / "empty")
        with caplog.at_level(logging.ERROR):
            code = main(["train-rank", "--config", config, "--output-dir", empty_out])
        assert code == 2
        assert any("run 'tagfuse index' first" in r.message for r in caplog.records)

    @pytest.mark.parametrize("name", ["embedding.npy", "embedding.json"])
    def test_train_rank_requires_both_embedding_files(
        self, stage_config, bench_run, tmp_path, caplog, name
    ):
        _, bench_out = bench_run
        config = derived_config(stage_config, tmp_path)
        out = tmp_path / "out"
        copy_upstream(bench_out, out)
        (out / name).unlink()
        with caplog.at_level(logging.ERROR):
            assert main(["train-rank", "--config", config]) == 2
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"missing {out / name}; run 'tagfuse embed' first"]

    def test_index_rerun_on_a_subset_after_embed_exits_three(
        self, stage_config, bench_run, tmp_path, caplog
    ):
        _, bench_out = bench_run
        corpus = os.path.join(bench_out, "data", "corpus.jsonl")
        with open(corpus, encoding="utf-8") as fh:
            lines = fh.readlines()
        subset = tmp_path / "subset.jsonl"
        subset.write_text("".join(lines[: len(lines) * 2 // 3]), encoding="utf-8")
        # Both configs write to tmp_path / "out"; the second replaces the first.
        config = derived_config(stage_config, tmp_path)
        for command in ("index", "embed"):
            assert main([command, "--config", config]) == 0, command
        subset_config = derived_config(stage_config, tmp_path, corpus_path=str(subset))
        assert main(["index", "--config", subset_config]) == 0
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR):
            assert main(["train-rank", "--config", subset_config]) == 3
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [
            f"{out / 'embedding.npy'}: built from an older index.pkl; re-run 'tagfuse embed'"
        ]
        assert not (out / "ranked" / "classifier").exists()

    def test_unindexed_ground_truth_field_exits_two(
        self, stage_config, bench_run, tmp_path, caplog
    ):
        _, bench_out = bench_run
        config = derived_config(
            stage_config, tmp_path, ground_truth_path=None, ground_truth_fields=["subject"]
        )
        copy_upstream(bench_out, tmp_path / "out")
        with caplog.at_level(logging.ERROR):
            assert main(["eval", "--config", config]) == 2
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert "ground_truth_fields" in errors[0] and "['subject']" in errors[0]
        assert "indexed fields" in errors[0] and "'subjects'" in errors[0]
        assert not (tmp_path / "out" / "reports").exists()

    def test_ground_truth_field_outside_explicit_index_fields_exits_two_at_load(
        self, stage_config, tmp_path, caplog
    ):
        config = derived_config(
            stage_config, tmp_path, ground_truth_path=None, ground_truth_fields=["subjects"],
            index={"fields": ["title", "abstract", "keywords"]},
        )
        with caplog.at_level(logging.ERROR):
            assert main(["index", "--config", config]) == 2
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert "ground_truth_fields names ['subjects']" in errors[0]
        assert "indexed fields ['title', 'abstract', 'keywords']" in errors[0]
        assert not (tmp_path / "out").exists()

    def test_unprintable_article_id_stops_index_naming_the_line(
        self, stage_config, bench_run, tmp_path, caplog
    ):
        # Before ids were checked, this corpus ran index to synset and then
        # failed fuse on a classifier list the program had written.
        _, bench_out = bench_run
        with open(os.path.join(bench_out, "data", "corpus.jsonl"), encoding="utf-8") as fh:
            lines = fh.readlines()
        record = json.loads(lines[0])
        bad_id = record["id"] + "\tx"
        lines[0] = json.dumps({**record, "id": bad_id}) + "\n"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(lines), encoding="utf-8")
        config = derived_config(stage_config, tmp_path, corpus_path=str(corpus))
        with caplog.at_level(logging.ERROR):
            assert main(["all", "--config", config]) == 3
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"{corpus}:1: article id {bad_id!r} is not printable"]
        assert not (tmp_path / "out").exists()

    def test_config_is_required_outside_bench(self):
        assert main(["index"]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["index", "--config", str(tmp_path / "absent.json")]) == 2

    def test_config_path_naming_a_directory_exits_two(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR):
            assert main(["index", "--config", str(tmp_path)]) == 2
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"cannot read config file {tmp_path}: Is a directory"]

    def test_data_errors_exit_three(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("this is not json\n", encoding="utf-8")
        config = write_config(
            tmp_path / "config.json",
            output_dir=str(tmp_path / "out"),
            topics=["T"],
            corpus_path=str(corpus),
        )
        assert main(["index", "--config", config]) == 3

    @pytest.mark.parametrize(
        "section",
        [
            {"classifier": {"n_trees": 0}},
            {"classifier": {"max_depth": 0}},
            {"classifier": {"min_samples_leaf": 0}},
            {"classifier": {"max_features": "log2"}},
            {"index": {"fields": ["title"]}},
        ],
    )
    def test_invalid_config_exits_two_before_any_stage(self, tmp_path, caplog, section):
        out = tmp_path / "out"
        config = write_config(
            tmp_path / "config.json", output_dir=str(out), topics=["T"], **section
        )
        with caplog.at_level(logging.ERROR):
            for command in ("index", "train-rank"):
                assert main([command, "--config", config]) == 2, command
        [(name, keys)] = section.items()
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 2 and all(f"{name}.{next(iter(keys))}" in e for e in errors)
        assert not out.exists()

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"topics": "abc"}, "topics"),
            ({"seed": "x"}, "seed"),
            ({"classifier": {"n_trees": 2.5}}, "n_trees"),
            ({"classifier": {"n_trees": True}}, "n_trees"),
            ({"fusion": {"a_values": [1.5]}}, "a_values"),
            ({"classifier": {"holdout_fraction": 0.2}}, "'holdout_fraction'"),
        ],
        ids=["topics-str", "seed-str", "int-float", "int-bool", "tuple-element",
             "holdout-fraction-removed"],
    )
    def test_mistyped_or_unknown_value_exits_two(self, tmp_path, caplog, raw, key):
        out = tmp_path / "out"
        config = write_config(tmp_path / "config.json", output_dir=str(out), **raw)
        with caplog.at_level(logging.ERROR):
            assert main(["index", "--config", config]) == 2
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and key in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"seed": 1, "topics": ["T"], "seed": 2}', "seed"),
            ('{"topics": ["T"], "semantic": {"k": 20, "k": 30}}', "k"),
        ],
        ids=["top-level", "section"],
    )
    def test_repeated_key_exits_two_naming_it(self, tmp_path, caplog, text, key):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            assert main(["index", "--config", str(config)]) == 2
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"repeated key(s) in config: [{key!r}]"]

    @pytest.mark.parametrize(
        "make_corpus, message",
        [
            (lambda path: path.mkdir(), "Is a directory"),
            (lambda path: path.write_bytes(b'{"id": "a1", "title": "caf\xe9"}\n'),
             ":1: invalid record: 'utf-8' codec can't decode byte 0xe9"),
        ],
        ids=["directory", "latin-1"],
    )
    def test_unreadable_corpus_exits_three_in_one_line(
        self, tmp_path, caplog, capsys, make_corpus, message
    ):
        corpus = tmp_path / "corpus.jsonl"
        make_corpus(corpus)
        out = tmp_path / "out"
        config = write_config(
            tmp_path / "config.json", output_dir=str(out), topics=["T"], corpus_path=str(corpus)
        )
        with caplog.at_level(logging.ERROR):
            assert main(["index", "--config", config]) == 3
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and str(corpus) in errors[0].getMessage(), errors
        assert message in errors[0].getMessage() and errors[0].exc_info is None
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)

    def test_topic_without_letters_or_digits_exits_two_before_any_stage(
        self, stage_config, tmp_path, caplog
    ):
        config = derived_config(stage_config, tmp_path, topics=[TOPICS[0], "—"])
        with caplog.at_level(logging.ERROR):
            for command in ("index", "train-rank", "all"):
                assert main([command, "--config", config]) == 2, command
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 3 and all("['—']" in e for e in errors)
        assert not (tmp_path / "out").exists()

    def test_unindexed_synset_field_exits_two_before_any_list(
        self, stage_config, tmp_path, caplog
    ):
        config = derived_config(
            stage_config, tmp_path, synset_search={"fields": ["title", "nope"]}
        )
        assert main(["index", "--config", config]) == 0
        with caplog.at_level(logging.ERROR):
            assert main(["synset", "--config", config]) == 2
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert "synset_search.fields" in errors[0] and "['nope']" in errors[0]
        assert "indexed fields" in errors[0] and "'abstract'" in errors[0]
        assert not (tmp_path / "out" / "ranked" / "synset").exists()

    def test_a_override_is_checked_by_the_fusion_section(self, stage_config, caplog):
        config, _ = stage_config
        with caplog.at_level(logging.ERROR):
            assert main(["fuse", "--config", config, "--a", "0"]) == 2
        assert any("fusion.a_values" in r.message for r in caplog.records)

    def test_index_field_missing_from_corpus_is_one_error_line(
        self, stage_config, tmp_path, caplog
    ):
        config = derived_config(
            stage_config, tmp_path, index={"fields": ["title", "abstract", "nope"]}
        )
        with caplog.at_level(logging.ERROR):
            assert main(["index", "--config", config]) == 2
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "['nope']" in errors[0]

    def test_k_above_the_corpus_bound_names_the_key(
        self, stage_config, bench_run, tmp_path, caplog
    ):
        config = derived_config(stage_config, tmp_path, semantic={"k": 5000})
        copy_upstream(bench_run[1], tmp_path / "out")  # embed reads the index
        with caplog.at_level(logging.ERROR):
            assert main(["embed", "--config", config]) == 3
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "semantic.k=5000" in errors[0]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("tagfuse ")


def halve(path):
    """Cut a file to the first half of its bytes."""
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def replace(old, new):
    """Damage a file by replacing each ``old`` in its bytes with ``new``."""
    return lambda path: path.write_bytes(path.read_bytes().replace(old, new))


def edit_entries(change):
    """Damage a ranked list: ``change(first, second)`` gives new fields
    (rank, id, score) for its first two entries from their own."""
    def damage(path):
        lines = path.read_bytes().split(b"\n")
        first, second = change(*(line.split(b"\t") for line in lines[1:3]))
        lines[1:3] = b"\t".join(first), b"\t".join(second)
        path.write_bytes(b"\n".join(lines))
    return damage


def cut_lines(path):
    """Cut a file at the line boundary nearest its middle."""
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[: len(lines) // 2]))


def drop_article_ids(path):
    """Remove the article id list from an embedding's metadata."""
    meta = json.loads(path.read_bytes())
    del meta["article_ids"]
    path.write_text(json.dumps(meta), encoding="utf-8")


SYNSET_LIST = "ranked/synset/domain00.tsv"

# Each fault the manifest's digest catches before any reader runs: the file
# of the ``ci`` run, its edit, the stage that reads it and the one that wrote it.
EDITED_ARTIFACTS = [
    pytest.param(SYNSET_LIST, edit_entries(lambda f, s: (f, [b"3", *s[1:]])), "fuse", "synset",
                 id="edited-rank"),
    pytest.param(SYNSET_LIST, edit_entries(lambda f, s: (f, [s[0], f[1], s[2]])), "eval",
                 "synset", id="repeated-id"),
    pytest.param(SYNSET_LIST, edit_entries(lambda f, s: ([f[0], *s[1:]], [s[0], *f[1:]])),
                 "fuse", "synset", id="swapped-rows"),  # each rank stays in its place
    pytest.param(SYNSET_LIST, cut_lines, "fuse", "synset", id="cut"),
    pytest.param(SYNSET_LIST, replace(b"\n", b"\r\n"), "fuse", "synset", id="crlf"),
    pytest.param("ranked/classifier/domain00.tsv", replace(b"\n2\t", b"\n2\tcaf\xe9"), "fuse",
                 "train-rank", id="undecodable-byte"),
    # A fused list ascends.
    pytest.param("fusion/a2/domain00.tsv", edit_entries(lambda f, s: (f, [*s[:2], b"-1e300"])),
                 "eval", "fuse", id="fused-score-out-of-order"),
    pytest.param("index.pkl", halve, "train-rank", "index", id="truncated-index"),
    pytest.param("embedding.npy", halve, "train-rank", "embed", id="halved-embedding"),
    pytest.param("embedding.json", drop_article_ids, "train-rank", "embed",
                 id="embedding-without-ids"),
    pytest.param("ranked/classifier/_training.json",
                 lambda path: path.write_bytes(b'{"trained": []}'), "train-rank", "train-rank",
                 id="training-report"),
]


@pytest.mark.parametrize("rel, damage, reader, writer", EDITED_ARTIFACTS)
def test_an_edited_artifact_exits_three_naming_its_writer(
    spec_run, tmp_path, caplog, rel, damage, reader, writer
):
    out, damaged = tmp_path / "ci-copy", {}

    def damage_and_record(path):
        damage(path)
        damaged.update(snapshot(out))

    code, errors = run_on_damaged_copy(spec_run, tmp_path, caplog, rel, damage_and_record, reader)
    # A stage that reads its own output (train-rank's last report) asks for it to be deleted.
    rerun = f"{'delete it and ' if reader == writer else ''}re-run 'tagfuse {writer}'"
    message = f"{out / rel}: changed since 'tagfuse {writer}' wrote it; {rerun}"
    assert (code, errors) == (3, [message])
    assert snapshot(out) == damaged  # the reader wrote nothing


ARTICLE = '{"id": "a1", "title": "t", "abstract": "x"}'


# The exit code alone tells a configuration error (2) from a data error (3).
# A str value is written to a file, and the config key gets its path, which
# "{file}" in the message stands for.
@pytest.mark.parametrize(
    "command, key, value, code, message",
    [
        ("synset", "synsets_path", '{"topic": "T", "terms": "T"}', 3,
         "{file}:1: expected topic and terms array"),
        ("eval", "ground_truth_path", '{"id": "d00000", "topics": []}', 3,
         "{file}:1: empty topic list"),
        ("eval", "ground_truth_path", f'{{"id": "elsewhere", "topics": ["{TOPICS[0]}"]}}',
         3, "no overlap between tagged articles and truth"),
        ("index", "corpus_path", f"{ARTICLE}\n{ARTICLE}", 3,
         "{file}:2: duplicate article id 'a1'"),
        ("synset", "synsets_path", '{"topic": "T", "terms": ["fungology", null, 5, ["x"]]}', 3,
         "{file}:1: expected topic and terms array"),
        ("index", "corpus_path", ARTICLE[:-1] + ', "keywords": "fungi"}', 3,
         "{file}:1: keywords is not an array of strings"),
        ("index", "corpus_path", ARTICLE[:-1] + ', "subjects": ["Mycology", 3]}', 3,
         "{file}:1: subjects is not an array of strings"),
        ("bench", "benchmark", {"n_topics": 0}, 2, "benchmark.n_topics must be positive"),
        ("bench", "benchmark", {"seed": -1}, 2, "benchmark.seed must not be negative"),
        ("train-rank", "classifier", {"neg_ratio": float("nan")}, 2,
         "{config}: invalid JSON: NaN is not a number"),
    ],
    ids=["synset-line", "truth-empty-topics", "truth-disjoint", "duplicate-id",
         "synset-term-not-a-string", "keywords-not-an-array", "subjects-not-strings",
         "benchmark-key", "benchmark-seed", "nan"],
)
def test_exit_code_is_the_only_error_kind(
    stage_config, bench_run, tmp_path, caplog, capsys, command, key, value, code, message
):
    _, bench_out = bench_run
    if isinstance(value, str):
        path = tmp_path / "input.jsonl"
        path.write_text(value + "\n", encoding="utf-8")
        value, message = str(path), message.format(file=path)
    config = derived_config(stage_config, tmp_path, **{key: value})
    message = message.replace("{config}", config)
    out = tmp_path / "out"
    copy_upstream(bench_out, out)
    for name in ("ranked", "fusion", "tags"):
        shutil.copytree(os.path.join(bench_out, name), out / name)
    with caplog.at_level(logging.ERROR):
        assert main([command, "--config", config]) == code
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and message in errors[0].getMessage(), errors
    assert errors[0].exc_info is None
    assert "Traceback" not in capsys.readouterr().err

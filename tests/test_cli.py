import concurrent.futures
import json
import logging
import os
import pickle
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

import tagfuse
import tagfuse.corpus
from tagfuse import cli
from tagfuse.benchmark import BenchmarkSpec, topic_names
from tagfuse.classifier import train
from tagfuse.cli import main
from tagfuse.config import topic_slug
from tagfuse.manifest import MANIFEST_NAME, file_sha256
from tagfuse.ranking import ORIGIN_CLASSIFIER, RankedList, read_ranked_list

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


def read_manifest(output_dir):
    """The manifest's entries, in order."""
    with open(os.path.join(output_dir, MANIFEST_NAME), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


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


def copy_upstream(bench_out, out, edit_ids=None):
    """Copy the index and embedding of a bench run into ``out``; ``edit_ids``
    may change the embedding's article id list in place."""
    out.mkdir()
    for name in ("index.pkl", "embedding.npy", "embedding.json"):
        shutil.copy(os.path.join(bench_out, name), out / name)
    if edit_ids is not None:
        meta = json.loads((out / "embedding.json").read_text(encoding="utf-8"))
        edit_ids(meta["article_ids"])
        (out / "embedding.json").write_text(json.dumps(meta), encoding="utf-8")


def halve(path):
    """Cut a file to the first half of its bytes."""
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def drop_article_ids(path):
    meta = json.loads(path.read_text(encoding="utf-8"))
    del meta["article_ids"]
    path.write_text(json.dumps(meta), encoding="utf-8")


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
            methods = [json.loads(line)["method"] for line in fh if line.strip()]
        assert methods == ["Synset", "Fusion1", "Fusion2", "Fusion3", "Fusion4"]

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
                assert file_sha256(path) == digest, f"{entry['command']}: {path}"

    def test_every_entry_records_peak_memory(self, bench_run):
        _, out = bench_run
        for entry in read_manifest(out):
            assert entry["peak_rss_mb"] > 0, entry["command"]

    def test_rerun_is_byte_identical(self, bench_run, tmp_path_factory):
        config, out = bench_run
        out2 = str(tmp_path_factory.mktemp("bench2") / "out")
        assert main(["bench", "--config", config, "--output-dir", out2]) == 0
        for rel in (
            "data/corpus.jsonl",
            "tags/tags_a1.jsonl",
            "tags/tags_a2.jsonl",
            "tags/tags_a3.jsonl",
            "tags/tags_a4.jsonl",
            "reports/evaluation.txt",
            "reports/plot_series.tsv",
        ):
            first = open(os.path.join(out, rel), "rb").read()
            second = open(os.path.join(out2, rel), "rb").read()
            assert first == second, rel


class TestStagePipeline:
    def test_stages_run_in_order_and_match_bench(self, stage_config, bench_run):
        config, out = stage_config
        _, bench_out = bench_run
        for command in ("index", "embed", "train-rank", "synset", "fuse", "eval"):
            assert main([command, "--config", config]) == 0, command
        stage_tags = open(os.path.join(out, "tags", "tags_a2.jsonl"), "rb").read()
        bench_tags = open(os.path.join(bench_out, "tags", "tags_a2.jsonl"), "rb").read()
        assert stage_tags == bench_tags

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
        script = (
            "import sys\n"
            "import tagfuse.cli\n"
            "for stage in ('index', 'synset', 'fuse', 'eval'):\n"
            "    code = tagfuse.cli.main([stage, '--config', sys.argv[1]])\n"
            "    assert code == 0, stage\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
        )
        src = os.path.dirname(os.path.dirname(tagfuse.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script, config],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"
        assert os.path.exists(tmp_path / "out" / "reports" / "evaluation.txt")

    def test_traced_train_rank_succeeds(self, stage_config, bench_run, tmp_path):
        # The per-layer tracer wraps train-rank's pool workers too; its
        # counters read the results of the classifier functions.
        _, bench_out = bench_run
        config = derived_config(stage_config, tmp_path)
        copy_upstream(bench_out, tmp_path / "out")
        tracer = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
        spans = tmp_path / "spans.jsonl"
        src = os.path.dirname(os.path.dirname(tagfuse.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, tracer, str(spans), "run", "train-rank", "--config", config],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        header = json.loads(spans.read_text(encoding="utf-8").splitlines()[0])
        assert header["argv"][0] == "train-rank"
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
        assert set(entry["inputs"]) == {str(out / "index.pkl"), str(out / "embedding.npy")}
        for topic in TOPICS:
            listed = os.path.join(bench_out, "ranked", "classifier", f"{topic_slug(topic)}.tsv")
            written = out / "ranked" / "classifier" / f"{topic_slug(topic)}.tsv"
            assert written.read_bytes() == open(listed, "rb").read()

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

    def test_unknown_topics_override_is_a_usage_error(self, stage_config):
        config, _ = stage_config
        assert main(["synset", "--config", config, "--topics", "nope"]) == 2


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
            skipped = read_ranked_list(str(one / f"{topic_slug(topic)}.tsv"))
            assert skipped == RankedList(topic, ORIGIN_CLASSIFIER)
        skips = [r.message for r in caplog.records if "skipping topic" in r.message]
        assert len(skips) == 4
        assert ["another" in m for m in skips] == [False, True, False, True]


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

    @pytest.mark.parametrize(
        "change",
        [lambda ids: ids.pop(), lambda ids: ids.append("extra")],
        ids=["missing-id", "extra-id"],
    )
    def test_embedding_ids_that_do_not_match_its_rows_exit_three(
        self, stage_config, bench_run, tmp_path, caplog, change
    ):
        _, bench_out = bench_run
        config = derived_config(stage_config, tmp_path)
        out = tmp_path / "out"
        copy_upstream(bench_out, out, change)
        with caplog.at_level(logging.ERROR):
            assert main(["train-rank", "--config", config]) == 3
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and str(out / "embedding.npy") in errors[0]
        assert not (out / "ranked" / "classifier" / "_training.json").exists()

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("index.pkl", halve),
            ("index.pkl", lambda path: path.write_bytes(pickle.dumps([]))),
            ("embedding.npy", halve),
            ("embedding.json", halve),
            ("embedding.json", drop_article_ids),
        ],
        ids=[
            "truncated-index",
            "index-not-a-dict",
            "truncated-embedding",
            "truncated-embedding-json",
            "embedding-without-ids",
        ],
    )
    def test_damaged_saved_artifact_exits_three_naming_it(
        self, stage_config, bench_run, tmp_path, caplog, name, damage
    ):
        _, bench_out = bench_run
        config = derived_config(stage_config, tmp_path)
        out = tmp_path / "out"
        copy_upstream(bench_out, out)
        damage(out / name)
        with caplog.at_level(logging.ERROR):
            assert main(["train-rank", "--config", config]) == 3
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and str(out / name) in errors[0]
        assert not (out / "ranked" / "classifier").exists()

    def test_embedding_without_the_indexed_ids_exits_three_from_a_worker(
        self, stage_config, bench_run, tmp_path, caplog
    ):
        _, bench_out = bench_run
        config = derived_config(stage_config, tmp_path)
        out = tmp_path / "out"

        def rename(ids):
            # The count is kept, so the embedding loads; no id is indexed.
            ids[:] = [f"renamed-{a}" for a in ids]

        copy_upstream(bench_out, out, rename)
        with caplog.at_level(logging.ERROR):
            assert main(["train-rank", "--config", config]) == 3
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "has no embedding" in errors[0]
        assert not (out / "ranked" / "classifier" / "_training.json").exists()

    def test_ground_truth_field_missing_from_corpus_exits_two(
        self, stage_config, tmp_path, caplog
    ):
        config = derived_config(
            stage_config, tmp_path, ground_truth_path=None, ground_truth_fields=["subject"]
        )
        with caplog.at_level(logging.ERROR):
            assert main(["eval", "--config", config]) == 2
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert "ground_truth_fields" in errors[0] and "['subject']" in errors[0]
        assert "corpus fields" in errors[0] and "'subjects'" in errors[0]
        assert not (tmp_path / "out" / "reports").exists()

    def test_config_is_required_outside_bench(self):
        assert main(["index"]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["index", "--config", str(tmp_path / "absent.json")]) == 2

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
    def test_invalid_config_exits_two_before_any_stage(self, tmp_path, section):
        out = tmp_path / "out"
        config = write_config(
            tmp_path / "config.json", output_dir=str(out), topics=["T"], **section
        )
        for command in ("index", "train-rank"):
            assert main([command, "--config", config]) == 2, command
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

    def test_k_above_the_corpus_bound_names_the_key(self, stage_config, tmp_path, caplog):
        config = derived_config(stage_config, tmp_path, semantic={"k": 5000})
        with caplog.at_level(logging.ERROR):
            assert main(["embed", "--config", config]) == 3
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "semantic.k=5000" in errors[0]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("tagfuse ")


MALFORMED_CASES = ["header", "columns", "rank", "score", "sequence", "order", "duplicate"]


def corrupt(lines, case):
    """Break a synset list's lines in one way; return the line number the
    error must name."""
    if case == "header":
        lines[0] = lines[0].replace("origin=synset", "origin=nope")
        return 1
    rank, article_id, score = lines[2].split("\t")  # the second entry
    lines[2] = "\t".join(
        {
            "columns": [rank, article_id],
            "rank": ["two", article_id, score],
            "score": [rank, article_id, "high"],
            "sequence": ["3", article_id, score],
            "order": [rank, article_id, "1e300"],
            "duplicate": [rank, lines[1].split("\t")[1], score],
        }[case]
    )
    return 3


@pytest.mark.parametrize("case", MALFORMED_CASES)
def test_malformed_ranked_list_exits_three_naming_the_line(
    stage_config, bench_run, tmp_path, caplog, case
):
    _, bench_out = bench_run
    config = derived_config(stage_config, tmp_path)
    out = tmp_path / "out"
    shutil.copytree(os.path.join(bench_out, "ranked"), out / "ranked")
    path = out / "ranked" / "synset" / f"{topic_slug(TOPICS[0])}.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lineno = corrupt(lines, case)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for command in ("fuse", "eval"):
        caplog.clear()
        with caplog.at_level(logging.ERROR):
            assert main([command, "--config", config]) == 3, command
        errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and errors[0].startswith(f"{path}:{lineno}: "), errors

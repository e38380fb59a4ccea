"""The pipeline end to end, on the bench runs of the specs in ``tests/specs``."""

import json
import logging
import os
import shutil

import pytest

from tagfuse.benchmark import BenchmarkSpec, topic_names
from tagfuse.cli import main
from tagfuse.config import topic_slug
from tagfuse.manifest import MANIFEST_NAME, read_manifest
from tagfuse.semantic import _TERM_BLOCK

from conftest import SPECS, run_python, snapshot


def spec_topics(name):
    with open(SPECS / f"{name}.json", encoding="utf-8") as fh:
        return topic_names(BenchmarkSpec(**json.load(fh)["benchmark"]))


def ci_data_config(path, ci, **keys):
    """Write a config at ``path`` over the ``ci`` run's corpus, synsets and topics."""
    data = {name: str(ci / "data" / f"{name}.jsonl") for name in ("corpus", "synsets")}
    raw = {"corpus_path": data["corpus"], "synsets_path": data["synsets"],
           "topics": spec_topics("ci"), **keys}
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "spec, env, cpus",
    [("ci", {}, None), ("ci-blocks", {}, None), ("ci-forest", {}, None),
     ("ci", {"OPENBLAS_NUM_THREADS": "1"}, None),
     ("ci-blocks", {"OPENBLAS_NUM_THREADS": "1"}, None),
     ("ci", {}, {min(os.sched_getaffinity(0))})],  # one CPU: one train-rank worker
    ids=["ci", "ci-blocks", "ci-forest", "ci-1thread", "ci-blocks-1thread", "ci-1cpu"],
)
def test_rerun_in_a_fresh_interpreter_is_byte_identical(spec_run, tmp_path, spec, env, cpus):
    # It shares no hash seed and no module state with this process. The SVD
    # runs on one BLAS thread, so other BLAS threads or CPUs change nothing.
    args = ["bench", "--config", str(SPECS / f"{spec}.json"), "--output-dir", str(tmp_path)]
    result = run_python("-m", "tagfuse.cli", *args, env=env, cpus=cpus)
    assert result.returncode == 0, result.stderr
    assert snapshot(spec_run(spec), MANIFEST_NAME) == snapshot(tmp_path, MANIFEST_NAME)


def test_blocks_vocabulary_spans_two_svd_term_blocks(spec_run):
    [embed] = [e for e in read_manifest(spec_run("ci-blocks")) if e["command"] == "embed"]
    assert embed["vocabulary_size"] > _TERM_BLOCK


def test_every_topic_skipped_in_training_is_fused_from_its_synset_list_alone(spec_run):
    out = spec_run("ci-skip")
    report = json.loads((out / "ranked" / "classifier" / "_training.json").read_text())
    assert report["trained"] == []
    for topic in spec_topics("ci-skip"):
        path = out / "ranked" / "classifier" / f"{topic_slug(topic)}.tsv"
        assert path.read_text(encoding="utf-8") == f"# topic={topic}\torigin=classifier\n"
    tags = snapshot(out / "tags")
    assert tags["tags_a1.jsonl"] == tags["tags_a4.jsonl"]


def list_rows(out, kind, topic):
    """The rank, article id and score of each entry of ``out/kind/<slug>.tsv``."""
    lines = (out / kind / f"{topic_slug(topic)}.tsv").read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines[1:]]


def assert_fused_by_the_rule(out, topic):
    """Each ``fusion/a<a>`` list of ``topic`` is the rule recomputed from its two lists."""
    s = {aid: int(rank) for rank, aid, _ in list_rows(out, "ranked/synset", topic)}
    r = {aid: int(rank) for rank, aid, _ in list_rows(out, "ranked/classifier", topic)}
    t = {aid: (s[aid] + r[aid]) / 2 if aid in s and aid in r
         else float((s[aid] if aid in s else r[aid]) * len(s)) for aid in {*s, *r}}
    order = sorted(t, key=lambda aid: (t[aid], aid))
    for a in (1, 2, 3, 4):
        rule = [[str(i), aid, repr(t[aid])] for i, aid in enumerate(order[: a * len(s)], 1)]
        assert list_rows(out, f"fusion/a{a}", topic) == rule, (topic, a)


def test_every_fusion_route_is_kept_and_each_fused_list_is_the_rule_recomputed(spec_run):
    out = spec_run("ci-routes")
    for topic in spec_topics("ci-routes"):
        assert_fused_by_the_rule(out, topic)
        a1 = [aid for _, aid, _ in list_rows(out, "fusion/a1", topic)]
        s = {aid for _, aid, _ in list_rows(out, "ranked/synset", topic)}
        r = {aid for _, aid, _ in list_rows(out, "ranked/classifier", topic)}
        routes = [sum(1 for aid in a1 if (aid in s, aid in r) == key)
                  for key in ((True, True), (True, False), (False, True))]
        assert min(routes) > 0, (topic, "dual, synset-only, classifier-only", routes)


def test_a_topic_every_article_mentions_is_skipped_and_fused_from_its_synset_list(spec_run):
    # Every generated article names its topic in "subjects": no negative is left.
    out = spec_run("ci-one-topic")
    [topic] = spec_topics("ci-one-topic")
    report = json.loads((out / "ranked" / "classifier" / "_training.json").read_text())
    assert report == {"trained": [], "skipped": [{"topic": topic, "positives": 110, "negatives": 0}]}
    path = out / "ranked" / "classifier" / f"{topic_slug(topic)}.tsv"
    assert path.read_text(encoding="utf-8") == f"# topic={topic}\torigin=classifier\n"
    assert list_rows(out, "ranked/synset", topic)
    assert_fused_by_the_rule(out, topic)


def test_a_topic_every_article_mentions_leaves_the_rest_of_the_batch_as_it_was(
    spec_run, tmp_path, caplog
):
    # "bg0000" is in the title or abstract of most ci articles; as a keyword
    # of the others, which neither the embedding nor a synset search reads,
    # it is in every article.
    ci, out, topic = spec_run("ci"), tmp_path / "ci-everywhere", "bg0000"
    records = [json.loads(line) for line in (ci / "data" / "corpus.jsonl").read_text().splitlines()]
    for rec in records:
        if topic not in f"{rec['title']} {rec['abstract']}".split():
            rec["keywords"].append(topic)
    corpus, synsets = tmp_path / "corpus.jsonl", tmp_path / "synsets.jsonl"
    corpus.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    line = json.dumps({"topic": topic, "terms": [topic]})
    synsets.write_text((ci / "data" / "synsets.jsonl").read_text() + line + "\n")
    config = ci_data_config(
        tmp_path / "ci-everywhere.json", ci, corpus_path=str(corpus), synsets_path=str(synsets),
        ground_truth_path=str(ci / "data" / "ground_truth.jsonl"),
        topics=spec_topics("ci") + [topic], classifier={"min_positives": 1},
    )
    with caplog.at_level(logging.WARNING, logger="tagfuse.cli"):
        assert main(["all", "--config", config, "--output-dir", str(out)]) == 0
    assert f"skipping topic: topic '{topic}': 427 positive examples, 0 negative" in caplog.text
    report, ci_report = (json.loads((run / "ranked" / "classifier" / "_training.json").read_text())
                         for run in (out, ci))
    assert report == {"trained": ci_report["trained"],
                      "skipped": [{"topic": topic, "positives": 427, "negatives": 0}]}
    for kind in ("ranked/classifier", "ranked/synset", *(f"fusion/a{a}" for a in (1, 2, 3, 4))):
        for name in (f"{kind}/{topic_slug(t)}.tsv" for t in spec_topics("ci")):
            assert (out / name).read_bytes() == (ci / name).read_bytes(), name
    assert_fused_by_the_rule(out, topic)


def test_ground_truth_from_subjects_and_one_depth_alone_change_no_artifact(spec_run, tmp_path):
    ci, out = spec_run("ci"), tmp_path / "ci-subjects"
    config = ci_data_config(tmp_path / "ci-subjects.json", ci, ground_truth_fields=["subjects"])
    assert main(["all", "--config", config, "--output-dir", str(out)]) == 0
    assert snapshot(ci, MANIFEST_NAME, "data") == snapshot(out, MANIFEST_NAME, "data")
    # Only index reads the corpus: inside the bench's output directory, and
    # outside the other's, where its key is the configured path.
    for run, corpus in ((ci, "data/corpus.jsonl"), (out, str(ci / "data" / "corpus.jsonl"))):
        readers = {e["command"] for e in read_manifest(run) if corpus in e["inputs"]}
        assert readers == {"index"}, (run, readers)

    # One depth fused on a copy: the full run's list and tags, and evaluated
    # without the tags: its record.
    out = tmp_path / "ci-a2"
    shutil.copytree(ci, out, ignore=shutil.ignore_patterns("fusion", "tags"))
    a2 = ["--config", config, "--output-dir", str(out), "--a", "2"]
    assert main(["fuse", *a2]) == 0
    assert os.listdir(out / "fusion") == ["a2"] and os.listdir(out / "tags") == ["tags_a2.jsonl"]
    assert snapshot(ci / "fusion" / "a2") == snapshot(out / "fusion" / "a2")
    assert snapshot(ci / "tags")["tags_a2.jsonl"] == snapshot(out / "tags")["tags_a2.jsonl"]
    shutil.rmtree(out / "tags")
    assert main(["eval", *a2]) == 0
    reports = [run / "reports" / "evaluation.jsonl" for run in (ci, out)]
    full, depth = ([json.loads(line) for line in p.read_text().splitlines()] for p in reports)
    assert [r["method"] for r in depth] == ["Synset", "Fusion2"]
    assert depth[1] == next(r for r in full if r["method"] == "Fusion2")


def test_a_topic_foreign_to_the_corpus_is_fused_empty_with_a_warning(spec_run, tmp_path, caplog):
    ci, out = spec_run("ci"), tmp_path / "ci-foreign"
    synsets = tmp_path / "synsets-foreign.jsonl"
    foreign = json.dumps({"topic": "Astrobiology", "terms": ["exobiology"]})
    synsets.write_text((ci / "data" / "synsets.jsonl").read_text() + foreign + "\n")
    config = ci_data_config(
        tmp_path / "ci-foreign.json", ci, synsets_path=str(synsets),
        ground_truth_path=str(ci / "data" / "ground_truth.jsonl"),
        topics=spec_topics("ci") + ["Astrobiology"],
    )
    with caplog.at_level(logging.WARNING, logger="tagfuse.cli"):
        assert main(["all", "--config", config, "--output-dir", str(out)]) == 0
    assert "skipping topic: topic 'Astrobiology'" in caplog.text
    assert "topic 'Astrobiology': empty synset list" in caplog.text
    header = "# topic=Astrobiology\torigin={}\n"
    assert (out / "ranked" / "synset" / "astrobiology.tsv").read_text() == header.format("synset")
    fused = sorted(out.glob("fusion/a*/astrobiology.tsv"))
    assert len(fused) == 4, fused
    for path in fused:
        assert path.read_text() == header.format("fusion"), path
    assert snapshot(ci / "tags") == snapshot(out / "tags")

"""Acceptance gate: every release requirement, one test per criterion.

Each test prints one ``[acceptance] criterion N (...): PASS|FAIL`` line
(visible with ``pytest -v -s`` or in captured output on failure) and then
asserts, so a red criterion is both human-readable and build-breaking.
The heavyweight end-to-end benchmark runs once and feeds criteria 4, 5,
and 7.
"""

import json
import os
import random
import time

import numpy as np
import pytest

from tagfuse.benchmark import BenchmarkSpec, topic_names
from tagfuse.cli import main
from tagfuse.corpus import load_ground_truth
from tagfuse.fusion import fuse
from tagfuse.semantic import randomized_svd

from conftest import csc_arrays


def verdict(number: int, name: str, ok: bool) -> bool:
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


# -- shared end-to-end benchmark artifacts ----------------------------------


BENCH_SPEC = {
    "n_topics": 10,
    "docs_per_topic": 500,
    "vocab_per_topic": 30,
    "alt_vocab_fraction": 0.5,
    "background_vocab_size": 2000,
    "doc_length": 120,
    "cross_noise_fraction": 0.25,
    "seed": 42,
}


@pytest.fixture(scope="module")
def bench_artifacts(tmp_path_factory):
    """One full-scale pipeline run: ~5,000 articles, 10 topics."""
    root = tmp_path_factory.mktemp("acceptance_bench")
    out = str(root / "out")
    config_path = str(root / "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump({"benchmark": BENCH_SPEC, "output_dir": out, "seed": 42}, fh)
    started = time.perf_counter()
    code = main(["bench", "--config", config_path])
    elapsed = time.perf_counter() - started
    assert code == 0
    reports = {}
    with open(os.path.join(out, "reports", "evaluation.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            reports[record["method"]] = record
    return {"out": out, "elapsed": elapsed, "reports": reports}


# -- criterion 1: fusion formulas ------------------------------------------


def fusion_oracle(synset_ids, classifier_ids, a):
    """Combined ranks recomputed from scratch: averaged rank for articles
    on both lists, rank times synset size for single-list articles, sort
    ascending with id tiebreak, keep a * synset size."""
    s_rank = {aid: i + 1 for i, aid in enumerate(synset_ids)}
    r_rank = {aid: i + 1 for i, aid in enumerate(classifier_ids)}
    size = len(s_rank)
    scored = []
    for aid in set(s_rank) | set(r_rank):
        if aid in s_rank and aid in r_rank:
            t = (s_rank[aid] + r_rank[aid]) / 2
        elif aid in r_rank:
            t = float(r_rank[aid] * size)
        else:
            t = float(s_rank[aid] * size)
        scored.append((t, aid))
    scored.sort()
    return [(aid, t) for t, aid in scored[: a * size]]


def test_criterion_1_fusion_formulas_exact():
    rng = random.Random(1387)
    started = time.perf_counter()
    ok = True
    for _ in range(1000):
        universe = [f"x{i:03d}" for i in range(rng.randint(1, 60))]
        synset_ids = rng.sample(universe, rng.randint(1, len(universe)))
        classifier_ids = rng.sample(universe, rng.randint(0, len(universe)))
        a = rng.randint(1, 4)
        first = list(zip(*fuse(synset_ids, classifier_ids, a=a)))
        second = list(zip(*fuse(synset_ids, classifier_ids, a=a)))
        expected = fusion_oracle(synset_ids, classifier_ids, a)
        if first != expected or second != first:
            ok = False
            break
        if len(first) > a * len(synset_ids):
            ok = False
            break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    assert verdict(1, "fusion formulas exact", ok), f"elapsed={elapsed:.2f}s"


# -- criterion 2: evaluation metrics ----------------------------------------


def metric_oracle(pairs, n_labels):
    n = len(pairs)
    out = {
        "common_match": sum(1 for p, t in pairs if p & t) / n,
        "precision": sum(len(p & t) / len(p) for p, t in pairs) / n,
        "recall": sum(len(p & t) / len(t) for p, t in pairs) / n,
        "f1": sum(2 * len(p & t) / (len(p) + len(t)) for p, t in pairs) / n,
        "jaccard": sum(len(p & t) / len(p | t) for p, t in pairs) / n,
        "hamming_loss": sum(len(p ^ t) / n_labels for p, t in pairs) / n,
        "label_cardinality_pred": sum(len(p) for p, _ in pairs) / n,
        "label_cardinality_true": sum(len(t) for _, t in pairs) / n,
    }
    out["cardinality_difference"] = (
        out["label_cardinality_pred"] - out["label_cardinality_true"]
    )
    return out


def test_criterion_2_metric_suite_matches_brute_force():
    from tagfuse.evaluation import evaluate

    rng = random.Random(2024)
    ok = True
    for _ in range(200):
        n_labels = rng.randint(1, 35)
        label_set = [f"L{i:02d}" for i in range(n_labels)]
        n_articles = rng.randint(1, 20)
        truth_labels = {}
        predicted = {}
        for i in range(n_articles):
            aid = f"d{i:02d}"
            truth_labels[aid] = set(rng.sample(label_set, rng.randint(1, n_labels)))
            if rng.random() < 0.8 or i == 0:
                predicted[aid] = rng.sample(label_set, rng.randint(1, n_labels))
        assignments = {
            aid: [(t, 0.5) for t in topics] for aid, topics in sorted(predicted.items())
        }
        report = evaluate(assignments, truth_labels, label_set, method="m")
        pairs = [
            (set(topics), truth_labels[aid])
            for aid, topics in sorted(predicted.items())
            if aid in truth_labels
        ]
        expected = metric_oracle(pairs, n_labels)
        if report["intersection_size"] != len(pairs):
            ok = False
            break
        for name, value in expected.items():
            if abs(report[name] - value) > 1e-12:
                ok = False
                break
        if not ok:
            break

    # One article tagged with one correct and one incorrect topic must
    # score exactly 0.5 precision.
    mixed = evaluate(
        {"a": [("Mycology", 1.0), ("Transplantation", 0.9)]},
        {"a": {"Transplantation"}},
        ["Mycology", "Transplantation"],
    )
    ok = ok and mixed["precision"] == 0.5
    assert verdict(2, "metric suite matches brute force", ok)


# -- criterion 3: randomized SVD accuracy -----------------------------------


def test_criterion_3_randomized_svd_accuracy():
    started = time.perf_counter()
    rng = np.random.default_rng(7)

    dense = rng.standard_normal((500, 300))
    exact = np.linalg.svd(dense, compute_uv=False)[:20]
    _, approx = randomized_svd(csc_arrays(dense), k=20, oversample=40, power_iters=8, seed=11)
    top20_rel_err = float(np.max(np.abs(approx - exact) / exact))

    low_rank = rng.standard_normal((500, 20)) @ rng.standard_normal((20, 300))
    u, _ = randomized_svd(csc_arrays(low_rank), k=20, oversample=10, power_iters=2, seed=11)
    # The projection on span(u): equal to (u * s) @ vt wherever s > 0.
    reconstruction = u @ (u.T @ low_rank)
    frob_rel_err = float(
        np.linalg.norm(low_rank - reconstruction) / np.linalg.norm(low_rank)
    )

    elapsed = time.perf_counter() - started
    ok = top20_rel_err < 0.01 and frob_rel_err < 1e-6 and elapsed < 30.0
    assert verdict(3, "randomized SVD accuracy", ok), (
        f"top-20 rel err {top20_rel_err:.2e}, reconstruction rel err "
        f"{frob_rel_err:.2e}, elapsed {elapsed:.1f}s"
    )


# -- criterion 4: end-to-end recall gain ------------------------------------


def test_criterion_4_fusion_beats_search_recall_end_to_end(bench_artifacts):
    reports = bench_artifacts["reports"]
    synset = reports["Synset"]
    fusion2 = reports["Fusion2"]
    recall_gain = fusion2["recall"] - synset["recall"]
    ok = (
        recall_gain >= 0.05
        and fusion2["common_match"] > synset["common_match"]
        and bench_artifacts["elapsed"] < 300.0
    )
    assert verdict(4, "fusion beats search recall end to end", ok), (
        f"recall {synset['recall']:.4f} -> {fusion2['recall']:.4f} "
        f"(gain {recall_gain:+.4f}), common match "
        f"{synset['common_match']:.4f} -> {fusion2['common_match']:.4f}, "
        f"elapsed {bench_artifacts['elapsed']:.1f}s"
    )


# -- criterion 5: trends across the depth sweep ------------------------------


def test_criterion_5_depth_sweep_trends(bench_artifacts):
    reports = bench_artifacts["reports"]
    card_diff = [reports[f"Fusion{a}"]["cardinality_difference"] for a in (1, 2, 3, 4)]
    recall = [reports[f"Fusion{a}"]["recall"] for a in (1, 2, 3, 4)]
    tolerance = 0.005
    ok = all(b >= a - tolerance for a, b in zip(card_diff, card_diff[1:])) and all(
        b >= a - tolerance for a, b in zip(recall, recall[1:])
    )
    assert verdict(5, "depth sweep trends", ok), (
        f"cardinality difference {card_diff}, recall {recall}"
    )


# -- criterion 6: end-to-end determinism ------------------------------------


def test_criterion_6_end_to_end_determinism(tmp_path):
    spec = {
        "n_topics": 4,
        "docs_per_topic": 60,
        "vocab_per_topic": 8,
        "background_vocab_size": 150,
        "doc_length": 30,
        "seed": 3,
    }
    gen_out = str(tmp_path / "gen")
    gen_config = str(tmp_path / "gen.json")
    with open(gen_config, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "benchmark": spec,
                "output_dir": gen_out,
                "seed": 5,
                "semantic": {"k": 24},
                "classifier": {"n_trees": 20, "min_positives": 10},
            },
            fh,
        )
    assert main(["bench", "--config", gen_config]) == 0

    run_config = str(tmp_path / "run.json")
    with open(run_config, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "corpus_path": os.path.join(gen_out, "data", "corpus.jsonl"),
                "synsets_path": os.path.join(gen_out, "data", "synsets.jsonl"),
                "ground_truth_path": os.path.join(gen_out, "data", "ground_truth.jsonl"),
                "topics": topic_names(BenchmarkSpec(**spec)),
                "seed": 5,
                "semantic": {"k": 24},
                "classifier": {"n_trees": 20, "min_positives": 10},
            },
            fh,
        )
    outputs = []
    for run in ("one", "two"):
        out = str(tmp_path / run)
        assert main(["all", "--config", run_config, "--output-dir", out]) == 0
        outputs.append(out)

    compared = []
    for a in (1, 2, 3, 4):
        compared.append(os.path.join("tags", f"tags_a{a}.jsonl"))
    compared.append(os.path.join("reports", "evaluation.txt"))
    compared.append(os.path.join("reports", "evaluation.jsonl"))
    ok = True
    for rel in compared:
        with open(os.path.join(outputs[0], rel), "rb") as fh:
            first = fh.read()
        with open(os.path.join(outputs[1], rel), "rb") as fh:
            second = fh.read()
        if first != second:
            ok = False
            break
    assert verdict(6, "end-to-end determinism", ok), f"differs: {rel}"


# -- criterion 7: intersection accounting ------------------------------------


def test_criterion_7_intersection_accounting(bench_artifacts):
    out = bench_artifacts["out"]
    reports = bench_artifacts["reports"]
    truth = load_ground_truth(os.path.join(out, "data", "ground_truth.jsonl"))

    ok = True
    sizes = []
    for a in (1, 2, 3, 4):
        tagged = set()
        with open(os.path.join(out, "tags", f"tags_a{a}.jsonl"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    tagged.add(json.loads(line)["id"])
        recount = len(tagged & set(truth))
        reported = reports[f"Fusion{a}"]["intersection_size"]
        sizes.append(recount)
        if recount != reported:
            ok = False

    # The synset baseline tags exactly the union of its ranked lists.
    synset_tagged = set()
    ranked_dir = os.path.join(out, "ranked", "synset")
    for name in os.listdir(ranked_dir):
        with open(os.path.join(ranked_dir, name), encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                if line.strip():
                    synset_tagged.add(line.split("\t")[1])
    synset_recount = len(synset_tagged & set(truth))
    if synset_recount != reports["Synset"]["intersection_size"]:
        ok = False

    ok = ok and all(b >= a for a, b in zip(sizes, sizes[1:]))
    assert verdict(7, "intersection accounting", ok), (
        f"recounted {sizes}, reported "
        f"{[reports[f'Fusion{a}']['intersection_size'] for a in (1, 2, 3, 4)]}, "
        f"synset {synset_recount} vs {reports['Synset']['intersection_size']}"
    )

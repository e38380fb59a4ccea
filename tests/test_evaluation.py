import json
import random

import pytest

from tagfuse.errors import TagfuseError
from tagfuse.evaluation import evaluate, format_table, sweep, write_plot_series


def tags(*topics):
    """One article's tags, best first."""
    return [(t, 1.0 - i * 0.01) for i, t in enumerate(topics)]


def reference_metrics(pairs, n_labels):
    """Sample-averaged metrics computed the slow, obvious way."""
    totals = {
        "common_match": 0.0,
        "precision": 0.0,
        "recall": 0.0,
        "f1": 0.0,
        "jaccard": 0.0,
        "hamming_loss": 0.0,
        "label_cardinality_pred": 0.0,
        "label_cardinality_true": 0.0,
    }
    for predicted, true in pairs:
        hit = len(predicted & true)
        totals["common_match"] += 1.0 if hit else 0.0
        totals["precision"] += hit / len(predicted)
        totals["recall"] += hit / len(true)
        totals["f1"] += 2 * hit / (len(predicted) + len(true))
        totals["jaccard"] += hit / len(predicted | true)
        totals["hamming_loss"] += len(predicted.symmetric_difference(true)) / n_labels
        totals["label_cardinality_pred"] += len(predicted)
        totals["label_cardinality_true"] += len(true)
    n = len(pairs)
    return {name: value / n for name, value in totals.items()}


def random_evaluation_instance(rng):
    """Random labels, truth, and assignments with a non-empty intersection."""
    n_labels = rng.randint(1, 35)
    label_set = [f"L{i:02d}" for i in range(n_labels)]
    n_articles = rng.randint(1, 20)
    truth_labels = {}
    predicted = {}
    for i in range(n_articles):
        article_id = f"d{i:02d}"
        truth_labels[article_id] = set(
            rng.sample(label_set, rng.randint(1, n_labels))
        )
        if rng.random() < 0.8 or i == 0:
            predicted[article_id] = rng.sample(label_set, rng.randint(1, n_labels))
    # A few predictions for articles outside the truth must be ignored.
    for i in range(rng.randint(0, 3)):
        predicted[f"extra{i}"] = rng.sample(label_set, 1)
    assignments = {
        a: [(t, 0.5) for t in topics] for a, topics in sorted(predicted.items())
    }
    return assignments, truth_labels, label_set


class TestEvaluate:
    def test_matches_reference_on_random_instances(self):
        rng = random.Random(20240818)
        for _ in range(200):
            assignments, truth, label_set = random_evaluation_instance(rng)
            report = evaluate(assignments, truth, label_set, method="m")
            pairs = [
                ({t for t, _ in a_tags}, truth[a])
                for a, a_tags in assignments.items()
                if a in truth
            ]
            expected = reference_metrics(pairs, len(label_set))
            assert report["intersection_size"] == len(pairs)
            for name, value in expected.items():
                assert report[name] == pytest.approx(value, abs=1e-12)
            assert report["cardinality_difference"] == pytest.approx(
                expected["label_cardinality_pred"] - expected["label_cardinality_true"],
                abs=1e-12,
            )

    def test_half_right_prediction_scores_half_precision(self):
        # One article, two predicted topics, one of them true.
        truth = {"a4": {"Transplantation"}}
        report = evaluate(
            {"a4": tags("Mycology", "Transplantation")},
            truth,
            ["Mycology", "Transplantation"],
        )
        assert report["precision"] == 0.5
        assert report["recall"] == 1.0
        assert report["common_match"] == 1.0
        assert report["f1"] == pytest.approx(2 / 3)
        assert report["jaccard"] == 0.5

    def test_hamming_counts_symmetric_difference_over_label_count(self):
        label_set = [f"L{i:02d}" for i in range(35)]
        truth = {"a1": {"L00", "L01"}}
        report = evaluate({"a1": tags("L01", "L02")}, truth, label_set)
        assert report["hamming_loss"] == pytest.approx(2 / 35)

    def test_singleton_truth_identities(self):
        # With one true label per article, a match either happens or not,
        # so common match equals recall; and |P & T| <= 1 = |T| makes
        # jaccard collapse to precision.
        rng = random.Random(7)
        label_set = [f"L{i}" for i in range(8)]
        truth = {f"d{i}": {rng.choice(label_set)} for i in range(30)}
        assignments = {
            f"d{i}": [(t, 0.5) for t in rng.sample(label_set, rng.randint(1, 4))]
            for i in range(30)
        }
        report = evaluate(assignments, truth, label_set)
        assert report["common_match"] == pytest.approx(report["recall"], abs=1e-12)
        assert report["jaccard"] == pytest.approx(report["precision"], abs=1e-12)

    def test_perfect_predictions(self):
        label_set = ["A", "B"]
        truth = {"d1": {"A"}, "d2": {"A", "B"}}
        report = evaluate(
            {"d1": tags("A"), "d2": tags("A", "B")}, truth, label_set
        )
        assert report["precision"] == 1.0
        assert report["recall"] == 1.0
        assert report["f1"] == 1.0
        assert report["jaccard"] == 1.0
        assert report["hamming_loss"] == 0.0
        assert report["cardinality_difference"] == 0.0

    def test_untagged_truth_articles_do_not_count(self):
        truth = {"d1": {"A"}, "d2": {"A"}, "d3": {"B"}}
        report = evaluate({"d1": tags("A")}, truth, ["A", "B"])
        assert report["intersection_size"] == 1
        assert report["recall"] == 1.0

    def test_disjoint_predictions_and_truth_raise(self):
        truth = {"d1": {"A"}}
        with pytest.raises(TagfuseError, match="no overlap"):
            evaluate({"other": tags("A")}, truth, ["A"])


class TestSweep:
    def make_inputs(self):
        truth = {"d1": {"A"}, "d2": {"B"}}
        methods = {
            "Exact": {"d1": tags("A"), "d2": tags("B")},
            "Noisy": {"d1": tags("A", "B"), "d2": tags("A", "B")},
        }
        return methods, truth, ["A", "B"]

    def test_sweep_keeps_method_order_and_names(self):
        methods, truth, label_set = self.make_inputs()
        reports = sweep(methods, truth, label_set)
        assert [r["method"] for r in reports] == ["Exact", "Noisy"]
        assert reports[0]["precision"] == 1.0
        assert reports[1]["precision"] == 0.5

    def test_format_table_has_header_and_one_row_per_method(self):
        methods, truth, label_set = self.make_inputs()
        table = format_table(sweep(methods, truth, label_set))
        lines = table.splitlines()
        assert len(lines) == 3
        assert lines[0].split() == [
            "Method", "Intersect", "CommonMatch", "Recall", "Precision",
            "F1", "Jaccard", "Hamming", "CardPred", "CardTrue", "CardDiff",
        ]
        assert lines[1].split()[0] == "Exact"
        assert lines[2].split()[0] == "Noisy"
        assert "1.0000" in lines[1]

    def test_report_records_round_trip_fields(self):
        methods, truth, label_set = self.make_inputs()
        reports = sweep(methods, truth, label_set)
        records = [json.loads(json.dumps(report)) for report in reports]
        assert records[0]["method"] == "Exact"
        assert records[0]["intersection_size"] == 2
        # The field order of a reports/evaluation.jsonl record.
        assert list(records[0]) == [
            "method", "intersection_size", "common_match", "precision",
            "recall", "f1", "jaccard", "hamming_loss",
            "label_cardinality_pred", "label_cardinality_true",
            "cardinality_difference",
        ]


def read_series(reports, tmp_path):
    """Header cells and ``{method: {series: value}}`` of the written TSV."""
    path = str(tmp_path / "series.tsv")
    write_plot_series(reports, path)
    with open(path, encoding="utf-8") as fh:
        header, *rows = [line.rstrip("\n").split("\t") for line in fh]
    return header, {row[0]: dict(zip(header[1:], map(float, row[1:]))) for row in rows}


class TestPlotSeries:
    def test_hamming_is_scaled_by_ten(self, tmp_path):
        truth = {"d1": {"A"}}
        reports = sweep({"M": {"d1": tags("B")}}, truth, ["A", "B"])
        _, series = read_series(reports, tmp_path)
        assert series["M"]["hamming_loss_x10"] == pytest.approx(
            reports[0]["hamming_loss"] * 10.0
        )
        assert series["M"]["cardinality_difference"] == reports[0]["cardinality_difference"]
        assert series["M"]["f1"] == reports[0]["f1"]
        assert series["M"]["jaccard"] == reports[0]["jaccard"]

    def test_written_series_parse_back_exactly(self, tmp_path):
        methods = {
            "M1": {"d1": tags("A")},
            "M2": {"d1": tags("A", "B")},
        }
        truth = {"d1": {"A"}}
        reports = sweep(methods, truth, ["A", "B"])
        header, series = read_series(reports, tmp_path)
        assert header == [
            "method", "cardinality_difference", "jaccard", "hamming_loss_x10", "f1"
        ]
        assert list(series) == ["M1", "M2"]
        for report in reports:
            assert series[report["method"]] == {
                "cardinality_difference": report["cardinality_difference"],
                "jaccard": report["jaccard"],
                "hamming_loss_x10": report["hamming_loss"] * 10.0,
                "f1": report["f1"],
            }

"""Multi-label evaluation against ground truth.

All metrics are computed over the intersection E of articles that carry
at least one predicted tag and appear in the ground truth. Articles the
pipeline never tagged are not penalized here; instead the intersection
size is reported alongside, because a method that tags more of the truth
set is covering more ground even at equal per-article quality.
"""

from __future__ import annotations

import logging

from .errors import TagfuseError
from .fusion import Assignments

logger = logging.getLogger(__name__)


def evaluate(
    assignments: Assignments,
    truth: dict[str, set[str]],
    label_set: list[str],
    method: str = "method",
) -> dict:
    """Score one method's assignments against the truth, as the dict that
    is one line of ``reports/evaluation.jsonl``, its keys in that order.

    The assignments come from ``invert`` and the truth maps article ids to
    non-empty label sets; each article's tags name a non-empty subset of
    ``label_set``. Per article in E, with predicted set P and true set T:

        precision = |P & T| / |P|        recall = |P & T| / |T|
        f1 = 2|P & T| / (|P| + |T|)      jaccard = |P & T| / |P | T|
        hamming = |P ^ T| / L

    and every metric is the mean over E, with L the size of ``label_set``,
    which names each label once. ``common_match`` is the fraction of E
    whose P and T intersect at all. The cardinalities are the mean sizes
    of P and T; their difference (predicted minus true) tracks how much a
    method over- or under-tags. An empty E is an error: it means the
    predictions and the truth describe disjoint articles.
    """
    n_labels = len(label_set)
    sizes = []  # |P|, |T| and |P & T| per article of E: |P | T| and |P ^ T| follow
    for article_id, tags in assignments.items():
        if article_id in truth:
            predicted, true = {topic for topic, _ in tags}, truth[article_id]
            sizes.append((len(predicted), len(true), len(predicted & true)))

    if not sizes:
        raise TagfuseError(
            f"method {method!r}: no overlap between tagged articles and truth"
        )

    n = len(sizes)
    common = sum(1 for _, _, both in sizes if both) / n
    precision = sum(both / p for p, _, both in sizes) / n
    recall = sum(both / t for _, t, both in sizes) / n
    f1 = sum(2 * both / (p + t) for p, t, both in sizes) / n
    jaccard = sum(both / (p + t - both) for p, t, both in sizes) / n
    hamming = sum((p + t - 2 * both) / n_labels for p, t, both in sizes) / n
    card_pred = sum(p for p, _, _ in sizes) / n
    card_true = sum(t for _, t, _ in sizes) / n

    return {
        "method": method,
        "intersection_size": n,
        "common_match": common,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "jaccard": jaccard,
        "hamming_loss": hamming,
        "label_cardinality_pred": card_pred,
        "label_cardinality_true": card_true,
        "cardinality_difference": card_pred - card_true,
    }


def sweep(
    methods: dict[str, Assignments],
    truth: dict[str, set[str]],
    label_set: list[str],
) -> list[dict]:
    """Evaluate several methods against the same truth, in given order."""
    return [
        evaluate(assignments, truth, label_set, method=name)
        for name, assignments in methods.items()
    ]


_TABLE_COLUMNS = [
    ("method", "Method", "s"),
    ("intersection_size", "Intersect", "d"),
    ("common_match", "CommonMatch", ".4f"),
    ("recall", "Recall", ".4f"),
    ("precision", "Precision", ".4f"),
    ("f1", "F1", ".4f"),
    ("jaccard", "Jaccard", ".4f"),
    ("hamming_loss", "Hamming", ".4f"),
    ("label_cardinality_pred", "CardPred", ".4f"),
    ("label_cardinality_true", "CardTrue", ".4f"),
    ("cardinality_difference", "CardDiff", ".4f"),
]


def format_table(reports: list[dict]) -> str:
    """Aligned text table, one row per method."""
    rows = [[header for _, header, _ in _TABLE_COLUMNS]]
    rows += [[format(report[name], fmt) for name, _, fmt in _TABLE_COLUMNS] for report in reports]
    widths = [max(len(row[i]) for row in rows) for i in range(len(_TABLE_COLUMNS))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)


def write_plot_series(reports: list[dict], path: str) -> None:
    """Tab-separated values of the four comparison series, one row per
    method. Hamming loss is scaled by 10 so all four series share one
    axis range."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("method\tcardinality_difference\tjaccard\thamming_loss_x10\tf1\n")
        for r in reports:
            values = (r["cardinality_difference"], r["jaccard"], r["hamming_loss"] * 10.0, r["f1"])
            fh.write(r["method"] + "\t" + "\t".join(map(repr, values)) + "\n")

"""Output checks for each CLI call, computed from outside the program.

A call fails when it exits non-zero or its outputs are wrong:

* ``index``, ``embed``, ``train-rank`` and ``synset`` must write every
  artifact the next stage reads, and no topic may be skipped;
* ``fuse`` must write, for each depth ``a``, the mean-rank fusion of the
  synset and classifier TSVs (recomputed here) and the inversion of those
  fused lists into tags (also recomputed here);
* ``eval`` must print a table whose every cell matches the committed
  reference table to within ``TOLERANCE``.

The same reading of the TSVs gives the route-overlap counts of the fusion
layer: ``|S|``, ``|R|``, dual-listed, synset-only and classifier-only
articles, and the fused entries kept per route.
"""

from __future__ import annotations

import hashlib
import json
import os

from workloads import FULL_DEPTHS

# ROADMAP's "unchanged to 4 decimals" gate.
TOLERANCE = 5e-5
OVERLAP_DEPTH = 2


def topic_slug(topic: str) -> str:
    from tagfuse.config import topic_slug as slug

    return slug(topic)


def read_tsv(path: str) -> list[tuple[str, float]]:
    """``(article_id, score)`` rows of a ranked-list TSV, header skipped."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        rows = []
        for line in fh:
            _, article_id, score = line.rstrip("\n").split("\t")
            rows.append((article_id, float(score)))
    return rows


def expected_fusion(s_ids: list[str], r_ids: list[str]) -> list[tuple[float, str]]:
    """Every candidate with its combined rank, best first (depth not applied)."""
    s = {a: i for i, a in enumerate(s_ids, start=1)}
    r = {a: i for i, a in enumerate(r_ids, start=1)}
    size = len(s)
    if not size:
        return []

    def combined(a: str) -> float:
        if a in s and a in r:
            return (s[a] + r[a]) / 2.0
        return float((s.get(a) or r[a]) * size)

    return sorted((combined(a), a) for a in s.keys() | r.keys())


def expected_tags(fused: dict[str, list[str]]) -> dict[str, list[tuple[str, float]]]:
    """Per-article tags from per-topic fused id lists, best first."""
    tags: dict[str, list[tuple[str, float]]] = {}
    for topic, ids in fused.items():
        for rank0, article_id in enumerate(ids):
            tags.setdefault(article_id, []).append((topic, 1.0 - rank0 / len(ids)))
    return {a: sorted(t, key=lambda ts: (-ts[1], ts[0])) for a, t in tags.items()}


def read_tags(path: str) -> dict[str, list[tuple[str, float]]]:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {r["id"]: [(t["topic"], t["score"]) for t in r["tags"]] for r in records}


def call_depths(argv: list[str]) -> tuple[int, ...]:
    if "--a" in argv:
        return (int(argv[argv.index("--a") + 1]),)
    return FULL_DEPTHS


def digests(out_dir: str) -> dict[str, str]:
    """Truncated SHA-256 of every output file except the timed manifest."""
    found = {}
    for parent, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(parent, name)
            rel = os.path.relpath(path, out_dir)
            if rel == "manifest.jsonl":
                continue
            with open(path, "rb") as fh:
                found[rel] = hashlib.sha256(fh.read()).hexdigest()[:16]
    return found


def changed_files(observed: dict[str, str], reference: dict[str, str]) -> int:
    return sum(observed.get(p) != reference.get(p) for p in observed.keys() | reference.keys())


class Checker:
    """Checks the calls of one pass over one output directory.

    ``reference`` maps method name to its reference evaluation record;
    with ``None`` tables are collected but not compared.
    """

    def __init__(self, out_dir: str, topics: list[str], reference: dict | None):
        self.out_dir = out_dir
        self.topics = topics
        self.reference = reference
        self.tables: dict[str, dict] = {}
        self.overlap: dict[str, int] = {}
        self._expected: dict[str, tuple[set, set, list]] | None = None

    def path(self, *parts: str) -> str:
        return os.path.join(self.out_dir, *parts)

    def __call__(self, call) -> None:
        """Set ``call.failure`` to the first problem found, if any."""
        if call.returncode != 0:
            call.failure = f"exit code {call.returncode}"
            return
        check = getattr(self, "_check_" + call.stage.replace("-", "_"))
        try:
            call.failure = check(call.argv)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            call.failure = f"{type(exc).__name__}: {exc}"

    def _missing(self, paths: list[str]) -> str | None:
        for path in paths:
            if not os.path.isfile(path):
                return f"missing {os.path.relpath(path, self.out_dir)}"
        return None

    def _check_index(self, argv):
        return self._missing([self.path("index.pkl")])

    def _check_embed(self, argv):
        return self._missing([self.path("embedding.npy"), self.path("embedding.json")])

    def _check_train_rank(self, argv):
        summary = self.path("ranked", "classifier", "_training.json")
        missing = self._missing(
            [summary] + [self.path("ranked", "classifier", f"{topic_slug(t)}.tsv") for t in self.topics]
        )
        if missing:
            return missing
        with open(summary, encoding="utf-8") as fh:
            skipped = json.load(fh)["skipped"]
        return f"skipped topics {skipped}" if skipped else None

    def _check_synset(self, argv):
        return self._missing([self.path("ranked", "synset", f"{topic_slug(t)}.tsv") for t in self.topics])

    def _routes(self) -> dict[str, tuple[set, set, list]]:
        """Per topic: synset ids, classifier ids, expected fusion order."""
        if self._expected is None:
            self._expected = {}
            for topic in self.topics:
                slug = topic_slug(topic)
                s_ids = [a for a, _ in read_tsv(self.path("ranked", "synset", f"{slug}.tsv"))]
                r_ids = [a for a, _ in read_tsv(self.path("ranked", "classifier", f"{slug}.tsv"))]
                self._expected[topic] = (set(s_ids), set(r_ids), expected_fusion(s_ids, r_ids))
        return self._expected

    def _check_fuse(self, argv):
        routes = self._routes()
        for a in call_depths(argv):
            fused: dict[str, list[str]] = {}
            for topic in self.topics:
                s, r, order = routes[topic]
                want = order[: a * len(s)]
                got = read_tsv(self.path("fusion", f"a{a}", f"{topic_slug(topic)}.tsv"))
                if [g[0] for g in got] != [w[1] for w in want] or any(
                    abs(g[1] - w[0]) > TOLERANCE for g, w in zip(got, want)
                ):
                    return f"fusion list a{a}/{topic} differs from the recomputed fusion"
                fused[topic] = [g[0] for g in got]
            tags_path = self.path("tags", f"tags_a{a}.jsonl")
            missing = self._missing([tags_path])
            if missing:
                return missing
            if not _same_tags(read_tags(tags_path), expected_tags({t: ids for t, ids in fused.items() if ids})):
                return f"tags_a{a}.jsonl differs from the inverted fusion lists"
            if a == OVERLAP_DEPTH:
                self.overlap = overlap_counts(routes, fused)
        return None

    def _check_eval(self, argv):
        with open(self.path("reports", "evaluation.jsonl"), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        methods = [r["method"] for r in records]
        wanted = ["Synset"] + [f"Fusion{a}" for a in call_depths(argv)]
        if methods != wanted:
            return f"table rows {methods}, expected {wanted}"
        for record in records:
            self.tables[record["method"]] = record
            if self.reference is None:
                continue
            ref = self.reference.get(record["method"])
            if ref is None:
                return f"no reference row for {record['method']}"
            for key, value in ref.items():
                if key != "method" and abs(record[key] - value) > TOLERANCE:
                    return f"{record['method']}.{key} = {record[key]!r}, reference {value!r}"
        return None


def _same_tags(got: dict, want: dict) -> bool:
    if got.keys() != want.keys():
        return False
    for article_id, tags in want.items():
        other = got[article_id]
        if [t for t, _ in other] != [t for t, _ in tags]:
            return False
        if any(abs(x - y) > TOLERANCE for (_, x), (_, y) in zip(other, tags)):
            return False
    return True


def overlap_counts(routes: dict, fused: dict[str, list[str]]) -> dict[str, int | float]:
    """Route-overlap counts summed over topics, for one fusion depth."""
    counts = dict.fromkeys(
        ("candidates", "dual", "s_only", "r_only", "kept", "kept_dual", "kept_s_only", "kept_r_only"),
        0,
    )
    for topic, (s, r, _) in routes.items():
        kept = set(fused.get(topic, ()))
        counts["candidates"] += len(s | r)
        counts["dual"] += len(s & r)
        counts["s_only"] += len(s - r)
        counts["r_only"] += len(r - s)
        counts["kept"] += len(kept)
        counts["kept_dual"] += len(kept & s & r)
        counts["kept_s_only"] += len(kept & (s - r))
        counts["kept_r_only"] += len(kept & (r - s))
    result = {f"fusion.{k}": v for k, v in counts.items()}
    result["fusion.kept_frac"] = counts["kept"] / counts["candidates"] if counts["candidates"] else 0.0
    return result

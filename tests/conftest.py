import json

import pytest

from tagfuse.corpus import ArticleRecord
from tagfuse.index import build_index


def make_corpus(rows):
    """Records from (id, title, abstract[, keywords[, subjects]]) tuples."""
    records = []
    for row in rows:
        row = list(row) + [()] * (5 - len(row))
        article_id, title, abstract, keywords, subjects = row
        records.append(
            ArticleRecord(
                id=article_id,
                title=title,
                abstract=abstract,
                keywords=tuple(keywords),
                subjects=tuple(subjects),
            )
        )
    return records


def entries(ranked):
    """The (article id, score) pairs of a ranked list's two columns."""
    ids, scores = ranked
    return list(zip(ids, scores))


def columns(entries):
    """The two columns, ids and scores, of (article id, score) pairs."""
    return [aid for aid, _ in entries], [score for _, score in entries]


def load_tags(path):
    """The assignments of a ``write_assignments`` file, one ``json.loads`` a line."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return {r["id"]: [(t["topic"], t["score"]) for t in r["tags"]] for r in records}


def record(corpus, article_id):
    """The article of ``corpus`` with id ``article_id``."""
    return next(rec for rec in corpus if rec.id == article_id)


@pytest.fixture
def fungi_corpus():
    """Hand-written miniature corpus with two visible topic communities."""
    return make_corpus(
        [
            ("a1", "Mycology of alpine forests", "Fungal taxonomy and spore data.",
             ("fungi", "taxonomy"), ("Mycology",)),
            ("a2", "A fungology survey", "Spore dispersal in fungology research.",
             (), ("Mycology",)),
            ("a3", "Organ transplantation outcomes", "Graft survival after transplantation.",
             ("surgery",), ("Transplantation",)),
            ("a4", "Mycology and transplantation", "Fungal infection after a graft.",
             ("mycological methods",), ("Mycology", "Transplantation")),
            ("a5", "Deep learning for proteins", "Neural models of folding.",
             ("machine learning",), ()),
        ]
    )


@pytest.fixture
def fungi_index(fungi_corpus):
    return build_index(fungi_corpus)

import functools
import json
import logging
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

import tagfuse
from tagfuse.benchmark import BenchmarkSpec, topic_names
from tagfuse.cli import main
from tagfuse.corpus import ArticleRecord
from tagfuse.index import build_index
from tagfuse.manifest import append_entry
from tagfuse.semantic import CscArrays

SPECS = pathlib.Path(__file__).parent / "specs"


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


def vouch(output_dir, command, paths):
    """Append a manifest entry naming ``command`` as the writer of the files
    at ``paths``, as if that stage had written them."""
    append_entry(str(output_dir), command, 0, "", {}, [str(p) for p in paths], time.time())


def csc_arrays(a):
    """``a``, a dense or scipy matrix, as the ``CscArrays`` that
    ``randomized_svd`` reads: a view of a CSC float64 ``a``, a copy otherwise."""
    import numpy as np
    from scipy import sparse
    at = sparse.csr_matrix(a.T, dtype=np.float64)
    return CscArrays(at.data, at.indices, at.indptr, at.shape[::-1])


def snapshot(root, *exclude):
    """Every file under ``root`` and its bytes, but those ``diff -r -x exclude`` skips."""
    root = pathlib.Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*")
        if p.is_file() and not set(exclude) & set(p.relative_to(root).parts)
    }


def run_python(*args, env=None, cpus=None):
    """``python *args`` in a fresh interpreter that imports this tagfuse, with
    ``env`` added to its environment and, given ``cpus``, pinned to them."""
    src = os.path.dirname(os.path.dirname(tagfuse.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, **(env or {}), "PYTHONPATH": path},
        preexec_fn=cpus and (lambda: os.sched_setaffinity(0, cpus)),
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="session")
def spec_run(tmp_path_factory):
    """The output directory of a spec's bench run, made once in this process."""
    @functools.cache
    def run(name):
        out = tmp_path_factory.mktemp(name) / "out"
        config = str(SPECS / f"{name}.json")
        assert main(["bench", "--config", config, "--output-dir", str(out)]) == 0
        return out

    return run


def run_on_damaged_copy(spec_run, tmp_path, caplog, rel, damage, command):
    """Copy the ``ci`` bench run, pass its file ``rel`` to ``damage`` and run
    ``command`` on the copy; return the exit code and the error lines."""
    out = tmp_path / "ci-copy"
    shutil.copytree(spec_run("ci"), out)
    damage(out / rel)
    with open(SPECS / "ci.json", encoding="utf-8") as fh:
        topics = topic_names(BenchmarkSpec(**json.load(fh)["benchmark"]))
    data = {f"{name}_path": str(out / "data" / f"{name}.jsonl")
            for name in ("corpus", "synsets", "ground_truth")}
    config = tmp_path / "ci-copy.json"
    config.write_text(json.dumps({**data, "topics": topics, "output_dir": str(out)}))
    caplog.clear()
    with caplog.at_level(logging.ERROR):
        code = main([command, "--config", str(config)])
    return code, [r.message for r in caplog.records if r.levelno >= logging.ERROR]


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

"""Workload definitions, input set-up and the closed-loop CLI caller.

Every workload drives the pipeline the way an operator does: one
``python -m tagfuse.cli <stage> --config ...`` child process at a time,
each started only after the previous one has exited. The inputs come from
``tagfuse.benchmark.generate``; the program sees only the written files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

STAGES = ("index", "embed", "train-rank", "synset", "fuse", "eval")
UPSTREAM = STAGES[:4]
FULL_DEPTHS = (1, 2, 3, 4)  # the config default fusion.a_values
SWEEP_DEPTHS = tuple(range(1, 9))

# ``--seed n`` selects corpus ``n % N_CORPORA``; each corpus has a committed
# reference evaluation table in reference/, recorded when this benchmark was added.
N_CORPORA = 5

_MANY_TOPICS = {
    "n_topics": 20,
    "docs_per_topic": 500,
    "vocab_per_topic": 12,
    "background_vocab_size": 300,
    "doc_length": 30,
}


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # reference key of the generated corpus shape
    spec: dict = field(default_factory=dict)  # BenchmarkSpec overrides
    sweep: bool = False

    @property
    def depths(self) -> tuple[int, ...]:
        return SWEEP_DEPTHS if self.sweep else FULL_DEPTHS

    def calls(self) -> list[list[str]]:
        """CLI argument lists of one timed pass."""
        if not self.sweep:
            return [[stage] for stage in STAGES]
        return [[stage, "--a", str(a)] for a in SWEEP_DEPTHS for stage in ("fuse", "eval")]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("default-5k", corpus="5k"),
        Workload("many-topics-10k", corpus="10k", spec=_MANY_TOPICS),
        Workload("depth-sweep-10k", corpus="10k", spec=_MANY_TOPICS, sweep=True),
    )
}


class SetupError(RuntimeError):
    """The workload's inputs or upstream stages could not be built."""


def corpus_seed(seed: int) -> int:
    return seed % N_CORPORA


@dataclass
class Inputs:
    config: str
    topics: list[str]
    n_articles: int


def write_inputs(workload: Workload, seed: int, data_dir: str) -> Inputs:
    """Generate the workload's corpus, synsets and truth and write a config."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from tagfuse.benchmark import BenchmarkSpec, generate, topic_names
    from tagfuse.corpus import save_corpus, save_ground_truth
    from tagfuse.synsets import save_synsets

    spec = BenchmarkSpec(**workload.spec, seed=corpus_seed(seed))
    corpus, truth, synsets = generate(spec)
    os.makedirs(data_dir, exist_ok=True)
    paths = {
        "corpus_path": os.path.join(data_dir, "corpus.jsonl"),
        "synsets_path": os.path.join(data_dir, "synsets.jsonl"),
        "ground_truth_path": os.path.join(data_dir, "ground_truth.jsonl"),
    }
    save_corpus(corpus, paths["corpus_path"])
    save_synsets(synsets, paths["synsets_path"])
    save_ground_truth(truth, paths["ground_truth_path"])
    topics = topic_names(spec)
    config = os.path.join(data_dir, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({**paths, "topics": topics, "output_dir": os.path.join(data_dir, "out")}, fh)
    return Inputs(config=config, topics=topics, n_articles=len(corpus))


@dataclass
class Call:
    argv: list[str]
    wall_s: float
    cpu_s: float  # user + system time of the child
    rss_mb: float
    returncode: int
    log: str  # path prefix of the call's .out and .err files
    failure: str | None = None  # set by the output check

    @property
    def stage(self) -> str:
        return self.argv[0]


class Caller:
    """Runs CLI calls one at a time and records wall time and peak RSS.

    ``launcher`` replaces ``-m tagfuse.cli`` with another entry point that
    takes the same arguments, such as the tracing launcher; ``{log}`` in it
    is replaced by the call's log path prefix.
    """

    def __init__(self, config: str, log_dir: str, launcher: list[str] | None = None):
        self.config = config
        self.log_dir = log_dir
        self.launcher = launcher or ["-m", "tagfuse.cli"]
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )
        os.makedirs(log_dir, exist_ok=True)

    def __call__(self, argv: list[str], out_dir: str) -> Call:
        self.count += 1
        log = os.path.join(self.log_dir, f"{self.count:03d}-{argv[0]}")
        launcher = [part.format(log=log) for part in self.launcher]
        cmd = [sys.executable, *launcher, *argv, "--config", self.config, "--output-dir", out_dir]
        with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            # wait4 reaps the child and returns its own rusage, so the peak
            # RSS is this call's alone.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return Call(argv, wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, log)


def fresh_dir(path: str, template: str | None = None) -> str:
    """Empty ``path``, or make it a copy of ``template``."""
    shutil.rmtree(path, ignore_errors=True)
    if template is None:
        os.makedirs(path)
    else:
        shutil.copytree(template, path)
    return path

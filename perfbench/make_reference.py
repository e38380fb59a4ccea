"""Record the reference outputs that perfbench/run.py checks against.

    python3 perfbench/make_reference.py [CORPUS_SEED ...]

For each corpus seed (default: all of them) runs one untraced pass of every
workload, with table checks off, and writes reference/<corpus>-<seed>.json:
the evaluation record of every method row and depth, and the truncated
SHA-256 of every output file of each workload. Run it only on a commit
whose tables are known good; the committed files were recorded on the
commit that added this benchmark.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import N_CORPORA, REFERENCE_DIR, WORKLOADS, Caller
from run import Run


def record(seed: int) -> None:
    references: dict[str, dict] = {}
    for workload in WORKLOADS.values():
        run = Run(workload, seed, None)
        run.setup()
        caller = Caller(run.inputs.config, os.path.join(run.dir, "logs", "reference"))
        run.passes.append(run.run_pass(caller))
        failures = [f"{' '.join(c.argv)}: {c.failure}" for c in run.calls if c.failure]
        if failures:
            raise SystemExit(f"{workload.name} seed {seed}: {failures}")
        ref = references.setdefault(workload.corpus, {"corpus_seed": seed, "spec": workload.spec, "tables": {}, "digests": {}})
        for method, row in run.tables.items():
            if ref["tables"].setdefault(method, row) != row:
                raise SystemExit(f"{workload.name} seed {seed}: {method} row differs between workloads")
        ref["digests"][workload.name] = dict(sorted(run.digests.items()))
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for corpus, ref in references.items():
        with open(os.path.join(REFERENCE_DIR, f"{corpus}-{seed}.json"), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"reference {corpus}-{seed}: {len(ref['tables'])} rows, F1(a=2) {ref['tables']['Fusion2']['f1']:.4f}")


if __name__ == "__main__":
    for s in [int(a) for a in sys.argv[1:]] or range(N_CORPORA):
        record(s)

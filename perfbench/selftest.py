"""Self-test of the output check: injected faults must count as failed calls.

    python3 perfbench/selftest.py [--seed N]

Sets up depth-sweep-10k once, then runs its timed pass from fresh copies:
clean, with one tag score perturbed after ``fuse --a 2``, with
``tags_a2.jsonl`` deleted after that call, and against a reference table
with one cell moved by 1e-4. The clean pass must have no failed call; every
faulty pass must run to the end and report at least one. Exits 0 when all
cases behave, 1 otherwise.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

from run import Run, load_reference
from workloads import WORKLOADS, Caller

FAULT_CALL = ["fuse", "--a", "2"]


def _tags_path(out_dir: str) -> str:
    return os.path.join(out_dir, "tags", "tags_a2.jsonl")


def perturb_score(call, out_dir: str) -> None:
    if call.argv != FAULT_CALL:
        return
    with open(_tags_path(out_dir), encoding="utf-8") as fh:
        lines = fh.readlines()
    record = json.loads(lines[0])
    record["tags"][0]["score"] -= 1e-3
    lines[0] = json.dumps(record) + "\n"
    with open(_tags_path(out_dir), "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def delete_tags(call, out_dir: str) -> None:
    if call.argv == FAULT_CALL:
        os.remove(_tags_path(out_dir))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    workload = WORKLOADS["depth-sweep-10k"]
    reference = load_reference(workload, args.seed)
    moved = copy.deepcopy(reference)
    moved["tables"]["Fusion2"]["f1"] += 1e-4

    run = Run(workload, args.seed, reference)
    run.setup()
    caller = Caller(run.inputs.config, os.path.join(run.dir, "logs", "selftest"))
    cases = [
        ("clean", reference, None, False),
        ("perturbed tag score", reference, perturb_score, True),
        ("deleted tags_a2.jsonl", reference, delete_tags, True),
        ("reference cell moved", moved, None, True),
    ]
    ok = True
    for name, ref, hook, expect_failure in cases:
        run.reference = ref
        calls = run.run_pass(caller, hook)
        failed = [c for c in calls if c.failure]
        passed = bool(failed) == expect_failure
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: {len(failed)} of {len(calls)} calls failed")
        for call in failed:
            print(f"    {' '.join(call.argv)}: {call.failure}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run manifest: what ran, on which inputs, producing which bytes.

Each completed subcommand appends one JSON line to ``manifest.jsonl`` in
the output directory, recording the config fingerprint, the seed, and
SHA-256 digests of every input and output file. Two runs are equivalent
exactly when their input and output digests match; timings are recorded
for operators but excluded from any equality check.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time

MANIFEST_NAME = "manifest.jsonl"


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_fingerprint(config) -> str:
    """SHA-256 of the canonical JSON form of a config dataclass."""
    canonical = json.dumps(dataclasses.asdict(config), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def append_entry(
    output_dir: str,
    command: str,
    seed: int,
    fingerprint: str,
    inputs: list[str],
    outputs: list[str],
    started: float,
    extra: dict | None = None,
) -> dict:
    """Digest the named files and append the manifest record."""
    entry = {
        "command": command,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(started)),
        "duration_s": round(time.time() - started, 3),
        "seed": seed,
        "config_sha256": fingerprint,
        "inputs": {path: file_sha256(path) for path in sorted(inputs)},
        "outputs": {path: file_sha256(path) for path in sorted(outputs)},
    }
    if extra:
        entry.update(extra)
    os.makedirs(output_dir, exist_ok=True)
    with open(os.path.join(output_dir, MANIFEST_NAME), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
    return entry

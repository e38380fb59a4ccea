"""Run manifest: what ran, on which inputs, producing which bytes.

Each completed subcommand appends one JSON line to ``manifest.jsonl`` in
the output directory, recording the config fingerprint, the seed, and
SHA-256 digests of every input and output file, keyed by the POSIX path
relative to the output directory (so a copy names its own files) or, for
a file outside it, by the configured path. Two runs are equivalent exactly
when their input and output digests match; timings and peak memory are
recorded for operators but excluded from any equality check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import time

from .errors import TagfuseError

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


def manifest_key(output_dir: str, path: str) -> str:
    """The key of ``path`` in ``output_dir``'s manifest."""
    rel = os.path.relpath(path, output_dir)
    return path if rel.split(os.sep)[0] == os.pardir else rel.replace(os.sep, "/")


def read_manifest(output_dir: str) -> list[dict]:
    """The entries of ``output_dir``'s manifest, oldest first. A line that is
    not JSON, as an append cut short leaves it, raises TagfuseError naming it."""
    path, entries = os.path.join(output_dir, MANIFEST_NAME), []
    with contextlib.suppress(FileNotFoundError), open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                entries.append(json.loads(line))
            except ValueError as exc:
                raise TagfuseError(f"{path}:{lineno}: not JSON, delete the line: {exc}") from None
    return entries


def append_entry(
    output_dir: str,
    command: str,
    seed: int,
    fingerprint: str,
    inputs: dict[str, str],
    outputs: list[str],
    started: float,
    extra: dict | None = None,
) -> dict:
    """Append the manifest record of the files read (``inputs``, path to the
    digest taken when it was read) and written (``outputs``, digested here)."""
    entry = {
        "command": command,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(started)),
        "duration_s": round(time.time() - started, 3),
        # High-water RSS in MiB (ru_maxrss is KiB on Linux) of this process
        # or of its largest reaped child, such as a train-rank pool worker.
        "peak_rss_mb": round(max(resource.getrusage(who).ru_maxrss for who in (
            resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024, 1),
        "seed": seed,
        "config_sha256": fingerprint,
        "inputs": dict(sorted((manifest_key(output_dir, p), d) for p, d in inputs.items())),
        "outputs": dict(sorted((manifest_key(output_dir, p), file_sha256(p)) for p in outputs)),
    }
    if extra:
        entry.update(extra)
    os.makedirs(output_dir, exist_ok=True)
    with open(os.path.join(output_dir, MANIFEST_NAME), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
    return entry

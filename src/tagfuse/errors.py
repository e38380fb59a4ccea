"""Exception types shared across the pipeline.

Every pipeline error is a :class:`TagfuseError`, and the CLI exits 3 on
one. Its only subclasses are :class:`ConfigError`, on which the CLI exits
2, and :class:`InsufficientPositives`, which ``train-rank`` catches to
skip a topic.
"""

from __future__ import annotations


class TagfuseError(Exception):
    """Base class for all pipeline errors: bad data or a failed stage."""


class InsufficientPositives(TagfuseError):
    """A topic produced fewer positive examples than the configured floor.

    Callers are expected to catch this, skip the topic, and report it.
    """

    def __init__(self, topic: str, found: int, required: int):
        self.topic = topic
        self.found = found
        self.required = required
        super().__init__(
            f"topic {topic!r}: {found} positive examples, "
            f"need at least {required}"
        )


class ConfigError(TagfuseError):
    """Run configuration is invalid or references missing files."""

"""Exception types shared across the pipeline.

Every pipeline error is a :class:`TagfuseError`, and the CLI exits 3 on
one. Its only subclasses are :class:`ConfigError`, on which the CLI exits
2, and :class:`UntrainableTopic`, which ``classifier.build_dataset``
raises when a topic has too few positives or no article to draw
negatives from, and which ``train-rank`` catches to skip the topic.
"""

from __future__ import annotations


class TagfuseError(Exception):
    """Base class for all pipeline errors: bad data or a failed stage."""


class UntrainableTopic(TagfuseError):
    """The corpus cannot train a classifier for a topic.

    ``record`` is the topic's entry for the training report. Callers are
    expected to catch this, skip the topic, and report it.
    """

    def __init__(self, message: str, record: dict):
        super().__init__(message)
        self.record = record


class ConfigError(TagfuseError):
    """Run configuration is invalid or references missing files."""

"""Tokenization shared by every text-consuming stage.

Indexing and query parsing run through :func:`tokenize`, and the TF-IDF
vocabulary and the ground-truth labels read the index's tokens rather
than tokenizing again, so a phrase matched in one stage is guaranteed to
match in the others.
"""

from __future__ import annotations

import re

# Maximal runs of Unicode alphanumerics. Underscore is excluded on purpose:
# it is not alphanumeric, so snake_case splits into its parts.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase word segmentation on non-alphanumeric boundaries.

    No stemming and no stop-word removal: synonym sets carry inflected
    variants explicitly, so the tokenizer must not collapse them.
    """
    # Each token is lowercased on its own: lowercasing the whole text
    # first would turn "İ" into "i" plus a combining mark, which is not
    # alphanumeric and would split the token.
    return list(map(str.lower, _TOKEN_RE.findall(text)))

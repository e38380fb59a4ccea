"""Run configuration.

One JSON file drives every subcommand. Unknown and repeated keys are
rejected rather than ignored, so a typo fails loudly instead of silently
running with a default or the last value. Example:

    {
      "corpus_path": "data/corpus.jsonl",
      "synsets_path": "data/synsets.jsonl",
      "ground_truth_path": "data/truth.jsonl",
      "output_dir": "runs/demo",
      "topics": ["Mycology", "Virology"],
      "seed": 7,
      "semantic": {"k": 150},
      "fusion": {"a_values": [1, 2, 3, 4]}
    }

``ground_truth_fields`` may replace ``ground_truth_path`` to derive the
truth from category fields (for example ["subjects"]) instead of a file.

Each section is the config dataclass of the module that uses it, which
declares, defaults and checks the section's keys, so every key is
validated when the config loads. JSON arrays become tuples, and each
value must match its field's annotation: an int is a float, a bool is not
an int, and every element of a tuple is checked.
"""

from __future__ import annotations

import json
import typing
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields

from .benchmark import BenchmarkSpec
from .classifier import ClassifierConfig
from .corpus import TEXT_FIELDS
from .errors import ConfigError
from .fusion import FusionConfig
from .index import IndexConfig, check_fields
from .semantic import SemanticConfig
from .synsets import SynsetConfig
from .text import tokenize


@dataclass(frozen=True)
class RunConfig:
    output_dir: str = "runs/default"
    corpus_path: str | None = None
    synsets_path: str | None = None
    ground_truth_path: str | None = None
    ground_truth_fields: tuple[str, ...] | None = None
    topics: tuple[str, ...] = ()
    seed: int = 0
    index: IndexConfig = field(default_factory=IndexConfig)
    synset_search: SynsetConfig = field(default_factory=SynsetConfig)
    semantic: SemanticConfig = field(default_factory=SemanticConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    benchmark: BenchmarkSpec = field(default_factory=BenchmarkSpec)

    def __post_init__(self):
        if len(set(self.topics)) != len(self.topics):
            raise ConfigError("topics must be unique")
        unprintable = [t for t in self.topics if not t.isprintable()]
        if unprintable:
            raise ConfigError(f"topic(s) a ranked-list header cannot hold: {unprintable}")
        unsearchable = [t for t in self.topics if not tokenize(t)]
        if unsearchable:
            raise ConfigError(f"topic(s) with no letters or digits: {unsearchable}")
        if self.ground_truth_path and self.ground_truth_fields:
            raise ConfigError(
                "set either ground_truth_path or ground_truth_fields, not both"
            )
        slugs = [topic_slug(t) for t in self.topics]
        if len(set(slugs)) != len(slugs):
            raise ConfigError("topic names collide after slugging; rename one")
        if self.index.fields is not None:
            # The positives search and the embedding read the title and abstract.
            searched = (*self.synset_search.fields, *TEXT_FIELDS)
            missing = sorted(set(searched) - set(self.index.fields))
            if missing:
                raise ConfigError(
                    f"index.fields leaves out {missing}, which synset_search.fields, "
                    "the classifier's positives search or the embedding read"
                )
            check_fields(
                self.ground_truth_fields or (), self.index.fields, "ground_truth_fields", "indexed"
            )


def topic_slug(topic: str) -> str:
    """Filesystem-safe name for per-topic artifacts: the topic's tokens,
    joined by hyphens."""
    return "-".join(tokenize(topic))


# Section name -> its dataclass, the default factory of the RunConfig field.
_SECTIONS = {
    f.name: f.default_factory
    for f in dataclass_fields(RunConfig)
    if f.default_factory is not MISSING
}


def _conforms(value, hint) -> bool:
    """Whether a loaded value matches a field annotation."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(_conforms(v, args[0]) for v in value)
    if args:  # a union such as ``int | None``
        return any(_conforms(value, arg) for arg in args)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _build_section(cls, raw: dict, context: str):
    allowed = {f.name for f in dataclass_fields(cls)}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {unknown}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
    hints = typing.get_type_hints(cls)
    for key, value in kwargs.items():
        hint = hints[key]
        if not _conforms(value, hint):
            expected = hint if typing.get_args(hint) else hint.__name__
            raise ConfigError(f"{context}: {key} must be {expected}, got {raw[key]!r}")
    return cls(**kwargs)


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    top = {}
    for key, value in raw.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"section {key!r} must be an object")
            top[key] = _build_section(_SECTIONS[key], value, f"section {key!r}")
        else:
            top[key] = value
    return _build_section(RunConfig, top, "config")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a number")  # NaN, Infinity or -Infinity


def _unique_keys(pairs: list) -> dict:
    keys = [k for k, _ in pairs]
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    if repeated:  # json would keep the last value silently
        raise ConfigError(f"repeated key(s) in config: {repeated}")
    return dict(pairs)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, or no read permission
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8 JSON, or a non-finite number
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(raw)

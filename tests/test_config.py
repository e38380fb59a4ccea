import json
import re

import pytest

from tagfuse.config import RunConfig, config_from_dict, load_config, topic_slug
from tagfuse.errors import ConfigError
from tagfuse.manifest import config_fingerprint


def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


class TestTopicSlug:
    def test_lowercases_and_collapses_punctuation(self):
        assert topic_slug("Mycology") == "mycology"
        assert topic_slug("domain01 studies") == "domain01-studies"
        assert topic_slug("C. elegans (worm)") == "c-elegans-worm"

    def test_degenerate_names_still_get_a_slug(self):
        # A slug is the topic's tokens, so letters outside ASCII stay.
        assert topic_slug("生物学") == "生物学"
        assert topic_slug("Ökologie") == "ökologie"
        assert topic_slug("Ökologie, marine") == "ökologie-marine"

    def test_topics_without_ascii_letters_do_not_collide(self):
        cfg = config_from_dict({"topics": ["生物学", "化学"]})
        assert [topic_slug(t) for t in cfg.topics] == ["生物学", "化学"]
        with pytest.raises(ConfigError, match="collide"):
            config_from_dict({"topics": ["Ökologie", "ökologie"]})


class TestConfigFromDict:
    def test_defaults(self):
        cfg = config_from_dict({})
        assert cfg.output_dir == "runs/default"
        assert cfg.seed == 0
        assert cfg.fusion.a_values == (1, 2, 3, 4)
        assert cfg.semantic.k == 150
        assert cfg.classifier.n_trees == 100
        assert cfg.synset_search.fields == ("title", "abstract")

    def test_lists_become_tuples(self):
        cfg = config_from_dict(
            {
                "topics": ["A", "B"],
                "ground_truth_fields": ["subjects"],
                "fusion": {"a_values": [2, 5]},
                "synset_search": {"fields": ["title"]},
            }
        )
        assert cfg.topics == ("A", "B")
        assert cfg.ground_truth_fields == ("subjects",)
        assert cfg.fusion.a_values == (2, 5)
        assert cfg.synset_search.fields == ("title",)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key.*'corups_path'"):
            config_from_dict({"corups_path": "x.jsonl"})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match="section 'semantic'.*'kk'"):
            config_from_dict({"semantic": {"kk": 10}})

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigError, match="must be an object"):
            config_from_dict({"fusion": [1, 2]})

    def test_root_must_be_an_object(self):
        with pytest.raises(ConfigError, match="root must be an object"):
            config_from_dict([])

    def test_truth_path_and_fields_are_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            config_from_dict(
                {
                    "ground_truth_path": "t.jsonl",
                    "ground_truth_fields": ["subjects"],
                }
            )

    def test_duplicate_topics_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            config_from_dict({"topics": ["A", "A"]})

    @pytest.mark.parametrize("separator", ["\t", "\n", "\r", "\u2028", "\x00"])
    def test_topic_a_list_header_cannot_hold_is_rejected(self, separator):
        topic = f"domain01{separator}studies"
        with pytest.raises(ConfigError, match=re.escape(repr(topic))):
            config_from_dict({"topics": ["domain00", topic]})

    def test_colliding_topic_slugs_rejected(self):
        with pytest.raises(ConfigError, match="collide"):
            config_from_dict({"topics": ["My Topic", "my-topic"]})

    def test_benchmark_section_is_validated(self):
        with pytest.raises(ConfigError, match="benchmark.n_topics must be positive"):
            config_from_dict({"benchmark": {"n_topics": 0}})

    def test_section_value_errors_become_config_errors(self):
        with pytest.raises(ConfigError, match="a_values"):
            config_from_dict({"fusion": {"a_values": [1, 1]}})
        with pytest.raises(ConfigError, match="semantic.k"):
            config_from_dict({"semantic": {"k": 1}})
        with pytest.raises(ConfigError, match="synset_search.fields"):
            config_from_dict({"synset_search": {"fields": []}})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_trees", 0),
            ("max_depth", 0),
            ("min_samples_leaf", 0),
            ("max_features", "log2"),
        ],
    )
    def test_forest_keys_are_validated(self, key, value):
        with pytest.raises(ConfigError, match=f"classifier.{key} must be"):
            config_from_dict({"classifier": {key: value}})

    def test_forest_bootstrap_is_not_a_key(self):
        with pytest.raises(ConfigError, match="'bootstrap'"):
            config_from_dict({"classifier": {"bootstrap": False}})

    def test_index_fields_must_cover_the_searched_fields(self):
        with pytest.raises(ConfigError, match=r"index.fields leaves out \['abstract'\]"):
            config_from_dict({"index": {"fields": ["title"]}})
        with pytest.raises(ConfigError, match=r"leaves out \['keywords'\]"):
            config_from_dict(
                {
                    "index": {"fields": ["title", "abstract"]},
                    "synset_search": {"fields": ["title", "keywords"]},
                }
            )
        cfg = config_from_dict({"index": {"fields": ["abstract", "title", "subjects"]}})
        assert cfg.index.fields == ("abstract", "title", "subjects")

    def test_default_fingerprint_is_pinned(self):
        # Covers every key's name and default: a renamed, added or
        # re-defaulted key changes the manifest's config_sha256.
        assert config_fingerprint(RunConfig()) == (
            "fb27094d6d44b9d23cbab5e5f8d9a88b30e98718260a577cfbb8d473ec714332"
        )


class TestLoadConfig:
    def test_loads_nested_sections(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "corpus_path": "data/corpus.jsonl",
                "topics": ["Mycology"],
                "seed": 9,
                "semantic": {"k": 32},
                "benchmark": {"n_topics": 3, "docs_per_topic": 50},
            },
        )
        cfg = load_config(path)
        assert cfg.corpus_path == "data/corpus.jsonl"
        assert cfg.seed == 9
        assert cfg.semantic.k == 32
        assert cfg.benchmark.n_topics == 3
        assert cfg.benchmark.docs_per_topic == 50
        # Untouched sections keep their defaults.
        assert cfg.benchmark.doc_length == RunConfig().benchmark.doc_length

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "text",
        [
            b'{"classifier": {"neg_ratio": NaN}}',
            b'{"fusion": {"score_threshold": Infinity}}',
            b'{"seed": -Infinity}',
            b'{"output_dir": "\xff"}',
        ],
        ids=["nan", "infinity", "minus-infinity", "not-utf8"],
    )
    def test_non_finite_number_or_undecodable_byte_names_the_file(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: invalid JSON"):
            load_config(str(path))

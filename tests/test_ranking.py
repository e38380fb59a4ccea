import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagfuse.errors import TagfuseError
from tagfuse.ranking import (
    ORIGIN_CLASSIFIER,
    ORIGIN_FUSION,
    ORIGIN_SYNSET,
    read_ranked_list,
    write_ranked_list,
)
from tagfuse.seeds import derive_seed

from conftest import columns, entries, run_on_damaged_copy


def read_back(tmp_path, origin, pairs):
    """Write a list of topic "T" and read it back."""
    path = str(tmp_path / "list.tsv")
    write_ranked_list(columns(pairs), "T", origin, path)
    return entries(read_ranked_list(path, "T", origin))


def edit_row(n, change):
    """An edit of a list's text: ``change(fields, lines)`` gives the fields
    of its n-th entry (line n + 1)."""
    def edit(text):
        lines = text.split("\n")
        lines[n] = "\t".join(change(lines[n].split("\t"), lines))
        return "\n".join(lines)
    return edit


def assert_rejected(spec_run, tmp_path, caplog, edit, fused=False):
    """Pass the text of the ``ci`` run's first synset list (or of its first
    fused list at a = 2) through ``edit``: the next stage to read it exits 3,
    naming the list and the stage that writes it. The manifest's digest,
    not the reader, catches the edit."""
    stage, rel = ("fuse", "fusion/a2") if fused else ("synset", "ranked/synset")
    rel += "/domain00.tsv"

    def damage(path):
        path.write_bytes(edit(path.read_bytes().decode()).encode())

    reader = "eval" if fused else "fuse"
    code, errors = run_on_damaged_copy(spec_run, tmp_path, caplog, rel, damage, reader)
    path = tmp_path / "ci-copy" / rel
    assert (code, errors) == (
        3, [f"{path}: changed since 'tagfuse {stage}' wrote it; re-run 'tagfuse {stage}'"]
    )


class TestRankedList:
    """NaN and equal scores read back. A list put out of order, in either
    origin's direction, fails the manifest's digest of it before it is read
    (the other edits: ``test_cli.py::test_an_edited_artifact_exits_three_naming_its_writer``)."""

    def test_score_order_enforced_per_origin(self, spec_run, tmp_path, caplog):
        # Out of a synset list's descending order, and of a fused list's ascending one.
        for fused, score in ((False, "1e300"), (True, "-1e300")):
            misplaced = edit_row(2, lambda f, lines: [f[0], f[1], score])
            assert_rejected(spec_run, tmp_path / str(fused), caplog, misplaced, fused)

    def test_one_pair_out_of_order_is_rejected_in_either_direction(
        self, spec_run, tmp_path, caplog
    ):
        def swap(text):  # the ids and scores of the first two entries
            lines = text.split("\n")
            (r1, *first), (r2, *second) = (line.split("\t") for line in lines[1:3])
            lines[1:3] = "\t".join([r1, *second]), "\t".join([r2, *first])
            return "\n".join(lines)

        for fused in (False, True):
            assert_rejected(spec_run, tmp_path / str(fused), caplog, swap, fused)

    def test_nan_scores_are_never_out_of_order(self, tmp_path):
        nan = float("nan")
        for origin in (ORIGIN_CLASSIFIER, ORIGIN_FUSION):
            entries = [("a", 1.0), ("b", nan), ("c", nan), ("d", 2.0)]
            assert len(read_back(tmp_path, origin, entries)) == 4

    def test_equal_scores_are_always_legal(self, tmp_path):
        entries = [("a", 1.0), ("b", 1.0)]
        for origin in (ORIGIN_CLASSIFIER, ORIGIN_SYNSET, ORIGIN_FUSION):
            assert len(read_back(tmp_path, origin, entries)) == 2


class TestRankedListIO:
    def roundtrip(self, pairs, topic, origin, tmp_path):
        path = str(tmp_path / "list.tsv")
        write_ranked_list(columns(pairs), topic, origin, path)
        return entries(read_ranked_list(path, topic, origin)), path

    def test_scores_round_trip_exactly(self, tmp_path):
        entries = [("d1", 2.5000000000000004), ("d2", 0.1), ("d3", 1e-17)]
        loaded, _ = self.roundtrip(entries, "domain01 studies", ORIGIN_SYNSET, tmp_path)
        assert loaded == entries

    def test_empty_list_round_trips(self, tmp_path):
        loaded, _ = self.roundtrip([], "T", ORIGIN_FUSION, tmp_path)
        assert loaded == []

    def test_header_carries_topic_and_origin(self, tmp_path):
        _, path = self.roundtrip([("x", 1.0)], "My Topic", ORIGIN_CLASSIFIER, tmp_path)
        with open(path, encoding="utf-8") as fh:
            assert fh.readline() == "# topic=My Topic\torigin=classifier\n"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\td1\t0.5\n", encoding="utf-8")
        with pytest.raises(TagfuseError, match="header"):
            read_ranked_list(str(path), "T", ORIGIN_SYNSET)

    def test_header_must_name_the_expected_topic_and_origin(self, tmp_path):
        _, path = self.roundtrip([("x", 1.0)], "T", ORIGIN_SYNSET, tmp_path)
        wrong = (("U", ORIGIN_SYNSET), ("t", ORIGIN_SYNSET), ("T", ORIGIN_CLASSIFIER))
        for topic, origin in wrong:
            with pytest.raises(TagfuseError, match=r"list.tsv:1: expected the header"):
                read_ranked_list(path, topic, origin)

    def test_rows_are_split_unchecked(self, tmp_path):
        path = tmp_path / "list.tsv"
        path.write_text("# topic=T\torigin=synset\n7\tb\t1.0\n7\tb\t2.0\n", "utf-8")
        assert read_ranked_list(str(path), "T", ORIGIN_SYNSET) == (["b", "b"], [1.0, 2.0])

    def test_column_count_enforced(self, spec_run, tmp_path, caplog):
        assert_rejected(spec_run, tmp_path, caplog, edit_row(2, lambda f, lines: f[:2]))

    def test_extra_column_then_missing_one_rejected_at_the_first(
        self, spec_run, tmp_path, caplog
    ):
        # Split flat, the two lines still give three fields each.
        def shift(text):
            text = edit_row(1, lambda f, lines: [*f, "2"])(text)
            return edit_row(2, lambda f, lines: f[1:])(text)

        assert_rejected(spec_run, tmp_path, caplog, shift)

    @pytest.mark.parametrize(
        "n, rank", [(1, "+1"), (2, " 2 "), (1, "01"), (10, "1_0")],
        ids=["plus", "spaces", "leading-zero", "underscore"],
    )
    def test_rank_spelled_otherwise_than_written_rejected(
        self, spec_run, tmp_path, caplog, n, rank
    ):
        respelled = edit_row(n, lambda f, lines: [rank, *f[1:]])
        assert_rejected(spec_run, tmp_path, caplog, respelled)

    @pytest.mark.parametrize(
        "score", ["0_5", " 0.5", "0.5 ", "\u0665"],
        ids=["underscore", "leading-blank", "trailing-blank", "arabic-indic-digit"],
    )
    def test_score_spelled_otherwise_than_written_rejected(
        self, spec_run, tmp_path, caplog, score
    ):
        # float() reads each score, "\u0665" as 5.0.
        respelled = edit_row(2, lambda f, lines: [*f[:2], score])
        assert_rejected(spec_run, tmp_path, caplog, respelled)

    @given(
        scores=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=0,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_any_descending_scores_round_trip(self, scores, tmp_path_factory):
        ordered = sorted(scores, reverse=True)
        ranked = ([f"d{i:03d}" for i in range(len(ordered))], ordered)
        path = str(tmp_path_factory.mktemp("rl") / "list.tsv")
        write_ranked_list(ranked, "T", ORIGIN_CLASSIFIER, path)
        assert read_ranked_list(path, "T", ORIGIN_CLASSIFIER) == ranked


class TestDeriveSeed:
    def test_deterministic_and_label_sensitive(self):
        assert derive_seed(7, "train", "T") == derive_seed(7, "train", "T")
        assert derive_seed(7, "train", "T") != derive_seed(8, "train", "T")
        assert derive_seed(7, "train", "T") != derive_seed(7, "split", "T")
        assert derive_seed(7, "train", "T") != derive_seed(7, "train", "U")

    def test_label_boundaries_matter(self):
        # ("ab", "c") and ("a", "bc") must not collide.
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_fits_in_a_numpy_seed(self):
        for labels in ((), ("x",), ("x", "y"), ("unicode", "tópic")):
            seed = derive_seed(123, *labels)
            assert 0 <= seed < 2**63

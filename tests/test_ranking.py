import re

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

from conftest import columns, entries


def read_back(tmp_path, origin, pairs):
    """Write a list of topic "T" and read it back; only the reader checks."""
    path = str(tmp_path / "list.tsv")
    write_ranked_list(columns(pairs), "T", origin, path)
    return entries(read_ranked_list(path, "T", origin))


class TestRankedList:
    def test_duplicate_article_rejected(self, tmp_path):
        with pytest.raises(TagfuseError, match=r":3: duplicate article 'a'"):
            read_back(tmp_path, ORIGIN_SYNSET, [("a", 2.0), ("a", 1.0)])

    def test_score_order_enforced_per_origin(self, tmp_path):
        ascending = [("a", 1.0), ("b", 2.0)]
        descending = [("a", 2.0), ("b", 1.0)]
        read_back(tmp_path, ORIGIN_FUSION, ascending)
        read_back(tmp_path, ORIGIN_SYNSET, descending)
        read_back(tmp_path, ORIGIN_CLASSIFIER, descending)
        with pytest.raises(TagfuseError, match=r":3: not ordered \(asc"):
            read_back(tmp_path, ORIGIN_FUSION, descending)
        with pytest.raises(TagfuseError, match=r":3: not ordered \(desc"):
            read_back(tmp_path, ORIGIN_SYNSET, ascending)

    def test_duplicate_named_is_the_first_repeated_id(self, tmp_path):
        entries = [("a", 1.0), ("b", 2.0), ("c", 3.0), ("b", 4.0), ("a", 5.0)]
        with pytest.raises(TagfuseError, match=r":5: duplicate article 'b'"):
            read_back(tmp_path, ORIGIN_FUSION, entries)

    def test_one_pair_out_of_order_is_rejected_in_either_direction(self, tmp_path):
        descending = [("a", 3.0), ("b", 2.0), ("c", 2.0), ("d", 1.0), ("e", 1.0)]
        ascending = [(aid, -score) for aid, score in descending]
        read_back(tmp_path, ORIGIN_SYNSET, descending)
        read_back(tmp_path, ORIGIN_FUSION, ascending)
        cases = ((ORIGIN_SYNSET, descending), (ORIGIN_FUSION, ascending))
        for i in range(len(descending) - 1):
            for origin, entries in cases:
                swapped = list(entries)
                (a, sa), (b, sb) = swapped[i], swapped[i + 1]
                if sa == sb:
                    continue
                swapped[i], swapped[i + 1] = (a, sb), (b, sa)
                # The header is line 1, entry i is line i + 2.
                with pytest.raises(TagfuseError, match=f":{i + 3}: not ordered"):
                    read_back(tmp_path, origin, swapped)

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

    def test_rank_gap_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "# topic=T\torigin=synset\n1\td1\t2.0\n3\td2\t1.0\n", encoding="utf-8"
        )
        with pytest.raises(TagfuseError, match="out of sequence"):
            read_ranked_list(str(path), "T", ORIGIN_SYNSET)

    def test_column_count_enforced(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# topic=T\torigin=synset\n1\td1\n", encoding="utf-8")
        with pytest.raises(TagfuseError, match="3 columns"):
            read_ranked_list(str(path), "T", ORIGIN_SYNSET)

    def test_extra_column_then_missing_one_rejected_at_the_first(self, tmp_path):
        # Split flat, the two lines would still give three fields each.
        path = tmp_path / "bad.tsv"
        path.write_text(
            "# topic=T\torigin=synset\n1\td1\t2.0\t2\nd2\t1.0\n", encoding="utf-8"
        )
        with pytest.raises(TagfuseError, match=r"bad.tsv:2: expected 3 columns"):
            read_ranked_list(str(path), "T", ORIGIN_SYNSET)

    @pytest.mark.parametrize(
        "ranks, lineno",
        [(["+1", "2"], 2), (["1", " 2 "], 3), (["01", "2"], 2),
         ([str(i) for i in range(1, 10)] + ["1_0"], 11)],
        ids=["plus", "spaces", "leading-zero", "underscore"],
    )
    def test_rank_spelled_otherwise_than_written_rejected(self, tmp_path, ranks, lineno):
        path = tmp_path / "bad.tsv"
        rows = "".join(f"{rank}\td{i}\t{1.0 / (i + 1)!r}\n" for i, rank in enumerate(ranks))
        path.write_text("# topic=T\torigin=synset\n" + rows, encoding="utf-8")
        with pytest.raises(TagfuseError, match=f"bad.tsv:{lineno}: rank out of sequence"):
            read_ranked_list(str(path), "T", ORIGIN_SYNSET)

    @pytest.mark.parametrize(
        "score", ["0_5", " 0.5", "0.5 ", "\u0665"],
        ids=["underscore", "leading-blank", "trailing-blank", "arabic-indic-digit"],
    )
    def test_score_spelled_otherwise_than_written_rejected(self, tmp_path, score):
        path = tmp_path / "bad.tsv"  # float() reads each score, "\u0665" as 5.0
        path.write_text(f"# topic=T\torigin=synset\n1\td1\t9.0\n2\td2\t{score}\n", "utf-8")
        message = f"bad.tsv:3: score {score!r} not spelled as written"
        with pytest.raises(TagfuseError, match=re.escape(message)):
            read_ranked_list(str(path), "T", ORIGIN_SYNSET)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1\td1\t2.0\n2\t\t1.0\n3\td3\tx\n", ":3: empty article id"),
            ("1\td1\t2.0\n2\td2\tx\n3\t\t1.0\n", ":3: could not convert string to float: 'x'"),
            ("1\td1\tx\n3\td2\t1.0\n", ":2: could not convert"),
            ("1\td1\t2.0\n3\td2\tx\n2\td3\n", ":3: rank out of sequence"),
        ],
        ids=["empty-id", "bad-score", "score-before-rank", "rank-before-columns"],
    )
    def test_first_faulty_line_named_with_its_first_fault(self, tmp_path, rows, message):
        path = tmp_path / "bad.tsv"
        path.write_text("# topic=T\torigin=synset\n" + rows, encoding="utf-8")
        with pytest.raises(TagfuseError, match=re.escape(f"bad.tsv{message}")):
            read_ranked_list(str(path), "T", ORIGIN_SYNSET)

    def test_crlf_line_ends_read_as_lf(self, tmp_path):
        text = "# topic=T\torigin=synset\n1\td1\t2.0\n\n2\td2\t1.0\n"
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        expected = (["d1", "d2"], [2.0, 1.0])
        for path in (lf, crlf):
            assert read_ranked_list(str(path), "T", ORIGIN_SYNSET) == expected
        crlf.write_bytes(crlf.read_bytes() + b"3\td1\t0.5\r\n")
        with pytest.raises(TagfuseError, match=r"crlf.tsv:5: duplicate article 'd1'"):
            read_ranked_list(str(crlf), "T", ORIGIN_SYNSET)

    def test_undecodable_byte_named_at_its_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"# topic=T\torigin=synset\n1\td1\t2.0\n\n2\tcaf\xe9\t1.0\n")
        with pytest.raises(TagfuseError, match=r"bad.tsv:4: 'utf-8' codec can't decode"):
            read_ranked_list(str(path), "T", ORIGIN_SYNSET)

    def test_entry_check_names_the_line_past_blank_lines(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "# topic=T\torigin=synset\n1\td1\t2.0\n\n\n2\td2\t1.0\n3\td1\t0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(TagfuseError, match=r"bad.tsv:6: duplicate article 'd1'"):
            read_ranked_list(str(path), "T", ORIGIN_SYNSET)

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

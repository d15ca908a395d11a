"""Text format parsing, writing, and error reporting."""

import pickle
import random

import pytest

from geodual import ElementSet, GroundSet, InputError, MeetFamily, partition_meets
from geodual.formats import (
    format_hg,
    format_imp,
    format_mask,
    format_mf,
    format_set,
    parse_hg,
    parse_imp,
    parse_mf,
    read_imp,
    read_mf,
)


class TestImpParsing:
    def test_fixture_file(self, data_dir):
        base = read_imp(data_dir / "crossed.imp")
        assert base.ground.labels == ("1", "2", "3", "4", "5")
        assert base.size == 5
        assert repr(base.implications[4]) == "4 5 -> 3"

    def test_comments_and_blank_lines(self):
        base = parse_imp(
            "# heading\n\nelements: a b c  # trailing\n\na b -> c # rule\n"
        )
        assert base.size == 1

    def test_roundtrip(self, layered):
        assert parse_imp(format_imp(layered)) == layered

    def test_missing_arrow_reports_line(self):
        with pytest.raises(InputError, match=r"input\.imp:3"):
            parse_imp("elements: a b\n# fine\na b\n", source="input.imp")

    def test_unknown_label_reports_line(self):
        with pytest.raises(InputError, match=r":2"):
            parse_imp("elements: a b\nq -> a\n")

    def test_empty_premise_rejected(self):
        with pytest.raises(InputError, match="standardness"):
            parse_imp("elements: a b\n-> a\n")

    def test_two_conclusions_rejected(self):
        with pytest.raises(InputError, match="exactly one conclusion"):
            parse_imp("elements: a b c\na -> b c\n")

    def test_double_arrow_rejected(self):
        with pytest.raises(InputError, match="more than one"):
            parse_imp("elements: a b c\na -> b -> c\n")

    def test_missing_header(self):
        with pytest.raises(InputError, match="elements"):
            parse_imp("a -> b\n")

    def test_empty_file(self):
        with pytest.raises(InputError):
            parse_imp("")

    def test_self_loop_reports_line(self):
        with pytest.raises(InputError, match=r":2"):
            parse_imp("elements: a b\na b -> b\n")


class TestMfParsing:
    def test_fixture_file(self, data_dir):
        ground, sets = read_mf(data_dir / "layered.mf")
        assert ground.labels == ("1", "2", "3", "4", "5", "j")
        assert len(sets) == 9

    def test_empty_set_token(self):
        ground, sets = parse_mf("elements: a b\n.\na\n")
        assert [s.labels() for s in sets] == [(), ("a",)]

    def test_roundtrip(self, layered):
        ground = layered.ground
        sets = [ElementSet.empty(ground), ElementSet.from_labels(ground, ["3", "5"])]
        reground, resets = parse_mf(format_mf(ground, sets))
        assert reground == ground
        assert [s.mask for s in resets] == [s.mask for s in sets]

    def test_bad_label_reports_line(self):
        with pytest.raises(InputError, match=r":3"):
            parse_mf("elements: a b\na\nq\n")


class TestHgParsing:
    def test_fixture_file(self, data_dir):
        from geodual.formats import read_hg

        h = read_hg(data_dir / "layered_j.hg")
        assert h.vertices.labels() == ("1", "2", "3", "4", "5")
        assert len(h.edges) == 3

    def test_empty_edge_token(self):
        h = parse_hg("vertices: a b\n.\n")
        assert [len(e) for e in h.edges] == [0]

    def test_roundtrip(self):
        h = parse_hg("vertices: a b c\na b\nc\n")
        assert format_hg(parse_hg(format_hg(h))) == format_hg(h)


class TestWriting:
    def test_imp_text_shape(self, chain):
        assert format_imp(chain) == "elements: 1 2\n1 -> 2\n"

    def test_mf_empty_set_written_as_dot(self, chain):
        ground = chain.ground
        text = format_mf(ground, [ElementSet.empty(ground)])
        assert text == "elements: 1 2\n.\n"


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 4096])
def test_format_mask_at_chunk_edges(n):
    ground = GroundSet(f"v{i}" for i in range(n))
    full = (1 << n) - 1
    last_chunk = full & ~((1 << (n - 1) // 8 * 8) - 1)
    rng = random.Random(n)
    top = 1 << (n - 1)
    masks = [1, top, 1 | top, 0xFF & full, last_chunk, full]
    masks += [rng.getrandbits(n) for _ in range(20)]
    masks += [m | 1 | top for m in masks[-10:]]
    copy = pickle.loads(pickle.dumps(ground))
    for mask in masks:
        expected = " ".join(ground.labels[i] for i in range(n) if mask >> i & 1) or "."
        assert format_mask(ground, mask) == expected
        assert format_set(ElementSet(ground, mask)) == expected
        assert format_mask(copy, mask) == expected
    assert format_mask(ground, 0) == format_set(ElementSet.empty(ground)) == "."


def test_meet_family_pickles_before_and_after_its_index(data_dir):
    # A copy made before the partition builds the member index, and one made
    # after, equal the original and partition it alike.
    family = MeetFamily(*read_mf(data_dir / "rung.mf"))
    fresh = pickle.loads(pickle.dumps(family))
    partition = partition_meets(family)
    built = pickle.loads(pickle.dumps(family))
    assert fresh == family == built
    assert partition_meets(fresh) == partition_meets(built) == partition

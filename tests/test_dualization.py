"""Duality checking and its embedding into meet-family identification."""

import random

import pytest

from conftest import make_base, sets_of
from geodual import (
    Antichain,
    ElementSet,
    GroundSet,
    Implication,
    InputError,
    MeetFamily,
    PreconditionError,
    check_dual,
    is_meet_family,
    reduce_dual_to_cmi,
)
from geodual.dualization import check_same_base
from geodual.errors import RelabelWarning
from geodual.oracle import (
    closed_set_masks,
    maximal_masks,
    meets_brute,
    random_antichain_families,
    random_distributive_base,
)


@pytest.fixture
def bool2():
    return make_base("1 2", [])


class TestAntichain:
    def test_unclosed_member_rejected(self, crossed):
        (s4,) = sets_of(crossed, "4")
        with pytest.raises(InputError):
            Antichain(crossed, [s4])

    def test_comparable_members_rejected(self, bool2):
        with pytest.raises(InputError):
            Antichain(bool2, sets_of(bool2, "1", "1 2"))

    def test_valid(self, bool2):
        chain = Antichain(bool2, sets_of(bool2, "1", "2"))
        assert len(chain) == 2


class TestCheckDual:
    def test_boolean_positive(self, bool2):
        plus = Antichain(bool2, sets_of(bool2, "1", "2"))
        minus = Antichain(bool2, sets_of(bool2, "1 2"))
        assert check_dual(bool2, plus, minus)

    def test_boolean_negative(self, bool2):
        plus = Antichain(bool2, sets_of(bool2, "1"))
        minus = Antichain(bool2, sets_of(bool2, "1 2"))
        assert not check_dual(bool2, plus, minus)

    def test_chain_positive(self, chain):
        plus = Antichain(chain, sets_of(chain, "2"))
        minus = Antichain(chain, sets_of(chain, "1 2"))
        assert check_dual(chain, plus, minus)


class TestReduce:
    def test_boolean_construction(self, bool2):
        plus = Antichain(bool2, sets_of(bool2, "1", "2"))
        minus = Antichain(bool2, sets_of(bool2, "1 2"))
        omega, fam = reduce_dual_to_cmi(bool2, plus, minus)
        assert omega.ground.labels == ("1", "2", "z")
        assert [repr(i) for i in omega.implications] == ["1 2 -> z"]
        got = {m.labels() for m in fam}
        assert got == {("1", "z"), ("2", "z"), ("1",), ("2",)}

    def test_cardinality_identity(self):
        rng = random.Random(71)
        for _ in range(25):
            base = random_distributive_base(rng, max_elements=6)
            plus, minus = random_antichain_families(base, rng, dual=rng.random() < 0.5)
            meets = meets_brute(base)
            _, fam = reduce_dual_to_cmi(
                base, Antichain(base, plus), Antichain(base, minus)
            )
            assert len(fam) == len(meets) + len(plus), "disjoint union"

    def test_fresh_label_renamed_with_warning(self):
        base = make_base("z a", [])
        plus = Antichain(base, sets_of(base, "z", "a"))
        minus = Antichain(base, sets_of(base, "z a"))
        with pytest.warns(RelabelWarning):
            omega, _ = reduce_dual_to_cmi(base, plus, minus)
        assert omega.ground.labels == ("z", "a", "z1")

    def test_wide_premise_rejected(self, layered):
        plus = Antichain(layered, [])
        minus = Antichain(layered, [])
        with pytest.raises(PreconditionError):
            reduce_dual_to_cmi(layered, plus, minus)

    def test_empty_negative_member_rejected(self, bool2):
        plus = Antichain(bool2, [])
        minus = Antichain(bool2, [ElementSet.empty(bool2.ground)])
        with pytest.raises(InputError):
            reduce_dual_to_cmi(bool2, plus, minus)


class TestIsMeetFamily:
    def test_crossed_self_consistency(self, crossed):
        fam = MeetFamily(crossed.ground, meets_brute(crossed))
        assert is_meet_family(crossed, fam)

    def test_missing_meet_detected(self, crossed):
        meets = meets_brute(crossed)
        fam = MeetFamily(crossed.ground, meets[:-1])
        assert not is_meet_family(crossed, fam)

    def test_reduced_dual_instance(self, bool2):
        plus = Antichain(bool2, sets_of(bool2, "1", "2"))
        minus = Antichain(bool2, sets_of(bool2, "1 2"))
        omega, fam = reduce_dual_to_cmi(bool2, plus, minus)
        assert is_meet_family(omega, fam)

    def test_reduced_nondual_instance(self, bool2):
        plus = Antichain(bool2, sets_of(bool2, "1"))
        minus = Antichain(bool2, sets_of(bool2, "1 2"))
        omega, fam = reduce_dual_to_cmi(bool2, plus, minus)
        assert not is_meet_family(omega, fam)
        assert not check_dual(bool2, plus, minus)


class TestEquivalenceAndIdentities:
    def test_reduction_preserves_the_answer(self):
        rng = random.Random(72)
        for _ in range(40):
            base = random_distributive_base(rng, max_elements=6)
            dual = rng.random() < 0.5
            plus, minus = random_antichain_families(base, rng, dual=dual)
            bp, bm = Antichain(base, plus), Antichain(base, minus)
            verdict = check_dual(base, bp, bm)
            assert verdict == dual
            omega, fam = reduce_dual_to_cmi(base, bp, bm)
            assert is_meet_family(omega, fam) == verdict

    def test_meets_of_extension_split_as_predicted(self):
        """Meets containing z mirror the old meets; the rest solve the duality."""
        rng = random.Random(73)
        for _ in range(30):
            base = random_distributive_base(rng, max_elements=6)
            plus, minus = random_antichain_families(base, rng, dual=rng.random() < 0.5)
            bp, bm = Antichain(base, plus), Antichain(base, minus)
            omega, _ = reduce_dual_to_cmi(base, bp, bm)
            z = omega.ground.size - 1
            zbit = 1 << z
            omega_meets = {m.mask for m in meets_brute(omega)}
            with_z = {m for m in omega_meets if m & zbit}
            without_z = omega_meets - with_z
            old_meets = {m.mask for m in meets_brute(base)}
            assert with_z == {m | zbit for m in old_meets}
            minus_masks = [a.mask for a in bm]
            closed = closed_set_masks(base)
            true_plus = set(
                maximal_masks(
                    f for f in closed if not any(a & f == a for a in minus_masks)
                )
            )
            assert without_z == true_plus


# A base on other labels than `bool2`'s, whose sets, antichains and meet
# families belong to neither `bool2` nor its reduction.
OTHER = make_base("a b", [])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda b: Antichain(b, sets_of(OTHER, "a")),
         "antichain member {a} has a foreign universe"),
        (lambda b: check_same_base(b, Antichain(OTHER, []), "positive"),
         "positive antichain was built against a different base"),
        (lambda b: reduce_dual_to_cmi(b, Antichain(b, []), Antichain(b, []),
                                      MeetFamily(OTHER.ground, meets_brute(OTHER))),
         "meet family lives on a different ground set"),
        (lambda b: is_meet_family(b, MeetFamily(OTHER.ground, meets_brute(OTHER))),
         "meet family lives on a different ground set"),
    ],
    ids=["antichain", "same-base", "reduce", "is-meet-family"],
)
def test_inputs_of_another_ground_set_are_rejected(bool2, call, message):
    with pytest.raises(InputError) as raised:
        call(bool2)
    assert str(raised.value) == message


@pytest.mark.parametrize("conclusion", [-1, 2])
def test_a_conclusion_outside_the_universe_is_rejected(conclusion):
    premise = ElementSet.from_labels(GroundSet(["1", "2"]), ["1"])
    with pytest.raises(InputError) as raised:
        Implication(premise, conclusion)
    assert str(raised.value) == f"conclusion position {conclusion} outside universe"

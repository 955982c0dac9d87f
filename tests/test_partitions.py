import copy
import dataclasses
import pickle
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

from oddferrers.commands import _parse_partition
from oddferrers.errors import InvalidHookList, NotSelfConjugate, Refused, TooLarge
from oddferrers.partitions import (
    MAX_CELLS,
    Partition,
    _compose,
    hook_decompose,
    hooks_compose,
    is_self_conjugate,
)

import oracles


class TestConstruction:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((2, 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((3, 0))

    @pytest.mark.parametrize("parts, message", [
        ((2, 3), "parts not weakly decreasing at index 1: (2, 3)"),
        ((3, 0), "part 0 is not a positive integer"),
        ((0,), "part 0 is not a positive integer"),
        ((3, 1, 2), "parts not weakly decreasing at index 2: (3, 1, 2)"),
    ])
    def test_rejection_messages(self, parts, message):
        with pytest.raises(ValueError) as info:
            Partition(parts)
        assert str(info.value) == message

    @pytest.mark.parametrize("parts", [(2.5, 1), (True,), (1.0,), [3, 1]],
                             ids=["float", "bool", "integral-float", "list"])
    def test_rejects_parts_that_are_not_a_tuple_of_int(self, parts):
        with pytest.raises(TypeError, match="parts must be a tuple of int"):
            Partition(parts)

    def test_empty_allowed(self):
        assert Partition().weight == 0

    @pytest.mark.parametrize("text", ["3_0", "\u0663", "\uff13", "+3", "-1", "3,,1", "3 1", "0x3", "3.0"])
    def test_text_rejects_non_ascii_digit_tokens(self, text):
        # the comma text form is read only by the CLI's parser
        with pytest.raises(Refused, match="cannot parse partition"):
            _parse_partition(text)

    def test_hook_arm_positive(self):
        with pytest.raises(InvalidHookList):
            hooks_compose((0,))

    def test_hook_cell_count(self):
        assert hooks_compose((4,)).weight == 7

    def test_hook_list_rejects_nondecreasing(self):
        with pytest.raises(InvalidHookList) as info:
            hooks_compose([3, 3])
        assert str(info.value) == "hook arms not strictly decreasing positive integers: (3, 3)"


class TestValue:
    """Partition is a frozen, slotted dataclass, and the package builds its
    own shapes without the check: both must still behave as values."""

    def test_pickle_and_deepcopy_give_equal_objects(self):
        for p in (Partition((5, 5, 5, 3, 3)), Partition(), hooks_compose((4, 3))):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(p, protocol)) == p
            assert copy.deepcopy(p) == p

    def test_trusted_equals_checked(self):
        trusted, checked = Partition._trusted((4, 4, 2, 2)), Partition((4, 4, 2, 2))
        assert trusted == checked
        assert hash(trusted) == hash(checked)
        assert len({trusted, checked, hooks_compose((4, 3))}) == 1

    def test_frozen_and_slotted(self):
        p = Partition((3, 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.parts = (1,)
        assert not hasattr(p, "__dict__")


class TestSelfConjugate:
    def test_examples(self):
        assert is_self_conjugate(Partition((4, 4, 2, 2)))
        assert is_self_conjugate(Partition((1,)))
        assert not is_self_conjugate(Partition((3, 1)))

    def test_matches_oracle(self):
        for parts in oracles.partitions():
            p = Partition(parts)
            assert is_self_conjugate(p) == oracles.is_sc(p.parts)


class TestHookDecompose:
    def test_worked_example(self):
        assert hook_decompose(Partition((4, 4, 2, 2))) == (4, 3)

    def test_single_cell(self):
        assert hook_decompose(Partition((1,))) == (1,)

    def test_three_hooks(self):
        assert hook_decompose(Partition((5, 5, 5, 3, 3))) == (5, 4, 3)

    def test_rejects_non_self_conjugate(self):
        with pytest.raises(NotSelfConjugate):
            hook_decompose(Partition((3, 1)))

    def test_matches_cell_peeling(self):
        for arms in oracles.arm_sets():
            p = hooks_compose(arms)
            assert tuple(2 * a - 1 for a in hook_decompose(p)) == oracles.hook_sizes_cellwalk(p.parts)

    def test_rejects_a_long_row_without_building_its_columns(self):
        # a self-conjugate shape has as many rows as its first row has cells,
        # so a single part of 10**7 is refused before any column is built
        p = Partition((10**7,))
        tracemalloc.start()
        try:
            with pytest.raises(NotSelfConjugate):
                hook_decompose(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestHooksCompose:
    def test_worked_examples(self):
        assert hooks_compose((5, 4, 3)) == Partition((5, 5, 5, 3, 3))
        assert hooks_compose([1]) == Partition((1,))
        assert hooks_compose((4, 3)) == Partition((4, 4, 2, 2))

    def test_empty(self):
        assert hooks_compose(()) == Partition()

    def test_roundtrip_and_conservation(self):
        for arms in oracles.arm_sets():
            p = hooks_compose(arms)
            assert is_self_conjugate(p)
            assert hook_decompose(p) == arms
            assert p.weight == sum(2 * a - 1 for a in arms)

    def test_hook_sizes_odd_and_gapped(self):
        for arms in oracles.arm_sets():
            sizes = oracles.hook_sizes_cellwalk(hooks_compose(arms).parts)
            assert all(c % 2 == 1 for c in sizes)
            assert all(a - b >= 2 for a, b in zip(sizes, sizes[1:]))

    def test_unchecked_layout_equals_the_checked_entry(self):
        for arms in map(list, oracles.arm_sets()):  # a list, as a caller may pass
            assert _compose(arms) == hooks_compose(arms)
            assert _compose(arms).parts == oracles.sc_from_distinct_odd_cells([2 * a - 1 for a in arms])

    @pytest.mark.parametrize("arms", [[1.0], [2.5], [3, 1.0], [Fraction(1)], [Decimal(3), Decimal(1)]],
                             ids=["1.0", "2.5", "3,1.0", "Fraction", "Decimal"])
    def test_refuses_arms_that_are_not_ints(self, arms):
        # the arm check tests order and sign, not type: one type test on the
        # cell count keeps a non-int arm from laying out a non-int part
        with pytest.raises(TypeError, match="hook arms must be ints"):
            hooks_compose(arms)

    def test_bool_arms_compose_to_int_rows(self):
        # True adds as 1, so a bool arm gives int rows and needs no per-arm test
        p = hooks_compose([3, True])
        assert p == Partition((3, 2, 1)) and {*map(type, p.parts)} == {int}

    def test_a_shape_of_exactly_the_cap_is_composed(self):
        # 2 * (250001 + 250000) - 2 cells
        assert hooks_compose((250001, 250000)).weight == MAX_CELLS == 10**6

    @pytest.mark.parametrize("arms", [((MAX_CELLS + 3) // 2,), (10**12,), (10**9, 10**9 - 1)])
    def test_refuses_more_than_the_cap_without_building_rows(self, arms):
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                hooks_compose(arms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestWeight:
    def test_examples(self):
        assert Partition((5, 5, 5, 3, 3)).weight == 21
        assert Partition().weight == 0
        assert Partition((4, 4, 2, 2)).weight == 12


def test_roundtrip_all_self_conjugate_up_to_weight_60():
    for w in range(1, 61):
        for parts in oracles.distinct_odd_partitions_of(w):
            p = Partition(oracles.sc_from_distinct_odd_cells(parts))
            assert is_self_conjugate(p)
            assert hooks_compose(hook_decompose(p)) == p
            assert tuple(2 * a - 1 for a in hook_decompose(p)) == tuple(parts)


def test_conjugate_and_self_conjugacy_match_cell_oracle_up_to_weight_20():
    for w in range(21):
        for parts in oracles.all_partitions_of(w):
            p = Partition(parts)
            assert is_self_conjugate(p) == oracles.is_sc(parts)
            # the d rows of any partition's Durfee square are a_i + i for
            # positive, strictly falling arms a, and the layout puts their
            # columns from d on below them
            d = sum(r > i for i, r in enumerate(parts))
            square = parts[:d]
            arms = [r - i for i, r in enumerate(square)]
            assert _compose(arms).parts == square + oracles.transpose_cells(square)[d:]


def test_hook_layout_oracle_matches_cell_peeling_up_to_weight_40():
    # the two oracles share no code: one lays out rows, the other peels cells
    for w in range(41):
        for parts in oracles.distinct_odd_partitions_of(w):
            assert oracles.hook_sizes_cellwalk(oracles.sc_from_distinct_odd_cells(parts)) == parts

import copy
import dataclasses
import pickle

import pytest

from oddferrers.bijections import o_to_d
from oddferrers.classes import is_in_O
from oddferrers.errors import NotSelfConjugate
from oddferrers.ferrers import (
    OddFerrersGraph,
    graph_weight,
    render_ascii,
    row_sums,
)
from oddferrers.partitions import Partition, hooks_compose

import oracles


def graph(*parts):
    return OddFerrersGraph(Partition(parts))


def shapes():
    """The graphs of `oracles.shapes`."""
    return [graph(*parts) for parts in oracles.shapes()]


def sc_shapes():
    """The self-conjugate graphs composed from `oracles.sc_arm_sets`."""
    return [OddFerrersGraph(hooks_compose(arms)) for arms in oracles.sc_arm_sets()]


def test_empty_shape_rejected():
    with pytest.raises(ValueError):
        OddFerrersGraph(Partition())


class _SubPartition(Partition):
    pass


# a subclass too, since every map tests its input's exact type
@pytest.mark.parametrize("shape", [(3, 3, 2), [3, 3, 2], None, _SubPartition((3, 3, 2))])
def test_shape_that_is_not_a_partition_is_refused(shape):
    with pytest.raises(TypeError, match="expected type Partition"):
        OddFerrersGraph(shape)


class TestValue:
    """OddFerrersGraph is a frozen, slotted dataclass over a Partition that
    the package may have built without the check."""

    def test_pickle_and_deepcopy_give_equal_objects(self):
        for g in (graph(3, 3, 2), OddFerrersGraph(hooks_compose((4, 3)))):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(g, protocol)) == g
            assert copy.deepcopy(g) == g

    def test_trusted_equals_checked(self):
        trusted = OddFerrersGraph(Partition._trusted((4, 4, 2, 2)))
        checked = graph(4, 4, 2, 2)
        assert trusted == checked
        assert hash(trusted) == hash(checked)

    def test_frozen_and_slotted(self):
        g = graph(3, 3, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.shape = Partition((1,))
        assert not hasattr(g, "__dict__")


class TestGraphWeight:
    def test_weight_eleven_example(self):
        assert graph_weight(graph(3, 3, 2)) == 11

    def test_single_cell(self):
        assert graph_weight(graph(1)) == 1

    def test_cellwalk_confirms_non_square_shape(self):
        g = graph(7, 4, 2, 1)
        assert graph_weight(g) == oracles.graph_weight_cellwalk((7, 4, 2, 1)) == 18

    def test_matches_cellwalk(self):
        for g in shapes():
            assert graph_weight(g) == oracles.graph_weight_cellwalk(g.shape.parts)

    def test_odd_for_self_conjugate_shapes(self):
        for g in sc_shapes():
            assert graph_weight(g) % 2 == 1


class TestRowSums:
    def test_worked_examples(self):
        assert row_sums(graph(7, 4, 2, 1)) == (7, 7, 3, 1)
        assert row_sums(graph(3, 3, 2)) == (3, 5, 3)
        assert row_sums(graph(1)) == (1,)

    def test_total_is_graph_weight(self):
        for g in shapes():
            assert sum(row_sums(g)) == graph_weight(g)

    def test_matches_cellwalk(self):
        for g in shapes():
            assert row_sums(g) == oracles.row_sums_cellwalk(g.shape.parts)


class TestSelfConjugateGraph:
    def test_examples(self):
        assert is_in_O(graph(3, 3, 2), 5)
        assert is_in_O(graph(1), 0)
        assert not is_in_O(graph(7, 4, 2, 1), 8)
        # weight 7 = 2*3 + 1, so only the self-conjugacy test rejects it
        assert not is_in_O(graph(4, 2), 3)


class TestOToD:
    """`o_to_d` gives the weighted sums of a graph's principal hooks (1 per
    border cell, 2 per interior cell), as parts sorted descending."""

    def test_worked_example(self):
        assert o_to_d(graph(3, 3, 2)) == Partition((6, 5))

    def test_single_cell(self):
        assert o_to_d(graph(1)) == Partition((1,))

    def test_square_example(self):
        assert o_to_d(graph(4, 4, 2, 2)) == Partition((10, 7))

    def test_rejects_non_self_conjugate(self):
        with pytest.raises(NotSelfConjugate):
            o_to_d(graph(7, 4, 2, 1))

    def test_structure(self):
        for g in sc_shapes():
            sums = o_to_d(g).parts
            assert sum(sums) == graph_weight(g)
            odds = [s for s in sums if s % 2 == 1]
            assert odds == [2 * g.shape.parts[0] - 1]
            assert all(s % 4 == 2 for s in sums if s % 2 == 0)


class TestRender:
    def test_diagram_goldens(self):
        assert render_ascii(graph(3, 3, 2)) == "111\n122\n12"
        assert render_ascii(graph(1)) == "1"
        assert render_ascii(graph(7, 4, 2, 1)) == "1111111\n1222\n12\n1"

    def test_digit_totals_match_weight(self):
        for g in shapes():
            digits = render_ascii(g).replace("\n", "")
            assert sum(int(d) for d in digits) == graph_weight(g)

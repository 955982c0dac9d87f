import ast
import tracemalloc
from math import isqrt
from pathlib import Path

import pytest

import oddferrers
from oddferrers import classes
from oddferrers.classes import (
    ClassId,
    count,
    is_in_D,
    is_in_DO,
    is_in_O,
    is_in_S,
    members,
)
from oddferrers.ferrers import OddFerrersGraph
from oddferrers.partitions import Partition
from oddferrers.qseries import nu_series

import oracles

ORACLE_N = 8
# the cell-set S oracle builds only the self-conjugate partitions with
# distinct odd hooks, so it reaches much further than the naive scan
CELL_ORACLE_N = 30


def P(*parts):
    return Partition(parts)


class TestPredicates:
    def test_s_examples(self):
        assert is_in_S(P(5, 5, 5, 3, 3), 5)
        assert is_in_S(P(1), 0)
        assert is_in_S(P(3, 1, 1), 1)
        assert not is_in_S(P(4, 4, 2, 2), 2)

    def test_o_examples(self):
        assert is_in_O(OddFerrersGraph(P(3, 3, 2)), 5)
        assert is_in_O(OddFerrersGraph(P(1)), 0)
        assert is_in_O(OddFerrersGraph(P(2, 1)), 1)
        assert not is_in_O(OddFerrersGraph(P(7, 4, 2, 1)), 8)

    def test_d_examples(self):
        assert is_in_D(P(6, 5), 5)
        assert is_in_D(P(1), 0)
        assert not is_in_D(P(5, 4, 2), 5)

    def test_d_dominance_boundary(self):
        # odd part must strictly exceed half the greatest even part
        assert not is_in_D(P(2, 1), 1)

    def test_do_examples(self):
        assert is_in_DO(P(9, 7, 5), 5)
        assert is_in_DO(P(1), 0)
        assert not is_in_DO(P(9, 5, 3), 4)

    def test_do_rejects_wide_pair_gap(self):
        # alternates 1,3,1 mod 4 but the 7,1 pair does not share its k
        assert not is_in_DO(P(13, 7, 1), 5)

    @pytest.mark.parametrize("n", range(ORACLE_N + 1))
    def test_s_matches_naive_scan(self, n):
        expected = set(oracles.naive_S(n))
        got = {p for p in oracles.all_partitions_of(4 * n + 1) if is_in_S(Partition(p), n)}
        assert got == expected

    @pytest.mark.parametrize("n", range(ORACLE_N + 1))
    def test_d_matches_naive_scan(self, n):
        expected = set(oracles.naive_D(n))
        got = {p for p in oracles.all_partitions_of(2 * n + 1) if is_in_D(Partition(p), n)}
        assert got == expected

    @pytest.mark.parametrize("n", range(ORACLE_N + 1))
    def test_do_matches_naive_scan(self, n):
        expected = set(oracles.naive_DO(n))
        got = {p for p in oracles.all_partitions_of(4 * n + 1) if is_in_DO(Partition(p), n)}
        assert got == expected


class TestEnumerators:
    def test_o_base_and_example(self):
        assert [g.shape.parts for g in members(ClassId.O, 0)] == [(1,)]
        assert (3, 3, 2) in [g.shape.parts for g in members(ClassId.O, 5)]

    def test_o5_full_list(self):
        assert [g.shape.parts for g in members(ClassId.O, 5)] == [
            (6, 1, 1, 1, 1, 1),
            (5, 2, 1, 1, 1),
            (3, 3, 2),
        ]

    def test_s_examples(self):
        assert [p.parts for p in members(ClassId.S, 0)] == [(1,)]
        assert [p.parts for p in members(ClassId.S, 1)] == [(3, 1, 1)]
        assert (5, 5, 5, 3, 3) in [p.parts for p in members(ClassId.S, 5)]

    def test_d_examples(self):
        assert [p.parts for p in members(ClassId.D, 0)] == [(1,)]
        assert [p.parts for p in members(ClassId.D, 1)] == [(3,)]
        assert [p.parts for p in members(ClassId.D, 5)] == [(11,), (9, 2), (6, 5)]

    def test_do_examples(self):
        assert [p.parts for p in members(ClassId.DO, 0)] == [(1,)]
        assert [p.parts for p in members(ClassId.DO, 1)] == [(5,)]
        assert [p.parts for p in members(ClassId.DO, 5)] == [(21,), (17, 3, 1), (9, 7, 5)]

    @pytest.mark.parametrize("n", range(ORACLE_N + 1))
    def test_match_naive_enumerations(self, n):
        assert [g.shape.parts for g in members(ClassId.O, n)] == oracles.naive_O(n)
        assert [p.parts for p in members(ClassId.S, n)] == oracles.naive_S(n)
        assert [p.parts for p in members(ClassId.D, n)] == oracles.naive_D(n)
        assert [p.parts for p in members(ClassId.DO, n)] == oracles.naive_DO(n)

    @pytest.mark.parametrize("n", range(CELL_ORACLE_N + 1))
    def test_s_matches_cell_set_oracle(self, n):
        shapes = (oracles.sc_from_distinct_odd_cells(h)
                  for h in oracles.distinct_odd_partitions_of(4 * n + 1))
        expected = sorted((p for p in shapes if all(x % 2 == 1 for x in p)), reverse=True)
        assert [p.parts for p in members(ClassId.S, n)] == expected

    @pytest.mark.parametrize("n", range(15))
    def test_no_duplicates_and_membership(self, n):
        o = [g.shape.parts for g in members(ClassId.O, n)]
        assert len(set(o)) == len(o)
        assert all(is_in_O(g, n) for g in members(ClassId.O, n))
        for c, pred in [
            (ClassId.S, is_in_S),
            (ClassId.D, is_in_D),
            (ClassId.DO, is_in_DO),
        ]:
            found = members(c, n)
            parts = [p.parts for p in found]
            assert len(set(parts)) == len(parts)
            assert parts == sorted(parts, reverse=True)
            assert all(pred(p, n) for p in found)

    @pytest.mark.parametrize("c", list(ClassId))
    def test_members_descend_and_match_count_to_60(self, c):
        # O's walk is sorted as arm tuples, not as shapes, so this checks that
        # the two orders agree on every member up to n = 60; each walk bound
        # is checked too, since a bound one too loose yields a non-member.
        # No partition has a negative weight, as nu_series(-1) has no term
        is_in = {ClassId.O: is_in_O, ClassId.S: is_in_S, ClassId.D: is_in_D, ClassId.DO: is_in_DO}[c]
        assert count(c, -1) == 0 and members(c, -1) == []
        for n in range(-3, 61):
            found = members(c, n)
            parts = [(m.shape if c is ClassId.O else m).parts for m in found]
            assert all(a > b for a, b in zip(parts, parts[1:])), n
            assert len(parts) == count(c, n), n
            assert all(is_in(m, n) for m in found), n

    @pytest.mark.parametrize("n", range(15))
    def test_deterministic(self, n):
        assert members(ClassId.S, n) == members(ClassId.S, n)
        assert members(ClassId.DO, n) == members(ClassId.DO, n)


class TestCount:
    def test_examples(self):
        assert count(ClassId.O, 0) == 1
        assert count(ClassId.S, 1) == 1
        assert count(ClassId.O, 5) == count(ClassId.S, 5) == 3

    @pytest.mark.parametrize("n", range(21))
    def test_all_classes_agree(self, n):
        values = {count(c, n) for c in ClassId}
        assert len(values) == 1

    @pytest.mark.parametrize("c", list(ClassId))
    def test_each_class_matches_the_series_to_60(self, c):
        # a weight bound in a walk that cuts one branch too many loses a
        # member somewhere below n = 60
        assert [count(c, n) for n in range(61)] == list(nu_series(60))

    @pytest.mark.parametrize("c", list(ClassId))
    def test_count_streams_its_walk(self, c):
        # a walk's stack holds the pending children along one path, 1-11 KiB;
        # a walk that listed its 13 396 members of n = 100 (966 for S at
        # n = 60) would peak at 0.4-1.6 MiB
        n = 60 if c is ClassId.S else 100
        expected = nu_series(n)[n]
        tracemalloc.start()
        try:
            assert count(c, n) == expected
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_s_drops_a_leaf_with_an_even_row(self, monkeypatch):
        # the row rules leave no even row at any leaf, so only a doctored
        # composition shows that the walk's own all-odd test is live: the
        # first leaf's head row, odd at every leaf, is made one longer
        n = 5
        compose = classes.hooks_compose
        leaves = []

        def doctored(arms):
            p = compose(arms)
            leaves.append(p)
            if len(leaves) == 1:
                return Partition((p.parts[0] + 1,) + p.parts[1:])
            return p

        monkeypatch.setattr(classes, "hooks_compose", doctored)
        assert count(ClassId.S, n) == nu_series(n)[n] - 1
        assert len(leaves) == nu_series(n)[n]

    def test_s_composes_exactly_its_members(self, monkeypatch):
        # a loosened row rule composes a leaf that the all-odd test then
        # drops, and a cut too many composes one leaf too few
        compose = classes.hooks_compose
        calls = [0]

        def counted(arms):
            calls[0] += 1
            return compose(arms)

        monkeypatch.setattr(classes, "hooks_compose", counted)
        series = nu_series(40)
        for n in range(41):
            calls[0] = 0
            assert count(ClassId.S, n) == series[n]
            assert calls[0] == series[n]

    def test_s_rule_4_is_one_lower_bound(self):
        # the S walk prunes rule 4 as c >= isqrt(4R - 1), R the weight left
        # before c; for the head and for a pair (c, c - 2) alike that must be
        # the bound that the largest sum of distinct odd hooks below sets
        for c in range(1, 200, 2):
            for R in range(1, 401):
                bound = c >= isqrt(4 * R - 1)
                assert (R - c <= ((c - 1) // 2) ** 2) == bound, (c, R)
                if c >= 3:
                    assert (R - 2 * c + 2 <= ((c - 3) // 2) ** 2) == bound, (c, R)

    @pytest.mark.parametrize("c", list(ClassId))
    @pytest.mark.parametrize("n", [True, 2.0, "3", None])
    def test_index_that_is_not_an_int_is_refused(self, c, n):
        with pytest.raises(TypeError, match="class index must be an int"):
            count(c, n)
        with pytest.raises(TypeError, match="class index must be an int"):
            members(c, n)
        # the predicates take the same test, so is_in_S(P(1), 0.0) is not index 0
        predicate, member = {ClassId.O: (is_in_O, OddFerrersGraph(P(1))), ClassId.S: (is_in_S, P(1)),
                             ClassId.D: (is_in_D, P(1)), ClassId.DO: (is_in_DO, P(1))}[c]
        with pytest.raises(TypeError, match="class index must be an int"):
            predicate(member, n)

    @pytest.mark.parametrize("c", ["S", "O", None])
    def test_class_that_is_not_a_class_id_is_refused(self, c):
        with pytest.raises(TypeError, match="class must be a ClassId"):
            count(c, 3)
        with pytest.raises(TypeError, match="class must be a ClassId"):
            members(c, 3)


def _package_imports(module_name):
    """The oddferrers modules that `module_name` imports, read from its source."""
    tree = ast.parse((Path(oddferrers.__file__).parent / f"{module_name}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            dotted = (node.module or "").split(".")
            if node.level == 0:
                if dotted[0] != "oddferrers":
                    continue
                dotted = dotted[1:]
            if dotted and dotted[0]:
                names.add(dotted[0])
            else:
                names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                dotted = a.name.split(".")
                if dotted[0] == "oddferrers" and len(dotted) > 1:
                    names.add(dotted[1])
    return names


def test_classes_does_not_reach_bijections_or_qseries():
    # S must come from its own definition: built from phi or from the series,
    # the equinumerosity check would prove nothing
    seen, todo = set(), ["classes"]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_package_imports(name))
    assert "bijections" not in seen and "qseries" not in seen
    # the reader sees both import forms
    assert {"bijections", "qseries"} <= _package_imports("commands")
    # under `python -m oddferrers.cli`, a second import of cli would build a
    # second refusal class that main does not catch
    assert "cli" not in _package_imports("commands")
    assert "partitions" in _package_imports("classes")
    # the series shares no code with the enumerators or phi
    assert _package_imports("qseries") == set()


def test_maps_do_not_use_the_class_predicates():
    # the maps are judged by the is_in_* predicates, so they must not be
    # built from them
    assert "classes" not in _package_imports("bijections")

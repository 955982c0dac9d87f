import pickle

import pytest

from oddferrers.bijections import (
    d_to_do,
    d_to_o,
    distinct_odd_to_sc,
    do_to_d,
    o_to_d,
    phi,
    phi_inverse,
    sc_to_distinct_odd,
)
from oddferrers.classes import (
    ClassId,
    is_in_D,
    is_in_DO,
    is_in_O,
    is_in_S,
    members,
)
from oddferrers.errors import (
    MalformedDClass,
    MalformedDOClass,
    MalformedSClass,
    NotDistinctOdd,
    NotSelfConjugate,
    OddFerrersError,
    TooLarge,
)
from oddferrers.ferrers import OddFerrersGraph, graph_weight
from oddferrers.partitions import Partition, is_self_conjugate

import oracles

EXHAUSTIVE_N = 12
TOTALITY_MAX_WEIGHT = 30
TRUSTED_N = 30


def P(*parts):
    return Partition(parts)


def G(*parts):
    return OddFerrersGraph(Partition(parts))


class TestPhi:
    def test_worked_example(self):
        assert phi(G(3, 3, 2)) == P(5, 5, 5, 3, 3)

    def test_single_hook(self):
        assert phi(G(1)) == P(1)
        assert phi(G(2, 1)) == P(3, 1, 1)

    def test_rejects_non_self_conjugate(self):
        with pytest.raises(NotSelfConjugate):
            phi(G(7, 4, 2, 1))

    def test_refuses_a_shape_over_the_cap(self):
        # the 501 x 501 square has arms 501 .. 1, laid out as S's hook arms
        # 1001 and the pairs 2a, 2a - 1: 2 * 501501 - 1001 cells
        with pytest.raises(TooLarge, match="^the composed shape would have 1002001 cells, more than"):
            phi(G(*[501] * 501))

    @pytest.mark.parametrize("n", range(EXHAUSTIVE_N + 1))
    def test_well_defined(self, n):
        for g in members(ClassId.O, n):
            assert is_in_S(phi(g), n)

    @pytest.mark.parametrize("n", range(EXHAUSTIVE_N + 1))
    def test_weight_law(self, n):
        for g in members(ClassId.O, n):
            assert phi(g).weight == 2 * graph_weight(g) - 1

    @pytest.mark.parametrize("n", range(EXHAUSTIVE_N + 1))
    def test_output_hook_pairing(self, n):
        for g in members(ClassId.O, n):
            counts = sc_to_distinct_odd(phi(g)).parts
            assert len(counts) % 2 == 1
            assert counts[0] % 4 == 1
            for j in range(1, len(counts), 2):
                assert counts[j] - counts[j + 1] == 2
                assert counts[j] % 4 == 3


class TestPhiInverse:
    def test_worked_example(self):
        assert phi_inverse(P(5, 5, 5, 3, 3)).shape == P(3, 3, 2)

    def test_single_hook(self):
        assert phi_inverse(P(1)).shape == P(1)
        assert phi_inverse(P(3, 1, 1)).shape == P(2, 1)

    def test_rejects_even_hook_count(self):
        # 4+4+2+2 is self-conjugate but has two hooks
        with pytest.raises(MalformedSClass):
            phi_inverse(P(4, 4, 2, 2))

    def test_rejects_bad_pairing(self):
        # hooks 13,7,1: the 7,1 pair gap is 6
        bad = distinct_odd_to_sc(P(13, 7, 1))
        with pytest.raises(MalformedSClass):
            phi_inverse(bad)

    def test_rejects_head_hook_not_1_mod_4(self):
        # (2, 1) is self-conjugate with one hook of 3 cells; weight 3 is not 4n+1
        with pytest.raises(MalformedSClass):
            phi_inverse(P(2, 1))

    @pytest.mark.parametrize("n", range(EXHAUSTIVE_N + 1))
    def test_roundtrips(self, n):
        for g in members(ClassId.O, n):
            assert phi_inverse(phi(g)).shape == g.shape
        for p in members(ClassId.S, n):
            assert phi(phi_inverse(p)) == p

    @pytest.mark.parametrize("n", range(EXHAUSTIVE_N + 1))
    def test_image_coverage(self, n):
        image = sorted(phi(g).parts for g in members(ClassId.O, n))
        assert image == sorted(p.parts for p in members(ClassId.S, n))


class TestHookSumBijection:
    def test_examples(self):
        assert sc_to_distinct_odd(P(5, 5, 5, 3, 3)) == P(9, 7, 5)
        assert sc_to_distinct_odd(P(1)) == P(1)
        assert sc_to_distinct_odd(P(4, 4, 2, 2)) == P(7, 5)

    def test_inverse_examples(self):
        assert distinct_odd_to_sc(P(9, 7, 5)) == P(5, 5, 5, 3, 3)
        assert distinct_odd_to_sc(P(1)) == P(1)
        assert distinct_odd_to_sc(P(7, 5)) == P(4, 4, 2, 2)

    def test_errors(self):
        with pytest.raises(NotSelfConjugate):
            sc_to_distinct_odd(P(3, 1))
        with pytest.raises(NotDistinctOdd):
            distinct_odd_to_sc(P(4, 2))
        with pytest.raises(NotDistinctOdd):
            distinct_odd_to_sc(P(3, 3))

    @pytest.mark.parametrize("n", range(EXHAUSTIVE_N + 1))
    def test_roundtrip_on_s(self, n):
        for p in members(ClassId.S, n):
            img = sc_to_distinct_odd(p)
            assert all(x % 2 == 1 for x in img.parts)
            assert len(set(img.parts)) == len(img.parts)
            assert img.weight == p.weight
            assert distinct_odd_to_sc(img) == p


class TestODBijection:
    def test_examples(self):
        assert o_to_d(G(3, 3, 2)) == P(6, 5)
        assert o_to_d(G(1)) == P(1)
        assert o_to_d(G(2, 1)) == P(3)

    def test_inverse_examples(self):
        assert d_to_o(P(6, 5)).shape == P(3, 3, 2)
        assert d_to_o(P(1)).shape == P(1)
        assert d_to_o(P(3)).shape == P(2, 1)

    def test_inverse_errors(self):
        with pytest.raises(MalformedDClass):
            d_to_o(P(4, 3))  # even part not 2 mod 4
        with pytest.raises(MalformedDClass):
            d_to_o(P(2, 2))  # no odd part
        with pytest.raises(MalformedDClass):
            d_to_o(P(10, 1))  # recovered arms collide

    @pytest.mark.parametrize("n", range(EXHAUSTIVE_N + 1))
    def test_bijectivity(self, n):
        image = sorted(o_to_d(g).parts for g in members(ClassId.O, n))
        assert image == sorted(p.parts for p in members(ClassId.D, n))
        for g in members(ClassId.O, n):
            assert is_in_D(o_to_d(g), n)
            assert d_to_o(o_to_d(g)).shape == g.shape
        for p in members(ClassId.D, n):
            assert o_to_d(d_to_o(p)) == p


class TestDDOBijection:
    def test_examples(self):
        assert d_to_do(P(6, 5)) == P(9, 7, 5)
        assert d_to_do(P(1)) == P(1)
        assert d_to_do(P(3)) == P(5)

    def test_inverse_examples(self):
        assert do_to_d(P(9, 7, 5)) == P(6, 5)
        assert do_to_d(P(1)) == P(1)
        assert do_to_d(P(5)) == P(3)

    def test_errors(self):
        with pytest.raises(MalformedDClass):
            d_to_do(P(5, 4, 2))
        with pytest.raises(MalformedDOClass):
            do_to_d(P(13, 7, 1))  # pair gap 6
        with pytest.raises(MalformedDOClass):
            do_to_d(P(3, 1))  # even part count
        with pytest.raises(MalformedDOClass):
            do_to_d(P(7, 5, 3))  # head 7 is 3 mod 4
        with pytest.raises(MalformedDOClass):
            do_to_d(P(8, 6, 4))  # even parts

    @pytest.mark.parametrize("parts", [(), (5, 3), (7, 3, 3)])
    def test_refuses_before_the_layout(self, monkeypatch, parts):
        # an even part count, or a last part that is not 4a - 3, is no member
        def laid_out(arms):
            raise AssertionError(f"arms {arms} were laid out")

        monkeypatch.setattr("oddferrers.bijections._do_parts", laid_out)
        with pytest.raises(MalformedDOClass) as info:
            do_to_d(P(*parts))
        assert str(info.value) == f"{parts} is not a part 4a_1 - 3 and pairs 4a - 1, 4a - 3"

    @pytest.mark.parametrize("n", range(EXHAUSTIVE_N + 1))
    def test_bijectivity(self, n):
        image = sorted(d_to_do(p).parts for p in members(ClassId.D, n))
        assert image == sorted(p.parts for p in members(ClassId.DO, n))
        for p in members(ClassId.D, n):
            assert is_in_DO(d_to_do(p), n)
            assert do_to_d(d_to_do(p)) == p
        for p in members(ClassId.DO, n):
            assert d_to_do(do_to_d(p)) == p

    @pytest.mark.parametrize("n", range(EXHAUSTIVE_N + 1))
    def test_commuting_square(self, n):
        # the direct +-1 formula must agree with the compositional route
        for g in members(ClassId.O, n):
            assert sc_to_distinct_odd(phi(g)) == d_to_do(o_to_d(g))


@pytest.fixture(scope="module")
def members_to_trusted_n():
    return {c: [m for n in range(TRUSTED_N + 1) for m in members(c, n)] for c in ClassId}


# each map that lays its output out from checked arms without Partition's
# check, and the class whose members it takes; "hooks_compose" names the
# layout, which the maps reach through its unchecked half `_compose`. The
# three that return a graph also wrap the shape without OddFerrersGraph's
# check (`OddFerrersGraph._trusted`), so they are judged on the graph
TRUSTED_SITES = {
    "hooks_compose in members(O)": (ClassId.O, lambda g: g),
    "hooks_compose in phi": (ClassId.O, phi),
    "hooks_compose in phi_inverse": (ClassId.S, phi_inverse),
    "hooks_compose in d_to_o": (ClassId.D, d_to_o),
    "hooks_compose in distinct_odd_to_sc": (
        ClassId.S, lambda p: distinct_odd_to_sc(sc_to_distinct_odd(p))),
    "o_to_d": (ClassId.O, o_to_d),
    "do_to_d": (ClassId.DO, do_to_d),
    "d_to_do": (ClassId.D, d_to_do),
    "sc_to_distinct_odd": (ClassId.S, sc_to_distinct_odd),
}


@pytest.mark.parametrize("site", list(TRUSTED_SITES))
def test_trusted_sites_give_valid_partitions(site, members_to_trusted_n):
    """Judged here and not by Partition or OddFerrersGraph, which these sites
    skip: a graph's shape is a nonempty Partition, and the parts are a tuple
    of ints >= 1 that weakly fall, for every member with n <= TRUSTED_N."""
    c, fn = TRUSTED_SITES[site]
    for m in members_to_trusted_n[c]:
        out = fn(m)
        if isinstance(out, OddFerrersGraph):
            assert type(out.shape) is Partition and out.shape.parts, (site, m)
            out = out.shape
        parts = out.parts
        assert type(parts) is tuple, (site, m)
        assert all(type(x) is int and x >= 1 for x in parts), (site, m)
        assert all(a >= b for a, b in zip(parts, parts[1:])), (site, m)


def _in_O(g):
    return is_in_O(g, (graph_weight(g) - 1) // 2)


def _in_S(p):
    return is_in_S(p, (p.weight - 1) // 4)


def _in_D(p):
    return is_in_D(p, (p.weight - 1) // 2)


def _in_DO(p):
    return is_in_DO(p, (p.weight - 1) // 4)


def _is_distinct_odd(p):
    return len(set(p.parts)) == len(p.parts) and all(x % 2 == 1 for x in p.parts)


# map -> (its inverse, whether it takes an odd Ferrers graph, target-class test)
TOTAL_MAPS = {
    phi: (phi_inverse, True, _in_S),
    phi_inverse: (phi, False, _in_O),
    o_to_d: (d_to_o, True, _in_D),
    d_to_o: (o_to_d, False, _in_O),
    d_to_do: (do_to_d, False, _in_DO),
    do_to_d: (d_to_do, False, _in_D),
    sc_to_distinct_odd: (distinct_odd_to_sc, False, _is_distinct_odd),
    distinct_odd_to_sc: (sc_to_distinct_odd, False, is_self_conjugate),
}


def test_maps_are_total():
    """Every map, given any partition of weight <= TOTALITY_MAX_WEIGHT, either
    raises an OddFerrersError or returns a target-class member that its
    inverse maps back to the input."""
    violations = []
    for w in range(TOTALITY_MAX_WEIGHT + 1):
        for parts in oracles.all_partitions_of(w):
            p = Partition(parts)
            for fn, (inverse, takes_graph, in_target) in TOTAL_MAPS.items():
                if takes_graph and not p.parts:
                    continue
                x = OddFerrersGraph(p) if takes_graph else p
                try:
                    y = fn(x)
                except OddFerrersError:
                    continue
                if not (in_target(y) and inverse(y) == x):
                    violations.append((fn.__name__, parts))
    assert not violations, f"{len(violations)} violations, the first: {violations[:10]}"


# a map and an input that it refuses, one for each error that names its input
REFUSALS = [
    (phi, G(3, 1), NotSelfConjugate),
    (phi_inverse, P(4, 4, 2, 2), MalformedSClass),
    (d_to_o, P(10, 3), MalformedDClass),
    (do_to_d, P(8, 6, 4), MalformedDOClass),
    (distinct_odd_to_sc, P(9, 9), NotDistinctOdd),
]


@pytest.mark.parametrize("fn, x, error", REFUSALS, ids=[error.__name__ for _, _, error in REFUSALS])
def test_refusal_survives_pickle(fn, x, error):
    with pytest.raises(error) as info:
        fn(x)
    copy = pickle.loads(pickle.dumps(info.value))
    assert type(copy) is error
    assert str(copy) == str(info.value)

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line."""
import random
import time

import pytest

from oddferrers.bijections import (
    d_to_do,
    d_to_o,
    do_to_d,
    o_to_d,
    phi,
    phi_inverse,
)
from oddferrers.classes import (
    ClassId,
    count,
    members,
)
from oddferrers.cli import main
from oddferrers.ferrers import graph_weight
from oddferrers.partitions import (
    Partition,
    hook_decompose,
    hooks_compose,
    is_self_conjugate,
)
from oddferrers.qseries import nu_series

import oracles


@pytest.fixture(autouse=True)
def report(request, capsys):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    rep = getattr(request.node, "rep_call", None)
    status = "PASS" if rep is None or rep.passed else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {request.node.name}: {status} ({elapsed:.1f}s)")


def test_criterion_1_worked_example_cli(capsys):
    assert main(["map", "phi", "--input", "3,3,2"]) == 0
    assert capsys.readouterr().out == "5,5,5,3,3\n"
    assert main(["map", "phi-inverse", "--input", "5,5,5,3,3"]) == 0
    assert capsys.readouterr().out == "3,3,2\n"


def test_criterion_2_counts_agree_to_40():
    series = nu_series(40)
    for n in range(41):
        values = {c.value: count(c, n) for c in ClassId}
        values["pnu"] = series[n]
        assert len(set(values.values())) == 1, f"n={n}: {values}"


def test_criterion_3_exhaustive_bijectivity_to_25():
    for n in range(26):
        o_members = members(ClassId.O, n)
        s_members = members(ClassId.S, n)
        d_members = members(ClassId.D, n)
        do_members = members(ClassId.DO, n)

        image = [phi(g) for g in o_members]
        assert len({p.parts for p in image}) == len(o_members), f"n={n}: phi not injective"
        assert {p.parts for p in image} == {p.parts for p in s_members}, f"n={n}"
        for g, img in zip(o_members, image):
            assert phi_inverse(img).shape == g.shape, f"n={n}: phi_inverse(phi) != id"
        for p in s_members:
            assert phi(phi_inverse(p)) == p, f"n={n}: phi(phi_inverse) != id"

        d_image = [o_to_d(g) for g in o_members]
        assert {p.parts for p in d_image} == {p.parts for p in d_members}, f"n={n}"
        for g in o_members:
            assert d_to_o(o_to_d(g)).shape == g.shape, f"n={n}"
        for p in d_members:
            assert o_to_d(d_to_o(p)) == p, f"n={n}"

        do_image = [d_to_do(p) for p in d_members]
        assert {p.parts for p in do_image} == {p.parts for p in do_members}, f"n={n}"
        for p in d_members:
            assert do_to_d(d_to_do(p)) == p, f"n={n}"
        for p in do_members:
            assert d_to_do(do_to_d(p)) == p, f"n={n}"


def test_criterion_4_structural_postconditions_to_25():
    for n in range(26):
        for g in members(ClassId.O, n):
            image = phi(g)
            assert image.weight == 2 * graph_weight(g) - 1, f"n={n}: weight law"
            assert all(x % 2 == 1 for x in image.parts), f"n={n}: parts not all odd"
            assert is_self_conjugate(image), f"n={n}: not self-conjugate"
            counts = [2 * a - 1 for a in hook_decompose(image)]
            for j in range(1, len(counts), 2):
                assert counts[j] - counts[j + 1] == 2, f"n={n}: pairing gap"


def test_criterion_5_series_oracle_stability():
    at_170 = nu_series(170)
    at_200 = nu_series(200)
    assert all(c >= 0 for c in at_170)
    assert all(c >= 0 for c in at_200)
    assert at_170 == at_200[:171]
    for n in range(41):
        assert at_170[n] == count(ClassId.S, n), f"n={n}"


def test_criterion_6_hook_machinery_roundtrip():
    for w in range(1, 121):
        for parts in oracles.distinct_odd_partitions_of(w):
            p = Partition(oracles.sc_from_distinct_odd_cells(parts))
            assert hooks_compose(hook_decompose(p)) == p, f"w={w}, hooks={parts}"

    rng = random.Random(20260824)
    for _ in range(10_000):
        target = rng.randint(0, 200)
        parts = []
        remaining = target
        while remaining > 0:
            part = rng.randint(1, remaining)
            parts.append(part)
            remaining -= part
        p = Partition(tuple(sorted(parts, reverse=True)))
        assert is_self_conjugate(p) == oracles.is_sc(p.parts)

    # few of those are self-conjugate, and most of those weigh 4 or less, so
    # also lay out self-conjugate shapes of weight <= 200 from random hook
    # cell counts, each with a near-miss: one cell moved down a row
    shapes = []
    for _ in range(2_000):
        # odd cell counts up to a random top, in random order, each kept
        # while the weight stays <= 200
        top = rng.randrange(1, 200, 2)
        cells, total = [], 0
        for c in rng.sample(range(1, top + 1, 2), (top + 1) // 2):
            if total + c <= 200:
                cells.append(c)
                total += c
        rows = oracles.sc_from_distinct_odd_cells(cells)
        shapes.append(rows)
        # the last cell of a random corner row goes to the end of a random
        # lower row that can take it
        padded = [*rows, 0]
        i = rng.choice([i for i in range(len(rows)) if padded[i] > padded[i + 1]])
        padded[i] -= 1
        ends = [j for j in range(i + 1, len(padded)) if padded[j - 1] > padded[j]]
        if ends:
            padded[rng.choice(ends)] += 1
            shapes.append(tuple(r for r in padded if r))
    for parts in shapes:
        p = Partition(parts)
        assert is_self_conjugate(p) == oracles.is_sc(parts), parts
        if is_self_conjugate(p):
            assert hooks_compose(hook_decompose(p)) == p, parts


def test_criterion_7_rendering_goldens(capsys):
    assert main(["render", "--shape", "7,4,2,1"]) == 0
    assert capsys.readouterr().out == "1111111\n1222\n12\n1\n"
    assert main(["render", "--shape", "3,3,2"]) == 0
    assert capsys.readouterr().out == "111\n122\n12\n"

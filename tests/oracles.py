"""Brute-force reference implementations used as independent oracles.

Everything here works on bare tuples, explicit cell sets and cell-by-cell
row layouts, deliberately avoiding the library's own arithmetic shortcuts.
"""
from functools import lru_cache


def partitions_of(m, maxpart=None):
    """All partitions of m as descending tuples, naive recursion."""
    if maxpart is None:
        maxpart = m
    if m == 0:
        yield ()
        return
    for first in range(min(m, maxpart), 0, -1):
        for rest in partitions_of(m - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def all_partitions_of(m):
    return tuple(partitions_of(m))


def transpose_cells(p):
    """Conjugate by transposing the explicit cell set."""
    cells = {(i, j) for i, row in enumerate(p) for j in range(row)}
    transposed = {(j, i) for (i, j) in cells}
    rows = {}
    for (i, _) in transposed:
        rows[i] = rows.get(i, 0) + 1
    return tuple(rows[i] for i in sorted(rows))


def is_sc(p):
    return transpose_cells(p) == tuple(p)


def graph_weight_cellwalk(shape):
    """Sum explicit cell weights: 1 on row 0 or column 0, else 2."""
    return sum(
        1 if (i == 0 or j == 0) else 2
        for i, row in enumerate(shape)
        for j in range(row)
    )


def row_sums_cellwalk(shape):
    return tuple(
        sum(1 if (i == 0 or j == 0) else 2 for j in range(row))
        for i, row in enumerate(shape)
    )


def hook_sizes_cellwalk(p):
    """Cell counts of the principal hooks, by peeling the cell set."""
    cells = {(i, j) for i, row in enumerate(p) for j in range(row)}
    counts = []
    level = 0
    while (level, level) in cells:
        hook = {c for c in cells if c[0] == level or c[1] == level}
        counts.append(len(hook))
        cells -= hook
        level += 1
    assert not cells
    return tuple(counts)


def sc_from_distinct_odd_cells(parts):
    """Build the self-conjugate partition with the given hook cell counts by
    laying out symmetric hooks row by row: hook i of arm a puts a cells in
    row i and one leg cell in each of rows i + 1, ..., i + a - 1."""
    rows = []
    for i, c in enumerate(sorted(parts, reverse=True)):
        arm = (c + 1) // 2
        rows += [0] * (i + arm - len(rows))
        rows[i] += arm
        for j in range(i + 1, i + arm):
            rows[j] += 1
    return tuple(rows)


def distinct_odd_partitions_of(m, maxpart=None, prefix=()):
    """Partitions of m into distinct odd parts, descending tuples, each after
    the given prefix."""
    if maxpart is None:
        maxpart = m
    if m == 0:
        yield prefix
        return
    first = min(m, maxpart)
    if first % 2 == 0:
        first -= 1
    for f in range(first, 0, -2):
        # the distinct odd parts below f sum to at most ((f - 1) / 2)^2, and
        # a smaller f leaves more to fill with less
        if m - f > (f - 1) ** 2 // 4:
            break
        yield from distinct_odd_partitions_of(m - f, f - 2, prefix + (f,))


# Bounded-exhaustive input spaces: each holds every value of a box up to a
# weight bound, and the box's extremes, as a sorted tuple of descending tuples.
# A property test checks every value of its space, so a run is deterministic.

def partitions_in_box(top, most, weight):
    """Every partition of at most `most` parts, each at most `top`, that has
    weight <= `weight` or whose parts are each 1 or `top`."""
    small = (p for w in range(weight + 1) for p in all_partitions_of(w)
             if len(p) <= most and (not p or p[0] <= top))
    corners = ((top,) * k + (1,) * (m - k) for m in range(most + 1) for k in range(m + 1))
    return tuple(sorted({*small, *corners}))


def arm_sets_in_box(top, most, weight):
    """Every nonempty set of at most `most` arms from 1..top, descending, whose
    hooks hold at most `weight` cells (2a - 1 for arm a); and for each size L,
    the L largest arms, the L smallest, and `top` with the L - 1 smallest."""
    small = (tuple((c + 1) // 2 for c in cells) for w in range(1, weight + 1)
             for cells in distinct_odd_partitions_of(w) if len(cells) <= most and cells[0] < 2 * top)
    corners = (arms for size in range(1, most + 1) for arms in (
        tuple(range(top, top - size, -1)), tuple(range(size, 0, -1)), (top, *range(size - 1, 0, -1))))
    return tuple(sorted({*small, *corners}))


@lru_cache(maxsize=None)
def shapes():
    """Nonempty partitions of at most 10 parts, each at most 30: all 2,429 of
    weight <= 20, and the 55 more whose parts are each 1 or 30. 2,484 shapes."""
    return partitions_in_box(30, 10, 20)[1:]


@lru_cache(maxsize=None)
def partitions():
    """Partitions of at most 12 parts, each at most 40: all 2,594 of weight
    <= 20, the empty one included, and the 78 more whose parts are each 1 or
    40. 2,672 partitions."""
    return partitions_in_box(40, 12, 20)


@lru_cache(maxsize=None)
def sc_arm_sets():
    """Arm sets of at most 8 arms from 1..20, the hooks of self-conjugate
    shapes: all 1,184 whose shape has at most 50 cells, and the 12 more
    extremes of `arm_sets_in_box`. 1,196 arm sets."""
    return arm_sets_in_box(20, 8, 50)


@lru_cache(maxsize=None)
def arm_sets():
    """Arm sets of at most 10 arms from 1..25: all 1,212 whose shape has at
    most 50 cells, and the 20 more extremes of `arm_sets_in_box`. 1,232 arm
    sets."""
    return arm_sets_in_box(25, 10, 50)


def naive_S(n):
    return sorted(
        (p for p in all_partitions_of(4 * n + 1)
         if is_sc(p) and all(x % 2 == 1 for x in p)),
        reverse=True,
    )


def naive_O(n):
    """Filter all self-conjugate shapes by cell-walk graph weight."""
    out = []
    for cells in range(1, 2 * n + 2):
        for p in all_partitions_of(cells):
            if is_sc(p) and graph_weight_cellwalk(p) == 2 * n + 1:
                out.append(p)
    return sorted(out, reverse=True)


def naive_D(n):
    out = []
    for p in all_partitions_of(2 * n + 1):
        if len(set(p)) != len(p):
            continue
        odds = [x for x in p if x % 2 == 1]
        evens = [x for x in p if x % 2 == 0]
        if len(odds) != 1 or any(e % 4 != 2 for e in evens):
            continue
        if evens and 2 * odds[0] <= max(evens):
            continue
        out.append(p)
    return sorted(out, reverse=True)


def naive_DO(n):
    """Distinct odd parts, odd count, a 4k+1 head, then 4k+3/4k+1 pairs with
    a shared k (paired parts differ by exactly 2)."""
    out = []
    for p in all_partitions_of(4 * n + 1):
        if len(set(p)) != len(p) or len(p) % 2 == 0:
            continue
        if any(x % 2 == 0 for x in p):
            continue
        if p[0] % 4 != 1:
            continue
        if all(p[j] % 4 == 3 and p[j] - p[j + 1] == 2 for j in range(1, len(p), 2)):
            out.append(p)
    return sorted(out, reverse=True)


def naive_nu_minus_q(order):
    """Coefficients 0..order of nu(-q) on bare lists: each product
    prod_{k<=n} (1 - q^(2k+1)) multiplied out schoolbook, inverted by the
    recursive coefficient solve, shifted by n(n+1) and summed."""
    total = [0] * (order + 1)
    n = 0
    while n * (n + 1) <= order:
        prod = [1] + [0] * order
        for k in range(n + 1):
            factor = [1] + [0] * order
            if 2 * k + 1 <= order:
                factor[2 * k + 1] = -1
            prod = [sum(prod[j] * factor[i - j] for j in range(i + 1)) for i in range(order + 1)]
        inv = [1] + [0] * order
        for i in range(1, order + 1):
            inv[i] = -sum(prod[j] * inv[i - j] for j in range(1, i + 1))
        shift = n * (n + 1)
        for i in range(order + 1 - shift):
            total[shift + i] += inv[i]
        n += 1
    return total

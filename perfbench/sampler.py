"""Seeded inputs for the `maps` workload.

Members are built from strictly decreasing arm tuples a_1 > ... > a_d, the
one object that every class encodes:

- O:  the self-conjugate shape with principal hook arms a
- S:  the self-conjugate partition whose principal hook cell counts are
      the DO member's parts
- D:  the part 2a_1-1 and the parts 4a_i-2
- DO: the parts 4a_1-3 and the pairs 4a_i-1, 4a_i-3

Nothing here calls the package, so set-up time does not move when the
package changes, and the expected outputs do not come from the code under
test. Non-members are random partitions checked against this module's own
class predicates.
"""
from __future__ import annotations

import random
from collections import Counter

MAX_N = 60
MAX_NON_MEMBER_WEIGHT = 121
TASKS = 9000
NON_MEMBER_SHARE = 1 / 3

# Each map with its inverse; a member input goes through both.
INVERSE = {
    "phi": "phi_inverse",
    "phi_inverse": "phi",
    "o_to_d": "d_to_o",
    "d_to_o": "o_to_d",
    "d_to_do": "do_to_d",
    "do_to_d": "d_to_do",
    "sc_to_distinct_odd": "distinct_odd_to_sc",
    "distinct_odd_to_sc": "sc_to_distinct_odd",
}
MAP_NAMES = tuple(INVERSE)
# Maps whose input is an odd Ferrers graph, given here by its shape.
GRAPH_INPUT = frozenset({"phi", "o_to_d"})


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0])) if parts else ()


def sc_from_arms(arms: tuple[int, ...]) -> tuple[int, ...]:
    """The self-conjugate partition whose principal hooks have these arms."""
    d = len(arms)
    # column j has length arms[j] + j, so row i below the Durfee square
    # counts the columns longer than i
    below = (sum(1 for j in range(d) if arms[j] + j > i) for i in range(d, arms[0] if arms else 0))
    return tuple(arms[i] + i for i in range(d)) + tuple(below)


def sc_from_cells(cells: tuple[int, ...]) -> tuple[int, ...]:
    """The self-conjugate partition whose principal hooks have these cell counts."""
    return sc_from_arms(tuple((c + 1) // 2 for c in cells))


def class_members(arms: tuple[int, ...]) -> dict[str, tuple[int, ...]]:
    """The O shape and the S, D and DO members that the arm tuple encodes."""
    head, inner = arms[0], arms[1:]
    do = (4 * head - 3,) + tuple(x for a in inner for x in (4 * a - 1, 4 * a - 3))
    return {
        "O": sc_from_arms(arms),
        "S": sc_from_cells(do),
        "D": tuple(sorted((2 * head - 1,) + tuple(4 * a - 2 for a in inner), reverse=True)),
        "DO": do,
    }


def _distinct(p) -> bool:
    return len(set(p)) == len(p)


def is_sc(p) -> bool:
    return conjugate(p) == p


def in_O(p) -> bool:
    # every nonempty self-conjugate shape has odd weight 2 * cells - (2a_1 - 1)
    return bool(p) and is_sc(p)


def in_S(p) -> bool:
    return sum(p) % 4 == 1 and all(x % 2 for x in p) and is_sc(p)


def in_D(p) -> bool:
    odds = [x for x in p if x % 2]
    evens = [x for x in p if x % 2 == 0]
    return (
        sum(p) % 2 == 1
        and _distinct(p)
        and len(odds) == 1
        and all(e % 4 == 2 for e in evens)
        and (not evens or 2 * odds[0] > max(evens))
    )


def in_DO(p) -> bool:
    return (
        sum(p) % 4 == 1
        and len(p) % 2 == 1
        and _distinct(p)
        and all(x % 2 for x in p)
        and p[0] % 4 == 1
        and all(p[j] % 4 == 3 and p[j] - p[j + 1] == 2 for j in range(1, len(p), 2))
    )


def is_distinct_odd(p) -> bool:
    return bool(p) and _distinct(p) and all(x % 2 for x in p)


DOMAIN = {
    "phi": in_O,
    "o_to_d": in_O,
    "phi_inverse": in_S,
    "d_to_o": in_D,
    "d_to_do": in_D,
    "do_to_d": in_DO,
    "sc_to_distinct_odd": is_sc,
    "distinct_odd_to_sc": is_distinct_odd,
}


class DistinctOddSampler:
    """Uniform draws of partitions into distinct odd parts, by a count table:
    ways[k][r] partitions of r into distinct parts from 1, 3, ..., 2k-1."""

    def __init__(self, rng: random.Random, max_weight: int):
        self.rng = rng
        kmax = (max_weight + 1) // 2
        self.ways = [[1] + [0] * max_weight]
        for k in range(1, kmax + 1):
            prev, part = self.ways[-1], 2 * k - 1
            self.ways.append([prev[r] + (prev[r - part] if r >= part else 0) for r in range(max_weight + 1)])

    def draw(self, weight: int, k: int) -> tuple[int, ...]:
        """A uniform partition of `weight` into distinct odd parts below 2k."""
        parts = []
        while weight:
            part = 2 * k - 1
            if part <= weight and self.rng.randrange(self.ways[k][weight]) < self.ways[k - 1][weight - part]:
                parts.append(part)
                weight -= part
            k -= 1
        return tuple(parts)

    def arms(self, n: int) -> tuple[int, ...]:
        """A uniform arm tuple of index n: (2a_1 - 1) + sum(4a_i - 2) = 2n + 1.

        The interior cell counts 2a_i - 1 form a distinct-odd partition of
        n + 1 - a_1 with parts below 2a_1 - 1."""
        weights = [self.ways[a1 - 1][n + 1 - a1] for a1 in range(1, n + 2)]
        a1 = self.rng.choices(range(1, n + 2), weights=weights)[0]
        return (a1,) + tuple((c + 1) // 2 for c in self.draw(n + 1 - a1, a1 - 1))


def random_partition(rng: random.Random, weight: int) -> tuple[int, ...]:
    """Parts drawn one at a time, each uniform up to the previous part and
    the weight left; short partitions are common, which reaches the maps'
    domain checks on near-miss inputs."""
    parts = []
    while weight:
        part = rng.randint(1, min(weight, parts[-1] if parts else weight))
        parts.append(part)
        weight -= part
    return tuple(parts)


def member_task(name: str, n: int, sampler: DistinctOddSampler):
    """(map, input, expected output, n) for a member of the map's domain at index n."""
    if name in ("sc_to_distinct_odd", "distinct_odd_to_sc"):
        cells = sampler.draw(4 * n + 1, 2 * n + 1)
        sc = sc_from_cells(cells)
        return (name, sc, cells, n) if name == "sc_to_distinct_odd" else (name, cells, sc, n)
    m = class_members(sampler.arms(n))
    source, target = {
        "phi": ("O", "S"),
        "phi_inverse": ("S", "O"),
        "o_to_d": ("O", "D"),
        "d_to_o": ("D", "O"),
        "d_to_do": ("D", "DO"),
        "do_to_d": ("DO", "D"),
    }[name]
    return name, m[source], m[target], n


def non_member_task(name: str, rng: random.Random):
    """(map, input, None, None) for a random partition outside the map's domain."""
    while True:
        p = random_partition(rng, rng.randint(1, MAX_NON_MEMBER_WEIGHT))
        if not DOMAIN[name](p):
            return name, p, None, None


def make_tasks(seed: int, tasks: int = TASKS) -> list[tuple]:
    """The maps workload: members with n uniform in 0..MAX_N and a fixed
    share of non-members, each sent to a uniformly chosen map, in random order."""
    rng = random.Random(seed)
    sampler = DistinctOddSampler(rng, 4 * MAX_N + 1)
    non_members = round(tasks * NON_MEMBER_SHARE)
    out = [member_task(rng.choice(MAP_NAMES), rng.randint(0, MAX_N), sampler) for _ in range(tasks - non_members)]
    out += [non_member_task(rng.choice(MAP_NAMES), rng) for _ in range(non_members)]
    rng.shuffle(out)
    return out


def describe(tasks: list[tuple]) -> str:
    """The non-member share and the distribution of n over member inputs."""
    ns = [t[3] for t in tasks if t[3] is not None]
    bins = Counter(n // 10 for n in ns)
    hist = " ".join(f"{10 * b}-{min(10 * b + 9, MAX_N)}:{bins[b]}" for b in sorted(bins))
    return f"{len(tasks)} inputs, non-member share {1 - len(ns) / len(tasks):.4f}; member n histogram {hist}"

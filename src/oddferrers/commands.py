"""The commands that read a partition or walk a class, which `cli.main`
imports the first time one runs. Nothing here imports `cli`: run as
`python -m oddferrers.cli`, `cli` is `__main__`, and a second import of it
would compile and run all of `cli` a second time."""
from __future__ import annotations

import json
import sys

from . import qseries
from .errors import Refused

_GRAPH_INPUT_MAPS = ("phi", "o_to_d")


def _parse_partition(text: str):
    """A `Partition` of comma-separated descending parts, e.g. "5,5,5,3,3".
    Each part is ASCII digits only, optionally surrounded by whitespace."""
    from . import partitions

    if not text.strip():
        raise Refused(f"empty partition is not accepted here: {text!r}")
    tokens = [tok.strip() for tok in text.split(",")]
    try:
        for tok in tokens:
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError(f"part {tok!r} is not a run of digits 0-9")
        return partitions.Partition(tuple(map(int, tokens)))
    except ValueError as exc:
        raise Refused(f"cannot parse partition {text!r}: {exc}") from exc


def _parts(member) -> tuple[int, ...]:
    # an OddFerrersGraph's parts are its shape's; a Partition has no shape
    return getattr(member, "shape", member).parts


def _text(member) -> str:
    """The inverse of `_parse_partition`: "5,5,5,3,3"."""
    return ",".join(map(str, _parts(member)))


def cmd_count(args) -> int:  # of a class; `cli` writes the pnu table
    from . import classes

    cid = classes.ClassId(args.cls)
    if args.n is None:  # a line per n, printed as the table yields it
        rows = enumerate(classes.count_table(cid, args.max_n))
    else:
        rows = [(args.n, classes.count(cid, args.n))]
    for n, k in rows:
        print(f"{n}\t{k}")
    return 0


def cmd_enumerate(args) -> int:
    from . import classes

    cid = classes.ClassId(args.cls)
    found = classes.members(cid, args.n)
    if args.format == "text":
        sys.stdout.writelines(f"{_text(member)}\n" for member in found)
        return 0
    rows = [list(_parts(m)) for m in found]
    print(json.dumps({"class": cid.value, "n": args.n, "count": len(rows), "members": rows}))
    return 0


def cmd_map(args) -> int:
    p = _parse_partition(args.input)
    from . import bijections, ferrers

    name = args.name.replace("-", "_")
    arg = ferrers.OddFerrersGraph(p) if name in _GRAPH_INPUT_MAPS else p
    print(_text(getattr(bijections, name)(arg)))
    return 0


# `cli.main` holds every --max-n to `cli.MAX_CLASS_N`, so the largest order a
# check expands is MAX_CLASS_N + 50, inside `cli.MAX_SERIES_ORDER`
def _verify_counts(max_n: int):
    from . import classes

    tables = {c.value: classes.count_table(c, max_n) for c in classes.ClassId}
    series = qseries.nu_series(max_n)
    for n in range(max_n + 1):
        values = {name: next(table) for name, table in tables.items()}
        values["pnu"] = series[n]
        yield values, None


def _verify_roundtrips(max_n: int):
    from . import bijections, classes

    for n in range(max_n + 1):
        o, s, d, do = (classes.members(c, n) for c in classes.ClassId)
        for name, sources, forward, inverse, targets in (
            ("phi", o, bijections.phi, bijections.phi_inverse, s),
            ("o_to_d", o, bijections.o_to_d, bijections.d_to_o, d),
            ("d_to_do", d, bijections.d_to_do, bijections.do_to_d, do),
        ):
            images = [forward(x) for x in sources]
            if sorted(map(_parts, images)) != sorted(map(_parts, targets)):
                yield {}, f"{name} image differs from its target class: {sorted(map(_text, images))}"
                break
            lost = next((x for x, y in zip(sources, images) if inverse(y) != x), None)
            if lost is not None:
                yield {}, f"inverse of {name} does not give back {_text(lost)}"
                break
            # each target y is now forward(x) with inverse(y) = x, so forward(inverse(y)) = y
        else:
            yield {}, None


def _verify_series(max_n: int):
    base, wider = qseries.nu_series(max_n), qseries.nu_series(max_n + 50)
    for n in range(max_n + 1):
        yield {"coeff": base[n], "wider": wider[n]}, None


def cmd_verify(args) -> int:
    """Runs `_verify_<name>` to its bound for each check in `args.bounds`, which
    `cli.main` resolves from `cli._CHECKS`. A check is a generator that imports
    its modules and builds its expansions when it starts, then yields per n a
    record for this loop alone to judge: its sources' values by name, and a
    sentence or None."""
    failures = 0
    for name, max_n in args.bounds.items():
        print(f"# {name} 0..{max_n}")
        for n, (sources, counterexample) in enumerate(globals()[f"_verify_{name}"](max_n)):
            if counterexample is None and len(set(sources.values())) > 1:
                counterexample = " ".join(f"{k}={v}" for k, v in sources.items())
            print(f"{n}\tPASS" if counterexample is None else f"{n}\tFAIL\t{counterexample}")
            if counterexample is not None and failures == 0:
                print(f"first counterexample: n={n} {counterexample}")
            failures += counterexample is not None
    return 0 if failures == 0 else 1


def cmd_render(args) -> int:
    shape = _parse_partition(args.shape)
    from . import ferrers, partitions

    # the ascii diagram is one character per cell
    if shape.weight > partitions.MAX_CELLS:
        raise Refused(f"shape has {shape.weight} cells, more than the {partitions.MAX_CELLS} "
                      "that render accepts")
    g = ferrers.OddFerrersGraph(shape)
    if args.format == "json":
        print(json.dumps({"shape": list(shape.parts), "weight": ferrers.graph_weight(g),
                          "row_sums": list(ferrers.row_sums(g))}))
    else:
        print(ferrers.render_ascii(g))
    return 0

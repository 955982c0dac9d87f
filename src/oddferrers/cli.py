"""Command-line interface: counting, enumeration, mapping, verification, and
rendering of odd Ferrers graphs and their partition classes."""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import qseries
from .errors import OddFerrersError, TooLarge

# Each command imports the modules it runs when it starts, so that the
# series alone does not compile the class walks and the maps. The names
# that argparse offers are written out here for the same reason.

# the ClassId values
_CLASS_NAMES = ("O", "S", "D", "DO")

# map name -> (the bijection's name in `bijections`, whether its input is an
# odd Ferrers graph)
_MAPS = {
    "phi": ("phi", True),
    "phi-inverse": ("phi_inverse", False),
    "o-to-d": ("o_to_d", True),
    "d-to-o": ("d_to_o", False),
    "d-to-do": ("d_to_do", False),
    "do-to-d": ("do_to_d", False),
    "sc-to-distinct-odd": ("sc_to_distinct_odd", False),
    "distinct-odd-to-sc": ("distinct_odd_to_sc", False),
}

# nu_series divides by residue-class running sums, and its last level holds the
# old and the new coefficients at once: at 10^5, `count --class pnu --max-n`
# takes 1.9-2.5 s and peaks at 34-35 MiB RSS (Python 3.11, 2-core shared x86-64 host)
MAX_SERIES_ORDER = 10**5
# the classes grow about tenfold per 50 in n: a walk to 150 takes seconds,
# and O has about 9*10^7 members at n = 300
MAX_CLASS_N = 150


class _Refused(Exception):
    """An argument that `main` turns into exit 2, like a `TooLarge` input."""


def _parse_partition(text: str):
    """A `Partition` of comma-separated descending parts, e.g. "5,5,5,3,3".
    Each part is ASCII digits only, optionally surrounded by whitespace."""
    from . import partitions

    if not text.strip():
        raise _Refused(f"empty partition is not accepted here: {text!r}")
    tokens = [tok.strip() for tok in text.split(",")]
    try:
        for tok in tokens:
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError(f"part {tok!r} is not a run of digits 0-9")
        return partitions.Partition(tuple(map(int, tokens)))
    except ValueError as exc:
        raise _Refused(f"cannot parse partition {text!r}: {exc}") from exc


def _parts(member) -> tuple[int, ...]:
    # an OddFerrersGraph's parts are its shape's; a Partition has no shape
    return getattr(member, "shape", member).parts


def _text(member) -> str:
    """The inverse of `_parse_partition`: "5,5,5,3,3"."""
    return ",".join(map(str, _parts(member)))


def _nu_series(order: int) -> tuple[int, ...]:
    if order > MAX_SERIES_ORDER:
        raise TooLarge(f"series order {order} is more than the {MAX_SERIES_ORDER} "
                       "that the CLI expands")
    return qseries.nu_series(order)


def _check_class_n(top_n: int) -> None:
    if top_n > MAX_CLASS_N:
        raise TooLarge(f"class index {top_n} is more than the {MAX_CLASS_N} that the CLI walks")


@functools.cache  # a parser is a cycle of objects only the garbage collector frees
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oddferrers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count class members")
    p_count.set_defaults(run=_cmd_count)
    p_count.add_argument("--class", dest="cls", required=True,
                         choices=[*_CLASS_NAMES, "pnu"])
    group = p_count.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--max-n", type=int)

    p_enum = sub.add_parser("enumerate", help="list class members")
    p_enum.set_defaults(run=_cmd_enumerate)
    p_enum.add_argument("--class", dest="cls", required=True, choices=_CLASS_NAMES)
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--format", choices=["text", "json"], default="text")

    p_map = sub.add_parser("map", help="apply one of the bijections")
    p_map.set_defaults(run=_cmd_map)
    p_map.add_argument("name", choices=list(_MAPS))
    p_map.add_argument("--input", required=True)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--checks", choices=["all", *_CHECKS], default="all")

    p_render = sub.add_parser("render", help="render an odd Ferrers graph")
    p_render.set_defaults(run=_cmd_render)
    p_render.add_argument("--shape", required=True)
    p_render.add_argument("--format", choices=["ascii", "json"], default="ascii")

    return parser


def _cmd_count(args) -> int:
    ns = range(args.max_n + 1) if args.n is None else [args.n]
    if args.cls == "pnu":
        series = _nu_series(ns[-1])
        # the whole table is in memory: one call, and a generator so it still streams
        sys.stdout.writelines(f"{n}\t{series[n]}\n" for n in ns)
    else:
        _check_class_n(ns[-1])
        from . import classes

        cid = classes.ClassId(args.cls)
        for n in ns:  # one line per walk, printed as it ends
            print(f"{n}\t{classes.count(cid, n)}")
    return 0


def _cmd_enumerate(args) -> int:
    _check_class_n(args.n)
    from . import classes

    cid = classes.ClassId(args.cls)
    found = classes.members(cid, args.n)
    if args.format == "text":
        sys.stdout.writelines(f"{_text(member)}\n" for member in found)
        return 0
    rows = [list(_parts(m)) for m in found]
    print(json.dumps({"class": cid.value, "n": args.n, "count": len(rows), "members": rows}))
    return 0


def _cmd_map(args) -> int:
    p = _parse_partition(args.input)
    from . import bijections, ferrers

    name, takes_graph = _MAPS[args.name]
    arg = ferrers.OddFerrersGraph(p) if takes_graph else p
    print(_text(getattr(bijections, name)(arg)))
    return 0


def _verify_counts(n: int, series, classes) -> tuple[bool, str]:
    values = {c.value: classes.count(c, n) for c in classes.ClassId}
    values["pnu"] = series[n]
    ok = len(set(values.values())) == 1
    detail = " ".join(f"{k}={v}" for k, v in values.items())
    return ok, detail


def _verify_roundtrips(n: int, classes, bijections) -> tuple[bool, str]:
    o, s, d, do = (classes.members(c, n) for c in classes.ClassId)
    maps = [
        ("phi", o, bijections.phi, bijections.phi_inverse, s),
        ("o_to_d", o, bijections.o_to_d, bijections.d_to_o, d),
        ("d_to_do", d, bijections.d_to_do, bijections.do_to_d, do),
    ]
    for name, sources, forward, inverse, targets in maps:
        images = [forward(x) for x in sources]
        image_texts = sorted(map(_text, images))
        if image_texts != sorted(map(_text, targets)):
            return False, f"{name} image differs from its target class: {image_texts}"
        for x, y in zip(sources, images):
            if inverse(y) != x:
                return False, f"inverse of {name} does not give back {_text(x)}"
        # each target y is now forward(x) with inverse(y) = x, so forward(inverse(y)) = y
    return True, ""


def _verify_series(n: int, base, wider) -> tuple[bool, str]:
    return base[n] == wider[n], f"coeff={base[n]} wider={wider[n]}"


def _counts_check(max_n: int):
    from . import classes
    return functools.partial(_verify_counts, series=_nu_series(max_n), classes=classes)


def _roundtrips_check(max_n: int):
    from . import bijections, classes
    return functools.partial(_verify_roundtrips, classes=classes, bijections=bijections)


def _report(name: str, max_n: int, check, failures: int) -> int:
    """Print one PASS/FAIL line per n, and the first counterexample of the
    whole run; return the failure total so far."""
    print(f"# {name} 0..{max_n}")
    for n in range(max_n + 1):
        ok, detail = check(n)
        print(f"{n}\t{'PASS' if ok else 'FAIL'}" + ("" if ok else f"\t{detail}"))
        if not ok and failures == 0:
            print(f"first counterexample: n={n} {detail}")
        failures += 0 if ok else 1
    return failures


# verify check -> (default max-n, builds the per-n check up to a max-n), in
# run order; a builder imports the modules that its check runs, once per run
# and not per n; counts and roundtrips walk the classes at every n, and every
# check takes the class cap
_CHECKS = {
    "counts": (40, _counts_check),
    "roundtrips": (25, _roundtrips_check),
    "series": (40, lambda max_n: functools.partial(
        _verify_series, wider=_nu_series(max_n + 50), base=_nu_series(max_n))),
}


def _cmd_verify(args) -> int:
    failures = 0
    for name, (default_max_n, build) in _CHECKS.items():
        if args.checks in ("all", name):
            max_n = default_max_n if args.max_n is None else args.max_n
            _check_class_n(max_n)
            failures = _report(name, max_n, build(max_n), failures)
    return 0 if failures == 0 else 1


def _cmd_render(args) -> int:
    shape = _parse_partition(args.shape)
    from . import ferrers, partitions

    # the ascii diagram is one character per cell
    if shape.weight > partitions.MAX_CELLS:
        raise _Refused(f"shape has {shape.weight} cells, more than the {partitions.MAX_CELLS} "
                       "that render accepts")
    g = ferrers.OddFerrersGraph(shape)
    if args.format == "json":
        print(json.dumps({"shape": list(shape.parts), "weight": ferrers.graph_weight(g),
                          "row_sums": list(ferrers.row_sums(g))}))
    else:
        print(ferrers.render_ascii(g))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("n", "max_n"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise _Refused(f"{flag.replace('_', '-')} must be nonnegative")
        return args.run(args)
    except (_Refused, TooLarge) as exc:
        # exit 1 is kept for inputs that are not class members
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OddFerrersError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

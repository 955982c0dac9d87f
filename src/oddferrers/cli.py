"""Command-line interface: counting, enumeration, mapping, verification, and
rendering of odd Ferrers graphs and their partition classes."""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bijections, classes, ferrers, qseries
from .classes import ClassId
from .errors import OddFerrersError, TooLarge
from .ferrers import OddFerrersGraph
from .partitions import MAX_CELLS, Partition

# map name -> (bijection, whether its input is an odd Ferrers graph)
_MAPS = {
    "phi": (bijections.phi, True),
    "phi-inverse": (bijections.phi_inverse, False),
    "o-to-d": (bijections.o_to_d, True),
    "d-to-o": (bijections.d_to_o, False),
    "d-to-do": (bijections.d_to_do, False),
    "do-to-d": (bijections.do_to_d, False),
    "sc-to-distinct-odd": (bijections.sc_to_distinct_odd, False),
    "distinct-odd-to-sc": (bijections.distinct_odd_to_sc, False),
}

# nu_series holds one list of order + 1 ints and takes 2-3.3 s at 10^5
# (Python 3.11, 2-core shared x86-64 host)
MAX_SERIES_ORDER = 10**5
# the classes grow about tenfold per 50 in n: a walk to 150 takes seconds,
# and O has about 9*10^7 members at n = 300
MAX_CLASS_N = 150


class _Refused(Exception):
    """An argument that `main` turns into exit 2, like a `TooLarge` input."""


def _parse_partition(text: str) -> Partition:
    """Comma-separated descending parts, e.g. "5,5,5,3,3". Each part is ASCII
    digits only, optionally surrounded by whitespace."""
    if not text.strip():
        raise _Refused(f"empty partition is not accepted here: {text!r}")
    tokens = [tok.strip() for tok in text.split(",")]
    try:
        for tok in tokens:
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError(f"part {tok!r} is not a run of digits 0-9")
        return Partition(tuple(map(int, tokens)))
    except ValueError as exc:
        raise _Refused(f"cannot parse partition {text!r}: {exc}") from exc


def _parts(member) -> tuple[int, ...]:
    return member.shape.parts if isinstance(member, OddFerrersGraph) else member.parts


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

    class_names = [c.value for c in ClassId]

    p_count = sub.add_parser("count", help="count class members")
    p_count.set_defaults(run=_cmd_count)
    p_count.add_argument("--class", dest="cls", required=True,
                         choices=[*class_names, "pnu"])
    group = p_count.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--max-n", type=int)

    p_enum = sub.add_parser("enumerate", help="list class members")
    p_enum.set_defaults(run=_cmd_enumerate)
    p_enum.add_argument("--class", dest="cls", required=True, choices=class_names)
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
        for n in ns:
            print(f"{n}\t{series[n]}")
    else:
        _check_class_n(ns[-1])
        cid = ClassId(args.cls)
        for n in ns:
            print(f"{n}\t{classes.count(cid, n)}")
    return 0


def _cmd_enumerate(args) -> int:
    _check_class_n(args.n)
    cid = ClassId(args.cls)
    found = classes.members(cid, args.n)
    if args.format == "text":
        for member in found:
            print(_text(member))
        return 0
    rows = [list(_parts(m)) for m in found]
    print(json.dumps({"class": cid.value, "n": args.n, "count": len(rows), "members": rows}))
    return 0


def _cmd_map(args) -> int:
    p = _parse_partition(args.input)
    fn, takes_graph = _MAPS[args.name]
    arg = OddFerrersGraph(p) if takes_graph else p
    print(_text(fn(arg)))
    return 0


def _verify_counts(n: int, series) -> tuple[bool, str]:
    values = {c.value: classes.count(c, n) for c in ClassId}
    values["pnu"] = series[n]
    ok = len(set(values.values())) == 1
    detail = " ".join(f"{k}={v}" for k, v in values.items())
    return ok, detail


def _verify_roundtrips(n: int) -> tuple[bool, str]:
    o, s, d, do = (classes.members(c, n) for c in ClassId)
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
# run order; counts and roundtrips walk the classes at every n, and every check
# takes the class cap
_CHECKS = {
    "counts": (40, lambda max_n: functools.partial(_verify_counts, series=_nu_series(max_n))),
    "roundtrips": (25, lambda max_n: _verify_roundtrips),
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
    # the ascii diagram is one character per cell
    if shape.weight > MAX_CELLS:
        raise _Refused(f"shape has {shape.weight} cells, more than the {MAX_CELLS} "
                       "that render accepts")
    g = OddFerrersGraph(shape)
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

"""Command-line interface: counting, enumeration, mapping, verification, and
rendering of odd Ferrers graphs and their partition classes."""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from itertools import chain

from . import qseries
from .errors import OddFerrersError, TooLarge

# Each command imports the modules it runs when it starts, so that the
# series alone does not compile the class walks and the maps. The names
# that argparse offers are written out here for the same reason: the ClassId
# values, and the bijections' names in `bijections`, offered with dashes.
_CLASS_NAMES = ("O", "S", "D", "DO")
_MAPS = ("phi", "phi_inverse", "o_to_d", "d_to_o", "d_to_do", "do_to_d",
         "sc_to_distinct_odd", "distinct_odd_to_sc")
_GRAPH_INPUT_MAPS = ("phi", "o_to_d")

# nu_series divides each level by residue-class running sums or by blocks of e,
# and its last level holds the old and the new coefficients at once: at 10^5,
# `count --class pnu --max-n` takes 2.1-2.7 s and peaks at 33-34 MiB RSS
# (Python 3.11, 2-core shared x86-64 host)
MAX_SERIES_ORDER = 10**5
# the classes grow about tenfold per 50 in n: a walk to 150 takes seconds,
# and O has about 9*10^7 members at n = 300
MAX_CLASS_N = 150
# the pnu table is formatted and written this many lines at a time, so that
# one block of text at most is in memory beside the series
_PNU_BLOCK_LINES = 4096
# what `main` returns when stdout's reader stops early: 128 + SIGPIPE, as a
# shell reports a command that the signal ended
CLOSED_PIPE_EXIT = 141


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
    p_map.add_argument("name", choices=[name.replace("_", "-") for name in _MAPS])
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
    ns = range(args.max_n + 1) if args.n is None else range(args.n, args.n + 1)
    if args.cls == "pnu":
        series = _nu_series(ns[-1])
        for i in range(0, len(ns), _PNU_BLOCK_LINES):
            block = ns[i:i + _PNU_BLOCK_LINES]
            # one % for the block, its indices and coefficients paired in C
            fields = tuple(chain.from_iterable(zip(block, series[block.start:block.stop])))
            sys.stdout.write("%d\t%d\n" * len(block) % fields)
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

    name = args.name.replace("-", "_")
    arg = ferrers.OddFerrersGraph(p) if name in _GRAPH_INPUT_MAPS else p
    print(_text(getattr(bijections, name)(arg)))
    return 0


def _verify_counts(max_n: int):
    from . import classes

    series = _nu_series(max_n)
    for n in range(max_n + 1):
        values = {c.value: classes.count(c, n) for c in classes.ClassId}
        values["pnu"] = series[n]
        yield len(set(values.values())) == 1, " ".join(f"{k}={v}" for k, v in values.items())


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
            image_texts = sorted(map(_text, images))
            if image_texts != sorted(map(_text, targets)):
                yield False, f"{name} image differs from its target class: {image_texts}"
                break
            lost = next((x for x, y in zip(sources, images) if inverse(y) != x), None)
            if lost is not None:
                yield False, f"inverse of {name} does not give back {_text(lost)}"
                break
            # each target y is now forward(x) with inverse(y) = x, so forward(inverse(y)) = y
        else:
            yield True, ""


def _verify_series(max_n: int):
    base, wider = _nu_series(max_n), _nu_series(max_n + 50)
    for n in range(max_n + 1):
        yield base[n] == wider[n], f"coeff={base[n]} wider={wider[n]}"


# verify check -> (default max-n, check), in run order. A check is a generator:
# it imports its modules and builds its expansions once, when it starts, then
# yields (ok, detail) for each n from 0 to max-n; counts and roundtrips walk
# the classes at every n, and every check takes the class cap
_CHECKS = {
    "counts": (40, _verify_counts),
    "roundtrips": (25, _verify_roundtrips),
    "series": (40, _verify_series),
}


def _cmd_verify(args) -> int:
    failures = 0
    for name, (default_max_n, check) in _CHECKS.items():
        if args.checks in ("all", name):
            max_n = default_max_n if args.max_n is None else args.max_n
            _check_class_n(max_n)  # before any output, so a refusal prints nothing
            print(f"# {name} 0..{max_n}")
            for n, (ok, detail) in enumerate(check(max_n)):
                print(f"{n}\t{'PASS' if ok else 'FAIL'}" + ("" if ok else f"\t{detail}"))
                if not ok and failures == 0:
                    print(f"first counterexample: n={n} {detail}")
                failures += 0 if ok else 1
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
        code = args.run(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not as the interpreter exits
        return code
    except BrokenPipeError:
        # the reader stopped early, as `| head` does. A closed stream is not
        # flushed again when the interpreter exits, and closing it leaves
        # descriptor 1 open, since the interpreter's stdout does not own it
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()
        return CLOSED_PIPE_EXIT
    except (_Refused, TooLarge) as exc:
        # exit 1 is kept for inputs that are not class members
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OddFerrersError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

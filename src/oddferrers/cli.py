"""Command-line interface: the parser, the size caps, the exit-code policy
and the pnu table. The commands that read a partition or walk a class are in
`commands`, which `main` imports the first time one of them runs."""
from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from itertools import chain

from . import _SOURCES, qseries
from .errors import OddFerrersError, Refused, TooLarge

# Each command imports the modules it runs when it starts, so that the
# series alone does not compile the class walks and the maps. So the ClassId
# values that argparse offers are written out here, and the map names are
# read from the package's name table, which is loaded already
_CLASS_NAMES = ("O", "S", "D", "DO")
_MAPS = [name.replace("_", "-") for name, module in _SOURCES.items() if module == "bijections"]

# nu_series divides each level by residue-class running sums or by blocks of e,
# and its last level holds the old and the new coefficients at once: at 10^5,
# `count --class pnu --max-n` takes 2.1-2.7 s and peaks at 33-34 MiB RSS
# (Python 3.11, 2-core shared x86-64 host)
MAX_SERIES_ORDER = 10**5
# the classes grow about tenfold per 50 in n: a walk to 150 takes seconds,
# and O has about 9*10^7 members at n = 300
MAX_CLASS_N = 150
# verify check -> its default max-n, in run order; `commands._verify_<name>` runs it
_CHECKS = {"counts": 40, "roundtrips": 25, "series": 40}
# the pnu table is formatted and written this many lines at a time, so that
# one block of text at most is in memory beside the series
_PNU_BLOCK_LINES = 4096
# what `main` returns when stdout's reader stops early: 128 + SIGPIPE, as a
# shell reports a command that the signal ended
CLOSED_PIPE_EXIT = 141


def _int(text: str) -> int:
    """An index or order: ASCII digits 0-9, as in a partition's parts, with
    whitespace around them. A leading "-" is taken, so that `main` refuses the
    value as negative; any other sign, an underscore or another digit is a
    usage error, worded as argparse words one for `type=int`."""
    digits = text.strip().removeprefix("-")
    if digits.isascii() and digits.isdigit():
        with contextlib.suppress(ValueError):  # int() refuses more than 4300 digits
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


@functools.cache  # a parser is a cycle of objects only the garbage collector frees
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oddferrers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count class members")
    p_count.add_argument("--class", dest="cls", required=True,
                         choices=[*_CLASS_NAMES, "pnu"])
    group = p_count.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_int)
    group.add_argument("--max-n", type=_int)

    p_enum = sub.add_parser("enumerate", help="list class members")
    p_enum.add_argument("--class", dest="cls", required=True, choices=_CLASS_NAMES)
    p_enum.add_argument("--n", type=_int, required=True)
    p_enum.add_argument("--format", choices=["text", "json"], default="text")

    p_map = sub.add_parser("map", help="apply one of the bijections")
    p_map.add_argument("name", choices=_MAPS)
    p_map.add_argument("--input", required=True)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    p_verify.add_argument("--max-n", type=_int, default=None)
    p_verify.add_argument("--checks", choices=["all", *_CHECKS], default="all")

    p_render = sub.add_parser("render", help="render an odd Ferrers graph")
    p_render.add_argument("--shape", required=True)
    p_render.add_argument("--format", choices=["ascii", "json"], default="ascii")

    return parser


def _pnu_table(args) -> int:
    ns = range(args.max_n + 1) if args.n is None else range(args.n, args.n + 1)
    series = qseries.nu_series(ns[-1])
    for i in range(0, len(ns), _PNU_BLOCK_LINES):
        block = ns[i:i + _PNU_BLOCK_LINES]
        # one % for the block, its indices and coefficients paired in C
        fields = tuple(chain.from_iterable(zip(block, series[block.start:block.stop])))
        sys.stdout.write("%d\t%d\n" * len(block) % fields)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every bound is refused here, before `commands` loads, so that a
        # refused index or order compiles none of it
        series = args.command == "count" and args.cls == "pnu"
        cap = MAX_SERIES_ORDER if series else MAX_CLASS_N
        for flag in ("n", "max_n"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise Refused(f"{flag.replace('_', '-')} must be nonnegative")
            if value is not None and value > cap:
                what, does = ("series order", "expands") if series else ("class index", "walks")
                raise Refused(f"{what} {value} is more than the {cap} that the CLI {does}")
        if args.command == "verify":  # each check that runs -> its bound
            args.bounds = {name: bound if args.max_n is None else args.max_n
                           for name, bound in _CHECKS.items() if args.checks in ("all", name)}
        if series:
            code = _pnu_table(args)
        else:
            from . import commands

            code = getattr(commands, f"cmd_{args.command}")(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not as the interpreter exits
        return code
    except BrokenPipeError:
        # the reader stopped early, as `| head` does. A closed stream is not
        # flushed again when the interpreter exits, and closing it leaves
        # descriptor 1 open, since the interpreter's stdout does not own it
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()
        return CLOSED_PIPE_EXIT
    except (Refused, TooLarge) as exc:
        # exit 1 is kept for inputs that are not class members
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OddFerrersError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: counting, enumeration, mapping, verification, and
rendering of odd Ferrers graphs and their partition classes."""
from __future__ import annotations

import argparse
import json
import sys

from . import bijections, classes, ferrers, qseries
from .classes import ClassId
from .errors import OddFerrersError
from .ferrers import OddFerrersGraph
from .partitions import Partition

MAP_NAMES = (
    "phi",
    "phi-inverse",
    "o-to-d",
    "d-to-o",
    "d-to-do",
    "do-to-d",
    "sc-to-distinct-odd",
    "distinct-odd-to-sc",
)


class _ParseFailure(Exception):
    pass


def _parse_partition(text: str) -> Partition:
    try:
        p = Partition.from_text(text)
    except ValueError as exc:
        raise _ParseFailure(f"cannot parse partition {text!r}: {exc}") from exc
    if not p:
        raise _ParseFailure(f"empty partition is not accepted here: {text!r}")
    return p


class _Exit2ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Exit2ArgumentParser(prog="oddferrers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count class members")
    p_count.add_argument("--class", dest="cls", required=True,
                         choices=["O", "S", "D", "DO", "pnu"])
    group = p_count.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--max-n", type=int)

    p_enum = sub.add_parser("enumerate", help="list class members")
    p_enum.add_argument("--class", dest="cls", required=True,
                        choices=["O", "S", "D", "DO"])
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--format", choices=["text", "json"], default="text")

    p_map = sub.add_parser("map", help="apply one of the bijections")
    p_map.add_argument("name", choices=MAP_NAMES)
    p_map.add_argument("--input", required=True)
    p_map.add_argument("--check", action="store_true",
                       help="verify output class membership where applicable")

    p_verify = sub.add_parser("verify", help="run invariant suites")
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--checks", choices=["all", "counts", "roundtrips", "series"],
                          default="all")

    p_render = sub.add_parser("render", help="render an odd Ferrers graph")
    p_render.add_argument("--shape", required=True)
    p_render.add_argument("--format", choices=["ascii", "json"], default="ascii")

    return parser


def _cmd_count(args) -> int:
    ns = range(args.max_n + 1) if args.n is None else [args.n]
    if any(n < 0 for n in ns):
        print("error: n must be nonnegative", file=sys.stderr)
        return 2
    if args.cls == "pnu":
        order = max(ns)
        series = qseries.nu_series(-1, order)
        for n in ns:
            print(f"{n}\t{series[n]}")
    else:
        cid = ClassId(args.cls)
        for n in ns:
            print(f"{n}\t{classes.count(cid, n)}")
    return 0


def _cmd_enumerate(args) -> int:
    if args.n < 0:
        print("error: n must be nonnegative", file=sys.stderr)
        return 2
    cid = ClassId(args.cls)
    if args.format == "json":
        print(json.dumps(classes.to_json_dict(cid, args.n)))
        return 0
    if cid is ClassId.O:
        for g in classes.enumerate_O(args.n):
            print(g.to_text())
    else:
        enum = {ClassId.S: classes.enumerate_S,
                ClassId.D: classes.enumerate_D,
                ClassId.DO: classes.enumerate_DO}[cid]
        for p in enum(args.n):
            print(p.to_text())
    return 0


def _cmd_map(args) -> int:
    try:
        p = _parse_partition(args.input)
    except _ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.name == "phi":
            out = bijections.phi(OddFerrersGraph(p), check=args.check)
        elif args.name == "phi-inverse":
            out = bijections.phi_inverse(p).shape
        elif args.name == "o-to-d":
            out = bijections.o_to_d(OddFerrersGraph(p))
        elif args.name == "d-to-o":
            out = bijections.d_to_o(p).shape
        elif args.name == "d-to-do":
            out = bijections.d_to_do(p)
        elif args.name == "do-to-d":
            out = bijections.do_to_d(p)
        elif args.name == "sc-to-distinct-odd":
            out = bijections.sc_to_distinct_odd(p)
        else:
            out = bijections.distinct_odd_to_sc(p)
    except OddFerrersError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(out.to_text())
    return 0


def _verify_counts(n: int, series) -> tuple[bool, str]:
    values = {c.value: classes.count(c, n) for c in ClassId}
    values["pnu"] = series[n]
    ok = len(set(values.values())) == 1
    detail = " ".join(f"{k}={v}" for k, v in values.items())
    return ok, detail


def _verify_roundtrips(n: int) -> tuple[bool, str]:
    o_members = classes.enumerate_O(n)
    s_members = classes.enumerate_S(n)
    d_members = classes.enumerate_D(n)
    do_members = classes.enumerate_DO(n)

    images = [bijections.phi(g, check=True) for g in o_members]
    if sorted(p.parts for p in images) != sorted(p.parts for p in s_members):
        return False, f"phi image of O_{2*n+1} differs from S_{4*n+1}: {sorted(p.parts for p in images)}"
    for g, img in zip(o_members, images):
        back = bijections.phi_inverse(img)
        if back.shape != g.shape:
            return False, f"phi_inverse(phi({g.shape.parts})) = {back.shape.parts}"
    for p in s_members:
        if bijections.phi(bijections.phi_inverse(p)) != p:
            return False, f"phi(phi_inverse({p.parts})) mismatch"

    d_images = [bijections.o_to_d(g) for g in o_members]
    if sorted(p.parts for p in d_images) != sorted(p.parts for p in d_members):
        return False, f"o_to_d image of O_{2*n+1} differs from D_{2*n+1}"
    for g in o_members:
        if bijections.d_to_o(bijections.o_to_d(g)).shape != g.shape:
            return False, f"d_to_o(o_to_d({g.shape.parts})) mismatch"
    for p in d_members:
        if bijections.o_to_d(bijections.d_to_o(p)) != p:
            return False, f"o_to_d(d_to_o({p.parts})) mismatch"

    do_images = [bijections.d_to_do(p) for p in d_members]
    if sorted(p.parts for p in do_images) != sorted(p.parts for p in do_members):
        return False, f"d_to_do image of D_{2*n+1} differs from DO_{4*n+1}"
    for p in d_members:
        if bijections.do_to_d(bijections.d_to_do(p)) != p:
            return False, f"do_to_d(d_to_do({p.parts})) mismatch"
    for p in do_members:
        if bijections.d_to_do(bijections.do_to_d(p)) != p:
            return False, f"d_to_do(do_to_d({p.parts})) mismatch"
    return True, ""


def _cmd_verify(args) -> int:
    checks = args.checks
    failures = 0
    if checks in ("all", "counts"):
        max_n = args.max_n if args.max_n is not None else 40
        series = qseries.nu_series(-1, max_n)
        print(f"# counts 0..{max_n}")
        for n in range(max_n + 1):
            ok, detail = _verify_counts(n, series)
            print(f"{n}\t{'PASS' if ok else 'FAIL'}" + ("" if ok else f"\t{detail}"))
            if not ok and failures == 0:
                print(f"first counterexample: n={n} {detail}")
            failures += 0 if ok else 1
    if checks in ("all", "roundtrips"):
        max_n = args.max_n if args.max_n is not None else 25
        print(f"# roundtrips 0..{max_n}")
        for n in range(max_n + 1):
            ok, detail = _verify_roundtrips(n)
            print(f"{n}\t{'PASS' if ok else 'FAIL'}" + ("" if ok else f"\t{detail}"))
            if not ok and failures == 0:
                print(f"first counterexample: n={n} {detail}")
            failures += 0 if ok else 1
    if checks in ("all", "series"):
        max_n = args.max_n if args.max_n is not None else 40
        base = qseries.nu_series(-1, max_n)
        wider = qseries.nu_series(-1, max_n + 50)
        print(f"# series 0..{max_n}")
        for n in range(max_n + 1):
            nonneg = base[n] >= 0
            stable = base[n] == wider[n]
            s_count = classes.count(ClassId.S, n)
            ok = nonneg and stable and base[n] == s_count
            detail = f"coeff={base[n]} wider={wider[n]} S={s_count}"
            print(f"{n}\t{'PASS' if ok else 'FAIL'}" + ("" if ok else f"\t{detail}"))
            if not ok and failures == 0:
                print(f"first counterexample: n={n} {detail}")
            failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def _cmd_render(args) -> int:
    try:
        shape = _parse_partition(args.shape)
    except _ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    g = OddFerrersGraph(shape)
    if args.format == "json":
        print(json.dumps(ferrers.to_json_dict(g)))
    else:
        print(ferrers.render_ascii(g))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "max_n", None) is not None and args.command == "verify" and args.max_n < 0:
        print("error: max-n must be nonnegative", file=sys.stderr)
        return 2
    handlers = {
        "count": _cmd_count,
        "enumerate": _cmd_enumerate,
        "map": _cmd_map,
        "verify": _cmd_verify,
        "render": _cmd_render,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

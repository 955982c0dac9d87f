#!/usr/bin/env python3
"""Write series_reference.txt, the expected output of the `series` workload.

    python3 perfbench/make_reference.py

It records what `oddferrers count --class pnu --max-n 600` prints. Run it
only on code whose series output is trusted; the benchmark's tests
cross-check coefficients 0..40 of the file against `count(O, n)`.
"""
import contextlib
import io
import sys

from run import REFERENCE, SERIES_ARGV, SRC

if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    from oddferrers import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(SERIES_ARGV)
    if code != 0:
        sys.exit(f"cli.main({SERIES_ARGV}) exited {code}")
    REFERENCE.write_text(buf.getvalue())
    print(f"wrote {REFERENCE}")

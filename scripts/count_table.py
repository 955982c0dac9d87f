#!/usr/bin/env python3
"""Print the class counts and the series coefficients side by side.

Usage: python scripts/count_table.py [MAX_N]
"""
import sys

from oddferrers.classes import ClassId, count
from oddferrers.qseries import nu_series


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    series = nu_series(max_n)
    print("n\tO\tS\tD\tDO\tseries")
    for n in range(max_n + 1):
        row = [count(c, n) for c in ClassId]
        marker = "" if len({*row, series[n]}) == 1 else "\tMISMATCH"
        print("\t".join(str(x) for x in [n, *row, series[n]]) + marker)


if __name__ == "__main__":
    main()

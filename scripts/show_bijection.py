#!/usr/bin/env python3
"""Walk every self-conjugate odd Ferrers graph at a given index through the
hook-doubling map, showing the diagram, its image, and its D-class form (the
graph's weighted hook sums).

Usage: python scripts/show_bijection.py [N]
"""
import sys

from oddferrers.bijections import o_to_d, phi, sc_to_distinct_odd
from oddferrers.classes import ClassId, members
from oddferrers.ferrers import graph_weight, render_ascii


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    for g in members(ClassId.O, n):
        image = phi(g)
        print(f"shape {g.to_text()}  (weight {graph_weight(g)})")
        print(render_ascii(g))
        print(f"  image under phi    : {image.to_text()}")
        print(f"  distinct-odd form  : {sc_to_distinct_odd(image).to_text()}")
        print(f"  D-class form       : {o_to_d(g).to_text()}")
        print()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compare the mechanically derived catalogs against the stated ones.

Two comparisons per group and rank: the assembled relator catalog
against the stated derived catalog (instance level, over a window), and
the scripted reduction's final presentation against the stated final
families (template level).  Differences are listed, never reconciled.
"""

import argparse
import sys

from braidsub.rewriting import compare_catalog
from braidsub.tietze import SCRIPTS, run_script


def catalog_side(group: str, n: int, window) -> int:
    cmp = compare_catalog(group, n, window)
    print("%s n=%d window [%d, %d]: derived %d, stated %d -> %s"
          % (group, n, window[0], window[1],
             cmp["derived_instances"], cmp["stated_instances"],
             "MATCH" if cmp["match"] else "MISMATCH"))
    for lbl in cmp["extra"]:
        print("  extra:   %s" % lbl)
    for lbl in cmp["missing"]:
        print("  missing: %s" % lbl)
    return 0 if cmp["match"] else 1


def script_side(name: str) -> int:
    res = run_script(name)
    if res.diff is None:
        print("%s: no stated final presentation to compare" % res.name)
        return 0
    if res.diff["agree"]:
        print("%s: final presentation matches the stated families" % res.name)
        return 0
    print("%s: final presentation differs from the stated families" % res.name)
    for line in res.diff["extra"]:
        print("  extra:   %s" % line)
    for line in res.diff["missing"]:
        print("  missing: %s" % line)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--window", default="-2..2")
    parser.add_argument("--ranks", default="4,5,6")
    args = parser.parse_args()
    lo, hi = args.window.split("..", 1)
    window = (int(lo), int(hi))
    ranks = tuple(int(x) for x in args.ranks.split(","))
    bad = 0
    for group in ("vb", "wb"):
        for n in ranks:
            bad += catalog_side(group, n, window)
    print()
    for name in sorted(SCRIPTS):
        bad += script_side(name)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

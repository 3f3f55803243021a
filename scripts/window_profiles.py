#!/usr/bin/env python3
"""Tabulate abelian invariants as the truncation window grows.

For each group and rank the reduced presentation is truncated to a
ladder of symmetric windows; the table shows the torsion coefficients
and free rank per window, plus whether the profile has stabilized
(fixed torsion, constant rank growth).  Useful for picking windows big
enough that the truncation artifacts are gone.  A group and rank whose
profile cannot be taken (say, a window too narrow to instantiate every
relator family) prints an ``error:`` row, and the script then exits 2.
"""

import argparse
import sys

from braidsub.abelianize import stabilization_profile
from braidsub.errors import BraidsubError


def run(groups, ranks, radii) -> list:
    windows = tuple((-r, r) for r in radii)
    rows = []
    for group in groups:
        for n in ranks:
            try:
                prof = stabilization_profile(group, n, windows)
            except BraidsubError as exc:
                rows.append((group, n, "error: %s" % exc, "", ""))
                continue
            per_window = ", ".join(
                "%s + Z^%d" % (r["torsion"] or "[]", r["free_rank"])
                for r in prof["rows"]
            )
            rows.append(
                (
                    group,
                    n,
                    per_window,
                    "stable" if prof["stable"] else "moving",
                    "delta=%s" % prof["free_rank_delta"],
                )
            )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--groups", default="vb,wb")
    parser.add_argument("--ranks", default="3,4,5,6")
    parser.add_argument("--radii", default="3,4,5",
                        help="window radii, e.g. 3,4,5 for [-3,3],[-4,4],[-5,5]")
    args = parser.parse_args()
    rows = run(
        args.groups.split(","),
        [int(x) for x in args.ranks.split(",")],
        [int(x) for x in args.radii.split(",")],
    )
    width = max(len(r[2]) for r in rows)
    for group, n, profile, stable, delta in rows:
        print("%s n=%d  %-*s  %-7s %s" % (group, n, width, profile, stable, delta))
    return 2 if any(r[2].startswith("error: ") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: fixed job lists, one job process at a time.

A workload is a list of process specs.  Each spec holds the jobs one
process runs: a CLI job always gets a fresh interpreter of its own,
because a user pays interpreter and import cost on every call; a batch
that users run in one process (the profile sweep of
``scripts/window_profiles.py``, the round-trip check) stays in one.  The
seed only draws the round-trip kernel words and the order in which the
processes run.

* ``tietze_ladder`` -- Tietze ops and template canonical keys do about
  90% of the work; the ms-scale VBN jobs expose per-process set-up and
  transcript printing.
* ``window_ladder`` -- Smith normal form does about 95%: a few large,
  sparse, mostly +-1 matrices in the profile sweep and many small step
  matrices in the truncation checks.
* ``rewrite_roundtrip`` -- words, cosets and rewriting do about 95%, with
  no Tietze op and no SNF; Word-level keys on many short words, and the
  quadratic word assembly on long ones.
"""

from __future__ import annotations

from kernel_words import kernel_words

PROFILE_RADII = (4, 6, 8)
ROUNDTRIP_RANK = 4
ROUNDTRIP_LENGTHS = (400, 800, 1600, 3200)


def _cli(name: str, *argv: str) -> dict:
    return {"jobs": [{"name": name, "kind": "cli", "argv": list(argv)}]}


def _tietze(script: str, n=None) -> dict:
    argv = ["tietze", "--script", script]
    if n is not None:
        argv += ["--n", str(n)]
    name = "tietze.%s" % script + (".n%d" % n if n is not None else "")
    return _cli(name, *argv, "--format", "json")


def tietze_ladder(seed: int):
    procs = [_cli("report", "report", "--format", "json")]
    procs += [_tietze(s) for s in ("VB3_REDUCE", "WB3_REDUCE", "WB4_REDUCE")]
    procs += [_tietze("VBN_REDUCE", n) for n in range(4, 11)]
    procs += [_tietze("WBN_REDUCE", n) for n in range(5, 9)]
    return procs, "tietze.WBN_REDUCE.n8"


def window_ladder(seed: int):
    sweep = [
        {"name": "profile.%s.n%d" % (g, n), "kind": "profile",
         "group": g, "n": n, "radii": list(PROFILE_RADII)}
        for g in ("vb", "wb")
        for n in range(3, 9)
    ]
    procs = [{"jobs": sweep}]
    for script, n in (("VB3_REDUCE", 3), ("WB3_REDUCE", 3), ("WB4_REDUCE", 4),
                      ("VBN_REDUCE", 4), ("VBN_REDUCE", 5), ("VBN_REDUCE", 6)):
        job = {"name": "truncation.%s.n%d" % (script, n), "kind": "truncation",
               "script": script, "n": n}
        procs.append({"jobs": [job]})
    return procs, "profile.wb.n8"


def rewrite_roundtrip(seed: int):
    procs = [_cli("verify.n%d" % n, "verify", "--lemma", "ALL", "--n", str(n),
                  "--m-range", "-40..40")
             for n in range(4, 9)]
    procs += [_cli("derive.%s.n%d" % (g, n), "derive", "--group", g, "--n", str(n),
                   "--compare-paper", "--window", "-8..8")
              for g in ("vb", "wb")
              for n in range(4, 9)]
    words = kernel_words(seed, ROUNDTRIP_RANK, ROUNDTRIP_LENGTHS)
    procs.append({"jobs": [
        {"name": "roundtrip.%d" % w["target"], "kind": "roundtrip",
         "seed": w["seed"], "letters": w["letters"]}
        for w in words
    ]})
    return procs, "roundtrip.%d" % ROUNDTRIP_LENGTHS[-1]


WORKLOADS = {
    "tietze_ladder": tietze_ladder,
    "window_ladder": window_ladder,
    "rewrite_roundtrip": rewrite_roundtrip,
}

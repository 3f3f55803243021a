"""Answer checks for the benchmark jobs.

Expected values come from the paper's statements, never from the code
under test:

* Theorem 1.1: the rank-n virtual derived subgroup needs 2n-3 generators
  (n >= 4); Cor 1.2(1): at rank 3 it is not finitely generated.
* Theorem 1.3: the welded one needs 4 generators at ranks 3 and 4 and n
  generators for n >= 5.
* Cor 1.2 and Theorem 1.3 on abelianizations: vb3 and vb4 give torsion
  [3, 3, 3], with a free part that grows (by 2 per unit of window radius)
  only at rank 3; wb3 gives [3, 3, 3] plus one free factor; wb4 gives
  [3]; every rank n >= 5 is perfect.
* Rewriting is sound: expanding a rewritten kernel word gives the word
  back, and every statement table re-derives without a mismatch.

Each check returns a list of problems; an empty list means the answer is
right.
"""

from __future__ import annotations

import json

REPORT_CLAIMS = {
    "Theorem 1.1", "Cor 1.2(1)", "Cor 1.2(2)", "Cor 1.2(3)",
    "Theorem 1.3(1)", "Theorem 1.3(2)", "Theorem 1.3(3)", "Theorem 1.3(4)",
}


def generator_count(script: str, n: int):
    """Generators the paper states for a script's final presentation."""
    if script == "VB3_REDUCE":
        return None  # not finitely generated
    if script == "VBN_REDUCE":
        return 2 * n - 3
    if script == "WBN_REDUCE":
        return n
    return 4  # WB3_REDUCE, WB4_REDUCE


def profile_expectation(group: str, n: int):
    """(torsion, free rank growth per unit of radius, free rank or None)."""
    if n >= 5:
        return [], 0, 0
    if group == "vb":
        return [3, 3, 3], (2 if n == 3 else 0), (None if n == 3 else 0)
    return ([3, 3, 3], 0, 1) if n == 3 else ([3], 0, 0)


def _flag(args: list, name: str):
    return args[args.index(name) + 1] if name in args else None


def _check_tietze(argv, out) -> list:
    script = _flag(argv, "--script").upper()
    n_text = _flag(argv, "--n")
    n = int(n_text) if n_text else {"VB3_REDUCE": 3, "WB3_REDUCE": 3, "WB4_REDUCE": 4}[script]
    obj = json.loads(out)
    gens = obj["generators"]
    want = generator_count(script, n)
    problems = []
    if not obj["steps"]:
        problems.append("empty transcript")
    if want is None:
        if gens["finite"]:
            problems.append("rank 3 virtual: expected unbounded generator families")
    elif not gens["finite"] or gens["count"] != want:
        problems.append("expected %d generators, got %s" % (want, gens["count"]))
    # The rank-4 welded final list is a known, reported difference from the
    # stated one, so only ranks 3 are held to the stated final presentation.
    if script in ("VB3_REDUCE", "WB3_REDUCE"):
        if not (obj["diff"] and obj["diff"]["agree"]):
            problems.append("final presentation differs from the stated one")
    return problems


def _check_report(argv, out) -> list:
    obj = json.loads(out)
    claims = {row["claim"] for row in obj["rows"]}
    problems = ["%s: %s" % (row["claim"], row["status"])
                for row in obj["rows"] if row["status"] != "pass"]
    if claims != REPORT_CLAIMS:
        problems.append("claims reported: %s" % sorted(claims))
    if not obj["pass"]:
        problems.append("overall FAIL")
    return problems


def _check_verify(argv, out) -> list:
    lines = out.splitlines()
    problems = []
    if not lines or lines[-1] != "mismatches: 0":
        problems.append("last line %r" % (lines[-1] if lines else ""))
    if any("MISMATCH" in l for l in lines):
        problems.append("a case is a MISMATCH")
    if not any(" tier=" in l for l in lines):
        problems.append("no cases checked")
    return problems


def _check_derive(argv, out) -> list:
    lines = out.splitlines()
    problems = []
    if not lines or lines[-1] != "MATCH":
        problems.append("last line %r" % (lines[-1] if lines else ""))
    if any(l.startswith(("extra:", "missing:")) for l in lines):
        problems.append("derived and stated catalogs differ")
    return problems


CLI_CHECKS = {"tietze": _check_tietze, "report": _check_report,
              "verify": _check_verify, "derive": _check_derive}


def check_cli(job, answer) -> list:
    argv = job["argv"]
    problems = [] if answer["rc"] == 0 else ["exit code %s" % answer["rc"]]
    try:
        return problems + CLI_CHECKS[argv[0]](argv, answer["stdout"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return problems + ["unreadable output: %r" % exc]


def check_profile(job, answer) -> list:
    torsion, growth, rank = profile_expectation(job["group"], job["n"])
    radii = job["radii"]
    steps = {b - a for a, b in zip(radii, radii[1:])}
    problems = []
    if not answer["stable"]:
        problems.append("profile not stable")
    if answer["torsion"] != torsion:
        problems.append("torsion %s, expected %s" % (answer["torsion"], torsion))
    if answer["free_rank_delta"] is None or {answer["free_rank_delta"]} != {growth * s for s in steps}:
        problems.append("free rank delta %s, expected %d per unit radius"
                        % (answer["free_rank_delta"], growth))
    if rank is not None and any(r != rank for r in answer["free_ranks"]):
        problems.append("free ranks %s, expected %d" % (answer["free_ranks"], rank))
    return problems


def check_truncation(job, answer) -> list:
    problems = [] if answer["agree"] else ["truncated invariants disagree across a step"]
    if not answer["comparisons"]:
        problems.append("no step compared")
    return problems


def check_roundtrip(job, answer) -> list:
    if answer["letters"] != [list(l) for l in job["letters"]]:
        return ["expand_raw(rewrite_slots(w)) != w for |w| = %d" % len(job["letters"])]
    return []


CHECKS = {"cli": check_cli, "profile": check_profile,
          "truncation": check_truncation, "roundtrip": check_roundtrip}


def check(job, answer) -> list:
    """Problems with one job's answer; empty when it is right."""
    if "error" in answer:
        return ["crashed: " + answer["error"].strip().splitlines()[-1]]
    return CHECKS[job["kind"]](job, answer)

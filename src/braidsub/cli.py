"""Command line front end.

Subcommands:

* ``present``    print an ambient presentation,
* ``derive``     assemble the derived catalog mechanically, optionally
                 comparing it against the stated one over a window,
* ``verify``     re-derive one statement table (or ALL) case by case,
* ``tietze``     replay a named simplification script,
* ``abelianize`` invariants of a truncated presentation,
* ``report``     the consolidated claim-by-claim reproduction report.

Exit codes: 0 all good, 1 a verification produced a mismatch, 2 usage or
precondition error.  Reports are also written as JSON files into the
directory named by the BRAIDSUB_OUTDIR environment variable (default:
the working directory); a report appears only once it is complete, so a
run that fails leaves an earlier one as it was.  All output is
deterministic: no timestamps, sorted cases.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys

from . import abelianize as ab
from . import presets, rewriting, tietze
from .errors import BraidsubError, ParseError
from .presets import instantiate, print_finite, print_presentation
from .words import print_word


def _range_pair(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a range like -3..3, got %r" % text)


def _outdir() -> str:
    path = os.environ.get("BRAIDSUB_OUTDIR", ".")
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(obj, out) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True)`` and a newline,
    streamed part by part into ``out``."""
    json.dump(obj, out, indent=2, sort_keys=True)
    out.write("\n")


@contextlib.contextmanager
def _report_file(name: str, echo: bool):
    """Yield a temporary file beside the report ``name`` in the report
    directory.  On a clean exit it replaces the report and, with ``echo``,
    the finished report is printed; on an error it is removed, so an
    earlier report stays whole and nothing is printed."""
    path = os.path.join(_outdir(), name)
    fh = open("%s.%d.tmp" % (path, os.getpid()), "w", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(fh.name, path)
    except BaseException:
        os.remove(fh.name)
        raise
    if echo:
        with open(path, encoding="utf-8") as done:
            shutil.copyfileobj(done, sys.stdout)


# ---------------------------------------------------------------------------
# present
# ---------------------------------------------------------------------------


def cmd_present(args) -> int:
    group = args.group or "vb"
    fp = presets.ambient_presentation(group, args.n)
    if args.format == "json":
        obj = {
            "group": group,
            "n": args.n,
            "generators": [str(s) for s in fp.generators],
            "relators": [{"label": label, "word": print_word(w)} for label, w in fp.relators],
        }
        _write_json(obj, sys.stdout)
    else:
        sys.stdout.write(print_finite(fp))
    return 0


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------


def cmd_derive(args) -> int:
    group = args.group or "vb"
    if not args.compare_paper:
        assembled = rewriting.assemble(group, args.n)
        if args.format == "json":
            obj = {
                "group": group,
                "n": args.n,
                "presentation": print_presentation(assembled),
            }
            _write_json(obj, sys.stdout)
        else:
            sys.stdout.write(print_presentation(assembled))
        return 0
    comparison = rewriting.compare_catalog(group, args.n, args.window)
    notes = sorted(
        "%s: %s" % (fam.label, fam.note)
        for fam in presets.main_families(group)
        if fam.note
    )
    obj = {
        "group": group,
        "n": args.n,
        "window": list(args.window),
        **comparison,
        "notes": notes,
    }
    if args.format == "json":
        _write_json(obj, sys.stdout)
    else:
        sys.stdout.write(
            "derived %d instances, stated %d, window [%d, %d]\n"
            % (obj["derived_instances"], obj["stated_instances"], *args.window)
        )
        for lbl in obj["extra"]:
            sys.stdout.write("extra: %s\n" % lbl)
        for lbl in obj["missing"]:
            sys.stdout.write("missing: %s\n" % lbl)
        for note in notes:
            sys.stdout.write("note: %s\n" % note)
        sys.stdout.write("MATCH\n" if obj["match"] else "MISMATCH\n")
    return 0 if obj["match"] else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _lemma_group(lemma: str, override) -> str:
    if override:
        return override
    return presets.LEMMA_TABLES[lemma][2] if lemma in presets.LEMMA_TABLES else "vb"


_encode_str = json.encoder.encode_basestring_ascii
_CASE_KEYS = ("engine_word", "paper_word", "params", "tier", "verdict")


def _json_row(plan: rewriting.Plan, newline: str) -> tuple:
    """A verify plan's JSON row, nested after ``newline``: a ``%`` form and
    the fill it takes at m.  The form holds the plan's texts, each encoded
    once; the fills need no escaping, being digits, signs and s1 runs."""
    inner = newline + "  "
    texts = (plan.engine, plan.paper, plan.params, plan.tier.replace("%", "%%"), plan.verdict.replace("%", "%%"))
    fields = ['"%s": %s' % (key, _encode_str(text)) for key, text in zip(_CASE_KEYS, texts)]
    return "{" + inner + ("," + inner).join(fields) + newline + "}", plan.fill


def _text_line(plan: rewriting.Plan) -> tuple:
    """A verify plan's text line: a ``%`` form and the fill it takes at m."""
    tier, verdict = (plan.tier or "-").replace("%", "%%"), plan.verdict.replace("%", "%%")
    return "  %s  tier=%s  %s\n" % (plan.params, tier, verdict), plan.fill


def _row_texts(cases: rewriting.Cases, form):
    """Yield the text of every row of a verify view in its printed order,
    from ``form(plan)``: a ``%`` form and the fill it takes at m."""
    forms = {id(plan): form(plan) for plan in cases.plans}
    for plan, m in cases.walk():
        text, fill = forms[id(plan)]
        yield text % fill(m)


def _write_table(report: dict, newline: str, write) -> None:
    """Write one verify table as ``json.dumps(report, indent=2,
    sort_keys=True)`` nested after ``newline``, with its rows streamed
    from their plans.  "cases" sorts first among the table's keys, so the
    rows go first and json.dumps writes the small keys after them."""
    inner = newline + "  "
    write("{" + inner + '"cases": ')
    sep = "[" + inner + "  "
    for row in _row_texts(report["cases"], lambda plan: _json_row(plan, inner + "  ")):
        write(sep + row)
        sep = "," + inner + "  "
    rest = json.dumps({key: value for key, value in report.items() if key != "cases"}, indent=2, sort_keys=True)
    # every newline json.dumps writes is indentation: it escapes those in strings
    write(("[]" if sep[0] == "[" else inner + "]") + "," + rest[1:].replace("\n", newline))


def cmd_verify(args) -> int:
    """Check one statement table at a time and write its JSON before the
    next.  A table is checked once per row pattern, its plan, and each row
    is written straight from its plan, so only plans stay alive.  The JSON
    goes into a temporary file beside the report, which replaces the
    report once every table is checked; nothing is printed before then,
    so a run that fails leaves no partial output and no partial report."""
    lo, hi = args.m_range
    if lo > hi:
        sys.stderr.write("warning: empty m-range, nothing to check\n")
    if args.lemma == "ALL":
        ids, newline = presets.LEMMA_IDS, "\n    "
        head, tail = '{\n  "lemmas": [\n    ', '\n  ],\n  "n": %d\n}\n' % args.n
    else:
        ids, newline, head, tail = (args.lemma,), "\n", "", "\n"
    reports: list[dict] = []
    fh = None
    with contextlib.ExitStack() as stack:
        for lemma in ids:
            report = rewriting.verify_lemma(lemma, _lemma_group(lemma, args.group), args.n, args.m_range)
            if fh is None:  # the report directory is made once a table is checked
                fh = stack.enter_context(_report_file("verify-%s.json" % args.lemma, args.format == "json"))
                fh.write(head)
            else:
                fh.write("," + newline)
            _write_table(report, newline, fh.write)
            reports.append(report)
        fh.write(tail)
    mismatches = sum(plan.size for rep in reports for plan in rep["cases"].plans if plan.verdict == "MISMATCH")
    if args.format != "json":
        for report in reports:
            cases = report["cases"]
            sys.stdout.write("%s (%s, n=%d): %d cases\n" % (report["lemma"], report["group"], report["n"], len(cases)))
            sys.stdout.writelines(_row_texts(cases, _text_line))
            sys.stdout.writelines("  note: %s\n" % note for note in report["notes"])
        sys.stdout.write("mismatches: %d\n" % mismatches)
    return 1 if mismatches else 0


# ---------------------------------------------------------------------------
# tietze
# ---------------------------------------------------------------------------


def _summary_obj(summary) -> dict:
    return {
        "finite": summary.finite,
        "count": summary.count,
        "names": list(summary.names),
        "unbounded": list(summary.unbounded),
    }


def cmd_tietze(args) -> int:
    if args.window and args.emit != "presentation":
        raise ParseError("--window needs --emit presentation")
    if args.format == "json" and args.emit == "presentation":
        raise ParseError("--emit presentation prints text only, not --format json")
    result = tietze.run_script(args.script.upper(), args.n)
    if args.emit == "presentation":
        if args.window:
            sys.stdout.write(print_finite(instantiate(result.final, args.window)))
        else:
            sys.stdout.write(print_presentation(result.final))
        return 0
    if args.format == "json":
        obj = {
            "script": result.name,
            "group": result.group,
            "n": result.n,
            "steps": [
                {"index": i + 1, "text": rec["text"], "presentation": print_presentation(snap)}
                for i, (rec, snap) in enumerate(result.steps)
            ],
            "generators": _summary_obj(result.summary),
            "diff": result.diff,
        }
        _write_json(obj, sys.stdout)
        return 0
    sys.stdout.write("script %s (group %s, n=%d)\n" % (result.name, result.group, result.n))
    sys.stdout.write("\ninitial\n%s" % print_presentation(result.initial))
    for i, (rec, snap) in enumerate(result.steps):
        sys.stdout.write("\nstep %d: %s\n%s" % (i + 1, rec["text"], print_presentation(snap)))
    summary = result.summary
    if summary.finite:
        sys.stdout.write("\ngenerators (%d): %s\n" % (summary.count, " ".join(summary.names)))
    else:
        sys.stdout.write(
            "\ngenerators: unbounded families remain: %s\n" % " ".join(summary.unbounded)
        )
        if summary.names:
            sys.stdout.write("concrete generators: %s\n" % " ".join(summary.names))
    if result.diff is not None:
        if result.diff["agree"]:
            sys.stdout.write("matches the stated final presentation\n")
        else:
            for line in result.diff["extra"]:
                sys.stdout.write("extra: %s\n" % line)
            for line in result.diff["missing"]:
                sys.stdout.write("missing: %s\n" % line)
    return 0


# ---------------------------------------------------------------------------
# abelianize
# ---------------------------------------------------------------------------


def cmd_abelianize(args) -> int:
    group = args.group or "vb"
    if args.reduced and args.derived:
        raise ParseError("--reduced and --derived are mutually exclusive")
    res = ab.abelian_invariants(group, args.n, args.window, reduced=not args.derived)
    obj = {
        "torsion": res["torsion"],
        "free_rank": res["free_rank"],
        "window": list(args.window),
        "matrix_dims": [res["relator_instances"], res["generators"]],
    }
    if args.format == "json":
        _write_json(obj, sys.stdout)
    else:
        sys.stdout.write(
            "group %s, n=%d, window [%d, %d]%s\n"
            % (group, args.n, *args.window, ", derived" if args.derived else ", reduced")
        )
        sys.stdout.write("torsion: %s\n" % (obj["torsion"] or "none"))
        sys.stdout.write("free rank: %d\n" % obj["free_rank"])
        sys.stdout.write("matrix: %d x %d\n" % tuple(obj["matrix_dims"]))
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _profile_row(group: str, n: int) -> dict:
    prof = ab.stabilization_profile(group, n)
    return {
        "group": group,
        "n": n,
        "torsion": prof["torsion"],
        "free_ranks": [r["free_rank"] for r in prof["rows"]],
        "free_rank_delta": prof["free_rank_delta"],
        "stable": prof["stable"],
    }


def build_report() -> dict:
    rows = []

    def row(key, claim, ok, evidence):
        rows.append({"claim": key, "statement": claim, "status": "pass" if ok else "FAIL", "evidence": evidence})

    vbn = {n: tietze.run_script("VBN_REDUCE", n).summary for n in (4, 5, 6)}
    ok = all(vbn[n].finite and vbn[n].count == 2 * n - 3 for n in (4, 5, 6))
    row(
        "Theorem 1.1",
        "the derived subgroup of the rank-n virtual group is generated by"
        " 2n-3 elements for n >= 4",
        ok,
        {"counts": {str(n): vbn[n].count for n in (4, 5, 6)}, "names_n4": list(vbn[4].names)},
    )

    vb3 = tietze.run_script("VB3_REDUCE")
    p_vb3 = _profile_row("vb", 3)
    ok = (not vb3.summary.finite) and p_vb3["free_rank_delta"] == 2
    row(
        "Cor 1.2(1)",
        "at rank 3 the derived subgroup is not finitely generated",
        ok,
        {
            "unbounded": list(vb3.summary.unbounded),
            "free_ranks": p_vb3["free_ranks"],
            "free_rank_delta": p_vb3["free_rank_delta"],
        },
    )

    p_vb4 = _profile_row("vb", 4)
    ok = p_vb3["stable"] and p_vb3["torsion"] == [3, 3, 3] and ab.settled(p_vb4, [3, 3, 3])
    row(
        "Cor 1.2(2)",
        "abelianizations at ranks 3 and 4: three factors of order three,"
        " with an infinite free part only at rank 3",
        ok,
        {"rank3": p_vb3, "rank4": p_vb4},
    )

    p_vb5 = _profile_row("vb", 5)
    p_vb6 = _profile_row("vb", 6)
    ok = all(ab.settled(p, []) for p in (p_vb5, p_vb6))
    row(
        "Cor 1.2(3)",
        "for rank at least 5 the virtual group is perfect: the derived"
        " subgroup abelianizes to nothing",
        ok,
        {"rank5": p_vb5, "rank6": p_vb6},
    )

    wb3 = tietze.run_script("WB3_REDUCE")
    ok = (
        wb3.summary.finite
        and wb3.summary.count == 4
        and wb3.diff is not None
        and wb3.diff["agree"]
    )
    row(
        "Theorem 1.3(1)",
        "at rank 3 the welded derived subgroup is generated by four"
        " elements and carries the stated relations",
        ok,
        {"names": list(wb3.summary.names), "diff": wb3.diff},
    )

    p_wb3 = _profile_row("wb", 3)
    ok = ab.settled(p_wb3, [3, 3, 3]) and p_wb3["free_ranks"][0] == 1
    row(
        "Theorem 1.3(2)",
        "its abelianization has three factors of order three and one"
        " free factor",
        ok,
        p_wb3,
    )

    wb4 = tietze.run_script("WB4_REDUCE")
    p_wb4 = _profile_row("wb", 4)
    ok = wb4.summary.finite and wb4.summary.count == 4 and ab.settled(p_wb4, [3])
    row(
        "Theorem 1.3(3)",
        "at rank 4 the welded derived subgroup needs four generators and"
        " abelianizes to a single factor of order three",
        ok,
        {"names": list(wb4.summary.names), "profile": p_wb4, "diff": wb4.diff},
    )

    wb5 = tietze.run_script("WBN_REDUCE", 5)
    p_wb5 = _profile_row("wb", 5)
    ok = wb5.summary.finite and wb5.summary.count == 5 and ab.settled(p_wb5, [])
    row(
        "Theorem 1.3(4)",
        "for rank at least 5 the welded group is perfect and the derived"
        " subgroup is generated by n elements",
        ok,
        {"count": wb5.summary.count, "profile": p_wb5},
    )

    return {"rows": rows, "pass": all(r["status"] == "pass" for r in rows)}


def cmd_report(args) -> int:
    obj = build_report()
    with _report_file("report.json", args.format == "json") as fh:
        _write_json(obj, fh)
    if args.format != "json":
        for r in obj["rows"]:
            sys.stdout.write("%-4s %-16s %s\n" % (r["status"], r["claim"], r["statement"]))
            if r["status"] != "pass":
                sys.stdout.write("     evidence: %s\n" % json.dumps(r["evidence"], sort_keys=True))
        sys.stdout.write("overall: %s\n" % ("pass" if obj["pass"] else "FAIL"))
    return 0 if obj["pass"] else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="braidsub", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, window=False, m_range=False):
        p.add_argument("--group", choices=("vb", "wb"), default=None)
        p.add_argument("--n", type=int, default=4)
        if window:
            p.add_argument("--window", type=_range_pair, default=(-3, 3))
        if m_range:
            p.add_argument("--m-range", dest="m_range", type=_range_pair, default=(-2, 2))
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("present", help="print an ambient presentation")
    common(p)
    p.set_defaults(fn=cmd_present)

    p = sub.add_parser("derive", help="assemble the derived catalog")
    common(p, window=True)
    p.add_argument("--compare-paper", action="store_true", dest="compare_paper")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("verify", help="re-derive one statement table")
    common(p, m_range=True)
    p.add_argument("--lemma", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("tietze", help="replay a simplification script")
    p.add_argument("--script", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--window", type=_range_pair, default=None)
    p.add_argument("--emit", choices=("transcript", "presentation"), default="transcript")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_tietze)

    p = sub.add_parser("abelianize", help="invariants over a window")
    common(p, window=True)
    p.add_argument("--reduced", action="store_true",
                   help="use the reduced catalog (the default)")
    p.add_argument("--derived", action="store_true",
                   help="use the full derived catalog instead")
    p.set_defaults(fn=cmd_abelianize)

    p = sub.add_parser("report", help="consolidated reproduction report")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_report)

    return top


def _glue_range_values(argv: list) -> list:
    """Join range flags with their values so argparse accepts ``-2..2``."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--window", "--m-range") and i + 1 < len(argv):
            out.append("%s=%s" % (tok, argv[i + 1]))
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_range_values(list(argv)))
    try:
        return args.fn(args)
    except BraidsubError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

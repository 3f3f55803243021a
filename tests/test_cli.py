"""Command line behavior: exit codes, output shapes, determinism.

Everything runs in process through main(argv); report files land in a
temporary BRAIDSUB_OUTDIR.
"""

import contextlib
import errno
import hashlib
import io
import json
import operator
import os
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidsub import cli, presets, rewriting
from braidsub.abelianize import relation_matrix
from braidsub.cli import main
from braidsub.presets import instantiate, reduced_presentation


@pytest.fixture(autouse=True)
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("BRAIDSUB_OUTDIR", str(tmp_path))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_present_text_and_json(capsys):
    code, out, _ = run(capsys, "present", "--group", "vb", "--n", "3")
    assert code == 0
    code, js, _ = run(capsys, "present", "--group", "vb", "--n", "3", "--format", "json")
    assert code == 0
    obj = json.loads(js)
    assert obj["generators"] == ["s1", "s2", "r1", "r2"]
    assert len(obj["relators"]) == 5
    # the group flag defaults to vb
    code, out2, _ = run(capsys, "present", "--n", "3")
    assert out2 == out


def test_present_rank_two_groups_coincide(capsys):
    _, vb, _ = run(capsys, "present", "--group", "vb", "--n", "2")
    _, wb, _ = run(capsys, "present", "--group", "wb", "--n", "2")
    assert vb == wb


def test_present_rejects_rank_one(capsys):
    code, _, err = run(capsys, "present", "--group", "vb", "--n", "1")
    assert code == 2
    assert err.startswith("error:")


def test_verify_single_lemma(capsys, outdir):
    code, out, _ = run(capsys, "verify", "--lemma", "L7", "--n", "4")
    assert code == 0
    assert "mismatches: 0" in out
    path = outdir / "verify-L7.json"
    obj = json.loads(path.read_text())
    assert obj["lemma"] == "L7"
    assert all(case["verdict"] != "MISMATCH" for case in obj["cases"])
    params = [case["params"] for case in obj["cases"]]
    assert params == sorted(params)


def test_verify_all(capsys, outdir):
    code, out, _ = run(capsys, "verify", "--lemma", "ALL", "--n", "4")
    assert code == 0
    assert out.rstrip().endswith("mismatches: 0")
    obj = json.loads((outdir / "verify-ALL.json").read_text())
    ids = {rep["lemma"] for rep in obj["lemmas"]}
    assert ids == {"L3_1", "L3", "L5", "L5_2", "L7", "L8", "L8_1", "L10", "L12", "CON"}


def test_verify_empty_range_warns(capsys):
    code, out, err = run(capsys, "verify", "--lemma", "L7", "--m-range", "2..-2")
    assert code == 0
    assert "empty m-range" in err
    assert "mismatches: 0" in out


def test_verify_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "--lemma", "L5_2", "--group", "vb")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "verify", "--lemma", "L99")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify")
    assert exc.value.code == 2


def _sorted_report(report: dict) -> dict:
    report = dict(report)
    report["cases"] = sorted(report["cases"], key=operator.itemgetter("params"))
    return report


def whole_report_verify(args) -> int:
    """The oracle for ``cmd_verify``: every statement table is checked
    first, and the whole report is then written and printed at once."""
    lo, hi = args.m_range
    if lo > hi:
        sys.stderr.write("warning: empty m-range, nothing to check\n")
    ids = list(presets.LEMMA_IDS) if args.lemma == "ALL" else [args.lemma]
    reports = []
    for lemma in ids:
        group = cli._lemma_group(lemma, args.group)
        reports.append(_sorted_report(rewriting.verify_lemma(lemma, group, args.n, args.m_range)))
    obj = reports[0] if args.lemma != "ALL" else {"n": args.n, "lemmas": reports}
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(os.path.join(cli._outdir(), "verify-%s.json" % args.lemma), "w", encoding="utf-8") as fh:
        fh.write(text)
    mismatches = 0
    for rep in reports:
        for case in rep["cases"]:
            if case["verdict"] == "MISMATCH":
                mismatches += 1
    if args.format == "json":
        sys.stdout.write(text)
    else:
        for rep in reports:
            sys.stdout.write(
                "%s (%s, n=%d): %d cases\n" % (rep["lemma"], rep["group"], rep["n"], len(rep["cases"]))
            )
            for case in rep["cases"]:
                sys.stdout.write(
                    "  %s  tier=%s  %s\n" % (case["params"], case["tier"] or "-", case["verdict"])
                )
            for note in rep["notes"]:
                sys.stdout.write("  note: %s\n" % note)
        sys.stdout.write("mismatches: %d\n" % mismatches)
    return 1 if mismatches else 0


def run_in(capsys, monkeypatch, path, *argv):
    """Run argv with ``path`` as the report directory; return the exit
    code, stdout, stderr and the bytes of every file the run left there."""
    monkeypatch.setenv("BRAIDSUB_OUTDIR", str(path))
    code, out, err = run(capsys, *argv)
    files = {f.name: f.read_bytes() for f in sorted(path.iterdir())} if path.exists() else None
    return code, out, err, files


@pytest.mark.parametrize("lemma", [
    ("ALL", "--n", "3"), ("ALL", "--n", "4"), ("ALL", "--n", "5"), ("ALL", "--n", "6"), ("ALL", "--n", "11"),
    ("L3_1",), ("L7",), ("CON",), ("L5_2", "--group", "wb"),
], ids=lambda argv: "-".join(argv).replace("--", ""))
def test_streamed_verify_matches_the_whole_report(capsys, monkeypatch, outdir, lemma):
    for m_range in ("-40..40", "-12..12", "0..0", "2..-2"):
        for fmt in ("text", "json"):
            argv = ("verify", "--lemma", *lemma, "--m-range", m_range, "--format", fmt)
            streamed = run_in(capsys, monkeypatch, outdir / ("stream" + m_range + fmt), *argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "cmd_verify", whole_report_verify)
                whole = run_in(capsys, monkeypatch, outdir / ("whole" + m_range + fmt), *argv)
            assert streamed == whole, argv
            assert streamed[0] == 0 and list(streamed[3]) == ["verify-%s.json" % lemma[0]]
            assert ("empty m-range" in streamed[2]) == (m_range == "2..-2")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_failing_verify_prints_nothing_and_keeps_the_old_report(capsys, outdir, fmt):
    # every table up to L5_2, the last, is checked and written before it
    # raises: the welded-only statement asked of the virtual group
    assert presets.LEMMA_IDS[-1] == "L5_2"
    earlier = b'{"earlier": "run"}\n'
    (outdir / "verify-ALL.json").write_bytes(earlier)
    code, out, err = run(capsys, "verify", "--lemma", "ALL", "--group", "vb", "--n", "4", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == "error: statement L5_2 concerns the welded group\n"
    assert [f.name for f in outdir.iterdir()] == ["verify-ALL.json"]
    assert (outdir / "verify-ALL.json").read_bytes() == earlier


def test_verify_peak_memory_follows_the_largest_table(capsys, monkeypatch):
    argv = ("verify", "--lemma", "ALL", "--n", "5", "--m-range", "-40..40")
    run(capsys, *argv)  # warm every cache both runs share

    def peak():
        tracemalloc.start()
        try:
            assert run(capsys, *argv)[0] == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    streamed = peak()
    monkeypatch.setattr(cli, "cmd_verify", whole_report_verify)
    whole = peak()
    assert streamed <= 0.4 * whole, (streamed, whole)


def test_the_plan_walk_follows_the_text_order_of_the_params():
    # strand indices 9..12 and m in -12..12 reach every case where the text
    # order differs from the numeric one: "i=1" < "i=10" < "i=9",
    # "m=-1" < "m=-10" < "m=-2" < "m=0" < "m=1" < "m=10" < "m=2"
    plans = [rewriting.Plan("a(%(0)s)", "a(%(1)s)", "i=%d,m=%%(0)s,twist=%d" % (i, t), "a", "exact", -12, 12)
             for i in (12, 9, 1, 10, 11) for t in (1, 0)]
    plans += [rewriting.Plan("c(%d)" % i, "c(%d)" % i, "c(%d)" % i, "a", "exact") for i in (12, 9, 10)]
    plans += [rewriting.Plan("%%(l)ss%d%%(r)s" % i, "%%(l)ss%d%%(r)s" % i, "g(%%(0)s,%d)" % i, "b",
                             "equal-after-normalization", lo, hi, rewriting._runs((1, 0), (-1, 0)))
              for i in (12, 9, 11, 10) for lo, hi in ((-12, -1), (0, 0), (1, 12))]
    cases = rewriting.Cases(plans, (-12, 12))
    walked = [plan.row(m) for plan, m in cases.walk()]
    params = [case["params"] for case in walked]
    plan_by_plan = [plan.row(m) for plan in plans for m in range(plan.lo, plan.hi + 1)]
    assert len(walked) == len(cases) == len(plan_by_plan) == 10 * 25 + 3 + 4 * 25
    assert list(cases) == walked == sorted(plan_by_plan, key=operator.itemgetter("params"))
    assert len(set(params)) == len(params)
    assert params[:4] == ["c(10)", "c(12)", "c(9)", "g(-1,10)"]
    assert params[4:7] == ["g(-1,11)", "g(-1,12)", "g(-1,9)"]
    assert params[103:109] == ["i=1,m=-1,twist=0", "i=1,m=-1,twist=1", "i=1,m=-10,twist=0",
                               "i=1,m=-10,twist=1", "i=1,m=-11,twist=0", "i=1,m=-11,twist=1"]


@pytest.mark.parametrize("group", [(), ("--group", "wb")], ids=["default", "wb"])
def test_verify_lemma_yields_the_report_rows_in_order(capsys, outdir, group):
    for n in range(3, 7):
        for lo, hi in ((-3, 3), (-12, 12)):
            code, out, _ = run(capsys, "verify", "--lemma", "ALL", *group, "--n", str(n),
                               "--m-range", "%d..%d" % (lo, hi), "--format", "json")
            assert code == 0
            for table in json.loads(out)["lemmas"]:
                cases = rewriting.verify_lemma(table["lemma"], table["group"], n, (lo, hi))["cases"]
                assert table["cases"] == list(cases) and len(cases) == len(table["cases"]), (table["lemma"], n, lo)


def test_verify_rows_escape_the_plans_that_need_it():
    # every text of a plan goes through the encoder once, so quotes,
    # control and non-ASCII characters are escaped; a % in a verdict stays
    plans = [
        rewriting.Plan('a(%(0)s) "q"', "a(%(1)s)", "\u00e9=1,m=%(0)s", "a", "exact", -2, 2),
        rewriting.Plan("a(%(0)s)", "a(%(2)s)^-1", "i=1,m=%(0)s", "c", "100% sure", -2, 2),
        rewriting.Plan("s1\tr1", "s1", "c(3)", "", "MISMATCH"),
    ]
    cases = rewriting.Cases(plans, (-2, 2))
    small = {"group": "vb", "lemma": "L\u00e9", "m_range": [-2, 2], "n": 3, "notes": ['a "note"', "\t"]}
    rows = sorted((plan.row(m) for plan in plans for m in range(plan.lo, plan.hi + 1)),
                  key=operator.itemgetter("params"))
    for newline in ("\n", "\n    "):
        parts = []
        cli._write_table({"cases": cases, **small}, newline, parts.append)
        whole = json.dumps({"cases": rows, **small}, indent=2, sort_keys=True)
        assert "".join(parts) == whole.replace("\n", newline)
    parts = []
    cli._write_table({"cases": rewriting.Cases([], (-2, 2)), **small}, "\n", parts.append)
    assert "".join(parts) == json.dumps({"cases": [], **small}, indent=2, sort_keys=True)
    assert rows[0]["verdict"] == "MISMATCH" and rows[1]["verdict"] == "100% sure"
    lines = list(cli._row_texts(cases, cli._text_line))
    assert lines == ["  %s  tier=%s  %s\n" % (row["params"], row["tier"] or "-", row["verdict"]) for row in rows]


def test_verify_peak_memory_does_not_follow_the_m_range(capsys):
    # rows are written straight from their plans, so a window ten times
    # wider leaves the peak nearly where it was; the printed text, which
    # grows with the window, goes to a file, not into memory
    def peak(m_range):
        argv = ["verify", "--lemma", "ALL", "--n", "5", "--m-range", m_range]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            main(argv)  # warm every cache
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    narrow, wide = peak("-4..4"), peak("-40..40")
    assert wide <= 1.2 * narrow, (narrow, wide)


def test_negative_range_values_parse(capsys):
    code, _, _ = run(capsys, "verify", "--lemma", "L7", "--m-range", "-2..2")
    assert code == 0
    code, out, _ = run(
        capsys, "abelianize", "--group", "vb", "--n", "4", "--window", "-3..3",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["window"] == [-3, 3]
    with pytest.raises(SystemExit) as exc:
        run(capsys, "abelianize", "--window", "pony")
    assert exc.value.code == 2


def test_abelianize_json(capsys):
    code, out, _ = run(
        capsys, "abelianize", "--group", "wb", "--n", "4", "--window", "-4..4",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["torsion"] == [3]
    assert obj["free_rank"] == 0
    # the dimensions of the whole relation matrix, not of what elimination leaves
    fp = instantiate(reduced_presentation("wb", 4), (-4, 4))
    matrix, gens = relation_matrix(fp)
    assert obj["matrix_dims"] == [len(matrix), len(gens)]
    code, out, _ = run(
        capsys, "abelianize", "--group", "wb", "--n", "4", "--window", "-4..4",
    )
    assert "torsion: [3]" in out


def test_abelianize_catalog_flags(capsys):
    code, _, err = run(
        capsys, "abelianize", "--group", "wb", "--n", "4", "--window", "-4..4",
        "--reduced", "--derived",
    )
    assert code == 2
    assert "mutually exclusive" in err
    code, out, _ = run(
        capsys, "abelianize", "--group", "wb", "--n", "4", "--window", "-4..4",
        "--derived", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["torsion"] == [3, 3]


def test_abelianize_rejects_narrow_window(capsys):
    # a window this narrow drops relator families: vb5 is perfect, yet the
    # truncation alone would report a free factor
    code, out, err = run(capsys, "abelianize", "--n", "5", "--window", "0..0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: window [0, 0] instantiates no ")


def test_tietze_transcript(capsys):
    code, out, _ = run(capsys, "tietze", "--script", "wbn_reduce", "--n", "5")
    assert code == 0
    assert out.endswith("generators (5): c(3) c(4) f(0,0) f(1,0) f(2,0)\n")
    code, out, _ = run(capsys, "tietze", "--script", "vb3_reduce")
    assert code == 0
    assert "generators: unbounded families remain: a(m)" in out
    assert "concrete generators: f(0,0) f(1,0) f(2,0)" in out
    assert out.endswith("matches the stated final presentation\n")


def test_tietze_emit_presentation(capsys):
    code, out, _ = run(
        capsys, "tietze", "--script", "vbn_reduce", "--n", "4",
        "--emit", "presentation",
    )
    assert code == 0
    assert "c(3)" in out
    assert "f(m,0) for m in {0,1,2}" in out
    assert "g(m,3) for m in {0}" in out
    code, win, _ = run(
        capsys, "tietze", "--script", "vbn_reduce", "--n", "4",
        "--emit", "presentation", "--window", "-1..1",
    )
    assert code == 0
    assert win != out
    code, _, err = run(capsys, "tietze", "--script", "nope")
    assert code == 2
    assert "error:" in err


def test_tietze_rejects_ignored_flags(capsys):
    code, out, err = run(capsys, "tietze", "--script", "vb3_reduce", "--window", "-1..1")
    assert code == 2
    assert out == ""
    assert err == "error: --window needs --emit presentation\n"
    code, out, err = run(
        capsys, "tietze", "--script", "vb3_reduce", "--emit", "presentation",
        "--format", "json",
    )
    assert code == 2
    assert out == ""
    assert err == "error: --emit presentation prints text only, not --format json\n"


def test_derive_compare(capsys):
    for group in ("vb", "wb"):
        code, out, _ = run(
            capsys, "derive", "--group", group, "--n", "4", "--compare-paper",
        )
        assert code == 0, group
        assert out.endswith("MATCH\n")
    code, out, _ = run(
        capsys, "derive", "--group", "vb", "--n", "5", "--compare-paper",
        "--window", "-2..2", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["match"] is True
    assert obj["extra"] == [] and obj["missing"] == []
    assert obj["derived_instances"] == obj["stated_instances"] > 0


def test_derive_plain(capsys):
    code, out, _ = run(capsys, "derive", "--group", "vb", "--n", "4")
    assert code == 0
    assert "b(m,1)" in out


def test_report(capsys, outdir):
    code, out, _ = run(capsys, "report", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert [r["claim"] for r in obj["rows"]] == [
        "Theorem 1.1",
        "Cor 1.2(1)",
        "Cor 1.2(2)",
        "Cor 1.2(3)",
        "Theorem 1.3(1)",
        "Theorem 1.3(2)",
        "Theorem 1.3(3)",
        "Theorem 1.3(4)",
    ]
    assert all(r["status"] == "pass" for r in obj["rows"])
    saved = json.loads((outdir / "report.json").read_text())
    assert saved == obj
    code, text, _ = run(capsys, "report")
    assert code == 0
    assert text.endswith("overall: pass\n")
    assert all(line.startswith("pass") for line in text.splitlines()[:-1])


def test_report_text_shows_evidence_of_failing_rows(capsys, monkeypatch):
    rows = [
        {"claim": "Theorem 1.1", "statement": "s", "status": "FAIL", "evidence": {"counts": {"4": 6}}},
        {"claim": "Cor 1.2(1)", "statement": "t", "status": "pass", "evidence": {"x": 1}},
    ]
    monkeypatch.setattr(cli, "build_report", lambda: {"rows": rows, "pass": False})
    code, out, _ = run(capsys, "report")
    assert code == 1
    assert out.splitlines() == [
        "FAIL Theorem 1.1      s",
        '     evidence: {"counts": {"4": 6}}',
        "pass Cor 1.2(1)       t",
        "overall: FAIL",
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_failed_report_write_keeps_the_old_report(capsys, monkeypatch, outdir, fmt):
    earlier = b'{"earlier": "run"}\n'
    (outdir / "report.json").write_bytes(earlier)
    rows = [{"claim": "Theorem 1.1", "statement": "s", "status": "pass", "evidence": {"x": 1}}]
    monkeypatch.setattr(cli, "build_report", lambda: {"rows": rows, "pass": True})

    def full_disk(path, mode="r", **kwargs):
        # a file that takes 40 characters and then reports a full disk
        fh = open(path, mode, **kwargs)
        if "w" in mode:
            room = [40]

            def write(text):
                fh.__class__.write(fh, text[: room[0]])
                room[0] -= min(room[0], len(text))
                if not room[0]:
                    raise OSError(errno.ENOSPC, "No space left on device")

            fh.write = write
        return fh

    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    with pytest.raises(OSError):
        main(["report", "--format", fmt])
    assert capsys.readouterr().out == ""
    assert [f.name for f in outdir.iterdir()] == ["report.json"]
    assert (outdir / "report.json").read_bytes() == earlier


def test_outputs_are_deterministic(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run(capsys, "verify", "--lemma", "ALL", "--n", "4", "--format", "json")
        runs.append(out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        _, out, _ = run(capsys, "tietze", "--script", "wb4_reduce", "--format", "json")
        runs.append(out)
    assert runs[0] == runs[1]


def written_json(obj) -> str:
    out = io.StringIO()
    cli._write_json(obj, out)
    return out.getvalue()


json_text = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600') | st.characters(), max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | json_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_text, inner, max_size=4)
    | st.dictionaries(json_text, json_text, max_size=4),
    max_leaves=12,
)


@settings(deadline=None)
@given(json_values)
def test_dump_json_matches_indented_json_dumps(obj):
    # the report writer streams with json.dump, json.dumps is the oracle
    assert written_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_dump_json_keys_and_errors_follow_json_dumps():
    for obj in ({1: 2, -3: [4]}, {2.5: {}, -1.0: "x"}, {None: 0}, {True: 1, False: [1]}, {"": {"": ""}}):
        assert written_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    # rows of strings at every depth; the equal keys 1, True and 1.0 are
    # spelled apart
    rows = [{"b": "", "a": "1"}, {"a": "\u00e9", "b": "\n"}, {"b": "x", "a": "y"}]
    for obj in (rows, {"rows": rows, "deeper": [rows]}, [{1: "a"}, {True: "a"}, {1.0: "a"}]):
        assert written_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    for bad in ({"a": {1, 2}}, [1, object()], {(1, 2): 3}, {"x": "y", "z": b"w"}, {1: 2, "1": 3},
                {1: "a", "1": "b"}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            written_json(bad)


# sha256 of the stdout of the statement checks, the catalog assembly and
# the ambient presentation; rewrites of those stages must keep them
STAGE_2_SNAPSHOTS = {
    "verify --lemma ALL --n 4 --format json": "413b97edff51f69a9125aa447c84f78526bdc5bedcca886b294ad3c1402128fe",
    "verify --lemma ALL --n 5 --format json": "9a0ea60102a7df0b0098b27d522ed601d52f2456757756edb52a272db3c1625d",
    "derive --group wb --n 5 --format json": "92dcb9bbcb8bfc2c859c18368af7869b4e13b86e2adc217ace3eb0dc39167b05",
    "present --group wb --n 5 --format json": "b8b07379c18211dc5dbf3ec609ae27ac4038289a2f3b4b907d70315a3d0d9875",
    "verify --lemma ALL --n 6 --m-range -12..12 --format json": "1983a0a2fcd94b662cbfa45901b1059f5d0676c78e591236539b9008a0a7aaef",
    "derive --group wb --n 8 --compare-paper --window -8..8 --format json": "96b2c9bd313219f89229e9ccc345bbd1bb1d579eb46e5601f8bb529f73c03e97",
    "derive --group vb --n 5 --compare-paper --window 0..0 --format json": "b9ff79145bc2d97110a84f6f88c9915a0de4bd0be7caa934a1b93ef25ded7d07",
}

# sha256 of the stdout of the Tietze scripts: every fixed-rank script,
# text transcripts of VB3, WB3, WB4 and WBN (the fixed-rank ones print
# their diff against the stated final list), the emitted WB3 final
# presentation, and the loop scripts at ranks well past their lowest
# (WBN at n=12 runs a large torsion cleanup)
STAGE_3_SNAPSHOTS = {
    "tietze --script VB3_REDUCE --format json": "1b032283dec5b9a37618802b8c6e5ef945456eb4b252f94916fe821dca609938",
    "tietze --script WB3_REDUCE --format json": "b82cff29c20633eb737a9724b1c033011dc4ab5248485645a74e80c18d70a5df",
    "tietze --script WB4_REDUCE --format json": "8c39276a49cd14bd86ab93b4a1765250416532e70bcc68d12266331bc05f91a8",
    "tietze --script WB4_REDUCE": "0839f5ce5c21bd5a33bf41e4c717fa344fa1583e315c3cb8c7164b88e2e4d25d",
    "tietze --script VBN_REDUCE --n 10 --format json": "3e5387ed64fbb14ea86c86504f519b000d86df4c59e6c8cbb3e89251dfa2208c",
    "tietze --script WBN_REDUCE --n 8 --format json": "bc73c9ac091933ab0412f8a29709bd4cb804f4a823946d759754712ef5ed3b77",
    "tietze --script WBN_REDUCE --n 8": "4165e7351ac61cf02a3645663918b6cb7dde0b932b76ae62d70fa0c9986d4170",
    "tietze --script WBN_REDUCE --n 12 --format json": "8075e05c49ff4fc30424866f5863f56d6c16c31e390efd5744e4885e7bc5c24e",
    "tietze --script VB3_REDUCE": "e604cb567ef7beff3da35041542ac9acf136b3413f91ab52247ef69c8654c786",
    "tietze --script WB3_REDUCE": "1320f78116062d30b5ebd7e999470efbdff3328d8f1d0e6ffe9f039ecdb945ae",
    "tietze --script WB3_REDUCE --emit presentation": "ca4137bd16e5c3efb12fb85579c75428d63869ceeedeffa550dad432d775b78f",
}


# sha256 of the stdout of the ambient presentations and the report
PRESENT_REPORT_SNAPSHOTS = {
    "present --group vb --n 2": "ae100c12df77e7dca010f6d38d63bcd209c44b546b31c281dab871a65de7f500",
    "present --group wb --n 3": "fc4ab566e46f5247baebc31830c7ba2cd501e5054fb005fb0d8d98864969b728",
    "present --group vb --n 8 --format json": "bdfc4b65ae46f97550199a320b27cac84061a7e1245d376330477a5149548670",
    "report --format json": "708253f2464b413d4aac1db9da464f9024ee04ffe83d852298aa2512b54420f0",
    "report": "58407cbeb9a5a3193d6f30615a4606a927784824087aaefbeb26bbf7e3ddb416",
}


# sha256 of the stdout of the windowed abelianization: the reduced
# catalogs at the ranks of the paper's quotients and at n=8 (wb n=8 is
# the 1379 x 123 matrix), the derived catalog at wb n=4 and n=8, and one
# text run
STAGE_4_SNAPSHOTS = {
    "abelianize --group vb --n 3 --window -8..8 --format json": "4171e9ba111f03e88aed746e822f207bec61a58abf961a41c5d88ce2ebff3e10",
    "abelianize --group vb --n 4 --window -8..8 --format json": "0085c394dac6eee9cc1cd5950cbf3cd92736a3ba003ee2467bf8a3e84e2878c6",
    "abelianize --group vb --n 5 --window -8..8 --format json": "d7b34cbfae9996bb820fa2e02f576a294785f682219578a6764daf78980c0fcc",
    "abelianize --group vb --n 8 --window -8..8 --format json": "504b3c70c7baa32d3b0d0a19329e028677025559583c9f86fa888ec9e1974c13",
    "abelianize --group wb --n 3 --window -8..8 --format json": "6eb4e25e705f367b2f4409a474c4dce4de7f900b6a6dfba10f101b882f0ce643",
    "abelianize --group wb --n 4 --window -8..8 --format json": "1c7156fd7ba551190922bdcd39e1e06868f7fdd2151c098029984d7907fc3887",
    "abelianize --group wb --n 5 --window -8..8 --format json": "26c467794ff8eb3c807497380586714e9003e24fc28adb99e03d30464f6b4b15",
    "abelianize --group wb --n 8 --window -8..8 --format json": "93388ec8da9de50251bf93340e07c408260abb6b2201e0c34b012958822cfa20",
    "abelianize --group wb --n 4 --window -8..8 --derived --format json": "4c626788f7f84b1317d6bc20aec014e1f073810e2d93434be0808d0027e16a5d",
    "abelianize --group wb --n 8 --window -8..8 --derived --format json": "c1fc0276601e226b5827deff399631cfaeefadd0bae78ea868b3e8cbd8dc0e56",
    "abelianize --group vb --n 3 --window -8..8": "ebb2aba104e26f64cf4d195fe87a4fb9d5a60ae7f5752f6efabc3c64c4334ca4",
}


def _output_snapshot_test(snapshots):
    @pytest.mark.parametrize("command", sorted(snapshots))
    def test(capsys, command):
        code, out, _ = run(capsys, *command.split())
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == snapshots[command], (
            "the output of `braidsub %s` changed; a deliberate change must be"
            " noted in CHANGES.md and its hash updated here" % command
        )

    return test


test_stage_2_output_snapshot = _output_snapshot_test(STAGE_2_SNAPSHOTS)
test_stage_3_output_snapshot = _output_snapshot_test(STAGE_3_SNAPSHOTS)
test_present_report_output_snapshot = _output_snapshot_test(PRESENT_REPORT_SNAPSHOTS)
test_stage_4_output_snapshot = _output_snapshot_test(STAGE_4_SNAPSHOTS)

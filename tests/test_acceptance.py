"""Acceptance gate: nine numbered checks, each with its own verdict line.

Every check recomputes its expected values from scratch inside this
file (letter-level word constructions, a minor-gcd oracle for the
Smith form) or pins frozen catalog values, then drives the library
end to end.  A criterion passes only with zero failures across its
whole sweep.
"""

import itertools
import math
import random
from collections import Counter
from contextlib import contextmanager

from braidsub.abelianize import (
    check_script_truncation,
    snf,
    stabilization_profile,
)
from braidsub.cli import _lemma_group
from braidsub.cosets import R1SQ, closed_form, expansion, schreier_generator
from braidsub.presets import (
    LEMMA_IDS,
    ambient_presentation,
    derived_presentation,
    instantiate,
    stated_final,
)
from braidsub.rewriting import (
    assemble,
    canon_key,
    expand_raw,
    rewrite_slots,
    verify_lemma,
)
from braidsub.tietze import diff_presentations, run_script
from braidsub.words import Symbol, TemplateWord, Word, rho, sigma


@contextmanager
def criterion(num, title):
    ok = False
    try:
        yield
        ok = True
    finally:
        print("criterion %d (%s): %s" % (num, title, "PASS" if ok else "FAIL"))


# ---------------------------------------------------------------------------
# 1. soundness of the raw rewriting on random kernel words
# ---------------------------------------------------------------------------


def _index_pair(letters):
    i, e = 0, 0
    for sym, exp in letters:
        if sym.family == "sigma":
            i += exp
        elif sym.family == "rho":
            e ^= 1
    return i, e


def _close_kernel(letters):
    i, e = _index_pair(letters)
    tail = [(rho(1), 1)] * e + [(sigma(1), -1 if i > 0 else 1)] * abs(i)
    return Word(letters + tail)


def test_criterion_1_rewrite_round_trip():
    with criterion(1, "raw rewrite expands back to its input"):
        rng = random.Random(93)
        for n in (3, 4, 5):
            pool = [sigma(k) for k in range(1, n)] + [rho(k) for k in range(1, n)]
            relators = [w for _, w in ambient_presentation("vb", n).relators]
            words = []
            while len(words) < 500:
                letters = [
                    (rng.choice(pool), rng.choice((-1, 1)))
                    for _ in range(rng.randint(0, 30))
                ]
                words.append(_close_kernel(letters))
            while len(words) < 1000:
                w = Word(())
                for _ in range(rng.randint(1, 2)):
                    r = rng.choice(relators)
                    if rng.random() < 0.5:
                        r = r.inverse()
                    u = Word(
                        [
                            (rng.choice(pool), rng.choice((-1, 1)))
                            for _ in range(rng.randint(0, 8))
                        ]
                    )
                    w = w * (u * r * u.inverse())
                words.append(w)
            assert len(words) == 1000
            for w in words:
                assert len(w) <= 80
                assert _index_pair(w) == (0, 0)
                assert expand_raw(rewrite_slots(w)) == w


# ---------------------------------------------------------------------------
# 2. the generator catalog against the literal classification table
# ---------------------------------------------------------------------------


def _expected_generator(coset, sym):
    i, e = coset
    k = sym.indices[0]
    if sym.family == "sigma":
        if k == 1:
            return Symbol("a", (i,)) if e else None
        if k == 2:
            return Symbol("b", (i, e))
        return Symbol("c", (k,))
    if k == 1:
        return Symbol(R1SQ, (i,)) if e else None
    if k == 2:
        return Symbol("f", (i, e))
    return Symbol("g", (i, k))


def _rep_letters(i, e):
    out = [(sigma(1), 1 if i > 0 else -1)] * abs(i)
    if e:
        out.append((rho(1), 1))
    return out


def _defining_word(coset, sym):
    i, e = coset
    head = _rep_letters(i, e) + [(sym, 1)]
    tail = [(s, -x) for s, x in reversed(_rep_letters(*_index_pair(head)))]
    return Word(head + tail)


def _positive_first_symmetric(w):
    out = []
    for sym, exp in w:
        if sym.family == "rho" and sym.indices[0] == 1 and exp == -1:
            exp = 1
        if (
            out
            and sym.family == "rho"
            and sym.indices[0] == 1
            and out[-1] == (sym, 1)
            and exp == 1
        ):
            out.pop()
            continue
        out.append((sym, exp))
    return Word(out)


def test_criterion_2_schreier_catalog():
    with criterion(2, "schreier catalog and closed forms"):
        for n in range(2, 7):
            letters = [sigma(k) for k in range(1, n)] + [rho(k) for k in range(1, n)]
            for i in range(-10, 11):
                for e in (0, 1):
                    for sym in letters:
                        got = schreier_generator((i, e), sym, internal=True)
                        assert got == _expected_generator((i, e), sym)
                        if got is None:
                            assert not _defining_word((i, e), sym)
                            continue
                        defining = _defining_word((i, e), sym)
                        assert expansion(got, at=(i, e)) == defining
                        # closed form: literal, or equal after the positive
                        # spelling of the first symmetric letter
                        cf = closed_form(got)
                        ex = expansion(got)
                        assert cf == ex or cf == _positive_first_symmetric(ex)
        report = verify_lemma("L3_1", "vb", 5, (-2, 2))
        assert all(case["verdict"] != "MISMATCH" for case in report["cases"])
        assert {case["tier"] for case in report["cases"]} <= {"a", "b"}


# ---------------------------------------------------------------------------
# 3. the full statement suite, case by case
# ---------------------------------------------------------------------------


def test_criterion_3_statement_suite():
    with criterion(3, "statement tables re-derived case by case"):
        tiers: Counter = Counter()
        noted = set()
        assert set(LEMMA_IDS) == {
            "L3_1", "L3", "L5", "L7", "L8", "L8_1", "L10", "L12", "CON", "L5_2",
        }
        for lemma in LEMMA_IDS:
            for n in (4, 5):
                report = verify_lemma(lemma, _lemma_group(lemma, None), n, (-2, 2))
                for case in report["cases"]:
                    assert case["verdict"] != "MISMATCH", (lemma, n, case)
                    assert case["tier"] in ("a", "b", "c"), (lemma, n, case)
                    tiers[case["tier"]] += 1
                if report["notes"]:
                    noted.add(lemma)
        assert tiers == Counter({"a": 440, "b": 55, "c": 10})
        assert noted == {"L7", "L8", "L10", "L5_2"}


# ---------------------------------------------------------------------------
# 4. mechanical assembly against the stated catalog
# ---------------------------------------------------------------------------


def test_criterion_4_assembly_matches_catalog():
    with criterion(4, "assembled catalog equals the stated one"):
        for n in (4, 5):
            assembled = assemble("vb", n)
            stated = derived_presentation("vb", n)
            mine = {
                canon_key(w): label
                for label, w in instantiate(assembled, (-2, 2)).relators
            }
            theirs = {
                canon_key(w): label
                for label, w in instantiate(stated, (-2, 2)).relators
            }
            extra = [mine[k] for k in mine.keys() - theirs.keys()]
            missing = [theirs[k] for k in theirs.keys() - mine.keys()]
            assert extra == [], (n, sorted(extra))
            assert missing == [], (n, sorted(missing))


# ---------------------------------------------------------------------------
# 5. generator counts after the scripted reductions
# ---------------------------------------------------------------------------


def test_criterion_5_generator_counts():
    with criterion(5, "generator counts after reduction"):
        assert run_script("VBN_REDUCE", 4).summary.count == 5
        for n in (5, 6, 7):
            assert run_script("VBN_REDUCE", n).summary.count == 2 * n - 3
        for n in (5, 6):
            res = run_script("WBN_REDUCE", n)
            assert res.summary.finite and res.summary.count == n
        wb3 = run_script("WB3_REDUCE")
        assert wb3.summary.names == ("a(0)", "f(0,0)", "f(1,0)", "f(2,0)")


# ---------------------------------------------------------------------------
# 6. the rank-three virtual chain lands on the three stated families
# ---------------------------------------------------------------------------


def test_criterion_6_vb3_final_families():
    with criterion(6, "rank-three chain reaches the stated families"):
        res = run_script("VB3_REDUCE")
        target = stated_final("vb", 3)
        assert len(res.final.relators) == 3
        assert diff_presentations(res.final, target)["agree"]
        for window in ((-2, 2), (-3, 3), (-5, 5)):
            mine = {canon_key(w) for _, w in instantiate(res.final, window).relators}
            theirs = {canon_key(w) for _, w in instantiate(target, window).relators}
            assert mine == theirs, window
        # killing f leaves every relator freely trivial: free on a
        assert not any(inst.template.substitute_family("f", (0,), TemplateWord(())) for inst in res.final.relators)


# ---------------------------------------------------------------------------
# 7. window profiles of the reduced presentations
# ---------------------------------------------------------------------------


def test_criterion_7_stabilization_profiles():
    with criterion(7, "window profiles stabilize as stated"):
        prof = stabilization_profile("vb", 3)
        assert prof["stable"] and prof["torsion"] == [3, 3, 3]
        assert [r["free_rank"] for r in prof["rows"]] == [7, 9, 11]
        assert prof["free_rank_delta"] == 2
        wb3 = stabilization_profile("wb", 3)
        assert wb3["stable"] and wb3["torsion"] == [3, 3, 3]
        assert wb3["rows"][0]["free_rank"] == 1 and wb3["free_rank_delta"] == 0
        for group, n, torsion in (
            ("vb", 4, [3, 3, 3]),
            ("wb", 4, [3]),
            ("vb", 5, []),
            ("vb", 6, []),
            ("wb", 5, []),
        ):
            prof = stabilization_profile(group, n)
            assert prof["stable"], (group, n)
            assert prof["torsion"] == torsion, (group, n)
            assert prof["free_rank_delta"] == 0, (group, n)


# ---------------------------------------------------------------------------
# 8. Smith form certificates against a minor-gcd oracle
# ---------------------------------------------------------------------------


def _det(mat):
    n = len(mat)
    if n == 0:
        return 1
    a = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _minor_gcd_factors(mat):
    rows, cols = len(mat), len(mat[0]) if mat else 0
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                sub = [[mat[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, _det(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def test_criterion_8_smith_form_certificates():
    with criterion(8, "smith form certified on random matrices"):
        rng = random.Random(60902)
        for _ in range(500):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            diag, u, v = snf(mat)
            assert abs(_det(u)) == 1
            assert abs(_det(v)) == 1
            um = [
                [sum(u[i][k] * mat[k][j] for k in range(rows)) for j in range(cols)]
                for i in range(rows)
            ]
            umv = [
                [sum(um[i][k] * v[k][j] for k in range(cols)) for j in range(cols)]
                for i in range(rows)
            ]
            for i in range(rows):
                for j in range(cols):
                    want = diag[i] if i == j and i < len(diag) else 0
                    assert umv[i][j] == want
            nonzero = [d for d in diag if d]
            assert all(d > 0 for d in nonzero)
            for x, y in zip(nonzero, nonzero[1:]):
                assert y % x == 0
            assert nonzero == _minor_gcd_factors(mat)


# ---------------------------------------------------------------------------
# 9. truncated invariants across every scripted step
# ---------------------------------------------------------------------------


def test_criterion_9_step_invariants_agree():
    with criterion(9, "step-by-step truncated invariants agree"):
        for name in ("VB3_REDUCE", "WB4_REDUCE"):
            res = run_script(name)
            out = check_script_truncation(res)
            assert out["agree"], name
            covered = {s["step"] for s in out["steps"]}
            eliminations = [
                i for i, (rec, _) in enumerate(res.steps) if rec["op"] == "eliminate"
            ]
            assert eliminations and set(eliminations) <= covered
            for step in out["steps"]:
                assert step["before"] == step["after"], (name, step)

"""Tietze moves: solved forms, eliminations, seeds, scripted chains.

solve_for gets its contract checked directly (the relator is freely
equal, up to rotation, to target times the inverse of the solved form);
the certified word-level rewrites must refuse to run without their
witness relators; the five scripted chains must land on the reference
presentations and generator counts.
"""

import dataclasses

import pytest

from braidsub import tietze
from braidsub.errors import BadRank, CyclicSubstitution, NotSolvable, ParametricInput, ScriptPreconditionFailed
from braidsub.presets import (
    FamilyInstance,
    GeneratorFamily,
    Presentation,
    derived_presentation,
    generator_count,
    stated_final,
)
from braidsub.rewriting import template_canon_key
from braidsub.tietze import (
    SCRIPTS,
    diff_presentations,
    drop_relator,
    eliminate,
    eliminate_family,
    flip_g_letter,
    observe_unbounded,
    reduce_family_to_seeds,
    rotate_relator,
    run_script,
    solve_for,
    torsion_cleanup,
    torsion_reduce_relator,
)
from braidsub.words import TemplateWord, parse_template, print_template


def test_solve_for_frozen():
    t = parse_template("f(m,0) f(m,1)")
    assert print_template(solve_for(t, "f", (1,))) == "f(m,0)^-1"
    t = parse_template("f(m,0)^-1 f(m+1,0) b(m,0)^-1")
    assert print_template(solve_for(t, "b", (0,))) == "f(m,0)^-1 f(m+1,0)"
    t = parse_template("f(m,0) a(m) f(m+1,0)^-1 b(m,1)^-1")
    assert print_template(solve_for(t, "b", (1,))) == "f(m,0) a(m) f(m+1,0)^-1"
    t = parse_template("g(m+1,3) a(m)^-1 g(m,3)")
    assert print_template(solve_for(t, "a")) == "g(m,3) g(m+1,3)"


def test_solve_for_contract():
    # relator conjugate, as a cyclic word, to target * solved^-1
    cases = [
        ("f(m,0) a(m) f(m+1,0)^-1 b(m,1)^-1", "b", (1,)),
        ("f(m,0)^-1 f(m+1,0) b(m,0)^-1", "b", (0,)),
        ("g(m+1,3) a(m)^-1 g(m,3)", "a", ()),
        ("b(m,1) a(m+1) f(m+2,0)^-1 b(m,0)^-1", "a", ()),
    ]
    for text, family, fixed in cases:
        t = parse_template(text)
        w = solve_for(t, family, fixed)
        assert not any(fam == family and tuple(v for _, v in exprs[1:]) == fixed
                       for fam, exprs, _ in w.letters)
    t = parse_template("f(m,0) a(m) f(m+1,0)^-1 b(m,1)^-1")
    w = solve_for(t, "b", (1,))
    target = TemplateWord((("b", (("m", 0), ("", 1)), 1),))
    assert template_canon_key(target * w.inverse()) == template_canon_key(t)


def test_solve_for_rejects_multiple_occurrences():
    with pytest.raises(NotSolvable):
        solve_for(parse_template("f(m,0) f(m,0) f(m,0)"), "f", (0,))
    with pytest.raises(NotSolvable):
        solve_for(parse_template("f(m,0) a(m)"), "b", (0,))


def test_solve_for_a_letter_without_a_window_slot_or_with_a_constant_window_index():
    # a c letter has no window slot: it solves at offset 0
    t = parse_template("c(3) f(m,0) c(3)^-1 f(m,0)^-1 c(4)")
    solved, off = t.solve("c", (4,))
    assert (print_template(solved), off) == ("f(m,0) c(3) f(m,0)^-1 c(3)^-1", 0)
    assert solve_for(t, "c", (4,)) == solved
    target = parse_template("c(4)")
    assert template_canon_key(target * solved.inverse()) == template_canon_key(t)
    # a windowed letter pinned to a constant index has no window offset
    for text in ("f(2,0) a(m)", "a(m) f(2,0)^-1"):
        with pytest.raises(NotSolvable, match=r"^f\(2,0\) has a constant window index$"):
            solve_for(parse_template(text), "f", (0,))


def test_eliminate_family_basics():
    p = derived_presentation("vb", 3)
    p1, rec = eliminate_family(p, "b", (1,), "f-a-step-b1")
    assert rec["op"] == "eliminate"
    assert print_template(rec["replacement"]) == "f(m,0) a(m) f(m+1,0)^-1"
    assert all(not (g.family == "b" and g.fixed == (1,)) for g in p1.generators)
    for inst in p1.relators:
        for fam, exprs, _ in inst.template.letters:
            assert not (fam == "b" and exprs[1] == ("", 1))
    assert any(
        fam == "b"
        for inst in p1.relators
        for fam, _, _ in inst.template.letters
    )
    assert eliminate is eliminate_family
    # the defining relator is gone
    assert all(inst.label != "f-a-step-b1" for inst in p1.relators)
    # a second elimination has nothing left to solve for
    with pytest.raises(NotSolvable):
        eliminate_family(p1, "b", (1,), "f-step-b0")
    with pytest.raises(ScriptPreconditionFailed):
        eliminate_family(p1, "b", (0,), "no-such-label")



def _substitute_family_full_scan(self, family, fixed, replacement):
    """TemplateWord.substitute_family as a full scan: every template is
    rebuilt, and the replacement inverted, whether the family occurs in
    it or not."""
    want = tuple(("", v) for v in fixed)
    for fam, exprs, _ in replacement.letters:
        if fam == family and exprs[1:] == want:
            raise CyclicSubstitution("replacement mentions %s%s itself" % (family, fixed))
    rep_inv = replacement.inverse()
    out = []
    for fam, exprs, exp in self.letters:
        if fam == family and exprs[1:] == want:
            var, off = exprs[0]
            chosen = replacement if exp == 1 else rep_inv
            if var == "m":
                rep = chosen.shift(off)
            elif var == "":
                rep = chosen.bind(m=off)
            else:
                raise ParametricInput("cannot align a substitution to index %s" % (exprs[0],))
            out.extend(rep.letters)
        else:
            out.append((fam, exprs, exp))
    return TemplateWord(out)


def test_eliminate_family_matches_the_full_scan(monkeypatch):
    # substitute_family hands back a template without the family unchanged
    t = parse_template("a(m) f(m+1,0)^-1 c(3)")
    assert t.substitute_family("b", (1,), parse_template("f(m,0) a(m)")) is t
    runs = [(name, n) for name, (_, low, only, _) in SCRIPTS.items() for n in ((low,) if only else (low, 8))]
    fast = [run_script(name, n) for name, n in runs]
    monkeypatch.setattr(TemplateWord, "substitute_family", _substitute_family_full_scan)
    for (name, n), res in zip(runs, fast):
        slow = run_script(name, n)
        assert res.steps == slow.steps, (name, n)
        assert res.final == slow.final, (name, n)


def test_eliminate_produces_reference_templates():
    p = derived_presentation("vb", 3)
    p, _ = eliminate_family(p, "b", (1,), "f-a-step-b1")
    p, _ = eliminate_family(p, "b", (0,), "f-step-b0")
    texts = {inst.label: print_template(inst.template) for inst in p.relators}
    assert texts["b0-recurrence"] == (
        "f(m+1,0)^-1 f(m+2,0) f(m+3,0)^-1 f(m+2,0) f(m+1,0)^-1 f(m,0)"
    )
    assert texts["b1-recurrence"] == (
        "a(m) f(m+1,0) a(m+1) f(m+2,0)^-1 a(m+2) f(m+3,0) a(m+2)^-1"
        " f(m+2,0)^-1 a(m+1)^-1 f(m+1,0) a(m)^-1 f(m,0)^-1"
    )
    assert texts["f-cube"] == "f(m,0) f(m,0) f(m,0)"
    assert set(texts) == {"b0-recurrence", "b1-recurrence", "f-cube"}


def test_an_eliminate_record_names_its_block_as_printed():
    gens = (GeneratorFamily("c", (3,)), GeneratorFamily("c", (4,)), GeneratorFamily("b", (1,)))
    pair = FamilyInstance("pair", parse_template("c(4) c(3)^-1"))
    p = Presentation("wb", 5, gens, (pair, FamilyInstance("def", parse_template("b(m,1) c(3)"))))
    assert eliminate_family(p, "c", (4,), "pair")[1]["text"] == "eliminate c(4) via pair: c(3)"
    assert eliminate_family(p, "b", (1,), "def")[1]["text"] == "eliminate b(m,1) via def: c(3)^-1"


def test_eliminate_absent_generator_is_a_pure_deletion():
    p = Presentation(
        "vb",
        3,
        (GeneratorFamily("a"), GeneratorFamily("f", (0,))),
        (
            FamilyInstance("def", parse_template("a(m) f(m,0)^-1 f(m+1,0)")),
            FamilyInstance("keep", parse_template("f(m,0) f(m,0) f(m,0)")),
        ),
    )
    p1, _ = eliminate_family(p, "a", (), "def")
    assert [g.family for g in p1.generators] == ["f"]
    assert [inst.label for inst in p1.relators] == ["keep"]
    assert print_template(p1.relators[0].template) == "f(m,0) f(m,0) f(m,0)"


def test_eliminate_rejects_self_referential_solutions():
    p = Presentation(
        "vb",
        3,
        (GeneratorFamily("a"),),
        (FamilyInstance("bad", parse_template("a(m) a(m+1)^-1 a(m+2)")),),
    )
    with pytest.raises(NotSolvable):
        eliminate_family(p, "a", (), "bad")


def test_seeds_and_preconditions():
    # a recurrence resting on an unreduced family is refused
    leaning = Presentation(
        "vb",
        3,
        (GeneratorFamily("a"), GeneratorFamily("f", (0,))),
        (FamilyInstance("r", parse_template("f(m,0) a(m) f(m+1,0)^-1")),),
    )
    with pytest.raises(ScriptPreconditionFailed):
        reduce_family_to_seeds(leaning, "f", (0,), "r")
    # a c letter names its block by its strand index
    conj = Presentation(
        "wb",
        5,
        (GeneratorFamily("c", (3,)), GeneratorFamily("f", (0,))),
        (
            FamilyInstance("r", parse_template("c(3) f(m,0) c(3)^-1 f(m+1,0)^-1")),
            FamilyInstance("stray", parse_template("c(4) f(m,0) c(4)^-1 f(m+1,0)^-1")),
        ),
    )
    _, rec = reduce_family_to_seeds(conj, "f", (0,), "r")
    assert rec["seeds"] == [0]
    with pytest.raises(ScriptPreconditionFailed, match="^recurrence mentions an unknown family c$"):
        reduce_family_to_seeds(conj, "f", (0,), "stray")
    # a block without a window slot has no seeds
    with pytest.raises(ScriptPreconditionFailed, match="not in the window variable"):
        reduce_family_to_seeds(conj, "c", (3,), "r")
    p = derived_presentation("vb", 3)
    # before the b eliminations the recurrence does not mention f at all
    with pytest.raises(NotSolvable):
        reduce_family_to_seeds(p, "f", (0,), "b0-recurrence")
    p, _ = eliminate_family(p, "b", (1,), "f-a-step-b1")
    p, _ = eliminate_family(p, "b", (0,), "f-step-b0")
    p1, rec = reduce_family_to_seeds(p, "f", (0,), "b0-recurrence")
    assert rec["seeds"] == [0, 1, 2]
    fgen = [g for g in p1.generators if g.family == "f"][0]
    assert fgen.basis == (0, 1, 2)
    # the a recurrence has its extreme offsets doubled, so it pins nothing
    p2, rec = observe_unbounded(p1, "a", (), "b1-recurrence")
    assert p2 == p1
    assert "unbounded" in rec["text"]
    with pytest.raises(ScriptPreconditionFailed):
        observe_unbounded(p1, "f", (0,), "b0-recurrence")


def test_drop_relator():
    p = derived_presentation("wb", 3)
    p1, rec = drop_relator(p, "welded-a-f-inverse", "duplicate")
    assert rec["kept"] == "welded-a-f"
    assert all(inst.label != "welded-a-f-inverse" for inst in p1.relators)
    with pytest.raises(ScriptPreconditionFailed):
        drop_relator(p1, "welded-a-f", "duplicate")
    with pytest.raises(ScriptPreconditionFailed):
        drop_relator(p1, "f-cube", "trivial")
    with pytest.raises(ScriptPreconditionFailed):
        drop_relator(p1, "f-cube", "because")


def test_drop_relator_names_the_first_duplicate():
    gens = (GeneratorFamily("a"), GeneratorFamily("f", (0,)))
    rels = (
        ("first", "f(m,0) a(m)"),
        ("other", "a(m) a(m)"),
        ("middle", "a(m+1)^-1 f(m+1,0)^-1"),
        ("last", "a(m) f(m,0)"),
    )
    p = Presentation("vb", 3, gens, tuple(FamilyInstance(l, parse_template(t)) for l, t in rels))
    p1, rec = drop_relator(p, "middle", "duplicate")
    assert rec == {"op": "drop", "label": "middle", "kept": "first", "text": "drop middle (duplicate of first)"}
    assert [inst.label for inst in p1.relators] == ["first", "other", "last"]
    assert drop_relator(p, "last", "duplicate")[1]["kept"] == "first"
    assert drop_relator(p, "first", "duplicate")[1]["kept"] == "middle"


def test_rotate_relator():
    p = Presentation(
        "vb",
        3,
        (GeneratorFamily("a"), GeneratorFamily("f", (0,))),
        (FamilyInstance("r", parse_template("a(m) f(m,0)^-1 f(m+1,0)")),),
    )
    p1, _ = rotate_relator(p, "r", 1)
    assert print_template(p1.relators[0].template) == "f(m,0)^-1 f(m+1,0) a(m)"
    p2, _ = rotate_relator(p1, "r", 2)
    assert print_template(p2.relators[0].template) == "a(m) f(m,0)^-1 f(m+1,0)"


def test_torsion_merge_needs_witnesses():
    gens = (GeneratorFamily("a"), GeneratorFamily("f", (0,)))
    with_cube = Presentation(
        "vb",
        3,
        gens,
        (
            FamilyInstance("cube", parse_template("f(m,0) f(m,0) f(m,0)")),
            FamilyInstance("r", parse_template("f(m,0) f(m,0) a(m)")),
        ),
    )
    p1, rec = torsion_reduce_relator(with_cube, "r")
    texts = {inst.label: print_template(inst.template) for inst in p1.relators}
    assert texts["r"] == "f(m,0)^-1 a(m)"
    assert texts["cube"] == "f(m,0) f(m,0) f(m,0)"
    without_cube = Presentation(
        "vb",
        3,
        gens,
        (FamilyInstance("r", parse_template("f(m,0) f(m,0) a(m)")),),
    )
    with pytest.raises(ScriptPreconditionFailed):
        torsion_reduce_relator(without_cube, "r")
    # a merge that changes nothing needs no witness
    untouched = Presentation(
        "vb", 3, gens, (FamilyInstance("r", parse_template("f(m,0) a(m)")),)
    )
    p2, rec = torsion_reduce_relator(untouched, "r")
    assert p2 == untouched
    assert "no change" in rec["text"]


def test_torsion_cleanup_keeps_witnesses():
    gens = (
        GeneratorFamily("a"),
        GeneratorFamily("f", (0,)),
        GeneratorFamily("g", (3,)),
    )
    p = Presentation(
        "vb",
        4,
        gens,
        (
            FamilyInstance("cube", parse_template("f(m,0) f(m,0) f(m,0)")),
            FamilyInstance("square", parse_template("g(m,3) g(m,3)")),
            FamilyInstance("r", parse_template("f(m,0) f(m,0) f(m,0) g(m,3)")),
            FamilyInstance("s", parse_template("f(m,0) a(m)")),
            FamilyInstance("s-inverse", parse_template("a(m)^-1 f(m,0)^-1")),
        ),
    )
    p1, rec = torsion_cleanup(p)
    labels = [inst.label for inst in p1.relators]
    assert "cube" in labels
    assert "square" in labels
    assert "s" in labels
    assert "s-inverse" not in labels  # duplicate of s modulo inversion
    texts = {inst.label: print_template(inst.template) for inst in p1.relators}
    assert texts["r"] == "g(m,3)"
    assert "1 families dropped" in rec["text"]
    assert [sub["label"] for sub in rec["sub"] if sub["op"] == "drop"] == ["s-inverse"]
    # the duplicate names the relator it repeats, as drop_relator would
    (drop,) = [sub for sub in rec["sub"] if sub["op"] == "drop"]
    assert drop == {"op": "drop", "label": "s-inverse", "kept": "s", "text": "drop s-inverse (duplicate of s)"}


def _torsion_cleanup_per_relator(p):
    """torsion_cleanup relator by relator: torsion_reduce_relator on each
    relator but the witnesses, each licence check scanning the presentation
    as it stands, then one _drop per trivial or duplicate relator."""
    witness_keys = {template_canon_key(tietze._F_CUBE)} | {
        template_canon_key(tietze._g_square(gen.fixed[0], 0)) for gen in p.generators if gen.family == "g"
    }
    records = []
    for inst in list(p.relators):
        if template_canon_key(inst.template) in witness_keys:
            continue
        p, rec = torsion_reduce_relator(p, inst.label)
        records.append(rec)
    drops = []
    seen = {}
    for inst in p.relators:
        if not inst.template:
            drops.append((inst.label, "trivial", None))
            continue
        key = template_canon_key(inst.template)
        if key in seen:
            drops.append((inst.label, "duplicate", seen[key]))
        else:
            seen[key] = inst.label
    for label, reason, kept in drops:
        p, rec = tietze._drop(p, label, reason, kept)
        records.append(rec)
    text = "torsion cleanup: %d families dropped" % len(drops)
    return p, {"op": "row", "label": None, "text": text, "sub": records}


def _before_cleanup(name, n=None):
    res = run_script(name, n)
    (idx,) = [i for i, (rec, _) in enumerate(res.steps) if rec["text"].startswith("torsion cleanup")]
    return res.steps[idx - 1][1], res.steps[idx]


def test_torsion_cleanup_matches_the_per_relator_route():
    texts = []
    for name, n in [("WB4_REDUCE", None)] + [("WBN_REDUCE", n) for n in range(5, 11)]:
        p, (record, after) = _before_cleanup(name, n)
        slow = _torsion_cleanup_per_relator(p)
        assert torsion_cleanup(p) == slow == (after, record), (name, n)
        texts += [sub["text"] for sub in record["sub"]]
    # the ranks exercise real merges and duplicate drops; the licence test
    # below drops a trivial relator
    assert any(t.startswith("torsion merge") and not t.endswith("no change") for t in texts)
    assert any("(duplicate of " in t for t in texts)


def _raised(fn, p):
    with pytest.raises(ScriptPreconditionFailed) as info:
        fn(p)
    return str(info.value)


def test_torsion_cleanup_without_f_cube_fails_as_the_per_relator_route():
    p, _ = _before_cleanup("WB4_REDUCE")
    rels = tuple(inst for inst in p.relators if inst.template != tietze._F_CUBE)
    assert len(rels) == len(p.relators) - 1
    p = dataclasses.replace(p, relators=rels)
    message = _raised(_torsion_cleanup_per_relator, p)
    assert message == "presentation has no relator family matching f(m,0) f(m,0) f(m,0)"
    assert _raised(torsion_cleanup, p) == message


def _relators(p, *texts):
    rels = tuple(FamilyInstance("r%d" % i, parse_template(t)) for i, t in enumerate(texts))
    return dataclasses.replace(p, relators=rels)


def test_torsion_cleanup_licences_follow_earlier_merges(monkeypatch):
    routes = (torsion_cleanup, _torsion_cleanup_per_relator)
    p = Presentation("wb", 4, (GeneratorFamily("a"), GeneratorFamily("f", (0,))), ())
    # a g square outside the generator blocks is no witness: it merges
    # away, and a later merge it licensed before then fails
    square, needs = "g(m,5) g(m,5)", "g(m,5) g(m,5) g(m,5) a(m)"
    for route in routes:
        assert _raised(route, _relators(p, square, needs)) == (
            "presentation has no relator family matching g(m,5) g(m,5)")
    licensed = [route(_relators(p, needs, square)) for route in routes]
    assert licensed[0] == licensed[1]
    assert [print_template(i.template) for i in licensed[0][0].relators] == ["g(m,5) a(m)"]
    assert licensed[0][1]["sub"][-1]["text"] == "drop r1 (trivial)"
    # torsion_merge never makes a witness, so a stand-in merge turns one
    # relator into the f cube; it then licenses a later f merge
    real = tietze.torsion_merge
    cube = tietze._F_CUBE.letters
    monkeypatch.setattr(
        tietze, "torsion_merge", lambda letters: cube if letters == parse_template("a(m) a(m)").letters else real(letters)
    )
    for route in routes:
        assert _raised(route, _relators(p, "f(m,0) f(m,0) a(m)", "a(m) a(m)")) == (
            "presentation has no relator family matching f(m,0) f(m,0) f(m,0)")
    merged = [route(_relators(p, "a(m) a(m)", "f(m,0) f(m,0) a(m)")) for route in routes]
    assert merged[0] == merged[1]
    assert [print_template(i.template) for i in merged[0][0].relators] == ["f(m,0) f(m,0) f(m,0)", "f(m,0)^-1 a(m)"]


def test_flip_g_letter_precondition():
    p = Presentation(
        "vb",
        4,
        (GeneratorFamily("f", (0,)), GeneratorFamily("g", (3,))),
        (
            FamilyInstance("square", parse_template("g(m,3) g(m,3)")),
            FamilyInstance("r", parse_template("f(m,0) g(m,3)")),
        ),
    )
    with pytest.raises(ScriptPreconditionFailed, match="^r has no inverse g letter$"):
        flip_g_letter(p, "r")
    p2 = Presentation(
        "vb",
        4,
        p.generators,
        (
            FamilyInstance("square", parse_template("g(m,3) g(m,3)")),
            FamilyInstance("r", parse_template("f(m,0) g(m,3)^-1")),
        ),
    )
    p3, rec = flip_g_letter(p2, "r")
    texts = {inst.label: print_template(inst.template) for inst in p3.relators}
    assert texts["r"] == "f(m,0) g(m,3)"
    assert "square" in rec["text"]


def test_script_vb3():
    res = run_script("VB3_REDUCE")
    assert res.name == "VB3_REDUCE"
    assert res.diff is not None and res.diff["agree"]
    assert diff_presentations(res.final, stated_final("vb", 3))["agree"]
    assert not res.summary.finite
    assert res.summary.unbounded == ("a(m)",)
    assert res.summary.names == ("f(0,0)", "f(1,0)", "f(2,0)")


def test_script_vbn_counts():
    for n, count in ((4, 5), (5, 7), (6, 9), (7, 11)):
        res = run_script("VBN_REDUCE", n)
        assert res.summary.finite
        assert res.summary.count == count
    res = run_script("VBN_REDUCE", 4)
    assert res.summary.names == ("c(3)", "f(0,0)", "f(1,0)", "f(2,0)", "g(0,3)")
    with pytest.raises(BadRank):
        run_script("VBN_REDUCE", 3)


def test_script_wb3():
    res = run_script("WB3_REDUCE")
    assert res.diff is not None and res.diff["agree"]
    assert diff_presentations(res.final, stated_final("wb", 3))["agree"]
    assert res.summary.finite
    assert res.summary.count == 4
    assert res.summary.names == ("a(0)", "f(0,0)", "f(1,0)", "f(2,0)")


def test_script_wb4():
    res = run_script("WB4_REDUCE")
    assert res.summary.finite
    assert res.summary.count == 4
    assert res.summary.names == ("c(3)", "f(0,0)", "f(1,0)", "f(2,0)")
    # the derived chain lands near the stated list but not on it; the
    # differences are reported, not reconciled
    assert res.diff is not None and not res.diff["agree"]
    assert len(res.diff["extra"]) == 7
    assert len(res.diff["missing"]) == 6


def test_script_wbn_counts():
    for n in (5, 6):
        res = run_script("WBN_REDUCE", n)
        assert res.summary.finite
        assert res.summary.count == n
    res = run_script("WBN_REDUCE", 5)
    assert res.summary.names == ("c(3)", "c(4)", "f(0,0)", "f(1,0)", "f(2,0)")


def _texts(name, n):
    return [rec["text"] for rec, _ in run_script(name, n).steps]


def test_vbn_rank_ladder_appends_one_seeds_step():
    # the transcript at rank n+1 is the rank-n one plus the seeds step for
    # the new g family, through the braid relation one strand down
    prev = _texts("VBN_REDUCE", 4)
    for n in range(4, 10):
        texts = _texts("VBN_REDUCE", n + 1)
        assert texts[:-1] == prev
        assert texts[-1] == (
            "family g(%d,) is generated by seeds m in [0] (via g-g-c-braid[i=%d])" % (n, n - 1)
        )
        prev = texts


def test_wbn_rank_ladder_inserts_one_elimination():
    # the transcript at rank n+1 is the rank-n one plus the elimination of
    # the new g family before the cleanup, which drops one more family
    prev = _texts("WBN_REDUCE", 5)
    assert prev[-2] == "torsion cleanup: 1 families dropped"
    for n in range(5, 10):
        texts = _texts("WBN_REDUCE", n + 1)
        assert texts[:-3] == prev[:-2]
        assert texts[-3].startswith("eliminate g(m,%d) via welded-c-shift[i=%d]: " % (n, n - 1))
        assert texts[-2] == "torsion cleanup: %d families dropped" % (n + 1 - 4)
        assert texts[-1] == prev[-1]
        prev = texts


@pytest.mark.parametrize("n", [5, 8, 16])
def test_wbn_replacement_words_obey_the_loop_step(n):
    # the replacement R_l of g(m,l) satisfies R_{l+1} = c(l)^-1 c(l+1)^-1
    # R_l(m-2)^-1 c(l+1) c(l), of length 4l - 1, from the first strand on
    res = run_script("WBN_REDUCE", n)
    solved = {rec["fixed"][0]: rec["replacement"] for rec, _ in res.steps
              if rec["op"] == "eliminate" and rec["family"] == "g"}
    assert sorted(solved) == list(range(3, n))
    assert len(solved[3]) == 4 * 2 - 1
    for l in range(3, n - 1):
        step = parse_template("c(%d)^-1 c(%d)^-1" % (l, l + 1))
        assert solved[l + 1] == step * solved[l].shift(-2).inverse() * step.inverse(), l
        assert len(solved[l + 1]) == 4 * l - 1


STEP_OPS = (
    "eliminate_family",
    "reduce_family_to_seeds",
    "observe_unbounded",
    "drop_relator",
    "rotate_relator",
    "flip_g_letter",
    "braid_flip",
    "rewrite_letter",
    "torsion_reduce_relator",
    "torsion_cleanup",
)


def test_scripts_look_up_their_ops_when_they_run(monkeypatch):
    # a tracer wraps the ops by rebinding the module's names, so a step
    # list built at import would bypass it and every step would go unseen
    seen = set()

    def wrap(fn):
        def wrapper(*args, **kwargs):
            p, rec = fn(*args, **kwargs)
            seen.add(id(rec))
            return p, rec

        return wrapper

    for op in STEP_OPS:
        monkeypatch.setattr(tietze, op, wrap(getattr(tietze, op)))
    for name, (_, low, only, _) in SCRIPTS.items():
        for n in (low,) if only else (low, low + 1):
            seen.clear()
            res = run_script(name, n)
            assert all(id(rec) in seen for rec, _ in res.steps), (name, n)


def test_scripts_are_deterministic():
    a = run_script("WB4_REDUCE")
    b = run_script("WB4_REDUCE")
    assert a.steps == b.steps
    assert a.final == b.final


def test_a_script_diffs_exactly_where_a_final_list_is_stated():
    runs = [(name, n) for name, (_, low, only, _) in SCRIPTS.items() for n in ((low,) if only else (low, low + 1))]
    diffed = {name for name, n in runs if run_script(name, n).diff is not None}
    assert diffed == {"VB3_REDUCE", "WB3_REDUCE", "WB4_REDUCE"}


def test_run_script_validation():
    assert set(SCRIPTS) == {"VB3_REDUCE", "VBN_REDUCE", "WB3_REDUCE", "WB4_REDUCE", "WBN_REDUCE"}
    with pytest.raises(ScriptPreconditionFailed):
        run_script("NOPE")
    with pytest.raises(BadRank):
        run_script("VB3_REDUCE", 4)
    with pytest.raises(BadRank):
        run_script("WBN_REDUCE", 4)

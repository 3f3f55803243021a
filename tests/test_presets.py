"""Preset presentations: ambient groups, catalog tables, instantiation.

Counts here are recomputed by hand from the family domains (pair counts,
adjacency ranges) and frozen as literals, so a silent change in a domain
function shows up as a count mismatch.
"""

import dataclasses
import re

import pytest

from braidsub.cosets import ORIGIN, phi
from braidsub.errors import BadRank, EmptyWindow, ParseError
from braidsub.presets import (
    CASE_RULES,
    CATALOG_FAMILIES,
    GeneratorFamily,
    L7_FAMILIES,
    LEMMA_IDS,
    LEMMA_TABLES,
    MAIN_VB_FAMILIES,
    Presentation,
    SPELLINGS,
    WELDED_FAMILIES,
    WELDED_SPELLINGS,
    ambient_relator_families,
    ambient_presentation,
    check_rank,
    derived_presentation,
    expand_families,
    generator_count,
    instantiate,
    lemma_case_map,
    main_families,
    parse_presentation,
    print_finite,
    print_presentation,
    reduced_presentation,
    stated_final,
)
from braidsub.tietze import SCRIPTS, eliminate_family, run_script, solve_for
from braidsub.words import print_template


def test_ambient_counts():
    # rank 3: one braid triple, two squares, one symmetric triple, one
    # mixed triple; the welded group adds its extra move.
    p = ambient_presentation("vb", 3)
    assert len(p.generators) == 4
    assert len(p.relators) == 5
    assert len(ambient_presentation("wb", 3).relators) == 6
    # rank 2 has nothing but the single square, so both groups coincide
    assert ambient_presentation("wb", 2) == ambient_presentation("vb", 2)
    # commuting families grow quadratically; frozen hand counts
    assert len(ambient_presentation("vb", 4).relators) == 13
    assert len(ambient_presentation("vb", 5).relators) == 25
    assert len(ambient_presentation("wb", 5).relators) == 28


def test_ambient_wb4_spelled_letter_by_letter():
    # every relation shape of the welded group, frozen as literal text
    assert print_finite(ambient_presentation("wb", 4)) == (
        "generators:\n"
        "  s1\n"
        "  s2\n"
        "  s3\n"
        "  r1\n"
        "  r2\n"
        "  r3\n"
        "relators:\n"
        "  # braid-commute[i=1,j=3]\n"
        "  s1 s3 s1^-1 s3^-1\n"
        "  # braid-adjacent[i=1]\n"
        "  s1 s2 s1 s2^-1 s1^-1 s2^-1\n"
        "  # braid-adjacent[i=2]\n"
        "  s2 s3 s2 s3^-1 s2^-1 s3^-1\n"
        "  # symmetric-involution[i=1]\n"
        "  r1 r1\n"
        "  # symmetric-involution[i=2]\n"
        "  r2 r2\n"
        "  # symmetric-involution[i=3]\n"
        "  r3 r3\n"
        "  # symmetric-commute[i=1,j=3]\n"
        "  r1 r3 r1 r3\n"
        "  # symmetric-adjacent[i=1]\n"
        "  r1 r2 r1 r2 r1 r2\n"
        "  # symmetric-adjacent[i=2]\n"
        "  r2 r3 r2 r3 r2 r3\n"
        "  # mixed-commute[i=1,j=3]\n"
        "  s1 r3 s1^-1 r3\n"
        "  # mixed-commute[i=3,j=1]\n"
        "  s3 r1 s3^-1 r1\n"
        "  # mixed-adjacent[i=1]\n"
        "  r1 r2 s1 r2 r1 s2^-1\n"
        "  # mixed-adjacent[i=2]\n"
        "  r2 r3 s2 r3 r2 s3^-1\n"
        "  # welded[i=1]\n"
        "  r1 s2 s1 r2 s1^-1 s2^-1\n"
        "  # welded[i=2]\n"
        "  r2 s3 s2 r3 s2^-1 s3^-1\n"
    )


def test_ambient_relators_have_trivial_image():
    for group in ("vb", "wb"):
        for n in (2, 3, 4, 5, 6, 7):
            for _label, w in ambient_presentation(group, n).relators:
                assert phi(w) == ORIGIN


def test_rank_and_group_validation():
    with pytest.raises(BadRank):
        check_rank(1)
    with pytest.raises(BadRank):
        ambient_presentation("vb", 0)
    with pytest.raises(ParseError):
        ambient_presentation("xx", 4)
    with pytest.raises(ParseError):
        main_families("xx")
    with pytest.raises(BadRank):
        derived_presentation("vb", 2)
    with pytest.raises(BadRank):
        reduced_presentation("vb", 2)


def test_catalog_sizes_frozen():
    # aux-bound relator instances of the merged catalog, counted by hand
    # from the domain ranges
    assert len(derived_presentation("vb", 3).relators) == 5
    assert len(derived_presentation("vb", 4).relators) == 12
    assert len(derived_presentation("vb", 5).relators) == 23
    assert len(derived_presentation("vb", 6).relators) == 39
    assert len(derived_presentation("wb", 4).relators) == 16
    assert len(derived_presentation("wb", 5).relators) == 29
    assert len(derived_presentation("wb", 6).relators) == 47
    labels = [inst.label for inst in derived_presentation("vb", 3).relators]
    assert labels == [
        "b0-recurrence",
        "b1-recurrence",
        "f-cube",
        "f-step-b0",
        "f-a-step-b1",
    ]


def test_catalog_aux_labels():
    labels = {inst.label for inst in derived_presentation("vb", 5).relators}
    assert "b0-c-commute[j=4]" in labels
    assert "g-involution[i=3]" in labels
    assert "g-involution[i=4]" in labels
    assert "f-g-commute[k=4]" in labels
    # the f-g commuting family starts one strand above the braid letter
    assert "f-g-commute[k=3]" not in labels
    wb = {inst.label for inst in derived_presentation("wb", 5).relators}
    assert {"welded-a-f", "welded-c-shift[i=3]"} <= wb
    assert not {"welded-a-f", "welded-c-shift[i=3]"} & labels


def test_instantiate_window_semantics():
    p = derived_presentation("vb", 3)
    fp = instantiate(p, (0, 2))
    # four windowed generator blocks over three window values
    assert len(fp.generators) == 12
    by_label = {}
    for label, w in fp.relators:
        by_label.setdefault(label.split("@")[0], []).append((label, w))
    # span-3 template fits the window once; span-1 templates fit 3 times
    assert [lab for lab, _ in by_label["b0-recurrence"]] == ["b0-recurrence@0"]
    assert len(by_label["f-cube"]) == 3
    assert len(by_label["f-step-b0"]) == 2
    with pytest.raises(EmptyWindow):
        instantiate(p, (1, 0))


def test_instantiate_respects_trims():
    p = stated_final("wb", 3)
    assert p.trim_for("a") == (0, -1)
    assert p.trim_for("f") == (0, 0)
    fp = instantiate(p, (0, 2))
    names = [str(sym) for sym in fp.generators]
    # the a block is trimmed one short at the top of the window
    assert names == ["a(0)", "a(1)", "f(0,0)", "f(1,0)", "f(2,0)"]
    labels = [label for label, _ in fp.relators]
    assert "a-f-step-braid@0" in labels
    assert "a-f-step-braid@1" not in labels


def test_generator_count_summary():
    summary = generator_count(derived_presentation("vb", 4))
    assert not summary.finite
    assert summary.count is None
    assert summary.names == ("c(3)",)
    assert summary.unbounded == ("a(m)", "b(m,0)", "b(m,1)", "f(m,0)", "g(m,3)")
    seeded = Presentation(
        "vb",
        3,
        (
            GeneratorFamily("f", (0,), basis=(0, 1, 2)),
            GeneratorFamily("c", (3,)),
        ),
        (),
    )
    summary = generator_count(seeded)
    assert summary.finite
    assert summary.count == 4
    assert summary.names == ("c(3)", "f(0,0)", "f(1,0)", "f(2,0)")


def test_b_free_catalog():
    p = reduced_presentation("vb", 4)
    fams = {gen.family for gen in p.generators}
    assert fams == {"a", "c", "f", "g"}
    for inst in p.relators:
        assert "b(" not in print_template(inst.template)
    labels = {inst.label for inst in p.relators}
    assert "f-step-b0" not in labels
    assert "f-a-step-b1" not in labels
    # eliminating the pair letters turns the two-step recurrence into the
    # stated six-letter recurrence
    by_label = {inst.label: inst for inst in p.relators}
    assert (
        print_template(by_label["b0-recurrence"].template)
        == "f(m+1,0)^-1 f(m+2,0) f(m+3,0)^-1 f(m+2,0) f(m+1,0)^-1 f(m,0)"
    )
    assert p.trim_for("a") == (0, -1)


def test_spellings_solve_their_defining_relators():
    assert L7_FAMILIES[0].label == "f-pair"
    for key, fam in (
        (("b", (0,)), CATALOG_FAMILIES["f-step-b0"]),
        (("b", (1,)), CATALOG_FAMILIES["f-a-step-b1"]),
        (("f", (1,)), L7_FAMILIES[0]),
    ):
        assert SPELLINGS[key] == solve_for(fam.template, *key), key
    assert WELDED_SPELLINGS.keys() - SPELLINGS.keys() == {("a", ())}


def test_solved_spellings_frozen():
    texts = {key: print_template(t) for key, t in SPELLINGS.items()}
    assert texts == {
        ("b", (0,)): "f(m,0)^-1 f(m+1,0)",
        ("b", (1,)): "f(m,0) a(m) f(m+1,0)^-1",
        ("f", (1,)): "f(m,0)^-1",
    }
    # one pass in table order substitutes the a letters the b spellings bring in
    assert list(WELDED_SPELLINGS)[-1] == ("a", ())


def test_b_free_catalog_is_the_eliminated_derived_catalog():
    for group, ranks in (("vb", range(4, 9)), ("wb", range(5, 9))):
        for n in ranks:
            p, _ = eliminate_family(derived_presentation(group, n), "b", (1,), "f-a-step-b1")
            p, _ = eliminate_family(p, "b", (0,), "f-step-b0")
            expected = dataclasses.replace(p, trims=(("a", (0, -1)),))
            assert reduced_presentation(group, n) == expected, (group, n)


def test_stated_final_exactly_at_the_three_stated_ranks():
    stated = {(group, n) for group in ("vb", "wb") for n in range(3, 9) if stated_final(group, n) is not None}
    assert stated == {("vb", 3), ("wb", 3), ("wb", 4)}
    assert stated_final("xx", 3) is None


def test_reduced_dispatch():
    for group, n in (("vb", 3), ("wb", 3), ("wb", 4)):
        assert reduced_presentation(group, n) == stated_final(group, n)
    wb5 = reduced_presentation("wb", 5)
    labels = {inst.label for inst in wb5.relators}
    assert "welded-a-f" in labels
    for inst in wb5.relators:
        assert "b(" not in print_template(inst.template)
    with pytest.raises(ParseError):
        reduced_presentation("xx", 4)


def test_final_presentations_frozen():
    vb3 = stated_final("vb", 3)
    assert [inst.label for inst in vb3.relators] == ["f-recurrence", "a-f-braid", "f-cube"]
    assert [gen.family for gen in vb3.generators] == ["a", "f"]
    wb3 = stated_final("wb", 3)
    assert [inst.label for inst in wb3.relators] == [
        "f-recurrence",
        "a-f-braid",
        "f-cube",
        "a-f-step-braid",
    ]
    wb4 = stated_final("wb", 4)
    assert [gen.name() for gen in wb4.generators] == ["c(3)", "f(m,0)"]
    assert len(wb4.relators) == 9


def test_presentation_text_round_trip():
    # every preset and every snapshot of every script: at their rank, and
    # at the lowest rank and the two above it for the loop scripts
    presentations = [
        stated_final("wb", 3),
        stated_final("wb", 4),
        Presentation(
            "vb",
            3,
            (GeneratorFamily("f", (0,), basis=(0, 1)),),
            (),
        ),
    ]
    for group in ("vb", "wb"):
        for n in range(3, 9):
            presentations += [derived_presentation(group, n), reduced_presentation(group, n)]
    for name, (_, low, only, _) in SCRIPTS.items():
        for n in (low,) if only else (low, low + 1, low + 2):
            res = run_script(name, n)
            presentations += [res.initial] + [snap for _, snap in res.steps]
    assert len(presentations) == 3 + 24 + 96
    for p in presentations:
        text = print_presentation(p)
        assert parse_presentation(text) == p
        assert print_presentation(parse_presentation(text)) == text
    with pytest.raises(ParseError):
        parse_presentation(print_presentation(presentations[2]) + "note: kept for the record\n")


# a generator line in front of a c(3) block; "c(3)" declares that block
# a second time
_GENERATOR_LINE = "group: vb\nn: 4\ngenerators:\n  %s\n  c(3)\nrelators:\n  c(3) c(3)\n"
_F_HEAD = "group: vb\nn: 4\ngenerators:\n  f(m,0) for m in Z\n"


@pytest.mark.parametrize("line, text", [
    *(pytest.param(line, _GENERATOR_LINE % line, id=line) for line in (
        "n: four",
        "trim: a +0",
        "trim: a +0 one",
        "f(m,0) for m in {}",
        "f(m,0) for m in {a}",
        "f(m,j) for m in Z",
        "g(m,i) for m in {0,1}",
        "c(i)",
        "c(3)^-1",
        "a(3)",
        "c(3) for m in Z",
        "x() for m in Z",
        "f(m,0) for m in {0,0}",
        "c(3)",
    )),
    # a label followed by another label, and a label at the end
    pytest.param("# a", _F_HEAD + "relators:\n  # a\n  # b\n  f(m,0)\n", id="# a"),
    pytest.param("# tail", _F_HEAD + "relators:\n  f(m,0)\n  # tail\n", id="# tail"),
    pytest.param("trim: f +1 +0", _F_HEAD + "trim: f +0 -1\ntrim: f +1 +0\nrelators:\n", id="trim: f +1 +0"),
])
def test_parse_presentation_names_a_malformed_line(line, text):
    with pytest.raises(ParseError, match=re.escape(repr(line))):
        parse_presentation(text)


@pytest.mark.parametrize("relators", [
    "  # sq\n  c(3) c(3)\n  # sq\n  c(3) c(3) c(3)\n",
    "  c(3) c(3)\n  # relator-0\n  c(3) c(3) c(3)\n",
], ids=["named", "automatic"])
def test_parse_presentation_names_a_repeated_relator_label(relators):
    text = "group: vb\nn: 4\ngenerators:\n  c(3)\nrelators:\n" + relators
    with pytest.raises(ParseError, match=re.escape(repr("c(3) c(3) c(3)"))):
        parse_presentation(text)


def test_lemma_tables_are_consistent():
    assert set(LEMMA_TABLES) == set(LEMMA_IDS) - {"L3_1", "CON"}
    for lemma, (fam_label, table, needs) in LEMMA_TABLES.items():
        fams = {fam.label: fam for fam in ambient_relator_families(needs)}
        assert fam_label in fams
        for params in fams[fam_label].domain(5):
            for twist in (False, True):
                mapped = lemma_case_map(lemma, params, twist)
                if mapped is None:
                    continue
                idx, aux = mapped
                assert 0 <= idx < len(table)
                # binding must fully close the template
                w = table[idx].template.bind(**aux).instantiate(m=0)
                assert len(w) > 0


def _lemma_case_map_oracle(lemma, params, twist):
    """The case map spelled out lemma by lemma, as the rule table must read."""
    if lemma == "L3":
        i, j = params["i"], params["j"]
        if i == 1:
            return None
        if i == 2:
            return (0, {"j": j}) if not twist else (2, {"j": j})
        return (1, {"i": i, "j": j}) if not twist else (3, {"i": i, "j": j})
    if lemma == "L5":
        i = params["i"]
        if i == 1:
            return (0, {}) if not twist else (3, {})
        if i == 2:
            return (1, {}) if not twist else (4, {})
        return (2, {"i": i}) if not twist else (5, {"i": i})
    if lemma == "L7":
        i = params["i"]
        if i == 1:
            return None
        if i == 2:
            return (0, {})
        return (1, {"i": i})
    if lemma == "L8":
        i, j = params["i"], params["j"]
        if i == 1:
            return (3, {"j": j})
        if i == 2:
            return (0, {"k": j}) if not twist else (1, {"k": j})
        return (2, {"i": i, "j": j})
    if lemma == "L8_1":
        i = params["i"]
        if i == 1:
            return (0, {}) if not twist else (3, {})
        if i == 2:
            return (1, {}) if not twist else (4, {})
        return (2, {"i": i})
    if lemma == "L10":
        i, j = params["i"], params["j"]
        if j == 1:
            return None
        if j == 2:
            return (5, {"j": i}) if not twist else (6, {"j": i})
        if i == 1:
            return (0, {"i": j}) if not twist else (1, {"i": j})
        if i == 2:
            return (2, {"j": j}) if not twist else (3, {"j": j})
        return (4, {"k": i, "l": j})
    if lemma == "L12":
        i = params["i"]
        if i == 1:
            return (0, {}) if not twist else (1, {})
        if i == 2:
            return (2, {}) if not twist else (3, {})
        return (4, {"i": i})
    if lemma == "L5_2":
        i = params["i"]
        if i == 1:
            return (0, {}) if not twist else (3, {})
        if i == 2:
            return (1, {}) if not twist else (4, {})
        return (2, {"i": i}) if not twist else (5, {"i": i})
    raise AssertionError("no oracle for lemma %r" % lemma)


def test_case_rules_match_the_spelled_out_case_map():
    assert set(CASE_RULES) == set(LEMMA_TABLES)
    triples = 0
    for lemma, (fam_label, _table, needs) in LEMMA_TABLES.items():
        for n in range(3, 13):
            fams = {fam.label: fam for fam in ambient_relator_families(needs)}
            for params in fams[fam_label].domain(n):
                for twist in (False, True):
                    want = _lemma_case_map_oracle(lemma, params, twist)
                    assert lemma_case_map(lemma, params, twist) == want, (lemma, params, twist)
                    triples += 1
    assert triples == 1890
    with pytest.raises(ParseError):
        lemma_case_map("L3_1", {"i": 1}, False)


def test_unmatched_case_raises(monkeypatch):
    # None means "freely trivial", so a case no rule covers must not read as None
    monkeypatch.setitem(CASE_RULES, "L7", CASE_RULES["L7"][:2])
    with pytest.raises(ParseError):
        lemma_case_map("L7", {"i": 3}, False)


def test_statement_tables_reference_the_catalog():
    order = ("L3", "L5", "L7", "L8", "L8_1", "L10", "L12", "L5_2")
    tables = [LEMMA_TABLES[lemma][1] for lemma in order]
    assert tuple(len(t) for t in tables) == (4, 6, 2, 4, 5, 7, 5, 6)
    catalog = {fam.label: fam for fam in main_families("wb")}
    assert catalog == CATALOG_FAMILIES
    shapes = {(fam.template, fam.domain) for fam in catalog.values()}
    referenced = 0
    for table in tables:
        for fam in table:
            ref = catalog.get(fam.label)
            if ref is not None and (fam.text, fam.domain) == (ref.text, ref.domain):
                # a reference resolved to its catalog family, without the note
                assert fam.note == ""
                referenced += 1
            else:
                # a spelled-out statement must differ from every catalog family
                assert (fam.template, fam.domain) not in shapes, fam.label
    assert referenced == 24


def test_expand_families_domains():
    insts = expand_families(MAIN_VB_FAMILIES, 6)
    assert len(insts) == 39
    welded = expand_families(WELDED_FAMILIES, 6)
    assert len(welded) == 8
    # window-free templates report themselves as such
    flags = {inst.label: inst.windowed() for inst in insts}
    assert flags["c-c-commute[i=3,j=5]"] is False
    assert flags["f-cube"] is True


def test_family_template_is_parsed_once():
    fam = CATALOG_FAMILIES["f-cube"]
    before = hash(fam)
    assert fam.template is fam.template
    assert print_template(fam.template) == fam.text
    # the cached parse leaves the dataclass's equality and hash alone
    assert hash(fam) == before and fam == CATALOG_FAMILIES["f-cube"]


def test_instantiate_with_aux_values_equals_bind_then_instantiate():
    # the one-pass instantiate that verify_lemma, assemble,
    # ambient_presentation and the conjugation cases use, against binding
    # first
    for group in ("vb", "wb"):
        for n in range(2, 13):
            for fam in ambient_relator_families(group):
                for aux in fam.domain(n):
                    assert fam.template.instantiate(**aux) == fam.template.bind(**aux).instantiate()
            if n < 3:
                continue
            for fam in main_families(group):
                for aux in fam.domain(n):
                    for m in (-2, 0, 3):
                        t = fam.template
                        assert t.instantiate(m, **aux) == t.bind(**aux).instantiate(m=m)

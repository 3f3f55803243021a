"""Coset bookkeeping checked against the defining construction.

The oracle here is recomputed from scratch: the index map by scanning
letters, transversal representatives as literal letter lists, and each
Schreier generator as the word rep(P) x rep(P after x)^-1.  The library
must agree with all of that, and its closed-form table must agree with
the defining words up to the convention that spells symmetric letters
with positive exponent.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidsub.cosets import (
    ORIGIN,
    R1SQ,
    closed_form,
    defining_slot,
    expansion,
    phi,
    representative,
    schreier_generator,
    step,
)
from braidsub.errors import ForeignSymbol
from braidsub.words import Symbol, Word, a, f, parse_word, print_word, rho, sigma

N_MAX = 6  # ambient rank used for the sweeps
AMBIENT = [sigma(k) for k in range(1, N_MAX)] + [rho(k) for k in range(1, N_MAX)]


def image(letters):
    """Index pair of a letter list, computed by direct scanning."""
    i, e = 0, 0
    for sym, exp in letters:
        if sym.family == "sigma":
            i += exp
        else:
            e ^= 1
    return (i, e)


def rep_letters(i, e):
    out = [(sigma(1), 1 if i > 0 else -1)] * abs(i)
    if e:
        out.append((rho(1), 1))
    return out


class TrivialSymbol(Exception):
    """The requested rewriting slot carries no subgroup generator."""


def schreier_generator_strict(coset, sym):
    """Oracle: ``schreier_generator``, with a trivial slot raising."""
    out = schreier_generator(coset, sym)
    if out is None:
        raise TrivialSymbol("no subgroup generator at %s for %s" % (coset, sym))
    return out


def defining_word(coset, sym):
    """rep(P) x rep(P after x)^-1 built letter by letter."""
    i, e = coset
    head = rep_letters(i, e) + [(sym, 1)]
    tail = [(s, -x) for s, x in reversed(rep_letters(*image(head)))]
    return Word(head + tail)


def expected_generator(coset, sym, internal):
    """The six-case classification, written out as a literal."""
    i, e = coset
    k = sym.indices[0]
    if sym.family == "sigma":
        if k == 1:
            return Symbol("a", (i,)) if e else None
        if k == 2:
            return Symbol("b", (i, e))
        return Symbol("c", (k,))
    if k == 1:
        if e and internal:
            return Symbol(R1SQ, (i,))
        return None
    if k == 2:
        return Symbol("f", (i, e))
    return Symbol("g", (i, k))


def all_cosets(radius=10):
    return [(i, e) for i in range(-radius, radius + 1) for e in (0, 1)]


def test_classification_matches_table():
    for coset in all_cosets():
        for sym in AMBIENT:
            for internal in (False, True):
                got = schreier_generator(coset, sym, internal=internal)
                assert got == expected_generator(coset, sym, internal)


def test_expansion_matches_defining_word():
    # The engine must expand every emitted symbol, at the coset where it
    # was emitted, to exactly the defining word of that slot.
    for coset in all_cosets():
        for sym in AMBIENT:
            emitted = schreier_generator(coset, sym, internal=True)
            if emitted is None:
                assert not defining_word(coset, sym)
            else:
                assert expansion(emitted, at=coset) == defining_word(coset, sym)


def test_trivial_slots():
    # First braid letter at an untwisted coset: freely trivial.
    assert schreier_generator((4, 0), sigma(1)) is None
    assert not defining_word((4, 0), sigma(1))
    # First symmetric letter at a twisted coset: trivial only modulo the
    # ambient square relator, so the internal marker carries the square.
    assert schreier_generator((4, 1), rho(1)) is None
    marker = schreier_generator((4, 1), rho(1), internal=True)
    assert marker == Symbol(R1SQ, (4,))
    assert defining_word((4, 1), rho(1)) == parse_word("s1 s1 s1 s1 r1 r1 s1^-1 s1^-1 s1^-1 s1^-1")
    with pytest.raises(TrivialSymbol):
        schreier_generator_strict((4, 1), rho(1))
    assert schreier_generator_strict((3, 1), sigma(2)) == Symbol("b", (3, 1))


def test_representative_spelling():
    assert representative((0, 0)) == Word()
    assert representative((0, 1)) == parse_word("r1")
    assert representative((-2, 1)) == parse_word("s1^-1 s1^-1 r1")
    assert representative((3, 0)) == parse_word("s1 s1 s1")


def test_representative_roundtrip_and_prefix_closure():
    for i in range(-50, 51):
        for e in (0, 1):
            letters = rep_letters(i, e)
            assert phi(representative((i, e))) == (i, e)
            # every prefix of a representative is itself a representative
            for cut in range(len(letters) + 1):
                prefix = letters[:cut]
                assert representative(image(prefix)) == Word(prefix)


def test_canonical_cosets_and_base_letters():
    table = [
        (a(3), (3, 1), sigma(1)),
        (Symbol("b", (-2, 0)), (-2, 0), sigma(2)),
        (Symbol("b", (-2, 1)), (-2, 1), sigma(2)),
        (Symbol("c", (4,)), (0, 0), sigma(4)),
        (f(5, 0), (5, 0), rho(2)),
        (f(5, 1), (5, 1), rho(2)),
        (Symbol("g", (-1, 3)), (-1, 0), rho(3)),
        (Symbol(R1SQ, (2,)), (2, 1), rho(1)),
    ]
    for sym, coset, letter in table:
        assert defining_slot(sym) == (coset, letter)
        assert expansion(sym) == expansion(sym, at=coset)
        # the classification at the defining coset gives the symbol back
        assert schreier_generator(coset, letter, internal=True) == sym


def test_defining_slot_inverts_the_classification():
    # every emitted generator names the letter it was read from, and the
    # table read at its defining coset emits it again
    for coset in all_cosets():
        for x in AMBIENT:
            sym = schreier_generator(coset, x, internal=True)
            if sym is None:
                continue
            slot, letter = defining_slot(sym)
            assert letter == x
            assert schreier_generator(slot, letter, internal=True) == sym


def test_closed_forms_frozen():
    cases = [
        (a(0), "r1 s1 r1 s1^-1"),
        (a(2), "s1 s1 r1 s1 r1 s1^-1 s1^-1 s1^-1"),
        (a(-1), "s1^-1 r1 s1 r1"),
        (Symbol("b", (0, 0)), "s2 s1^-1"),
        (Symbol("b", (-1, 1)), "s1^-1 r1 s2 r1"),
        (Symbol("c", (3,)), "s3 s1^-1"),
        (Symbol("c", (5,)), "s5 s1^-1"),
        (f(0, 0), "r2 r1"),
        (f(1, 1), "s1 r1 r2 s1^-1"),
        (Symbol("g", (0, 3)), "r3 r1"),
        (Symbol("g", (-2, 4)), "s1^-1 s1^-1 r4 r1 s1 s1"),
        (Symbol(R1SQ, (1,)), "s1 r1 r1 s1^-1"),
    ]
    for sym, text in cases:
        assert print_word(closed_form(sym)) == text


def symmetric_positive(w):
    """Spell the first symmetric letter positively and cancel its squares."""
    out = []
    for sym, exp in w:
        if sym.family == "rho" and sym.indices[0] == 1 and exp == -1:
            exp = 1
        if out and out[-1] == (sym, 1) and (sym, exp) == (sym, 1) and sym.family == "rho" and sym.indices[0] == 1:
            out.pop()
            continue
        out.append((sym, exp))
    return Word(out)


def test_closed_form_vs_expansion_tiers():
    # Which families agree literally and which only after the positive
    # spelling of the first symmetric letter is a fixed pattern.
    literal = {"b0": True, "b1": False, "f0": False, "f1": True}
    for i in range(-10, 11):
        assert expansion(a(i)) != closed_form(a(i))
        assert symmetric_positive(expansion(a(i))) == closed_form(a(i))
        for e in (0, 1):
            for fam in ("b", "f"):
                sym = Symbol(fam, (i, e))
                agree = expansion(sym) == closed_form(sym)
                assert agree == literal["%s%d" % (fam, e)]
                assert symmetric_positive(expansion(sym)) == closed_form(sym)
        for l in (3, 4, 5):
            g = Symbol("g", (i, l))
            assert expansion(g) != closed_form(g)
            assert symmetric_positive(expansion(g)) == closed_form(g)
        sq = Symbol(R1SQ, (i,))
        assert expansion(sq) == closed_form(sq)
    for l in (3, 4, 5):
        c = Symbol("c", (l,))
        assert expansion(c) == closed_form(c)


def test_expansions_land_in_the_kernel():
    syms = []
    for m in range(-10, 11):
        syms.append(a(m))
        syms.append(Symbol(R1SQ, (m,)))
        for e in (0, 1):
            syms.append(Symbol("b", (m, e)))
            syms.append(f(m, e))
        for l in range(3, 7):
            syms.append(Symbol("g", (m, l)))
    for l in range(3, 7):
        syms.append(Symbol("c", (l,)))
    for sym in syms:
        assert phi(expansion(sym)) == ORIGIN
        assert phi(closed_form(sym)) == ORIGIN


letters_st = st.lists(
    st.tuples(st.sampled_from(AMBIENT), st.sampled_from([-1, 1])),
    max_size=30,
)


@given(letters_st, letters_st)
def test_phi_is_a_homomorphism(u, v):
    iu, eu = phi(Word(u))
    iv, ev = phi(Word(v))
    assert phi(Word(u) * Word(v)) == (iu + iv, eu ^ ev)


@given(letters_st)
def test_phi_matches_direct_scan(letters):
    # free reduction inside Word never changes the image
    assert phi(Word(letters)) == image(letters)


@given(st.integers(-30, 30), st.integers(0, 1), st.sampled_from(AMBIENT), st.sampled_from([-1, 1]))
def test_step_agrees_with_phi(i, e, sym, exp):
    assert step((i, e), sym, exp) == image(rep_letters(i, e) + [(sym, exp)])


def test_foreign_symbols_are_rejected():
    inside = Word([(a(0), 1)])
    with pytest.raises(ForeignSymbol):
        phi(inside)
    with pytest.raises(ForeignSymbol):
        step(ORIGIN, a(0), 1)
    with pytest.raises(ForeignSymbol):
        schreier_generator(ORIGIN, a(0))
    with pytest.raises(ForeignSymbol):
        defining_slot(sigma(1))
    with pytest.raises(ForeignSymbol):
        closed_form(Symbol("q", (0,)))

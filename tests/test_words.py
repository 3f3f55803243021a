"""Free-group word algebra: reduction, inverses, templates, parsing.

The reduction oracle here is written independently of the package: a plain
stack over (symbol, sign) letters. Everything the Word class claims about
free reduction is checked against it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidsub.errors import CyclicSubstitution, ParametricInput, ParseError
from braidsub.words import (
    M_FAMILIES,
    Symbol,
    TemplateWord,
    Word,
    _print_letters,
    a,
    b,
    c,
    f,
    g,
    letter_block,
    lift,
    m_lift,
    parse_template,
    parse_word,
    print_letter,
    print_template,
    print_word,
    rho,
    sigma,
    word,
)


def stack_reduce(letters):
    """Oracle: free reduction with an explicit stack, one letter at a time."""
    out = []
    for sym, sign in letters:
        if out and out[-1][0] == sym and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((sym, sign))
    return out


# a small pool of symbols for random words
POOL = [sigma(1), sigma(2), rho(1), rho(2), a(0), a(1), f(0, 0), c(3), g(-1, 3)]

letters_st = st.lists(
    st.tuples(st.sampled_from(POOL), st.sampled_from([-1, 1])),
    max_size=40,
)


@given(letters_st)
def test_word_reduction_matches_stack_oracle(letters):
    assert list(Word(letters)) == stack_reduce(letters)


@given(letters_st)
def test_reduction_is_idempotent(letters):
    w = Word(letters)
    assert Word(list(w)) == w


@given(letters_st)
def test_inverse_is_involution_and_cancels(letters):
    w = Word(letters)
    assert w.inverse().inverse() == w
    assert not (w * w.inverse())
    assert not (w.inverse() * w)


@given(letters_st, letters_st)
def test_exponent_sum_is_a_homomorphism(xs, ys):
    u, v = Word(xs), Word(ys)
    for fam in ("sigma", "rho", "a", "f"):
        assert (u * v).exponent_sum(fam) == u.exponent_sum(fam) + v.exponent_sum(fam)
    assert u.inverse().exponent_sum() == -u.exponent_sum()


@given(letters_st, letters_st)
def test_conjugate_round_trip(xs, ys):
    w, u = Word(xs), Word(ys)
    assert w.conjugate(u).conjugate(u.inverse()) == w


def test_basic_cancellation():
    assert word(sigma(1), (sigma(1), -1)) == Word()
    assert word(sigma(1), sigma(2), (sigma(2), -1), (sigma(1), -1)) == Word()
    assert len(word(rho(1), rho(2))) == 2


def test_power_and_inverse():
    w = word(sigma(1), sigma(1))
    assert w ** 3 == Word([(sigma(1), 1)] * 6)
    assert w ** -1 == w.inverse()
    assert w ** 0 == Word()


@given(letters_st, st.integers(min_value=-4, max_value=4))
def test_power_matches_product_fold(letters, k):
    w = Word(letters)
    base = w if k > 0 else w.inverse()
    out = Word()
    for _ in range(abs(k)):
        out = out * base
    assert w ** k == out


def test_cyclic_reduce():
    w = word(sigma(1), rho(2), (sigma(1), -1))
    assert w.cyclic_reduce() == word(rho(2))
    assert word(rho(1)).cyclic_reduce() == word(rho(1))


def test_substitute_replaces_both_signs():
    # a constant window index binds the replacement's m
    t = lift(word(f(0, 1), a(0), (f(0, 1), -1)))
    out = t.substitute_family("f", (1,), parse_template("f(m,0)^-1"))
    assert out == lift(word((f(0, 0), -1), a(0), f(0, 0)))


def test_substitute_rejects_self_reference():
    t = lift(word(a(0)))
    with pytest.raises(CyclicSubstitution):
        t.substitute_family("a", (), parse_template("a(m) a(m+1)"))


def test_symbol_validation():
    with pytest.raises(ParseError):
        b(0, 2)  # the bit index is 0 or 1
    with pytest.raises(ParseError):
        g(0, 2)  # strand index starts at 3
    with pytest.raises(ParseError):
        c(2)
    with pytest.raises(ParseError):
        sigma(0)


def test_shift_moves_only_m_indexed_families():
    w = word(a(2), c(3), (g(0, 3), -1))
    assert print_word(w.shift(5)) == "a(7) c(3) g(5,3)^-1"


# parsing and printing


@given(letters_st)
def test_parse_print_round_trip(letters):
    w = Word(letters)
    assert parse_word(print_word(w)) == w


def test_parse_word_syntax():
    w = parse_word("s1 r2^-1 a(3) b(-1,1) f(0,0)^-1 g(2,4) c(3)")
    assert w.exponent_sum("b") == 1
    assert w.exponent_sum("sigma") == 1
    assert parse_word("") == Word()
    with pytest.raises(ParseError):
        parse_word("s1^")
    with pytest.raises(ParseError):
        parse_word("a(0)^2")  # only ^-1 is in the grammar
    with pytest.raises(ParseError):
        parse_word("x9")


def test_template_parse_print_round_trip():
    for text in (
        "f(m,0)^-1 f(m+1,0) b(m,0)^-1",
        "a(m) b(m+1,1) a(m+2) b(m+2,1)^-1 a(m+1)^-1 b(m,1)^-1",
        "g(m,j) g(m,j)",
        "c(3) f(m-2,0)",
    ):
        t = parse_template(text)
        assert print_template(t) == text


def test_template_bind_and_instantiate():
    t = parse_template("f(m,0) g(m+1,k)")
    w = t.bind(k=4).instantiate(m=2)
    assert w == word(f(2, 0), g(3, 4))
    # instantiating with a free variable left over must fail
    with pytest.raises(ParametricInput):
        t.instantiate(m=0)


def test_template_shift_and_offsets():
    t = parse_template("f(m,0) f(m+2,0)^-1 c(3)")
    assert t.m_offsets() == [0, 2]
    assert print_template(t.shift(-1)) == "f(m-1,0) f(m+1,0)^-1 c(3)"


def test_template_substitute_family_shifts_replacement():
    t = parse_template("b(m+1,0) a(m)")
    out = t.substitute_family("b", (0,), parse_template("f(m,0)^-1 f(m+1,0)"))
    assert print_template(out) == "f(m+1,0)^-1 f(m+2,0) a(m)"


def test_template_rotate_is_cyclic():
    t = parse_template("a(m) f(m,0) c(3)")
    assert print_template(t.rotate(1)) == "f(m,0) c(3) a(m)"
    assert t.rotate(3) == t


def test_constant_slots_are_empty_names_and_letters_order_natively():
    t = parse_template("g(m,3) f(2) s1 c(4)^-1 a(i-1)")
    assert t.letters[1] == ("f", (("", 2), ("", 0)), 1)
    assert t.letters[2] == ("sigma", (("", 1),), 1)
    assert [l[0] for l in sorted(t.letters)] == ["a", "c", "f", "g", "sigma"]
    assert [print_letter(l) for l in t.letters] == print_template(t).split()
    assert t.target_letters("g", (3,)) == [0] and t.target_letters("f", (2, 0)) == []
    assert letter_block(*t.letters[1][:2]) == ("f", (0,)) and letter_block(*t.letters[3][:2]) == ("c", (4,))
    assert letter_block(*t.letters[4][:2]) == ("a", ()) and letter_block("c", (("i", 0),)) is None


def test_a_letter_without_a_window_slot_names_its_block_with_every_slot():
    t = parse_template("c(3) f(m,0) c(3)^-1 f(m+1,0)^-1")
    assert t.blocks() == parse_template("c(3) f(m,0)").blocks() == {("c", (3,)), ("f", (0,))}
    assert t.target_letters("c", (3,)) == [0, 2] and t.target_letters("f", (0,)) == [1, 3]
    assert t.target_letters("c", ()) == [] and t.target_letters("c", (4,)) == []
    # the replacement of a window-free letter is not realigned
    out = t.substitute_family("c", (3,), parse_template("a(m) f(2,1)"))
    assert print_template(out) == "a(m) f(2,1) f(m,0) f(2,1)^-1 a(m)^-1 f(m+1,0)^-1"


def test_lift_round_trip():
    # lift() is the all-constant view; it never moves under shift
    w = parse_word("a(2) f(-1,0)^-1 c(3)")
    assert lift(w).instantiate(m=0) == w
    assert lift(w).shift(3).instantiate(m=0) == w


SUBGROUP_POOL = [a(0), a(1), f(0, 0), f(-2, 1), c(3), g(-1, 3), g(2, 4)]

subgroup_letters_st = st.lists(
    st.tuples(st.sampled_from(SUBGROUP_POOL), st.sampled_from([-1, 1])),
    max_size=40,
)


@settings(max_examples=50)
@given(subgroup_letters_st, st.integers(min_value=-4, max_value=4))
def test_m_lift_shift_instantiate_commute(letters, k):
    w = Word(letters)
    assert m_lift(w).shift(k).instantiate(m=0) == w.shift(k)


# random templates: affine first slots in m, constants and an auxiliary
# variable; trailing slots constant, auxiliary or (rarely used) m
SLOT0 = [("m", -1), ("m", 0), ("m", 2), ("", 0), ("", 3), ("i", 1)]
TAIL = [("", 0), ("", 1), ("", 3), ("j", 0), ("m", 1)]
signs_st = st.sampled_from([-1, 1])
tletter_st = st.one_of(
    st.tuples(st.sampled_from(["a", "c"]), st.tuples(st.sampled_from(SLOT0)), signs_st),
    st.tuples(
        st.sampled_from(["b", "f", "g"]),
        st.tuples(st.sampled_from(SLOT0), st.sampled_from(TAIL)),
        signs_st,
    ),
    st.tuples(st.just("sigma"), st.tuples(st.sampled_from([("", 1), ("", 2)])), signs_st),
)
templates_st = st.lists(tletter_st, max_size=30).map(TemplateWord)


@given(templates_st, st.integers(min_value=-3, max_value=3))
def test_template_caches_match_uncached_oracles(t, k):
    # the text is printed once and kept; it matches the uncached printer
    # and parses back to the template
    text = _print_letters(t.letters)
    assert print_template(t) == text
    assert print_template(t) == text
    assert parse_template(text) == t
    assert hash(t) == hash(t.letters) == hash(TemplateWord(t.letters))
    assert text == " ".join(print_letter(l) for l in t.letters) or text == "1"
    # the block set and each block's letters against a scan of the
    # letters, both ways: an a/b/f/g letter's block slots are its trailing
    # ones, every other letter's are all of its slots
    def slots(fam, exprs):
        return exprs[1:] if fam in M_FAMILIES else exprs

    blocks = t.blocks()
    for fam, exprs, _ in t.letters:
        if all(var == "" for var, _ in slots(fam, exprs)):
            assert (fam, tuple(v for _, v in slots(fam, exprs))) in blocks
            assert letter_block(fam, exprs) == (fam, tuple(v for _, v in slots(fam, exprs)))
        else:
            assert letter_block(fam, exprs) is None
    for family, fixed in blocks:
        want = tuple(("", v) for v in fixed)
        spots = [i for i, (fam, exprs, _) in enumerate(t.letters) if fam == family and slots(fam, exprs) == want]
        assert spots and t.target_letters(family, fixed) == spots
    # shift and inverse skip free reduction: their letters are reduced
    # already, and shift moves exactly the m slots
    moved, inv = t.shift(k), t.inverse()
    assert moved.letters == TemplateWord(moved.letters).letters
    assert inv.letters == TemplateWord(inv.letters).letters
    assert moved.letters == tuple(
        (fam, tuple((var, off + k) if var == "m" else (var, off) for var, off in exprs), exp)
        for fam, exprs, exp in t.letters
    )
    assert moved.shift(-k) == t and inv.inverse() == t
    assert moved.blocks() == inv.blocks() == blocks
    assert hash(moved) == hash(moved.letters) and hash(inv) == hash(inv.letters)
    for name in ("letters", "_text", "_hash", "_blocks", "other"):
        with pytest.raises(AttributeError):
            setattr(t, name, ())
    assert print_template(t) == text and hash(t) == hash(t.letters)

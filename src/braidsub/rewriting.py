"""Rewriting ambient kernel words into the derived generators.

The derived subgroup is the kernel of the bidegree map (see
:mod:`braidsub.cosets`).  This module implements the rewriting map that
spells a kernel word in the indexed subgroup families, the conjugation
twist by the first symmetric letter, the two independent derivation
routes for ambient relators, canonical forms for comparing relator
spellings, the statement verifier, and the mechanical assembly of the
derived relator catalog.

Relators are compared the way the Tietze scripts and the abelianizer
see them: as templates.  Tier (c) of the statement comparison spells
both words through the catalog with ``TemplateWord.substitute_family``,
merges their torsion and compares ``template_canon_key``; the catalog
comparison keeps the instances ``presets.span`` keeps and keys each
template once with ``template_canon_key``.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, NamedTuple

from . import presets
from .cosets import (
    ORIGIN,
    R1SQ,
    closed_form,
    expansion,
    schreier_generator,
    step,
)
from .errors import NotConverged, NotInKernel, ParseError, ShapeMismatch
from .words import (
    M_FAMILIES,
    Symbol,
    TemplateWord,
    Word,
    c,
    lift,
    m_lift,
    parse_template,
    print_letter,
    print_template,
    print_word,
    rho,
    sigma,
)

# ---------------------------------------------------------------------------
# The rewriting map
# ---------------------------------------------------------------------------

Slot = tuple  # (Symbol | None, ambient Symbol, exp, pre_coset, post_coset)


def rewrite_slots(w: Word) -> list[Slot]:
    """Trace a kernel word through the coset table, one slot per letter.

    Raises NotInKernel unless the word's bidegree is trivial.  Each slot
    records the emitted subgroup letter (None when the letter is freely
    trivial at that coset), the ambient letter consumed, and the cosets
    before and after.  A positive letter is classified at the coset it
    is read from, a negative letter at the coset it lands on.
    """
    slots: list[Slot] = []
    cur = ORIGIN
    for sym, exp in w:
        nxt = step(cur, sym, exp)
        at = cur if exp == 1 else nxt
        slots.append((schreier_generator(at, sym, internal=True), sym, exp, cur, nxt))
        cur = nxt
    if cur != ORIGIN:
        raise NotInKernel("word has bidegree %s" % (cur,))
    return slots


def expand_raw(slots: Iterable[Slot]) -> Word:
    """Multiply out the slot factors; telescopes back to the input word.

    Each factor is rep(P) x^e rep(Q)^-1 for a slot moving coset P to Q,
    which is the defining expansion of the slot's subgroup letter (or its
    inverse), and is a representative-conjugated trivial move when the
    slot emitted nothing.  With rep(i, e) = s1^i r1^e a factor is at most
    five runs of one letter: s1^i, r1^e, x^exp, r1^-f and s1^-j.

    The product is freely reduced run by run on a stack of [symbol, sign,
    count] runs in which neighbours never share a symbol, so a push only
    meets the top run and costs O(1) whatever the coset depths: the work
    is linear in the number of slots.  Free reduction is unique, so this
    is the word the letter-by-letter product gives.
    """
    s1, r1 = sigma(1), rho(1)
    runs: list = []

    def push(sym: Symbol, sign: int, count: int) -> None:
        if runs and runs[-1][0] == sym:
            top = runs[-1]
            if top[1] == sign:
                top[2] += count
                return
            if top[2] > count:
                top[2] -= count
                return
            runs.pop()
            count -= top[2]
            if not count:
                return
        runs.append([sym, sign, count])

    for _, x, exp, (i, e), (j, f) in slots:
        if i:
            push(s1, 1 if i > 0 else -1, abs(i))
        if e & 1:
            push(r1, 1, 1)
        push(x, exp, 1)
        if f & 1:
            push(r1, -1, 1)
        if j:
            push(s1, -1 if j > 0 else 1, abs(j))
    out: list = []
    for sym, sign, count in runs:
        out += [(sym, sign)] * count
    return Word(out)


def rewrite(w: Word) -> Word:
    """The raw rewriting: every non-trivial slot letter, in order."""
    return Word((s, e) for s, _, e, _, _ in rewrite_slots(w) if s is not None)


def normalize(w: Word) -> Word:
    """Drop the internal square letters from a rewritten word."""
    return Word((s, e) for s, e in w if s.family != R1SQ)


def expand_word(w: Word, mode: str = "closed") -> Word:
    """Spell a subgroup word in the ambient letters.

    ``mode="closed"`` uses the closed-form table; ``mode="defining"``
    uses the defining coset expansions (which differ from the closed
    forms only in inverse first-symmetric letters).
    """
    if mode not in ("closed", "defining"):
        raise ParseError("unknown expansion mode %r" % mode)
    out: list = []
    for sym, exp in w:
        piece = closed_form(sym) if mode == "closed" else expansion(sym)
        out.extend((piece if exp == 1 else piece.inverse()).letters)
    return Word(out)


# ---------------------------------------------------------------------------
# Conjugation twist
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def rho1_rule(sym: Symbol) -> Word:
    """The rewriting of r1 x r1^-1 for a subgroup letter x."""
    r1 = Word([(rho(1), 1)])
    return normalize(rewrite(r1 * closed_form(sym) * r1.inverse()))


def twist(w: Word) -> Word:
    """Conjugate a subgroup word by the first symmetric letter, letterwise."""
    out: list = []
    for sym, exp in w:
        rule = rho1_rule(sym)
        out.extend((rule if exp == 1 else rule.inverse()).letters)
    return Word(out)


# ---------------------------------------------------------------------------
# Derivation routes
# ---------------------------------------------------------------------------


def derive_relation(r: Word, m: int = 0, twisted: bool = False) -> Word:
    """Rewrite an ambient relator at window position m, optionally twisted.

    The symbol route: rewrite at the base position, apply the letterwise
    twist rules, then shift the window index.
    """
    base = normalize(rewrite(r))
    if twisted:
        base = twist(base)
    return base.shift(m)


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def _least_rotation(keys: tuple) -> tuple:
    """The lexicographically least rotation of a tuple, in linear time.

    Two candidate starts i and j are compared over the doubled tuple,
    with k letters matched so far.  At the first difference the start
    with the larger letter loses, and so does every start up to k past
    it (each is beaten by the start the same distance past the other), so
    it jumps k + 1 ahead, one more if it lands on the other start.  When a
    start or k reaches the length, the smaller start begins the least
    rotation.
    """
    n = len(keys)
    s = keys + keys
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    i = min(i, j)
    return keys[i:] + keys[:i]


def _cyclic_key(letters: tuple) -> tuple:
    """Least rotation of a cyclic word or of its inverse, given its letters
    as ``(family, indices, exp)`` tuples (index expressions for a
    template), which Python orders as they stand.

    Involution letters are compared with a fixed positive sign, without
    free cancellation of the flipped letters, so that spellings that
    differ only in inverse involution letters collide.
    """
    fwd = tuple((l[0], l[1], 1) if l[0] == "g" else l for l in letters)
    bwd = tuple(l if l[0] == "g" else (l[0], l[1], -l[2]) for l in reversed(fwd))
    return min(_least_rotation(fwd), _least_rotation(bwd))


def canon_key(w: Word) -> tuple:
    """A cyclic canonical key: minimal rotation of the word or its inverse."""
    w = w.cyclic_reduce()
    if not w:
        return ()
    return _cyclic_key(tuple((sym.family, sym.indices, exp) for sym, exp in w))


def canon_equal(u: Word, v: Word) -> bool:
    return canon_key(u) == canon_key(v)


@functools.lru_cache(maxsize=None)
def template_canon_key(t: TemplateWord) -> tuple:
    """Template analogue of canon_key, shift-normalized in the window.

    The template is cyclically reduced before the shift, so a conjugating
    letter at a lower window offset than the core cannot move the key.
    """
    t = t.cyclic_reduce()
    offs = t.m_offsets()
    if offs:
        t = t.shift(-min(offs))
    if not t:
        return ()
    return _cyclic_key(t.letters)


# ---------------------------------------------------------------------------
# Comparison tiers
# ---------------------------------------------------------------------------


def catalog_substitutions(t: TemplateWord, group: str) -> TemplateWord:
    """Rewrite b letters, second-bit f letters and (welded) a letters
    through their catalog spellings (``presets.SPELLINGS``) in the f and
    a families.

    One pass over the spelling table, in table order, does it: every
    spelling yields only f(m,0) and a letters, and the welded a entry
    comes after the b entries whose spellings bring a letters in.
    """
    table = presets.WELDED_SPELLINGS if group == "wb" else presets.SPELLINGS
    for (family, fixed), spelling in table.items():
        t = t.substitute_family(family, fixed, spelling)
    return t


_TORSION_ORDER = {"f": 3, "g": 2}


def torsion_merge(letters: tuple) -> tuple:
    """Merge runs of one template letter: f letters count modulo three (a
    residue of two becoming one inverse letter), g letters modulo two,
    other letters are only freely reduced.

    One pass over a stack of (letter, exponent total) runs: a run whose
    total comes to nothing goes, so its neighbours meet and merge in turn.
    Every total is brought into its residue range as it is pushed, so a
    lone g(m,3)^-1 comes out as g(m,3).
    """
    runs: list = []
    for fam, exprs, exp in letters:
        key = (fam, exprs)
        if runs and runs[-1][0] == key:
            exp += runs.pop()[1]
        order = _TORSION_ORDER.get(fam)
        if order is not None:
            exp %= order
            if order == 3 and exp == 2:
                exp = -1
        if exp:
            runs.append((key, exp))
    out: list = []
    for key, total in runs:
        out.extend([key + (1 if total > 0 else -1,)] * abs(total))
    return tuple(out)


def torsion_normalize(t: TemplateWord) -> TemplateWord:
    """Cyclic normal form with f letters of order three, g letters of
    order two.  The result is only meant for cyclic comparison.

    Every rotation that does not end the loop shortens the word, so the
    loop ends within len + 1 rounds; NotConverged guards that bound.
    """
    letters = t.letters
    for _ in range(len(letters) + 1):
        letters = torsion_merge(letters)
        if len(letters) < 2 or letters[0][:2] != letters[-1][:2]:
            break
        key = letters[-1][:2]
        k = 0
        while k < len(letters) and letters[-1 - k][:2] == key:
            k += 1
        if k == len(letters):
            break
        letters = letters[-k:] + letters[:-k]
    else:
        raise NotConverged("torsion normal form of %s did not settle" % print_template(t))
    return TemplateWord(letters)


def compare_words(engine: Word, stated: Word, group: str) -> tuple[str, str]:
    """Three-tier comparison; returns (tier, verdict).

    Tier (c) lifts both words to constant templates, spells them through
    the catalog, merges their torsion and compares template keys.
    """
    if engine == stated:
        return "a", "exact"
    if canon_equal(engine, stated):
        return "b", "equal-after-normalization"
    e, s = (torsion_normalize(catalog_substitutions(lift(w), group)) for w in (engine, stated))
    if template_canon_key(e) == template_canon_key(s):
        return "c", "equal-after-normalization"
    return "", "MISMATCH"


# ---------------------------------------------------------------------------
# Statement verification
# ---------------------------------------------------------------------------


def _rho1_involution_normal(w: Word) -> Word:
    """Normalize an ambient word modulo the involution of the first
    symmetric letter: inverse letters made positive, adjacent squares
    cancelled."""
    letters = [
        (sym, 1) if sym.family == "rho" and sym.indices[0] == 1 and exp == -1 else (sym, exp)
        for sym, exp in w
    ]
    stack: list = []
    for sym, exp in letters:
        if (
            stack
            and exp == 1
            and stack[-1] == (sym, 1)
            and sym.family == "rho"
            and sym.indices[0] == 1
        ):
            stack.pop()
        else:
            stack.append((sym, exp))
    return Word(stack)


def _check_shifts_with_m(label: str, t: TemplateWord) -> None:
    """Raise ShapeMismatch unless every a/b/f/g letter of t sits at window
    index m+k and no other slot holds m: only then is t's instance at m
    the shift of its instance at 0."""
    for fam, exprs, exp in t.letters:
        if [var == "m" for var, _ in exprs] != [fam in M_FAMILIES] + [False] * (len(exprs) - 1):
            raise ShapeMismatch(
                "relator %s does not shift with the window: letter %s"
                % (label, print_letter((fam, exprs, exp)))
            )


def _word_pattern(w: Word) -> str:
    """``print_word``'s text of w with ``%(k)s`` in place of each window
    index k; filled by ``_shifted(m)`` it prints ``w.shift(m)``."""
    toks = []
    for sym, exp in w.letters:
        body = str(sym)
        if sym.family in M_FAMILIES:
            body = "%s(%%(%d)s%s)" % (sym.family, sym.indices[0], "".join(",%d" % i for i in sym.indices[1:]))
        toks.append(body if exp == 1 else body + "^-1")
    return " ".join(toks) or "1"


class _Shifted(dict):
    """The text of m + k under the key ``str(k)``: what every window
    pattern of a (relator, twist) plan takes at m.  ``_shifted`` hands
    one instance per m to every caller, so it is read, never written."""

    def __init__(self, m: int):
        self.m = m

    def __missing__(self, key: str) -> str:
        text = self[key] = str(self.m + int(key))
        return text


_shifted = functools.lru_cache(maxsize=1024)(_Shifted)


class Plan(NamedTuple):
    """One pattern of verify rows: a (relator, twist) over the m-range, an
    L3_1 family over one sign region of its s1 runs, or one fixed row.

    ``engine``, ``paper`` and ``params`` are ``%`` patterns that take the
    mapping ``fill(m)`` at every m in lo..hi; a windowed plan's params
    take m as ``%(0)s``.  A fixed row has the one m 0 and no slots.
    """

    engine: str
    paper: str
    params: str
    tier: str
    verdict: str
    lo: int = 0
    hi: int = 0
    fill: Callable = _shifted

    @property
    def size(self) -> int:
        return max(0, self.hi - self.lo + 1)

    def row(self, m: int) -> dict:
        fill = self.fill(m)
        return {
            "params": self.params % fill,
            "engine_word": self.engine % fill,
            "paper_word": self.paper % fill,
            "tier": self.tier,
            "verdict": self.verdict,
        }


class Cases:
    """The rows of one statement table: a sized, re-iterable view of its
    plans.  Iterating it yields each row as a dict, in the printed order
    of ``walk``."""

    def __init__(self, plans: list[Plan], m_range: tuple[int, int]):
        self.plans, self.m_range = plans, m_range

    def __len__(self) -> int:
        return sum(plan.size for plan in self.plans)

    def __iter__(self):
        return (plan.row(m) for plan, m in self.walk())

    def walk(self):
        """Yield ``(plan, m)`` for every row, in the text order of the
        params: the text before m, then m in ``str`` order, then the text
        after m.  That is the order of the params texts themselves, since
        no text before m is a proper prefix of another and every text after
        m begins below the digits."""
        ms = sorted(range(self.m_range[0], self.m_range[1] + 1), key=str)
        groups: dict = {}
        for plan in self.plans:
            groups.setdefault(plan.params.partition("%(")[0], []).append(plan)
        for _, plans in sorted(groups.items()):
            spans = [(plan, plan.lo, plan.hi) for plan in sorted(plans, key=lambda plan: plan.params)]
            for m in ms if "%(" in plans[0].params else (0,):
                for plan, lo, hi in spans:
                    if lo <= m <= hi:
                        yield plan, m


def _closed_form_verdict(engine: Word, stated: Word) -> tuple[str, str]:
    """Tier and verdict of a defining expansion against its closed form."""
    if engine == stated:
        return "a", "exact"
    if _rho1_involution_normal(engine) == _rho1_involution_normal(stated):
        return "b", "equal-after-normalization"
    return "", "MISMATCH"


def _s1_split(w: Word) -> tuple[int, tuple, int]:
    """Split w as s1^p core s1^q, where the core begins and ends with a
    letter other than s1^+-1, and return (p, core letters, q).

    Raises ShapeMismatch when w has no such core."""
    s1 = sigma(1)
    letters = w.letters
    i, j = 0, len(letters)
    while i < j and letters[i][0] == s1:
        i += 1
    while j > i and letters[j - 1][0] == s1:
        j -= 1
    if i == j:
        raise ShapeMismatch("%s has no core between its s1 runs" % print_word(w))
    return sum(e for _, e in letters[:i]), letters[i:j], sum(e for _, e in letters[j:])


def _closed_form_family(family: str, fixed: tuple) -> tuple:
    """The shape s1^p(m) core s1^q(m) shared by the expansion and the
    closed form of a family's letter at m, read at m = 0 and m = 1:
    (p, q, (expansion core, closed-form core)), with p and q as
    (slope, intercept).

    Raises ShapeMismatch unless each core stays put from m = 0 to m = 1
    and the two words have the same s1 runs there."""
    label = "%s(m%s)" % (family, "".join(",%d" % i for i in fixed))
    (engine0, engine1), (stated0, stated1) = (
        [_s1_split(spell(Symbol(family, (m,) + fixed))) for m in (0, 1)] for spell in (expansion, closed_form)
    )
    if engine0[1] != engine1[1] or stated0[1] != stated1[1]:
        raise ShapeMismatch("the core of %s moves with m" % label)
    if [w[::2] for w in (engine0, engine1)] != [w[::2] for w in (stated0, stated1)]:
        raise ShapeMismatch("the s1 runs of %s differ between its expansion and its closed form" % label)
    (p0, core, q0), (p1, _, q1) = engine0, engine1
    return (p1 - p0, p0), (q1 - q0, q0), (core, stated0[1])


def _runs(p: tuple[int, int], q: tuple[int, int]) -> Callable:
    """The fill of an L3_1 plan: m, and the s1 runs of p(m) and q(m)
    letters around the cores; p and q are (slope, intercept)."""

    def fill(m):
        pm, qm = p[0] * m + p[1], q[0] * m + q[1]
        left = ("s1 " if pm > 0 else "s1^-1 ") * abs(pm)
        return {"0": str(m), "l": left, "r": (" s1" if qm > 0 else " s1^-1") * abs(qm)}

    return fill


def _closed_form_plans(n: int, m_range: tuple[int, int]) -> list[Plan]:
    """The L3_1 plans: the defining expansion of every a/b/f/g letter over
    the m-range against its closed form, then the c(l) letters.

    Both words of a family's letter at m are s1^p(m) core s1^q(m), with p
    and q affine in m and shared by the two words (``_closed_form_family``).
    The cores begin and end with a letter other than s1^+-1, so free
    reduction never crosses a block boundary: the words are equal iff
    their cores are, and equal after ``_rho1_involution_normal`` iff the
    normal forms of their cores are, since that normal form leaves s1
    letters in place and equal outer s1 powers cancel in the free group.
    So each family is split once and has one plan per sign region of
    (p, q), an interval of m, whose verdict is computed at its first m,
    where the split is checked against the family's.
    """
    families = [("a", ())] + [(fam, (e,)) for e in (0, 1) for fam in ("b", "f")]
    families += [("g", (l,)) for l in range(3, n)]
    plans = []
    for family, fixed in families:
        p, q, cores = _closed_form_family(family, fixed)
        engine, paper = ("%%(l)s%s%%(r)s" % print_word(Word(core)) for core in cores)
        params = "%s(%%(0)s%s)" % (family, "".join(",%d" % i for i in fixed))
        region = None
        for m in range(m_range[0], m_range[1] + 1):
            pm, qm = p[0] * m + p[1], q[0] * m + q[1]
            key = ((pm > 0) - (pm < 0), (qm > 0) - (qm < 0))
            if key == region:
                continue
            if region is not None:  # the family's last region ends here
                plans[-1] = plans[-1]._replace(hi=m - 1)
            region = key
            sym = Symbol(family, (m,) + fixed)
            engine_word, stated = expansion(sym), closed_form(sym)
            if (_s1_split(engine_word), _s1_split(stated)) != ((pm, cores[0], qm), (pm, cores[1], qm)):
                raise ShapeMismatch("%s does not split like its family at m=0, 1" % sym)
            tier, verdict = _closed_form_verdict(engine_word, stated)
            plans.append(Plan(engine, paper, params, tier, verdict, m, m_range[1], _runs(p, q)))
    for l in range(3, n):
        engine, stated = expansion(c(l)), closed_form(c(l))
        plans.append(_fixed_plan(str(c(l)), engine, stated, *_closed_form_verdict(engine, stated)))
    return plans


def _fixed_plan(params: str, engine: Word, stated: Word, tier: str, verdict: str) -> Plan:
    """The plan of one fixed row; a tier (a) row prints the engine word twice."""
    text = print_word(engine)
    return Plan(text, text if tier == "a" else print_word(stated), params, tier, verdict)


def _conjugation_plans(n: int) -> list[Plan]:
    plans = []
    for sym_text, stated_text, domain in presets.CONJUGATION_RULES:
        for bind in domain(n):
            sym = parse_template(sym_text).instantiate(**bind)[0][0]
            params = str(sym) + ("[%s]" % presets.params_text(bind) if bind else "")
            engine, stated = rho1_rule(sym), parse_template(stated_text).instantiate(**bind)
            plans.append(_fixed_plan(params, engine, stated, *compare_words(engine, stated, "vb")))
    return plans


def verify_lemma(lemma: str, group: str, n: int, m_range: tuple[int, int] = (-2, 2)) -> dict:
    """Re-derive one statement table and compare case by case.

    Each (relator, twist) pair is rewritten, instantiated, compared and
    printed once, at m=0, as one ``Plan``; ``"cases"`` is the ``Cases``
    view of the plans, whose row at window position m fills the plan's
    printed patterns.  This is exact because every window slot of every
    stated template is relative to m (``_check_shifts_with_m``), and a
    uniform shift of the window index preserves word equality, the letter
    order of ``canon_key``, the catalog spellings (written for the letter
    at plain m) and the torsion merge.
    """
    presets.check_rank(n)
    if lemma not in presets.LEMMA_IDS:
        raise ParseError("unknown statement id %r" % lemma)
    notes: list[str] = []
    if lemma == "L3_1":
        cases = Cases(_closed_form_plans(n, m_range), m_range)
    elif lemma == "CON":
        cases = Cases(_conjugation_plans(n), m_range)
    else:
        fam_label, table, needs = presets.LEMMA_TABLES[lemma]
        if needs == "wb" and group != "wb":
            raise ParseError("statement %s concerns the welded group" % lemma)
        row = {fam.label: fam for fam in presets.ambient_relator_families(group)}[fam_label]
        plans = []
        for params in row.domain(n):
            r = row.template.instantiate(**params)
            ptxt = presets.params_text(params)
            for twisted in (False, True):
                mapped = presets.lemma_case_map(lemma, params, twisted)
                stated0 = Word()
                if mapped is not None:
                    idx, aux = mapped
                    fam = table[idx]
                    stated = fam.template.bind(**aux)
                    _check_shifts_with_m(fam.label, stated)
                    stated0 = stated.instantiate(m=0)
                    note = "%s: %s" % (fam.label, fam.note)
                    if fam.note and note not in notes:
                        notes.append(note)
                base = derive_relation(r, 0, twisted)
                tier, verdict = compare_words(base, stated0, group)
                engine = _word_pattern(base)
                paper = engine if tier == "a" else _word_pattern(stated0)
                params_m = "%s,m=%%(0)s,twist=%d" % (ptxt, twisted)
                plans.append(Plan(engine, paper, params_m, tier, verdict, *m_range))
        cases = Cases(plans, m_range)
    return {
        "lemma": lemma,
        "group": group,
        "n": n,
        "m_range": [m_range[0], m_range[1]],
        "cases": cases,
        "notes": notes,
    }


# ---------------------------------------------------------------------------
# Catalog assembly
# ---------------------------------------------------------------------------


def assemble(group: str, n: int) -> presets.Presentation:
    """Mechanically derive the full relator catalog at rank n.

    Every ambient relator is rewritten at the base position with both
    twists, lifted to a window template, rid of its second-bit f letters
    through their catalog spelling, and deduplicated up to the cyclic
    canonical form.  The first relator to reach a form names it.
    """
    presets.check_rank(n)
    if n < 3:
        raise presets.BadRank("catalog assembly needs rank >= 3, got %d" % n)
    square_bit = presets.SPELLINGS["f", (1,)]
    seen: dict[tuple, presets.FamilyInstance] = {}
    for fam in presets.ambient_relator_families(group):
        for params in fam.domain(n):
            r = fam.template.instantiate(**params)
            for twisted in (False, True):
                t = m_lift(derive_relation(r, 0, twisted)).substitute_family("f", (1,), square_bit)
                if not t:
                    continue
                offs = t.m_offsets()
                if offs:
                    t = t.shift(-min(offs))
                key = template_canon_key(t)
                if key in seen:
                    continue
                label = "%s[%s]%s" % (fam.label, presets.params_text(params), "+twist" if twisted else "")
                seen[key] = presets.FamilyInstance(label, t)
    return presets.Presentation(group, n, presets.derived_generators(n), tuple(seen.values()))


def _instance_keys(p: presets.Presentation, window: tuple[int, int]) -> dict:
    """{(template key, position): labels} of the instances ``presets.instantiate``
    keeps over the window, keying each relator template once.

    ``presets.span`` gives the m-interval of every template.  A template
    is keyed by ``template_canon_key`` of its cyclic core, and its instance
    at m sits at position (least window offset of the core) + m.  A
    window-free template has the one instance m=0; ``m_lift`` turns its
    constant window indices into offsets, so that it keys like the
    windowed instance it spells.  A windowed template whose instances are
    not shifts of each other raises ShapeMismatch.
    """
    domains = p.domains(window)
    keys: dict[tuple, list[str]] = {}
    for inst in p.relators:
        if inst.windowed():
            _check_shifts_with_m(inst.label, inst.template)
            _, lo, hi = presets.span(inst.template, domains)
            core = inst.template.cyclic_reduce()
            found = [("%s@%d" % (inst.label, m), m) for m in range(lo, hi + 1)]
        else:
            _, lo, _ = presets.span(inst.template, domains)
            core = m_lift(inst.template.instantiate()).cyclic_reduce()
            found = [(inst.label, 0)] if lo == -math.inf else []
        key, offs = template_canon_key(core), core.m_offsets()
        for label, m in found:
            keys.setdefault((key, min(offs) + m if offs else None), []).append(label)
    return keys


def compare_catalog(group: str, n: int, window: tuple[int, int]) -> dict:
    """Compare the assembled catalog with the stated one, instance by
    instance over a window, up to the cyclic canonical form.

    Each relator template is keyed once (see ``_instance_keys``).
    ``extra`` lists the labels of derived instances the stated catalog
    lacks, ``missing`` the converse.
    """
    mine, theirs = (
        _instance_keys(p, window) for p in (assemble(group, n), presets.derived_presentation(group, n))
    )
    extra = sorted(lbl for key in mine.keys() - theirs.keys() for lbl in mine[key])
    missing = sorted(lbl for key in theirs.keys() - mine.keys() for lbl in theirs[key])
    return {
        "derived_instances": sum(map(len, mine.values())),
        "stated_instances": sum(map(len, theirs.values())),
        "extra": extra,
        "missing": missing,
        "match": not extra and not missing,
    }


# Design-level name for the catalog assembly entry point.
assemble_derived_presentation = assemble

"""Preset presentations and reference relator catalogs.

This module holds the group-level data used everywhere else:

* the ambient presentations of the virtual and welded braid groups on
  ``n`` strands: the seven relation shapes of the virtual group and the
  welded move, each written as a :class:`RelatorFamily` text row over
  the strand indices ``i`` and ``j``, like every catalog family below;
* the reference catalogs of derived-subgroup relator families, both the
  per-source statement tables used by the verifier and the merged
  catalogs that the simplification scripts and the abelianizer start
  from;
* the b eliminations every script opens with (``B_STEPS``) and the
  catalog spellings of the b, second-bit f (both solved from their
  families) and welded a letters, which every substitution of them reads;
* the reference presentations of the stability profiles: the three
  final presentations the paper states (``stated_final``: VB_3', WB_3'
  and WB_4') and the b-free catalog at every other rank
  (``reduced_presentation``);
* the :class:`Presentation` container for parametric presentations (a
  finite list of relator templates in the window variable ``m``) with
  window instantiation, generator accounting, and a plain-text format;
* the window rule: ``Presentation.domains`` gives each generator block
  (``words.letter_block``) its index interval over a window (the window
  plus the block's trim; None for a c block, whose family has no window
  slot, as ``GeneratorFamily.windowed`` reads from the family) and
  ``span`` the interval of m at which a template's letters all lie
  in their blocks.  ``instantiate``, the abelianizer's row builder and
  the catalog comparison all keep the instances this rule keeps.

Strand conventions: braid letters ``s1 .. s(n-1)``, symmetric letters
``r1 .. r(n-1)``.  Derived families: ``a(m)``, ``b(m,e)``, ``c(l)``,
``f(m,e)``, ``g(m,l)`` with ``3 <= l <= n-1``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import BadRank, EmptyWindow, ParametricInput, ParseError, ShapeMismatch
from .words import (
    M_FAMILIES,
    Symbol,
    TemplateWord,
    letter_block,
    parse_template,
    print_letter,
    print_template,
    print_word,
    rho,
    sigma,
)

# ---------------------------------------------------------------------------
# Relator families over strand and window indices
# ---------------------------------------------------------------------------


def check_rank(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise BadRank("rank must be an integer >= 2, got %r" % (n,))


def params_text(params: dict) -> str:
    """The ``i=1,j=3`` spelling of integer parameters, in name order."""
    return ",".join("%s=%d" % (k, params[k]) for k in sorted(params))


DomainFn = Callable[[int], list]


def _always(n: int) -> list:
    return [{}]


def _needs_c3(n: int) -> list:
    return [{}] if n >= 4 else []


def _strands(name: str, low: int) -> DomainFn:
    """One strand index ``name`` from ``low``."""
    return lambda n: [{name: v} for v in range(low, n)]


def _adjacent(low: int) -> DomainFn:
    """A strand i from ``low`` with its neighbour i+1."""
    return lambda n: [{"i": i} for i in range(low, n - 1)]


def _far(low: int) -> DomainFn:
    """Strand pairs i < j at distance at least 2, both from ``low``."""
    return lambda n: [{"i": i, "j": j} for i in range(low, n) for j in range(i + 2, n)]


def _apart(first: str, second: str, low: int) -> DomainFn:
    """Ordered strand pairs at distance at least 2, both from ``low``."""
    return lambda n: [
        {first: i, second: j} for i in range(low, n) for j in range(low, n) if abs(i - j) > 1
    ]


# Each domain is built once, so equal shapes are the same object.  The
# ambient strand ranges start at strand 1, the derived ones at 3.
_I1, _ADJ1, _FAR1, _APART1 = _strands("i", 1), _adjacent(1), _far(1), _apart("i", "j", 1)
_I3, _J3, _J4, _K4 = _strands("i", 3), _strands("j", 3), _strands("j", 4), _strands("k", 4)
_ADJ3, _FAR3, _APART3 = _adjacent(3), _far(3), _apart("k", "l", 3)


@dataclass(frozen=True)
class RelatorFamily:
    """A relator template plus the rank-dependent domain of its aux names."""

    label: str
    text: str
    domain: DomainFn = _always
    note: str = ""

    @functools.cached_property
    def template(self) -> TemplateWord:
        return parse_template(self.text)

    def instance_label(self, aux: dict) -> str:
        return "%s[%s]" % (self.label, params_text(aux)) if aux else self.label

    def expand(self, n: int) -> list["FamilyInstance"]:
        return [FamilyInstance(self.instance_label(aux), self.template.bind(**aux)) for aux in self.domain(n)]


@dataclass(frozen=True)
class FamilyInstance:
    """An aux-bound relator family: a template in ``m`` alone (or constant)."""

    label: str
    template: TemplateWord

    def windowed(self) -> bool:
        return "m" in self.template.variables()


def expand_families(families: Iterable[RelatorFamily], n: int) -> tuple[FamilyInstance, ...]:
    out: list[FamilyInstance] = []
    for fam in families:
        out.extend(fam.expand(n))
    return tuple(out)


# ---------------------------------------------------------------------------
# Ambient presentations
# ---------------------------------------------------------------------------

# The seven relation shapes of the virtual group.
AMBIENT_VB_FAMILIES: tuple[RelatorFamily, ...] = (
    RelatorFamily("braid-commute", "sigma(i) sigma(j) sigma(i)^-1 sigma(j)^-1", _FAR1),
    RelatorFamily(
        "braid-adjacent",
        "sigma(i) sigma(i+1) sigma(i) sigma(i+1)^-1 sigma(i)^-1 sigma(i+1)^-1",
        _ADJ1,
    ),
    RelatorFamily("symmetric-involution", "rho(i) rho(i)", _I1),
    RelatorFamily("symmetric-commute", "rho(i) rho(j) rho(i) rho(j)", _FAR1),
    RelatorFamily("symmetric-adjacent", "rho(i) rho(i+1) rho(i) rho(i+1) rho(i) rho(i+1)", _ADJ1),
    RelatorFamily("mixed-commute", "sigma(i) rho(j) sigma(i)^-1 rho(j)", _APART1),
    RelatorFamily("mixed-adjacent", "rho(i) rho(i+1) sigma(i) rho(i+1) rho(i) sigma(i+1)^-1", _ADJ1),
)

# The welded move: the extra relation shape of the welded group.
AMBIENT_WELDED_FAMILIES: tuple[RelatorFamily, ...] = (
    RelatorFamily("welded", "rho(i) sigma(i+1) sigma(i) rho(i+1) sigma(i)^-1 sigma(i+1)^-1", _ADJ1),
)


def _for_group(group: str, vb_families: tuple, welded_families: tuple) -> tuple:
    if group == "vb":
        return vb_families
    if group == "wb":
        return vb_families + welded_families
    raise ParseError("unknown group %r" % group)


def ambient_relator_families(group: str) -> tuple[RelatorFamily, ...]:
    return _for_group(group, AMBIENT_VB_FAMILIES, AMBIENT_WELDED_FAMILIES)


@dataclass(frozen=True)
class FinitePresentation:
    """A concrete presentation: symbols and labelled relator words."""

    generators: tuple[Symbol, ...]
    relators: tuple  # ((label, Word), ...)


def ambient_presentation(group: str, n: int) -> FinitePresentation:
    check_rank(n)
    gens = tuple(sigma(i) for i in range(1, n)) + tuple(rho(i) for i in range(1, n))
    rels = tuple(
        (fam.instance_label(aux), fam.template.instantiate(**aux))
        for fam in ambient_relator_families(group)
        for aux in fam.domain(n)
    )
    return FinitePresentation(gens, rels)


# ---------------------------------------------------------------------------
# Merged catalog: the derived presentation the scripts start from
# ---------------------------------------------------------------------------

# Braid-letter consequences (from the two braid relator shapes).
_MAIN_B = [
    RelatorFamily(
        "b0-c-commute",
        "b(m,0) c(j) b(m+1,0)^-1 c(j)^-1",
        _J4,
        note=(
            "one stated domain bounds the strand index strictly above 4;"
            " the derivation yields every j >= 4"
        ),
    ),
    RelatorFamily("c-c-commute", "c(i) c(j) c(i)^-1 c(j)^-1", _FAR3),
    RelatorFamily("b1-c-commute", "b(m,1) a(m)^-1 c(j) a(m+1) b(m+1,1)^-1 c(j)^-1", _J4),
    RelatorFamily("c-a-c-commute", "c(i) a(m)^-1 c(j) c(i)^-1 a(m) c(j)^-1", _FAR3),
    RelatorFamily("b0-recurrence", "b(m+1,0) b(m+2,0)^-1 b(m,0)^-1"),
    RelatorFamily("b0-c3-braid", "b(m,0) c(3) b(m+2,0) c(3)^-1 b(m+1,0)^-1 c(3)^-1", _needs_c3),
    RelatorFamily("c-braid", "c(i) c(i+1) c(i) c(i+1)^-1 c(i)^-1 c(i+1)^-1", _ADJ3),
    RelatorFamily("b1-recurrence", "a(m) b(m+1,1) a(m+2) b(m+2,1)^-1 a(m+1)^-1 b(m,1)^-1"),
    RelatorFamily(
        "b1-c3-braid",
        "b(m,1) a(m)^-1 c(3) a(m+1) b(m+2,1) a(m+2)^-1 a(m+1)^-1 c(3)^-1 a(m) a(m+1) b(m+1,1)^-1 c(3)^-1",
        _needs_c3,
    ),
    RelatorFamily(
        "c-a-braid",
        "c(i) a(m)^-1 c(i+1) a(m)^-1 c(i) c(i+1)^-1 a(m) c(i)^-1 a(m) c(i+1)^-1",
        _ADJ3,
    ),
]

# Symmetric-letter consequences.
_MAIN_S = [
    RelatorFamily("g-involution", "g(m,i) g(m,i)", _I3),
    RelatorFamily("f-g-commute", "f(m,0) g(m,k) f(m,0) g(m,k)", _K4),
    RelatorFamily("g-g-commute", "g(m,i) g(m,j) g(m,i) g(m,j)", _FAR3),
    RelatorFamily("f-cube", "f(m,0) f(m,0) f(m,0)"),
    RelatorFamily("f-g3-braid", "f(m,0) g(m,3) f(m,0) g(m,3) f(m,0) g(m,3)", _needs_c3),
    RelatorFamily(
        "g-g-braid",
        "g(m,i) g(m,i+1) g(m,i) g(m,i+1) g(m,i) g(m,i+1)",
        _ADJ3,
    ),
]

# Mixed consequences.
_MAIN_M = [
    RelatorFamily("g-a-g", "g(m+1,i) a(m)^-1 g(m,i)", _I3),
    RelatorFamily("b-g-conjugate", "b(m,1) g(m+1,j) b(m,0)^-1 g(m,j)", _J4),
    RelatorFamily("c-g-conjugate", "c(k) g(m+1,l) c(k)^-1 g(m,l)", _APART3),
    RelatorFamily("c-f-conjugate", "c(j) f(m+1,0) c(j)^-1 f(m,0)^-1", _J4),
    RelatorFamily("f-step-b0", "f(m,0)^-1 f(m+1,0) b(m,0)^-1"),
    RelatorFamily("f-a-step-b1", "f(m,0) a(m) f(m+1,0)^-1 b(m,1)^-1"),
    RelatorFamily("f-g3-c3-braid-0", "f(m,0) g(m,3) b(m,0) g(m+1,3) f(m+1,0)^-1 c(3)^-1", _needs_c3),
    RelatorFamily("f-g3-c3-braid-1", "f(m,0)^-1 g(m,3) b(m,1) g(m+1,3) f(m+1,0) c(3)^-1", _needs_c3),
    RelatorFamily("g-g-c-braid", "g(m,i) g(m,i+1) c(i) g(m+1,i+1) g(m+1,i) c(i+1)^-1", _ADJ3),
]

MAIN_VB_FAMILIES: tuple[RelatorFamily, ...] = tuple(_MAIN_B + _MAIN_S + _MAIN_M)

# Welded consequences (the extra relator shape of the welded group).
WELDED_FAMILIES: tuple[RelatorFamily, ...] = (
    RelatorFamily("welded-a-f", "b(m,1) a(m+1) f(m+2,0)^-1 b(m,0)^-1"),
    RelatorFamily("welded-a-f-inverse", "b(m,0) f(m+2,0) a(m+1)^-1 b(m,1)^-1"),
    RelatorFamily("welded-c3-braid-0", "f(m,0) c(3) b(m+1,1) g(m+2,3) b(m+1,0)^-1 c(3)^-1", _needs_c3),
    RelatorFamily("welded-c3-braid-1", "f(m,0)^-1 c(3) b(m+1,0) g(m+2,3) b(m+1,1)^-1 c(3)^-1", _needs_c3),
    RelatorFamily("welded-c-shift", "g(m,i) c(i+1) c(i) g(m+2,i+1) c(i)^-1 c(i+1)^-1", _ADJ3),
    RelatorFamily(
        "welded-c-a-shift",
        "g(m,i) c(i+1) a(m)^-1 c(i) a(m+1) g(m+2,i+1) a(m+1)^-1 c(i)^-1 a(m) c(i+1)^-1",
        _ADJ3,
    ),
)


CATALOG_FAMILIES: dict[str, RelatorFamily] = {
    fam.label: fam for fam in MAIN_VB_FAMILIES + WELDED_FAMILIES
}


# The b eliminations every script opens with, in script order: (family,
# trailing indices, label of the defining family).
B_STEPS = (("b", (1,), "f-a-step-b1"), ("b", (0,), "f-step-b0"))

# The pairing relator of the symmetric involution (statement table L7).
F_PAIR = RelatorFamily(
    "f-pair",
    "f(m,0) f(m,1)",
    note=(
        "the stated i=2 input carries a rank-3 subscript where the"
        " derivation needs the rank-2 involution relator; rederived"
        " from the rank-2 relator and matched"
    ),
)

# How a b letter, a second-bit f letter and, in the welded group only, an
# a letter are spelled in the f and a families: (family, trailing indices)
# -> the spelling of the letter at plain window index m.  The b spellings
# solve their B_STEPS families and the f spelling solves F_PAIR; the
# welded a entry comes last, after the b entries that bring a letters in.
SPELLINGS: dict[tuple[str, tuple[int, ...]], TemplateWord] = {
    **{(family, fixed): CATALOG_FAMILIES[via].template.solve(family, fixed)[0]
       for family, fixed, via in B_STEPS},
    ("f", (1,)): F_PAIR.template.solve("f", (1,))[0],
}

WELDED_SPELLINGS = SPELLINGS | {
    ("a", ()): parse_template("f(m,0) f(m+1,0)"),
}


def main_families(group: str) -> tuple[RelatorFamily, ...]:
    return _for_group(group, MAIN_VB_FAMILIES, WELDED_FAMILIES)


# ---------------------------------------------------------------------------
# Parametric presentations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorFamily:
    """One generator block (``words.letter_block``): a family with the
    constants of its block slots.  ``basis`` records the seed indices after
    a reduction step (None while the whole integer line is needed).
    """

    family: str
    fixed: tuple[int, ...] = ()
    basis: Optional[tuple[int, ...]] = None

    @property
    def windowed(self) -> bool:
        """Whether the family has a window slot, its first."""
        return self.family in M_FAMILIES

    def name(self) -> str:
        if self.windowed:
            inner = ",".join(["m"] + [str(v) for v in self.fixed])
            return "%s(%s)" % (self.family, inner)
        return "%s(%s)" % (self.family, ",".join(str(v) for v in self.fixed))


@dataclass(frozen=True)
class Presentation:
    """A parametric presentation: generator blocks plus relator templates."""

    group: str
    n: int
    generators: tuple[GeneratorFamily, ...]
    relators: tuple[FamilyInstance, ...]
    trims: tuple = ()  # ((family, (dlo, dhi)), ...)

    def trim_for(self, family: str) -> tuple[int, int]:
        for fam, d in self.trims:
            if fam == family:
                return d
        return (0, 0)

    def domains(self, window: tuple[int, int]) -> dict:
        """Index interval of each generator block: {(family, fixed): (lo, hi) or None}.

        A windowed block gets the window adjusted by its family's trim (an
        empty interval has lo > hi); a block without a window slot gets None.
        """
        lo, hi = window
        if lo > hi:
            raise EmptyWindow("window [%d, %d] is empty" % (lo, hi))
        doms = {}
        for gen in self.generators:
            if gen.windowed:
                dlo, dhi = self.trim_for(gen.family)
                doms[gen.family, gen.fixed] = (lo + dlo, hi + dhi)
            else:
                doms[gen.family, gen.fixed] = None
        return doms


@dataclass(frozen=True)
class GeneratorSummary:
    finite: bool
    count: Optional[int]
    names: tuple[str, ...]
    unbounded: tuple[str, ...]


def generator_count(p: Presentation) -> GeneratorSummary:
    names: list[str] = []
    unbounded: list[str] = []
    for gen in p.generators:
        if not gen.windowed:
            names.append(gen.name())
        elif gen.basis is not None:
            names.extend(str(Symbol(gen.family, (m,) + gen.fixed)) for m in sorted(gen.basis))
        else:
            unbounded.append(gen.name())
    if unbounded:
        return GeneratorSummary(False, None, tuple(sorted(names)), tuple(sorted(unbounded)))
    return GeneratorSummary(True, len(names), tuple(sorted(names)), ())


def columns(domains: dict) -> tuple[dict, int]:
    """Int column ids of the block domains: (base, width).

    A windowed block with interval (lo, hi) has the columns base[block] +
    index for index in lo..hi, none when lo > hi; a block without a window
    index has the one column base[block].  Blocks are numbered in sorted
    key order, so equal domain dicts give equal numberings.
    """
    base, width = {}, 0
    for block in sorted(domains):
        dom = domains[block]
        if dom is None:
            base[block] = width
            width += 1
        else:
            base[block] = width - dom[0]
            width += max(0, dom[1] - dom[0] + 1)
    return base, width


def width(domains: dict) -> int:
    """The number of generators the block domains hold."""
    return columns(domains)[1]


def span(t: TemplateWord, domains: dict) -> tuple[list, float, float]:
    """t's letters as (column prefix, window variable, offset, exponent), and
    the interval [lo, hi] of m that puts every letter inside its domain.
    The window variable is "m", or "" for a constant window index; a
    letter of a family without a window slot has None and None there.

    This is the one window rule: every reader of a presentation over a
    window keeps the instances of t at exactly these m.  lo and hi stay
    infinite for a window-free template whose constant indices lie in
    their domains.  A letter of no declared block raises ShapeMismatch; a
    variable in a block slot (``words.letter_block``), or one other than m
    in the window slot, raises ParametricInput.
    """
    letters, lo, hi = [], -math.inf, math.inf
    for letter in t.letters:
        fam, exprs, exp = letter
        block = letter_block(fam, exprs)
        if block is None:
            slot = "a trailing index slot" if fam in M_FAMILIES else "the strand index slot"
            raise ParametricInput("template variable in %s of %s" % (slot, print_letter(letter)))
        if block not in domains:
            raise ShapeMismatch("relator letter %s is in no declared generator block" % print_letter(letter))
        if fam not in M_FAMILIES:
            letters.append((block, None, None, exp))
            continue
        var, off = exprs[0]
        if var and var != "m":
            raise ParametricInput("template variable %s in the window index slot of %s"
                                  % (var, print_letter(letter)))
        dom = domains[block]
        letters.append((block, var, off, exp))
        if var:
            lo, hi = max(lo, dom[0] - off), min(hi, dom[1] - off)
        elif not dom[0] <= off <= dom[1]:
            lo, hi = max(lo, 1), min(hi, 0)
    return letters, lo, hi


def instantiate(p: Presentation, window: tuple[int, int]) -> FinitePresentation:
    """Spell out a parametric presentation over an integer window.

    Only the window indices are constrained: a relator instance is kept
    when the window index of every windowed letter lies inside the domain
    of that letter's generator block (the window, adjusted by the block
    family's trim), as ``span`` reads it.  Strand indices are untouched.
    A window-free template has one instance, kept when its constant
    window indices lie in their domains.  A relator letter of no declared
    generator block raises ShapeMismatch.
    """
    domains = p.domains(window)
    gens: list[Symbol] = []
    for gen in p.generators:
        dom = domains[gen.family, gen.fixed]
        if dom is None:
            gens.append(Symbol(gen.family, gen.fixed))
        else:
            gens.extend(Symbol(gen.family, (m,) + gen.fixed) for m in range(dom[0], dom[1] + 1))
    rels: list = []
    for inst in p.relators:
        _, lo, hi = span(inst.template, domains)
        if lo == -math.inf:
            rels.append((inst.label, inst.template.instantiate()))
        else:
            for m in range(lo, hi + 1):
                rels.append(("%s@%d" % (inst.label, m), inst.template.instantiate(m=m)))
    return FinitePresentation(tuple(gens), tuple(rels))


# ---------------------------------------------------------------------------
# Reference reduced presentations
# ---------------------------------------------------------------------------

_GEN_A = GeneratorFamily("a")
_GEN_F = GeneratorFamily("f", (0,))


def derived_generators(n: int) -> tuple[GeneratorFamily, ...]:
    """The generator blocks of the derived subgroup at rank n: a, b(0),
    b(1), the c letters, f(0) and the g blocks (square bit gone)."""
    c, g = ([GeneratorFamily(fam, (l,)) for l in range(3, n)] for fam in "cg")
    return (_GEN_A, GeneratorFamily("b", (0,)), GeneratorFamily("b", (1,)), *c, _GEN_F, *g)


def derived_presentation(group: str, n: int) -> Presentation:
    """The merged derived presentation over a, b, c, f, g (square bit gone)."""
    check_rank(n)
    if n < 3:
        raise BadRank("the derived catalog needs rank >= 3, got %d" % n)
    rels = expand_families(main_families(group), n)
    return Presentation(group, n, derived_generators(n), rels)


_VB3_FINAL = (
    RelatorFamily(
        "f-recurrence",
        "f(m+1,0)^-1 f(m+2,0) f(m+3,0)^-1 f(m+2,0) f(m+1,0)^-1 f(m,0)",
    ),
    RelatorFamily(
        "a-f-braid",
        "a(m) f(m+1,0) a(m+1) f(m+2,0)^-1 a(m+2) f(m+3,0) a(m+2)^-1 f(m+2,0)^-1 a(m+1)^-1 f(m+1,0) a(m)^-1 f(m,0)^-1",
    ),
    CATALOG_FAMILIES["f-cube"],
)


_WB3_FINAL = _VB3_FINAL + (
    RelatorFamily(
        "a-f-step-braid",
        "a(m) f(m+1,0)^-1 a(m+1) f(m+2,0)^-1 f(m+1,0)^-1 f(m,0)^-1",
    ),
)


_WB4_FINAL = (
    RelatorFamily(
        "f-pair-recurrence",
        "f(m,0) f(m+1,0)^-1 f(m+2,0) f(m+3,0)^-1 f(m+2,0) f(m+1,0)^-1",
    ),
    RelatorFamily(
        "f-c3-braid",
        "f(m,0)^-1 f(m+1,0) c(3) f(m+2,0)^-1 f(m+3,0) c(3)^-1 f(m+2,0)^-1 f(m+1,0) c(3)^-1",
    ),
    RelatorFamily("f-pair-shift", "f(m,0) f(m+1,0) f(m+3,0)^-1 f(m+2,0)^-1"),
    RelatorFamily(
        "f-c3-mixed-braid",
        "f(m,0)^-1 f(m+1,0)^-1 f(m,0)^-1 c(3) f(m+1,0) f(m+3,0)^-1 f(m+2,0) "
        "f(m+1,0)^-1 c(3)^-1 f(m,0) f(m+1,0)^-1 f(m+2,0) f(m+1,0) c(3)^-1",
    ),
    RelatorFamily(
        "f-c3-conjugate-square",
        "f(m+2,0)^-1 f(m+1,0) c(3)^-1 f(m,0) c(3) f(m+1,0)^-1 "
        "f(m+2,0)^-1 f(m+1,0) c(3)^-1 f(m,0) c(3) f(m+1,0)^-1",
    ),
    CATALOG_FAMILIES["f-cube"],
    RelatorFamily(
        "g-f-exchange",
        "f(m+2,0)^-1 f(m+1,0) c(3)^-1 f(m,0) c(3) f(m+1,0)^-1 "
        "f(m+2,0)^-1 f(m+1,0) f(m,0) c(3)^-1 f(m-1,0) c(3) f(m,0)^-1",
    ),
    RelatorFamily(
        "c3-exchange",
        "f(m-1,0) c(3)^-1 f(m-2,0) c(3) f(m-1,0)^-1 c(3)^-1 "
        "f(m-1,0) c(3) f(m,0)^-1 f(m+1,0)^-1 c(3)",
    ),
    RelatorFamily(
        "long-exchange",
        "f(m,0) f(m-1,0) c(3)^-1 f(m-2,0) c(3) f(m-1,0)^-1 f(m,0)^-1 "
        "f(m+1,0)^-1 f(m,0) c(3)^-1 f(m-1,0) c(3) f(m,0)^-1 f(m+1,0) c(3)^-1",
    ),
)


# The presentations the paper states as final, VB_3' (Corollary 1.2)
# and WB_3', WB_4' (Theorem 1.3): (group, rank) -> (generator blocks,
# relator families, trims).  A presentation is built when it is asked
# for, so importing the module builds none.
_STATED_FINALS = {
    ("vb", 3): ((_GEN_A, _GEN_F), _VB3_FINAL, ()),
    ("wb", 3): ((_GEN_A, _GEN_F), _WB3_FINAL, (("a", (0, -1)),)),
    ("wb", 4): ((GeneratorFamily("c", (3,)), _GEN_F), _WB4_FINAL, ()),
}


def stated_final(group: str, n: int) -> Optional[Presentation]:
    """The final presentation the paper states for the derived subgroup:
    VB_3' at ("vb", 3), WB_3' at ("wb", 3) and WB_4' at ("wb", 4); None
    at every other group and rank, whose reference is the engine's own
    b-free catalog (``reduced_presentation``)."""
    if (group, n) not in _STATED_FINALS:
        return None
    gens, families, trims = _STATED_FINALS[group, n]
    return Presentation(group, n, gens, expand_families(families, n), trims)


def _b_free_presentation(group: str, n: int) -> Presentation:
    """The derived presentation with the b letters spelled out over a, c,
    f, g: the B_STEPS families and the b blocks go, and the a block is
    trimmed one short at the top of the window.  A substitution fast path
    of the scripts' B_STEPS eliminations, which are its test oracle."""
    p = derived_presentation(group, n)
    vias = {via for _, _, via in B_STEPS}
    rels = []
    for inst in p.relators:
        if inst.label not in vias:
            t = inst.template
            for family, fixed, _ in B_STEPS:
                t = t.substitute_family(family, fixed, SPELLINGS[family, fixed])
            rels.append(FamilyInstance(inst.label, t))
    gens = tuple(gen for gen in p.generators if gen.family != "b")
    return Presentation(group, n, gens, tuple(rels), trims=(("a", (0, -1)),))


def reduced_presentation(group: str, n: int) -> Presentation:
    """The reference presentation used for stability profiles: the stated
    final list at vb n=3, wb n=3 and wb n=4 (``stated_final``), and the
    b-free engine catalog at every other rank from 3 (vb n >= 4, wb
    n >= 5)."""
    check_rank(n)
    if n < 3:
        raise BadRank("reduced presentations start at rank 3, got %d" % n)
    stated = stated_final(group, n)
    return stated if stated is not None else _b_free_presentation(group, n)


# ---------------------------------------------------------------------------
# Statement tables for the verifier
# ---------------------------------------------------------------------------

# Each table lists relator families exactly as stated in the reference
# write-up of the corresponding consequence, keeping the second symmetric
# bit explicit (the merged catalogs above have it eliminated).  A family
# stated word for word as in the merged catalog is named by its catalog
# label; only the differing spellings are written out.  Positions matter:
# CASE_RULES indexes the tables.


def _statement_table(*entries) -> tuple[RelatorFamily, ...]:
    """Resolve catalog labels to their families.  A referenced family drops
    its note: catalog notes are reported by the catalog comparison, and
    the statement itself carries none."""
    return tuple(
        dataclasses.replace(CATALOG_FAMILIES[e], note="") if isinstance(e, str) else e
        for e in entries
    )


L3_FAMILIES = _statement_table("b0-c-commute", "c-c-commute", "b1-c-commute", "c-a-c-commute")

L5_FAMILIES = _statement_table(
    "b0-recurrence", "b0-c3-braid", "c-braid", "b1-recurrence", "b1-c3-braid", "c-a-braid"
)

L7_FAMILIES = _statement_table(F_PAIR, "g-involution")

L8_FAMILIES = _statement_table(
    "f-g-commute",
    RelatorFamily("f1-g-commute", "f(m,1) g(m,k) f(m,1) g(m,k)", _K4),
    "g-g-commute",
    RelatorFamily("involution-overlap", "g(m,j) g(m,j)", _J3, note="coincides with the involution family"),
)

L8_1_FAMILIES = _statement_table(
    RelatorFamily("f1-cube", "f(m,1) f(m,1) f(m,1)"),
    "f-g3-braid",
    "g-g-braid",
    "f-cube",
    RelatorFamily("f1-g3-braid", "f(m,1) g(m,3) f(m,1) g(m,3) f(m,1) g(m,3)", _needs_c3),
)

L10_FAMILIES = _statement_table(
    "g-a-g",
    RelatorFamily(
        "a-g-g",
        "a(m) g(m+1,i) g(m,i)",
        _I3,
        note=(
            "stated alongside the g-a-g spelling; the merged catalog keeps"
            " only the g-a-g form, and the twisted derivation matches this"
            " second spelling"
        ),
    ),
    RelatorFamily("b0-g-conjugate", "b(m,0) g(m+1,j) b(m,1)^-1 g(m,j)", _J4),
    "b-g-conjugate",
    "c-g-conjugate",
    RelatorFamily("c-f0-conjugate", "c(j) f(m+1,0) c(j)^-1 f(m,1)", _J4),
    RelatorFamily("c-f1-conjugate", "c(j) f(m+1,1) c(j)^-1 f(m,0)", _J4),
)

L12_FAMILIES = _statement_table(
    RelatorFamily("f1-f0-b0", "f(m,1) f(m+1,0) b(m,0)^-1"),
    RelatorFamily("f0-a-f1-b1", "f(m,0) a(m) f(m+1,1) b(m,1)^-1"),
    RelatorFamily("f0-g3-braid-b0", "f(m,0) g(m,3) b(m,0) g(m+1,3) f(m+1,1) c(3)^-1", _needs_c3),
    RelatorFamily("f1-g3-braid-b1", "f(m,1) g(m,3) b(m,1) g(m+1,3) f(m+1,0) c(3)^-1", _needs_c3),
    "g-g-c-braid",
)

L5_2_FAMILIES = _statement_table(
    RelatorFamily("welded-a-f", "b(m,1) a(m+1) f(m+2,1) b(m,0)^-1"),
    "welded-c3-braid-0",
    "welded-c-shift",
    "welded-a-f-inverse",
    RelatorFamily(
        "welded-c3-braid-1",
        "f(m,1) c(3) f(m+1,0) a(m+1) g(m+2,3) b(m+1,1)^-1 c(3)^-1",
        _needs_c3,
        note="stated with f(m+1,0) a(m+1) where the mechanical rewrite yields b(m+1,0); equal after the catalog substitutions",
    ),
    "welded-c-a-shift",
)

# Conjugation rule statements: symbol text -> conjugated word text, over
# the domain of their aux names.
CONJUGATION_RULES = (
    ("a(1)", "a(0) a(1)^-1 a(0)^-1", _always),
    ("f(2,1)", "a(0) a(1) f(2,0) a(1)^-1 a(0)^-1", _always),
    ("g(2,i)", "a(0) a(1) g(2,i) a(1)^-1 a(0)^-1", _I3),
)

LEMMA_IDS = ("L3_1", "L3", "L5", "L7", "L8", "L8_1", "L10", "L12", "CON", "L5_2")

LEMMA_TABLES = {
    "L3": ("braid-commute", L3_FAMILIES, "vb"),
    "L5": ("braid-adjacent", L5_FAMILIES, "vb"),
    "L7": ("symmetric-involution", L7_FAMILIES, "vb"),
    "L8": ("symmetric-commute", L8_FAMILIES, "vb"),
    "L8_1": ("symmetric-adjacent", L8_1_FAMILIES, "vb"),
    "L10": ("mixed-commute", L10_FAMILIES, "vb"),
    "L12": ("mixed-adjacent", L12_FAMILIES, "vb"),
    "L5_2": ("welded", L5_2_FAMILIES, "wb"),
}


# How each ambient relator case of a statement maps into its table: per
# lemma, an ordered tuple of rules (ambient index, its value or None for
# any other value, family index without the twist, family index with the
# twist, {stated aux name: ambient index name}).  The first rule whose
# index takes its value applies; a family index of None marks a case
# whose rewriting is freely trivial.
CASE_RULES = {
    "L3": (("i", 1, None, None, {}), ("i", 2, 0, 2, {"j": "j"}), ("i", None, 1, 3, {"i": "i", "j": "j"})),
    "L5": (("i", 1, 0, 3, {}), ("i", 2, 1, 4, {}), ("i", None, 2, 5, {"i": "i"})),
    "L7": (("i", 1, None, None, {}), ("i", 2, 0, 0, {}), ("i", None, 1, 1, {"i": "i"})),
    "L8": (("i", 1, 3, 3, {"j": "j"}), ("i", 2, 0, 1, {"k": "j"}), ("i", None, 2, 2, {"i": "i", "j": "j"})),
    "L8_1": (("i", 1, 0, 3, {}), ("i", 2, 1, 4, {}), ("i", None, 2, 2, {"i": "i"})),
    "L10": (
        ("j", 1, None, None, {}),
        ("j", 2, 5, 6, {"j": "i"}),
        ("i", 1, 0, 1, {"i": "j"}),
        ("i", 2, 2, 3, {"j": "j"}),
        ("i", None, 4, 4, {"k": "i", "l": "j"}),
    ),
    "L12": (("i", 1, 0, 1, {}), ("i", 2, 2, 3, {}), ("i", None, 4, 4, {"i": "i"})),
    "L5_2": (("i", 1, 0, 3, {}), ("i", 2, 1, 4, {}), ("i", None, 2, 5, {"i": "i"})),
}


def lemma_case_map(lemma: str, params: dict, twist: bool):
    """Map an ambient relator case to the stated family it must produce.

    Returns ``None`` for cases whose rewriting is freely trivial, else a
    pair ``(family_index, aux_binding)`` into the lemma's family table.
    """
    if lemma not in CASE_RULES:
        raise ParseError("no case map for lemma %r" % lemma)
    for key, value, plain, twisted, aux in CASE_RULES[lemma]:
        if value is None or params[key] == value:
            idx = twisted if twist else plain
            return None if idx is None else (idx, {name: params[src] for name, src in aux.items()})
    raise ParseError("no case rule of %s matches [%s]" % (lemma, params_text(params)))


# ---------------------------------------------------------------------------
# Presentation text format
# ---------------------------------------------------------------------------


def print_presentation(p: Presentation) -> str:
    lines = ["group: %s" % p.group, "n: %d" % p.n, "generators:"]
    for gen in p.generators:
        if not gen.windowed:
            lines.append("  %s" % gen.name())
        elif gen.basis is not None:
            lines.append("  %s for m in {%s}" % (gen.name(), ",".join(str(v) for v in sorted(gen.basis))))
        else:
            lines.append("  %s for m in Z" % gen.name())
    for fam, (dlo, dhi) in p.trims:
        lines.append("trim: %s %+d %+d" % (fam, dlo, dhi))
    lines.append("relators:")
    for inst in p.relators:
        lines.append("  # %s" % inst.label)
        lines.append("  %s" % print_template(inst.template))
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> Presentation:
    """Read the text ``print_presentation`` writes.  A malformed line, a
    generator block declared twice, a repeated seed index, a family
    trimmed twice, a relator label used twice and a label with no relator
    after it each raise ParseError naming the line."""
    group = ""
    n = 0
    gens: list[GeneratorFamily] = []
    rels: list[FamilyInstance] = []
    labels: set[str] = set()
    trims: list = []
    section = ""
    pending_label: Optional[str] = None
    lines = [raw.strip() for raw in text.splitlines() if raw.strip()]
    for i, line in enumerate(lines):
        if line.startswith("group:"):
            group = line.split(":", 1)[1].strip()
            continue
        try:
            if line.startswith("n:"):
                n = int(line.split(":", 1)[1])
                continue
            if line.startswith("trim:"):
                fam, dlo, dhi = line.split(":", 1)[1].split()
                trim = (fam, (int(dlo), int(dhi)))
        except ValueError:
            raise ParseError("bad line %r" % line) from None
        if line.startswith("trim:"):
            if fam in dict(trims):
                raise ParseError("family %r trimmed twice: %r" % (fam, line))
            trims.append(trim)
            continue
        if line == "generators:":
            section = "generators"
            continue
        if line == "relators:":
            section = "relators"
            continue
        if section == "generators":
            # one positive letter with constant block slots, read over "m in
            # Z" or a seed set exactly when its family has a window slot, at m
            name, windowed, dom = line.partition(" for m in ")
            dom = dom.strip()
            basis: Optional[tuple[int, ...]] = None
            if windowed and dom != "Z":
                if not (dom.startswith("{") and dom.endswith("}")):
                    raise ParseError("bad generator domain %r" % dom)
                try:
                    basis = tuple(int(v) for v in dom[1:-1].split(","))
                except ValueError:
                    raise ParseError("bad generator line %r" % line) from None
                if len(set(basis)) != len(basis):
                    raise ParseError("repeated seed index in %r" % line)
            t = parse_template(name.strip())
            if len(t) != 1:
                raise ParseError("bad generator line %r" % line)
            fam, exprs, exp = t.letters[0]
            if windowed and exprs[:1] != (("m", 0),):
                raise ParseError("windowed generator must use plain m: %r" % line)
            block = letter_block(fam, exprs)
            if block is None or exp != 1 or bool(windowed) != (fam in M_FAMILIES):
                raise ParseError("bad generator line %r" % line)
            if any((gen.family, gen.fixed) == block for gen in gens):
                raise ParseError("generator block declared twice: %r" % line)
            gens.append(GeneratorFamily(*block, basis))
        elif section == "relators":
            if line.startswith("#"):
                if i + 1 == len(lines) or lines[i + 1].startswith("#"):
                    raise ParseError("relator label with no relator after it: %r" % line)
                pending_label = line[1:].strip()
                continue
            label = pending_label or "relator-%d" % len(rels)
            if label in labels:
                raise ParseError("relator label %r used twice, at %r" % (label, line))
            labels.add(label)
            pending_label = None
            rels.append(FamilyInstance(label, parse_template(line)))
        else:
            raise ParseError("unexpected line %r" % line)
    return Presentation(group, n, tuple(gens), tuple(rels), tuple(trims))


def print_finite(fp: FinitePresentation) -> str:
    lines = ["generators:"]
    for sym in fp.generators:
        lines.append("  %s" % sym)
    lines.append("relators:")
    for label, w in fp.relators:
        lines.append("  # %s" % label)
        lines.append("  %s" % print_word(w))
    return "\n".join(lines) + "\n"

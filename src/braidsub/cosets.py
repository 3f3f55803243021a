"""Coset bookkeeping for the derived subgroup of the ambient groups.

The derived subgroup is the kernel of the homomorphism onto Z x Z/2 that
sends every braid letter to (1, 0) and every symmetric letter to (0, 1).
Cosets are therefore pairs ``(i, e)`` with ``i`` an integer and ``e`` a
bit; the chosen transversal representative of ``(i, e)`` is ``s1^i r1^e``.

For each coset and each ambient letter, the Schreier construction either
yields no subgroup generator at all (the defining word reduces freely to
nothing), yields the square of the first symmetric letter (an internal
marker that normalization drops, since that square is an ambient
relator), or yields one of the indexed families a, b, c, f, g:

====================  =======================================
letter at ``(i, e)``  generator
====================  =======================================
``s1``                nothing if e = 0, else ``a(i)``
``s2``                ``b(i, e)``
``sl`` with l > 2     ``c(l)``           (coset independent)
``r1``                nothing if e = 0, else the internal square
``r2``                ``f(i, e)``
``rl`` with l > 2     ``g(i, l)``        (bit independent)
====================  =======================================

``step`` is the one rule for how a letter moves the coset; ``phi`` walks
it from the origin.  ``schreier_generator`` reads the table forwards.
``defining_slot`` reads it backwards: each generator has one defining
slot, the coset P and positive letter x at which the table emits it, and
``expansion`` multiplies out its factor rep(P) x rep(Px)^-1 there.

Every generator also has a closed-form spelling in the ambient letters,
used when printing and when expanding subgroup words; symmetric letters
appear there with positive exponent only.
"""

from __future__ import annotations

from typing import Optional

from .errors import ForeignSymbol
from .words import Symbol, Word, rho, sigma

Coset = tuple  # (int, int)

ORIGIN: Coset = (0, 0)

# Internal marker family for the square of the first symmetric letter.
# It never appears in normalized subgroup words.
R1SQ = "r1sq"


def phi(w: Word) -> Coset:
    """Image of an ambient word in Z x Z/2: the coset its walk from ORIGIN ends at."""
    coset = ORIGIN
    for sym, exp in w:
        coset = step(coset, sym, exp)
    return coset


def step(coset: Coset, sym: Symbol, exp: int) -> Coset:
    """Coset reached after reading one ambient letter."""
    i, e = coset
    if sym.family == "sigma":
        return (i + exp, e)
    if sym.family == "rho":
        return (i, e ^ 1)
    raise ForeignSymbol("not an ambient letter: %s" % sym)


def representative(coset: Coset) -> Word:
    """Transversal word s1^i r1^e for the coset (i, e)."""
    i, e = coset
    letters = [(sigma(1), 1 if i > 0 else -1)] * abs(i)
    letters += [(rho(1), 1)] * (e & 1)
    return Word(letters)


def schreier_generator(coset: Coset, sym: Symbol, internal: bool = False) -> Optional[Symbol]:
    """Classify the Schreier generator at ``coset`` for a positive letter.

    Returns None when the defining word is freely trivial.  With
    ``internal=True`` the square marker for the first symmetric letter is
    returned as a symbol of the private family instead of None.
    """
    i, e = coset
    if sym.family == "sigma":
        l = sym.indices[0]
        if l == 1:
            return Symbol("a", (i,)) if e else None
        if l == 2:
            return Symbol("b", (i, e))
        return Symbol("c", (l,))
    if sym.family == "rho":
        l = sym.indices[0]
        if l == 1:
            if e and internal:
                return Symbol(R1SQ, (i,))
            return None
        if l == 2:
            return Symbol("f", (i, e))
        return Symbol("g", (i, l))
    raise ForeignSymbol("not an ambient letter: %s" % sym)


def defining_slot(sym: Symbol) -> tuple[Coset, Symbol]:
    """The coset and the positive ambient letter whose reading defines a
    generator: the table above, read backwards."""
    fam, idx = sym.family, sym.indices
    if fam == "a":
        return (idx[0], 1), sigma(1)
    if fam == "b":
        return (idx[0], idx[1]), sigma(2)
    if fam == "c":
        return ORIGIN, sigma(idx[0])
    if fam == "f":
        return (idx[0], idx[1]), rho(2)
    if fam == "g":
        return (idx[0], 0), rho(idx[1])
    if fam == R1SQ:
        return (idx[0], 1), rho(1)
    raise ForeignSymbol("not a subgroup generator: %s" % sym)


def expansion(sym: Symbol, at: Optional[Coset] = None) -> Word:
    """Defining ambient word rep(P) x rep(P phi(x))^-1 of a generator.

    ``at`` defaults to the defining coset of the symbol; for the
    coset-blind families the expansion is the same word at every
    admissible coset.
    """
    coset, x = defining_slot(sym)
    if at is None:
        at = coset
    return representative(at) * Word([(x, 1)]) * representative(step(at, x, 1)).inverse()


def closed_form(sym: Symbol) -> Word:
    """Closed-form ambient spelling with positive symmetric letters."""
    fam = sym.family
    s1 = sigma(1)
    r1 = rho(1)

    def s1pow(k: int) -> list:
        return [(s1, 1 if k > 0 else -1)] * abs(k)

    if fam == "a":
        (i,) = sym.indices
        return Word(s1pow(i) + [(r1, 1), (s1, 1), (r1, 1)] + s1pow(-i - 1))
    if fam == "b":
        i, e = sym.indices
        return Word(s1pow(i) + [(r1, 1)] * e + [(sigma(2), 1)] + [(r1, 1)] * e + s1pow(-i - 1))
    if fam == "c":
        (l,) = sym.indices
        return Word([(sigma(l), 1), (s1, -1)])
    if fam == "f":
        i, e = sym.indices
        return Word(s1pow(i) + [(r1, 1)] * e + [(rho(2), 1)] + [(r1, 1)] * ((e + 1) % 2) + s1pow(-i))
    if fam == "g":
        i, l = sym.indices
        return Word(s1pow(i) + [(rho(l), 1), (r1, 1)] + s1pow(-i))
    if fam == R1SQ:
        (i,) = sym.indices
        return Word(s1pow(i) + [(r1, 1), (r1, 1)] + s1pow(-i))
    raise ForeignSymbol("not a subgroup generator: %s" % sym)

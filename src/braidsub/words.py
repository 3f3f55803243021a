"""Free-group words over indexed symbol families.

Two alphabets share one machinery.  The ambient alphabet consists of the
braid letters ``s1, s2, ...`` and the symmetric letters ``r1, r2, ...``.
Subgroup words use the indexed families ``a(m)``, ``b(m,e)``, ``c(l)``,
``f(m,e)`` and ``g(m,l)``, where ``m`` ranges over the integers, ``e`` is
a bit, and ``l`` is a strand index (at least 3).

A :class:`Word` is an immutable, eagerly freely-reduced letter sequence.
A :class:`TemplateWord` is the parametric variant: its index slots hold
affine expressions in a formal window variable ``m`` (plus optional
auxiliary names such as ``i`` or ``j``), and it instantiates to words.

A template letter is ``(family, exprs, exp)``, one ``(var, offset)`` per
index slot and ``var`` ``""`` for a constant: a tuple of strings and ints
that Python orders as it stands, so letters are their own keys in
canonical forms.  Other modules read the format through
``TemplateWord.target_letters``, ``letter_block`` and ``print_letter``.
``letter_block`` is the one generator-block rule: an a/b/f/g letter's
first slot is its window index, so f(m,0) lies in block f(.,0), while a
c letter has no window slot and c(3) is a block of its own.

Word syntax, shared by the parser and printer::

    s3 r1^-1 a(-2) b(0,1)^-1 c(3) f(2,0) g(0,4)

Tokens are space separated; ``^-1`` marks an inverse letter; ``f(m)`` is
accepted on input as shorthand for ``f(m,0)``.  Template syntax allows
affine indices such as ``m``, ``m+2`` or ``i-1`` in place of integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import CyclicSubstitution, NotSolvable, ParametricInput, ParseError, ScriptPreconditionFailed

# Built-in families: name -> number of index slots.  The first slot of the
# families listed in M_FAMILIES ranges over the integer window; the second
# slot of "b" and "f" is a bit, the trailing slot of "c" and "g" is a
# strand index >= 3.
FAMILIES = {
    "sigma": 1,
    "rho": 1,
    "a": 1,
    "b": 2,
    "c": 1,
    "f": 2,
    "g": 2,
}

M_FAMILIES = ("a", "b", "f", "g")


def letter_block(family: str, exprs: tuple) -> Optional[tuple]:
    """The generator block ``(family, fixed)`` of a template letter: the
    constants of its slots after the window slot, which only M_FAMILIES
    letters have; None when one of those slots holds a variable."""
    fixed = []
    for var, off in exprs[1:] if family in M_FAMILIES else exprs:
        if var:
            return None
        fixed.append(off)
    return family, tuple(fixed)


def _validate(family: str, indices: tuple) -> None:
    arity = FAMILIES.get(family)
    if arity is not None and len(indices) != arity:
        raise ParseError("family %r takes %d indices, got %d" % (family, arity, len(indices)))
    concrete = all(isinstance(i, int) for i in indices)
    if not concrete:
        return
    if family in ("sigma", "rho") and indices[0] < 1:
        raise ParseError("%s index must be positive, got %d" % (family, indices[0]))
    if family in ("b", "f") and indices[1] not in (0, 1):
        raise ParseError("%s bit must be 0 or 1, got %r" % (family, indices[1]))
    if family == "c" and indices[0] < 3:
        raise ParseError("c strand index must be >= 3, got %d" % indices[0])
    if family == "g" and indices[1] < 3:
        raise ParseError("g strand index must be >= 3, got %d" % indices[1])


@dataclass(frozen=True)
class Symbol:
    """A generator name: a family plus concrete integer indices."""

    family: str
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        _validate(self.family, self.indices)

    def __str__(self) -> str:
        if self.family == "sigma":
            return "s%d" % self.indices[0]
        if self.family == "rho":
            return "r%d" % self.indices[0]
        return "%s(%s)" % (self.family, ",".join(str(i) for i in self.indices))


def sigma(i: int) -> Symbol:
    return Symbol("sigma", (i,))


def rho(i: int) -> Symbol:
    return Symbol("rho", (i,))


def a(m: int) -> Symbol:
    return Symbol("a", (m,))


def b(m: int, e: int) -> Symbol:
    return Symbol("b", (m, e))


def c(l: int) -> Symbol:
    return Symbol("c", (l,))


def f(m: int, e: int = 0) -> Symbol:
    return Symbol("f", (m, e))


def g(m: int, l: int) -> Symbol:
    return Symbol("g", (m, l))


Letter = tuple  # (Symbol, +1 | -1)


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for sym, exp in letters:
        if exp not in (1, -1):
            raise ValueError("letter exponent must be +1 or -1, got %r" % (exp,))
        # the exponent first: comparing two Symbols builds two tuples
        if stack and stack[-1][1] == -exp and stack[-1][0] == sym:
            stack.pop()
        else:
            stack.append((sym, exp))
    return tuple(stack)


class Word:
    """An immutable freely-reduced word."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", _reduce(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return "Word(%s)" % print_word(self)

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((sym, -exp) for sym, exp in reversed(self.letters)))

    def __pow__(self, k: int) -> "Word":
        if k == 0:
            return Word()
        base = self if k > 0 else self.inverse()
        return Word(base.letters * abs(k))

    def conjugate(self, by: "Word") -> "Word":
        """Return ``by * self * by^-1``."""
        return by * self * by.inverse()

    def exponent_sum(self, family: Optional[str] = None, symbol: Optional[Symbol] = None) -> int:
        total = 0
        for sym, exp in self.letters:
            if symbol is not None:
                if sym == symbol:
                    total += exp
            elif family is None or sym.family == family:
                total += exp
        return total

    def shift(self, k: int) -> "Word":
        """Add ``k`` to the window index of every a/b/f/g letter."""
        out = []
        for sym, exp in self.letters:
            if sym.family in M_FAMILIES:
                sym = Symbol(sym.family, (sym.indices[0] + k,) + sym.indices[1:])
            out.append((sym, exp))
        return Word(out)

    def cyclic_reduce(self) -> "Word":
        letters = list(self.letters)
        while len(letters) >= 2 and letters[0][0] == letters[-1][0] and letters[0][1] == -letters[-1][1]:
            letters = letters[1:-1]
        return Word(letters)


def word(*letters) -> Word:
    """Convenience constructor: ``word(sym, (sym2, -1), ...)``."""
    out = []
    for item in letters:
        if isinstance(item, Symbol):
            out.append((item, 1))
        else:
            out.append(item)
    return Word(out)


# ---------------------------------------------------------------------------
# Parametric templates
# ---------------------------------------------------------------------------

# An index expression is (var, offset) with var "" for a plain integer;
# "" sorts before every variable name, as None could not.
IndexExpr = tuple

TLetter = tuple  # (family, tuple[IndexExpr, ...], exp)


def _constants(values: Iterable[int]) -> tuple[IndexExpr, ...]:
    return tuple(("", v) for v in values)


def _treduce(letters: Iterable[TLetter]) -> tuple[TLetter, ...]:
    stack: list[TLetter] = []
    for fam, exprs, exp in letters:
        if stack and stack[-1][0] == fam and stack[-1][1] == exprs and stack[-1][2] == -exp:
            stack.pop()
        else:
            stack.append((fam, exprs, exp))
    return tuple(stack)


def _expr_str(expr: IndexExpr) -> str:
    var, off = expr
    if not var:
        return str(off)
    if off == 0:
        return var
    return "%s%+d" % (var, off)


class TemplateWord:
    """A word whose index slots are affine expressions in named variables.

    The distinguished variable ``m`` is the window variable; any other
    variable (``i``, ``j``, ``k``, ``l``, ``e``) is auxiliary and is bound
    before window instantiation.

    The hash, the printed text and the block set are computed on first
    use and kept in private slots, so a template carried unchanged from
    one presentation to the next pays for them once.
    """

    __slots__ = ("letters", "_hash", "_text", "_blocks")

    def __init__(self, letters: Iterable[TLetter] = ()):
        object.__setattr__(self, "letters", _treduce(letters))

    @classmethod
    def _reduced(cls, letters: tuple) -> "TemplateWord":
        """Wrap a letter tuple that is already freely reduced."""
        t = object.__new__(cls)
        object.__setattr__(t, "letters", letters)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("TemplateWord is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, TemplateWord) and self.letters == other.letters

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self.letters)
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return "TemplateWord(%s)" % print_template(self)

    def __mul__(self, other: "TemplateWord") -> "TemplateWord":
        return TemplateWord(self.letters + other.letters)

    def inverse(self) -> "TemplateWord":
        # the inverse of a freely reduced word is freely reduced
        return TemplateWord._reduced(
            tuple((fam, exprs, -exp) for fam, exprs, exp in reversed(self.letters))
        )

    def blocks(self) -> frozenset:
        """The generator blocks (family, fixed) of the letters whose block
        slots are all constant, ``fixed`` holding those constants."""
        try:
            return self._blocks
        except AttributeError:
            raw = {(fam, exprs) for fam, exprs, _ in self.letters}  # each letter once
            out = frozenset(letter_block(fam, exprs) for fam, exprs in raw) - {None}
            object.__setattr__(self, "_blocks", out)
            return out

    def variables(self) -> set[str]:
        out: set[str] = set()
        for _, exprs, _ in self.letters:
            for var, _ in exprs:
                if var:
                    out.add(var)
        return out

    def shift(self, k: int) -> "TemplateWord":
        """Substitute ``m -> m + k``.

        The substitution maps letters one to one, so the result is freely
        reduced as this template is.
        """
        if not k:
            return self
        moved: dict = {}
        out = []
        for letter in self.letters:
            new = moved.get(letter)
            if new is None:
                fam, exprs, exp = letter
                exprs = tuple((var, off + k) if var == "m" else (var, off) for var, off in exprs)
                new = moved[letter] = (fam, exprs, exp)
            out.append(new)
        return TemplateWord._reduced(tuple(out))

    def bind(self, **values: int) -> "TemplateWord":
        """Bind some variables to integers, leaving the rest symbolic."""
        out = []
        for fam, exprs, exp in self.letters:
            new = []
            for var, off in exprs:
                if var and var in values:
                    new.append(("", values[var] + off))
                else:
                    new.append((var, off))
            out.append((fam, tuple(new), exp))
        return TemplateWord(out)

    def instantiate(self, m: Optional[int] = None, **aux: int) -> Word:
        values = dict(aux)
        if m is not None:
            values["m"] = m
        missing = self.variables() - set(values)
        if missing:
            raise ParametricInput("unbound template variables: %s" % ", ".join(sorted(missing)))
        out = []
        for fam, exprs, exp in self.letters:
            idx = tuple(values[var] + off if var else off for var, off in exprs)
            out.append((Symbol(fam, idx), exp))
        return Word(out)

    def cyclic_reduce(self) -> "TemplateWord":
        """Strip inverse letter pairs off the two ends; a template without
        such a pair is returned as it is."""
        letters = self.letters
        i, j = 0, len(letters)
        while j - i >= 2 and letters[i][:2] == letters[j - 1][:2] and letters[i][2] == -letters[j - 1][2]:
            i += 1
            j -= 1
        return self if i == 0 else TemplateWord._reduced(letters[i:j])

    def rotate(self, k: int) -> "TemplateWord":
        n = len(self.letters)
        if n == 0:
            return self
        k %= n
        return TemplateWord(self.letters[k:] + self.letters[:k])

    def substitute_family(self, family: str, fixed: tuple, replacement: "TemplateWord") -> "TemplateWord":
        """Replace every letter of the generator block (family, fixed).

        ``replacement`` is a template describing the letter whose window
        index is plain ``m``; it is realigned to each occurrence's own
        window index (shifted for affine indices, bound for constants).
        A letter without a window slot takes it as it stands.  A template
        without such a letter is returned as it is.
        """
        if (family, fixed) in replacement.blocks():
            raise CyclicSubstitution("replacement mentions %s%s itself" % (family, fixed))
        if (family, fixed) not in self.blocks():
            return self
        want = (family, fixed)
        rep_inv = replacement.inverse()
        out: list[TLetter] = []
        for fam, exprs, exp in self.letters:
            if fam == family and letter_block(fam, exprs) == want:
                var, off = exprs[0] if family in M_FAMILIES else ("m", 0)
                chosen = replacement if exp == 1 else rep_inv
                if var == "m":
                    rep = chosen.shift(off)
                elif not var:
                    rep = chosen.bind(m=off)
                else:
                    raise ParametricInput("cannot align a substitution to index %s" % _expr_str(exprs[0]))
                out.extend(rep.letters)
            else:
                out.append((fam, exprs, exp))
        return TemplateWord(out)

    def solve_at(self, idx: int) -> "TemplateWord":
        """The word that the letter at ``idx`` equals, by this relator."""
        exp = self.letters[idx][2]
        left = TemplateWord(self.letters[:idx])
        right = TemplateWord(self.letters[idx + 1 :])
        return left.inverse() * right.inverse() if exp == 1 else right * left

    def solve(self, family: str, fixed: tuple) -> tuple["TemplateWord", int]:
        """Solve this relator for its unique letter of the block (family,
        fixed): the solved form aligned to a plain ``m`` target, and the
        window offset at which the target sits here (0 for a letter with
        no window slot, such as c(4)).  Raises NotSolvable when the block
        occurs zero or several times, or when the target's window index is
        a constant."""
        hits = self.target_letters(family, fixed)
        if len(hits) != 1:
            raise NotSolvable("%s%s occurs %d times in %s" % (family, fixed, len(hits), print_template(self)))
        letter = self.letters[hits[0]]
        if family in M_FAMILIES and not letter[1][0][0]:
            raise NotSolvable("%s has a constant window index" % print_letter(letter[:2] + (1,)))
        off = window_offset(letter) if family in M_FAMILIES else 0
        return self.solve_at(hits[0]).shift(-off), off

    def target_letters(self, family: str, fixed: tuple) -> list[int]:
        """Positions of the letters of the block (family, fixed): the
        family's letters whose block slots hold the constants ``fixed``."""
        want = (family, fixed)
        return [i for i, (fam, exprs, _) in enumerate(self.letters)
                if fam == family and letter_block(fam, exprs) == want]

    def m_offsets(self) -> list[int]:
        """Offsets of the window variable in first slots."""
        return [exprs[0][1] for _, exprs, _ in self.letters if exprs and exprs[0][0] == "m"]


def window_offset(letter: TLetter) -> int:
    """The offset k of a letter whose first slot holds m+k."""
    var, off = letter[1][0]
    if var != "m":
        raise ScriptPreconditionFailed("letter index is not in the window variable")
    return off


def lift(w: Word) -> TemplateWord:
    """View a concrete word as a template with constant indices."""
    return TemplateWord(tuple((sym.family, _constants(sym.indices), exp) for sym, exp in w.letters))


def m_lift(w: Word) -> TemplateWord:
    """Lift a concrete derived word to a template in the window variable:
    the first slot of every a/b/f/g letter becomes an offset of m."""
    out = []
    for sym, exp in w.letters:
        if sym.family in M_FAMILIES:
            exprs = (("m", sym.indices[0]),) + _constants(sym.indices[1:])
        else:
            exprs = _constants(sym.indices)
        out.append((sym.family, exprs, exp))
    return TemplateWord(out)


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

_SHORT_RE = re.compile(r"^([sr])(-?\d+)$")
_NAME_RE = re.compile(r"^([a-z][a-z0-9]*)\(([^()]*)\)$")
_EXPR_RE = re.compile(r"^(?:(-?\d+)|([a-z])([+-]\d+)?)$")


def _parse_expr(text: str) -> IndexExpr:
    m = _EXPR_RE.match(text.strip())
    if m is None:
        raise ParseError("bad index expression %r" % text)
    if m.group(1) is not None:
        return ("", int(m.group(1)))
    return (m.group(2), int(m.group(3) or 0))


def _parse_token(token: str) -> TLetter:
    exp = 1
    if token.endswith("^-1"):
        exp = -1
        token = token[:-3]
    elif "^" in token:
        raise ParseError("only ^-1 is allowed, got %r" % token)
    m = _SHORT_RE.match(token)
    if m is not None:
        fam = "sigma" if m.group(1) == "s" else "rho"
        return (fam, (("", int(m.group(2))),), exp)
    m = _NAME_RE.match(token)
    if m is None:
        raise ParseError("bad letter %r" % token)
    fam = m.group(1)
    parts = [p for p in m.group(2).split(",") if p.strip() != ""]
    exprs = tuple(_parse_expr(p) for p in parts)
    if fam == "f" and len(exprs) == 1:
        exprs = exprs + (("", 0),)
    arity = FAMILIES.get(fam)
    if arity is not None and len(exprs) != arity:
        raise ParseError("family %r takes %d indices, got %d in %r" % (fam, arity, len(exprs), token))
    return (fam, exprs, exp)


def parse_template(text: str) -> TemplateWord:
    text = text.strip()
    if text in ("", "1"):
        return TemplateWord()
    return TemplateWord(_parse_token(tok) for tok in text.split())


def parse_word(text: str) -> Word:
    t = parse_template(text)
    if t.variables():
        raise ParseError("expected a concrete word, got variables %s in %r" % (sorted(t.variables()), text))
    return t.instantiate()


def print_template(t: TemplateWord) -> str:
    """The text of a template, printed once and then kept with it."""
    try:
        return t._text
    except AttributeError:
        text = _print_letters(t.letters)
        object.__setattr__(t, "_text", text)
        return text


def _print_letters(letters: tuple) -> str:
    return " ".join(map(print_letter, letters)) if letters else "1"


def print_letter(letter: TLetter) -> str:
    """The text of one template letter."""
    fam, exprs, exp = letter
    if fam == "sigma":
        body = "s%s" % _expr_str(exprs[0])
    elif fam == "rho":
        body = "r%s" % _expr_str(exprs[0])
    else:
        body = "%s(%s)" % (fam, ",".join(_expr_str(e) for e in exprs))
    return body if exp == 1 else body + "^-1"


def print_word(w: Word) -> str:
    """Print a concrete word; the same text as ``print_template(lift(w))``."""
    if not w.letters:
        return "1"
    return " ".join(str(sym) if exp == 1 else "%s^-1" % sym for sym, exp in w.letters)

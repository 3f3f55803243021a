"""Certified presentation simplification steps and the named scripts.

Every operation here is a Tietze move on a parametric presentation:

* ``eliminate_family`` removes a generator family through a defining
  relator family that mentions it exactly once, solved for it by
  ``TemplateWord.solve``, as every solved word here and in ``presets`` is;
* ``reduce_family_to_seeds`` records that a recurrence family expresses
  a generator family from finitely many seeds (two-sided, so it is a
  generating-set statement, not a relator change);
* the word-level rewrites (``rotate_relator``, ``flip_g_letter``,
  ``braid_flip``, ``rewrite_letter``, ``torsion_reduce_relator``) only
  ever multiply a relator by conjugated instances of families that are
  present in the presentation, so the normal closure is untouched; the
  insertion sequences are constructed explicitly and the final template
  is asserted against the intended shape;
* ``drop_relator`` removes a relator that is freely trivial or a
  cyclic-canonical duplicate of another one that stays.

``SCRIPTS`` is the table of named scripts: each name maps to its group,
its lowest rank, whether that is its only rank, and a function giving
the list of ``(op, *args)`` steps at rank n.  ``run_script`` checks the
rank, starts from ``presets.derived_presentation``, applies the steps
(each opens with the b eliminations of ``presets.B_STEPS``, which the
b-free catalog spells out by substitution),
keeps a transcript with one presentation snapshot per step, which the
window-truncation check consumes, and diffs the result against
``presets.stated_final`` where the paper states one.  The step lists
are built when a script runs, so they call whatever the module names
are bound to then.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from . import presets
from .errors import BadRank, NotSolvable, ScriptPreconditionFailed
from .presets import FamilyInstance, GeneratorSummary, Presentation, generator_count
from .rewriting import template_canon_key, torsion_merge
from .words import TemplateWord, letter_block, print_template, window_offset

# ---------------------------------------------------------------------------
# Presentation surgery helpers
# ---------------------------------------------------------------------------


def _relator(p: Presentation, label: str) -> FamilyInstance:
    for inst in p.relators:
        if inst.label == label:
            return inst
    raise ScriptPreconditionFailed("no relator family labelled %r" % label)


def _row_record(label: Optional[str], text: str) -> dict:
    return {"op": "row", "label": label, "text": text}


def _row(p: Presentation, label: str, t: TemplateWord, text: str):
    """Replace the template of one relator; the step record of a rewrite."""
    rels = tuple(
        FamilyInstance(label, t) if inst.label == label else inst for inst in p.relators
    )
    return dataclasses.replace(p, relators=rels), _row_record(label, text)


def _by_key(p: Presentation) -> dict[tuple, list[str]]:
    """The relator labels of p by canonical key, in presentation order:
    the one view that licence checks and duplicate drops read."""
    out: dict[tuple, list[str]] = {}
    for inst in p.relators:
        out.setdefault(template_canon_key(inst.template), []).append(inst.label)
    return out


def _licence(by_key: dict, t: TemplateWord) -> str:
    """The label of the first relator family that licenses a rewrite by t."""
    labels = by_key.get(template_canon_key(t))
    if not labels:
        raise ScriptPreconditionFailed("presentation has no relator family matching %s" % print_template(t))
    return labels[0]


def _block(p: Presentation, family: str, fixed: tuple) -> int:
    """The index of the generator block (family, fixed)."""
    for idx, gen in enumerate(p.generators):
        if gen.family == family and gen.fixed == fixed:
            return idx
    raise ScriptPreconditionFailed("no generator family %s%s" % (family, fixed))


def _g_square(strand: int, off: int) -> TemplateWord:
    return presets.CATALOG_FAMILIES["g-involution"].template.bind(i=strand).shift(off)


def _fg_braid(off: int) -> TemplateWord:
    return presets.CATALOG_FAMILIES["f-g3-braid"].template.shift(off)


_F_CUBE = presets.CATALOG_FAMILIES["f-cube"].template


# ---------------------------------------------------------------------------
# Elimination and seeds
# ---------------------------------------------------------------------------


def solve_for(t: TemplateWord, family: str, fixed: tuple = ()) -> TemplateWord:
    """Solve a relator template for its unique occurrence of a letter.

    The result w satisfies: the relator is freely equal, up to cyclic
    rotation, to target * w^-1, and w does not mention the target.
    Raises NotSolvable when the target occurs zero or several times.
    """
    solved, off = t.solve(family, fixed)
    return solved.shift(off)


def eliminate_family(p: Presentation, family: str, fixed: tuple, via: str):
    """Remove a generator family, rewriting it through a defining relator."""
    inst = _relator(p, via)
    replacement, _ = inst.template.solve(family, fixed)
    rels = []
    for other in p.relators:
        if other.label != via:
            t = other.template.substitute_family(family, fixed, replacement)
            if t:
                rels.append(FamilyInstance(other.label, t))
    k = _block(p, family, fixed)
    p2 = dataclasses.replace(
        p, generators=p.generators[:k] + p.generators[k + 1 :], relators=tuple(rels)
    )
    record = {
        "op": "eliminate",
        "family": family,
        "fixed": list(fixed),
        "replacement": replacement,
        "text": "eliminate %s via %s: %s" % (p.generators[k].name(), via, print_template(replacement)),
    }
    return p2, record


def _seed_span(t: TemplateWord, family: str, fixed: tuple) -> int:
    offs = [window_offset(t.letters[i]) for i in t.target_letters(family, fixed)]
    if len(offs) < 2:
        raise NotSolvable("recurrence must mention the family at two offsets")
    lo, hi = min(offs), max(offs)
    if offs.count(hi) != 1:
        raise NotSolvable("top offset occurs %d times" % offs.count(hi))
    if offs.count(lo) != 1:
        raise NotSolvable("bottom offset occurs %d times" % offs.count(lo))
    return hi - lo


def reduce_family_to_seeds(p: Presentation, family: str, fixed: tuple, via: str):
    """Record that a family is generated by finitely many seed indices.

    The defining recurrence must be solvable upward (unique letter at the
    top window offset) and downward (unique letter at the bottom offset),
    and may only mention families that are concrete or already seeded.
    """
    t = _relator(p, via).template
    span = _seed_span(t, family, fixed)
    targets = set(t.target_letters(family, fixed))
    blocks = {(gen.family, gen.fixed): gen for gen in p.generators}
    for idx, (fam, exprs, _) in enumerate(t.letters):
        if idx in targets:
            continue
        gen = blocks.get(letter_block(fam, exprs))
        if gen is None:
            raise ScriptPreconditionFailed("recurrence mentions an unknown family %s" % fam)
        if gen.windowed and gen.basis is None:
            raise ScriptPreconditionFailed(
                "recurrence for %s%s rests on the unreduced family %s" % (family, fixed, gen.name())
            )
    seeds = tuple(range(span))
    k = _block(p, family, fixed)
    gen = p.generators[k]
    gens = p.generators[:k] + (dataclasses.replace(gen, basis=seeds),) + p.generators[k + 1 :]
    record = {
        "op": "seeds",
        "seeds": list(seeds),
        "text": "family %s%s is generated by seeds m in %s (via %s)"
        % (family, fixed, list(seeds), via),
    }
    return dataclasses.replace(p, generators=gens), record


def observe_unbounded(p: Presentation, family: str, fixed: tuple, via: str):
    """Assert that the candidate recurrence does not pin the family."""
    inst = _relator(p, via)
    try:
        _seed_span(inst.template, family, fixed)
    except NotSolvable as exc:
        return p, {"op": "observe", "text": "family %s%s stays unbounded: %s" % (family, fixed, exc)}
    raise ScriptPreconditionFailed(
        "family %s%s is unexpectedly reducible through %s" % (family, fixed, via)
    )


# ---------------------------------------------------------------------------
# Certified word-level rewrites
# ---------------------------------------------------------------------------


def drop_relator(p: Presentation, label: str, reason: str):
    inst = _relator(p, label)
    if reason == "trivial":
        if inst.template:
            raise ScriptPreconditionFailed("%s is not freely trivial" % label)
        kept = None
    elif reason == "duplicate":
        others = [o for o in _by_key(p)[template_canon_key(inst.template)] if o != label]
        if not others:
            raise ScriptPreconditionFailed("%s duplicates no other family" % label)
        kept = others[0]
    else:
        raise ScriptPreconditionFailed("unknown drop reason %r" % reason)
    return _drop(p, label, reason, kept)


def _drop_record(label: str, reason: str, kept: Optional[str]) -> dict:
    return {
        "op": "drop",
        "label": label,
        "kept": kept,
        "text": "drop %s (%s%s)" % (label, reason, " of %s" % kept if kept else ""),
    }


def _drop(p: Presentation, label: str, reason: str, kept: Optional[str]):
    """Remove a relator already known to be trivial or to repeat ``kept``."""
    rels = tuple(other for other in p.relators if other.label != label)
    return dataclasses.replace(p, relators=rels), _drop_record(label, reason, kept)


def rotate_relator(p: Presentation, label: str, k: int):
    t = _relator(p, label).template.rotate(k)
    return _row(p, label, t, "rotate %s by %d" % (label, k))


def _insert(t: TemplateWord, idx: int, piece: TemplateWord) -> TemplateWord:
    return TemplateWord(t.letters[:idx] + piece.letters + t.letters[idx:])


def flip_g_letter(p: Presentation, label: str):
    """Turn the first inverse involution letter positive by inserting its square."""
    t = _relator(p, label).template
    idx = next((i for i, (fam, _, exp) in enumerate(t.letters) if fam == "g" and exp == -1), None)
    if idx is None:
        raise ScriptPreconditionFailed("%s has no inverse g letter" % label)
    _, exprs, _ = t.letters[idx]
    strand = exprs[1][1]
    off = window_offset(t.letters[idx])
    square = _g_square(strand, off)
    witness = _licence(_by_key(p), square)
    new = _insert(t, idx, square)
    expected = TemplateWord(
        t.letters[:idx] + ((t.letters[idx][0], t.letters[idx][1], 1),) + t.letters[idx + 1 :]
    )
    if new != expected:
        raise ScriptPreconditionFailed("involution flip did not reduce as expected")
    text = "flip an inverse g(m%+d,%d) in %s using %s" % (off, strand, label, witness)
    return _row(p, label, new, text)


def braid_flip(p: Presentation, label: str):
    """Rewrite the first g f^e g subword (strand 3) into f^-e g f^-e."""
    t = _relator(p, label).template
    f_spots = set(t.target_letters("f", (0,)))
    i = next(
        (
            i
            for i in t.target_letters("g", (3,))
            if i + 2 < len(t.letters)
            and t.letters[i + 2] == t.letters[i]
            and t.letters[i][2] == 1
            and i + 1 in f_spots
            and t.letters[i + 1][1][0] == t.letters[i][1][0]
        ),
        None,
    )
    if i is None:
        raise ScriptPreconditionFailed("%s has no g f g subword on strand 3" % label)
    off = window_offset(t.letters[i])
    e = t.letters[i + 1][2]
    braid = _fg_braid(off)
    square = _g_square(3, off)
    by_key = _by_key(p)
    braid_witness = _licence(by_key, braid)
    square_witness = _licence(by_key, square)
    g_letter = t.letters[i]
    f_letter = t.letters[i + 1]
    expected = TemplateWord(
        t.letters[:i]
        + ((f_letter[0], f_letter[1], -e), g_letter, (f_letter[0], f_letter[1], -e))
        + t.letters[i + 3 :]
    )

    def g_spots(w: TemplateWord, exp: int) -> list[int]:
        return [j for j, letter in enumerate(w.letters) if letter == ("g", g_letter[1], exp)]

    if e == 1:
        step = _insert(t, i + 3, braid.inverse())
        neg = g_spots(step, -1)
        if len(neg) != 1:
            raise ScriptPreconditionFailed("braid flip lost track of the g letter")
        step = _insert(step, neg[0], square)
    else:
        step = _insert(t, i, square.inverse())
        pos = g_spots(step, 1)
        if len(pos) != 1:
            raise ScriptPreconditionFailed("braid flip lost track of the g letter")
        step = _insert(step, pos[0] + 1, square.inverse())
        neg = g_spots(step, -1)
        if not neg:
            raise ScriptPreconditionFailed("braid flip lost track of the g letter")
        step = _insert(step, neg[0], braid)
    if step != expected:
        raise ScriptPreconditionFailed(
            "braid flip produced %s, expected %s"
            % (print_template(step), print_template(expected))
        )
    text = "braid flip at offset m%+d in %s using %s and %s" % (
        off, label, braid_witness, square_witness)
    return _row(p, label, step, text)


def rewrite_letter(
    p: Presentation,
    label: str,
    family: str,
    fixed: tuple,
    offset: int,
    via: str,
    via_shift: int,
):
    """Replace one letter of a relator by its solved form from another.

    The via family, shifted by ``via_shift``, must mention the target
    letter at the given window offset exactly once; the target relator
    must contain it exactly once as well.
    """
    def at_offset(w: TemplateWord) -> list[int]:
        return [i for i in w.target_letters(family, fixed) if window_offset(w.letters[i]) == offset]

    t = _relator(p, label).template
    vt = _relator(p, via).template.shift(via_shift)
    hits = at_offset(vt)
    if len(hits) != 1:
        raise NotSolvable(
            "%s shifted by %d mentions %s%s at offset %d %d times"
            % (via, via_shift, family, fixed, offset, len(hits))
        )
    solved = vt.solve_at(hits[0])
    spots = at_offset(t)
    if len(spots) != 1:
        raise ScriptPreconditionFailed(
            "%s mentions %s%s at offset %d %d times" % (label, family, fixed, offset, len(spots))
        )
    i = spots[0]
    piece = solved if t.letters[i][2] == 1 else solved.inverse()
    new = TemplateWord(t.letters[:i] + piece.letters + t.letters[i + 1 :])
    text = "rewrite %s(m%+d%s) in %s through %s shifted by %+d" % (
        family, offset, "".join(",%d" % v for v in fixed), label, via, via_shift)
    return _row(p, label, new, text)


def _torsion_row(t: TemplateWord, label: str, by_key: dict) -> tuple[TemplateWord, str]:
    """The torsion merge of one relator and the text of its record.

    A merge that changes f letters needs a licence for the f cube, one
    that changes g letters for the square of each strand.
    """
    new = TemplateWord(torsion_merge(t.letters))
    if new == t:
        return t, "torsion merge on %s: no change" % label
    old_fams = {(fam, exprs) for fam, exprs, _ in t.letters}
    if any(fam == "f" for fam, _ in old_fams):
        _licence(by_key, _F_CUBE)
    for fam, exprs in old_fams:
        if fam == "g":
            _licence(by_key, _g_square(exprs[1][1], 0))
    return new, "torsion merge on %s: %s" % (label, print_template(new))


def torsion_reduce_relator(p: Presentation, label: str):
    """Merge torsion syllables (f mod three, g mod two) in one relator."""
    new, text = _torsion_row(_relator(p, label).template, label, _by_key(p))
    return _row(p, label, new, text)


def torsion_cleanup(p: Presentation):
    """Torsion-merge every relator, then drop trivial and duplicate ones.

    The witness relators themselves (the f cube and the per-strand g
    squares) are left untouched: they license the merges and stay in the
    final presentation.  One pass does the work of torsion_reduce_relator
    on each other relator in turn: the keyed view of the relators, with a
    label moved between keys as its row merges, answers each licence
    check against the presentation as it stands at that relator.
    Relator labels are unique, as in every presentation a script builds.
    """
    witness_keys = {template_canon_key(_F_CUBE)} | {
        template_canon_key(_g_square(gen.fixed[0], 0)) for gen in p.generators if gen.family == "g"
    }
    rels = list(p.relators)
    keys = [template_canon_key(inst.template) for inst in rels]
    by_key = _by_key(p)
    records = []
    for i, inst in enumerate(rels):
        if keys[i] in witness_keys:
            continue
        new, text = _torsion_row(inst.template, inst.label, by_key)
        records.append(_row_record(inst.label, text))
        if new is not inst.template:
            by_key[keys[i]].remove(inst.label)
            keys[i] = template_canon_key(new)
            by_key.setdefault(keys[i], []).append(inst.label)
            rels[i] = FamilyInstance(inst.label, new)
    kept, drops = [], []
    seen: dict[tuple, str] = {}
    for inst, key in zip(rels, keys):
        if not inst.template:
            drops.append(_drop_record(inst.label, "trivial", None))
        elif key in seen:
            drops.append(_drop_record(inst.label, "duplicate", seen[key]))
        else:
            seen[key] = inst.label
            kept.append(inst)
    record = _row_record(None, "torsion cleanup: %d families dropped" % len(drops))
    record["sub"] = records + drops
    return dataclasses.replace(p, relators=tuple(kept)), record


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------


@dataclass
class ScriptResult:
    name: str
    group: str
    n: int
    initial: Presentation
    steps: list  # [(record, Presentation after the step), ...]
    final: Presentation
    summary: GeneratorSummary
    diff: Optional[dict]


def diff_presentations(p: Presentation, target: Presentation) -> dict:
    mine = {template_canon_key(i.template): i for i in p.relators}
    theirs = {template_canon_key(i.template): i for i in target.relators}
    extra = sorted(
        "%s: %s" % (mine[k].label, print_template(mine[k].template))
        for k in mine.keys() - theirs.keys()
    )
    missing = sorted(
        "%s: %s" % (theirs[k].label, print_template(theirs[k].template))
        for k in theirs.keys() - mine.keys()
    )
    return {"extra": extra, "missing": missing, "agree": not extra and not missing}


def _b_steps() -> list:
    """Every script starts by eliminating b(m,1) and b(m,0)."""
    return [(eliminate_family, *step) for step in presets.B_STEPS]


def _vb3_steps(n: int) -> list:
    return [
        *_b_steps(),
        (reduce_family_to_seeds, "f", (0,), "b0-recurrence"),
        (observe_unbounded, "a", (), "b1-recurrence"),
    ]


def _vbn_steps(n: int) -> list:
    return [
        *_b_steps(),
        (eliminate_family, "a", (), "g-a-g[i=3]"),
        (reduce_family_to_seeds, "f", (0,), "b0-recurrence"),
        (reduce_family_to_seeds, "g", (3,), "f-g3-c3-braid-0"),
        *((reduce_family_to_seeds, "g", (l,), "g-g-c-braid[i=%d]" % (l - 1)) for l in range(4, n)),
    ]


def _wb3_steps(n: int) -> list:
    return [
        *_b_steps(),
        (drop_relator, "welded-a-f-inverse", "duplicate"),
        (rotate_relator, "welded-a-f", 1),
        (torsion_reduce_relator, "welded-a-f"),
        (reduce_family_to_seeds, "f", (0,), "b0-recurrence"),
        (reduce_family_to_seeds, "a", (), "welded-a-f"),
    ]


def _welded_steps(n: int) -> list:
    """WB4_REDUCE and WBN_REDUCE: the welded-c-shift loop is empty at n=4."""
    return [
        *_b_steps(),
        (drop_relator, "welded-a-f-inverse", "duplicate"),
        (drop_relator, "welded-c3-braid-1", "duplicate"),
        (eliminate_family, "a", (), "g-a-g[i=3]"),
        (braid_flip, "welded-c3-braid-0"),
        (rewrite_letter, "welded-c3-braid-0", "g", (3,), 2, "f-g3-c3-braid-0", 1),
        (flip_g_letter, "welded-c3-braid-0"),
        (braid_flip, "welded-c3-braid-0"),
        (torsion_reduce_relator, "welded-c3-braid-0"),
        (eliminate_family, "g", (3,), "welded-c3-braid-0"),
        *((eliminate_family, "g", (l,), "welded-c-shift[i=%d]" % (l - 1)) for l in range(4, n)),
        (torsion_cleanup,),
        (reduce_family_to_seeds, "f", (0,), "b0-recurrence"),
    ]


# name -> (group, lowest rank, only that rank, steps(n))
SCRIPTS = {
    "VB3_REDUCE": ("vb", 3, True, _vb3_steps),
    "VBN_REDUCE": ("vb", 4, False, _vbn_steps),
    "WB3_REDUCE": ("wb", 3, True, _wb3_steps),
    "WB4_REDUCE": ("wb", 4, True, _welded_steps),
    "WBN_REDUCE": ("wb", 5, False, _welded_steps),
}


def run_script(name: str, n: Optional[int] = None) -> ScriptResult:
    if name not in SCRIPTS:
        raise ScriptPreconditionFailed("unknown script %r" % name)
    group, low, only, steps = SCRIPTS[name]
    n = low if n is None else n
    if only and n != low:
        raise BadRank("this script is specific to rank %d, got %d" % (low, n))
    if n < low:
        raise BadRank("this script needs rank >= %d, got %d" % (low, n))
    p = initial = presets.derived_presentation(group, n)
    transcript = []
    for op, *args in steps(n):
        p, record = op(p, *args)
        transcript.append((record, p))
    stated = presets.stated_final(group, n)
    diff = None if stated is None else diff_presentations(p, stated)
    return ScriptResult(name, group, n, initial, transcript, p, generator_count(p), diff)


# Operation name used by callers that think of the move as acting on one
# generator family at a time.
eliminate = eliminate_family

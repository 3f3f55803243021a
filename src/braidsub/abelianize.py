"""Integer abelianization of truncated presentations.

Everything is exact integer arithmetic, no floating point anywhere.  One
builder turns a parametric presentation into abelianized relator rows:
`Presentation.domains` gives each generator block its index interval
over a window (the window plus the block's trim), `presets.span` reads
from each template's letter offsets the interval of m it fits into (the
window rule that `presets.instantiate` and the catalog comparison read
too), `presets.columns` numbers the columns of the block domains with
ints, and `_rows` sums each template's exponents per column once, then
writes one sparse row per instance over those int columns.  The sparse
core `_invariants` reads the invariants of such rows by unit-pivot
elimination in one pass over them, each +-1 pivot removing one row and
one column as one unit invariant factor (Havas, Holt and Rees 1993;
Havas, Majewski and Matthews 1998).  Each row is first rewritten through
the substitutions of the columns eliminated so far, so a row that
repeats, negates or combines earlier pivot rows reduces to zero and is
dropped.  A row left with a +-1 entry becomes a pivot on the column
that the fewest live substitutions and remainder rows use, and is
substituted into those through a column-to-users index; any other row
waits in the remainder until a later pivot gives it a +-1 entry.  Only
the rows of the small remainder that differ up to sign go through
`snf`, the Smith normal form that also returns the unimodular
certificates U and V; it keeps U's rows and V's columns sparse until it
returns them.  The window profiles and the step-by-step truncation
comparison for simplification scripts both use this builder; after
every script step the truncated abelianization must present the same
group, once the kept instances are matched between the two sides.
`presets.instantiate` followed by the dense `relation_matrix` spells out
the same rows letter by letter and is the builder's oracle.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from . import presets
from .errors import EmptyWindow, ShapeMismatch, WindowTooNarrow
from .presets import FinitePresentation, GeneratorFamily, Presentation

Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def snf(matrix: Sequence[Sequence[int]]) -> tuple[list[int], Matrix, Matrix]:
    """Diagonalize an integer matrix: returns (diagonal, U, V).

    U and V are unimodular with U * M * V equal to the diagonal matrix,
    and the diagonal entries are nonnegative with each dividing the next.
    """
    a = [[int(x) for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    for row in a:
        if len(row) != cols:
            raise ShapeMismatch("ragged matrix")
    # U's rows and V's columns start as the identity and stay sparse, so
    # they are dicts {index: entry} until the return
    u = [{i: 1} for i in range(rows)]
    v = [{j: 1} for j in range(cols)]

    def add(dst, src, q):
        # q != 0, so an entry that cancels was present
        for k, y in src.items():
            x = dst.get(k, 0) + q * y
            if x:
                dst[k] = x
            else:
                del dst[k]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        v[i], v[j] = v[j], v[i]

    def add_row(i, j, q):
        # row i += q * row j
        if q:
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
            add(u[i], u[j], q)

    def add_col(i, j, q):
        if q:
            for row in a:
                row[i] += q * row[j]
            add(v[i], v[j], q)

    t = 0
    while t < rows and t < cols:
        # the first entry in row-major order of least absolute value
        least = piv = 0
        for i in range(t, rows):
            x = min(map(abs, filter(None, a[i][t:])), default=0)
            if x and (not least or x < least):
                least, piv = x, i
                if x == 1:
                    break
        if not least:
            break
        if piv != t:
            swap_rows(t, piv)
        j = next(j for j in range(t, cols) if abs(a[t][j]) == least)
        if j != t:
            swap_cols(t, j)
        while True:
            moved = False
            for i in range(rows):
                if i == t or a[i][t] == 0:
                    continue
                add_row(i, t, -(a[i][t] // a[t][t]))
                if a[i][t]:
                    swap_rows(i, t)
                    moved = True
                    break
            if moved:
                continue
            for j in range(cols):
                if j == t or a[t][j] == 0:
                    continue
                add_col(j, t, -(a[t][j] // a[t][t]))
                if a[t][j]:
                    swap_cols(j, t)
                    moved = True
                    break
            if moved:
                continue
            d = a[t][t]
            bad = None
            if d not in (1, -1):  # a unit pivot divides every entry
                for i in range(t + 1, rows):
                    if any(x % d for x in a[i][t + 1 :]):
                        bad = i
                        break
            if bad is None:
                break
            add_row(t, bad, 1)
        t += 1
    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = {k: -x for k, x in u[i].items()}
    diag = [a[i][i] for i in range(min(rows, cols))]

    def dense(vectors, n):
        out = []
        for vec in vectors:
            row = [0] * n
            for k, x in vec.items():
                row[k] = x
            out.append(row)
        return out

    return diag, dense(u, rows), [list(row) for row in zip(*dense(v, cols))]


def invariants(matrix: Sequence[Sequence[int]], cols: Optional[int] = None) -> dict:
    """Torsion coefficients and free rank of coker(M) for a dense matrix.

    `cols` defaults to the matrix width and must equal it for a nonempty
    matrix.
    """
    width = len(matrix[0]) if matrix else 0
    if cols is None:
        cols = width
    if matrix and width != cols:
        raise ShapeMismatch("matrix has %d columns, not %d" % (width, cols))
    for vec in matrix:
        if len(vec) != width:
            raise ShapeMismatch("ragged matrix")
    return _invariants([{j: int(x) for j, x in enumerate(vec) if x} for vec in matrix], cols)


def _invariants(vectors: Iterable[dict], cols: int) -> dict:
    """Torsion coefficients and free rank of the cokernel of sparse rows.

    Each row maps int column ids to nonzero entries and is read, never
    changed; `cols` counts every column, touched or not.  Rows are taken
    in the order given, each first rewritten through `sub`, which spells
    every eliminated column over the live ones.  A row that reduces to
    zero is dropped; one with a +-1 entry becomes a pivot; any other joins
    the remainder, whose rows that gain a +-1 entry are pivoted after the
    last row.  `snf` diagonalises the remainder rows that differ up to
    sign.
    """
    sub: dict = {}  # eliminated column -> {live column: coefficient}
    rest: dict = {}  # id -> remainder row over live columns
    # live column -> {id: expression or remainder row that mentions it};
    # an id is only ever a key while its dict is held by `sub` or `rest`
    users: dict = {}

    def pivot(row):
        # the +-1 entry whose column the fewest expressions and rows use
        c = min((j for j, x in row.items() if x == 1 or x == -1),
                key=lambda j: len(users.get(j, ())))
        u = row.pop(c)  # its own inverse
        expr = {j: -u * x for j, x in row.items()}
        for key, other in users.pop(c, {}).items():
            y = other.pop(c)
            for j, x in expr.items():
                v = other.get(j, 0) + y * x
                if not v:
                    del other[j]
                    del users[j][key]
                else:
                    if j not in other:
                        users.setdefault(j, {})[key] = other
                    other[j] = v
        sub[c] = expr
        key = id(expr)
        for j in expr:
            users.setdefault(j, {})[key] = expr

    def has_unit(row):
        values = row.values()
        return 1 in values or -1 in values

    for vec in vectors:
        row: dict = {}
        get = row.get
        for c, x in vec.items():
            if c in sub:
                for j, y in sub[c].items():
                    row[j] = get(j, 0) + x * y
            else:
                row[c] = get(c, 0) + x
        # most rows reduce to zero: only a kept row is copied without zeros
        values = row.values()
        if 1 in values or -1 in values:
            pivot({j: x for j, x in row.items() if x})
        elif any(values):
            row = {j: x for j, x in row.items() if x}
            rest[id(row)] = row
            for j in row:
                users.setdefault(j, {})[id(row)] = row
    ready = True
    while ready:
        ready = [row for row in rest.values() if has_unit(row)]
        for row in ready:
            if has_unit(row):  # an earlier pivot of this sweep may change it
                del rest[id(row)]
                for j in row:
                    del users[j][id(row)]
                pivot(row)
    columns = list(dict.fromkeys(j for row in rest.values() for j in row))
    remainder = {}
    for row in rest.values():
        if row:
            vec = [row.get(j, 0) for j in columns]
            if next(x for x in vec if x) < 0:
                vec = [-x for x in vec]
            remainder[tuple(vec)] = None
    diag, _, _ = snf(list(remainder))
    nonzero = [d for d in diag if d]
    torsion = [d for d in nonzero if d != 1]
    return {"torsion": torsion, "free_rank": cols - len(sub) - len(nonzero)}


# ---------------------------------------------------------------------------
# Relation matrices
# ---------------------------------------------------------------------------


def relation_matrix(fp: FinitePresentation) -> tuple[Matrix, list]:
    cols = list(fp.generators)
    index = {sym: i for i, sym in enumerate(cols)}
    rows = []
    for _, w in fp.relators:
        vec = [0] * len(cols)
        for sym, exp in w:
            if sym not in index:
                raise ShapeMismatch("relator letter %s is not a declared generator" % sym)
            vec[index[sym]] += exp
        rows.append(vec)
    return rows, cols


def _rows(p: Presentation, domains: dict) -> dict:
    """Abelianized relator instances: {(label, m): {column: exponent}}.

    Columns are the int ids of `presets.columns(domains)`.  A windowed
    template is instantiated at every m in the interval its letter
    offsets allow; a window-free one once, with m = None.  Each
    template's exponents are summed per (column at m = 0, windowed or
    not) once; an instance adds m to the windowed columns.
    """
    base, _ = presets.columns(domains)
    rows = {}
    for inst in p.relators:
        letters, lo, hi = presets.span(inst.template, domains)
        sums: dict = {}
        for prefix, var, off, exp in letters:
            # a letter of a block without a window index has offset None
            key = base[prefix] + (off or 0), bool(var)
            sums[key] = sums.get(key, 0) + exp
        terms = [(col, windowed, e) for (col, windowed), e in sums.items() if e]
        for m in [None] if lo == -math.inf else range(lo, hi + 1):
            row: dict = {}
            for col, windowed, e in terms:
                if windowed:
                    col += m
                row[col] = row.get(col, 0) + e
            rows[inst.label, m] = {c: e for c, e in row.items() if e}
    return rows


def abelianization(p: Presentation, window: Optional[tuple[int, int]] = None) -> dict:
    """Invariants of the abelianized presentation over one window.

    A parametric presentation is instantiated over the window, which must
    instantiate every relator family at least once.
    """
    if window is None:
        raise EmptyWindow("a parametric presentation needs a window")
    domains = p.domains(window)
    rows = _rows(p, domains)
    present = {label for label, _ in rows}
    for inst in p.relators:
        if inst.label not in present:
            raise WindowTooNarrow(
                "window [%d, %d] instantiates no %s relator"
                % (window[0], window[1], inst.label)
            )
    cols = presets.width(domains)
    inv = _invariants(rows.values(), cols)
    return {
        "torsion": inv["torsion"],
        "free_rank": inv["free_rank"],
        "generators": cols,
        "relator_instances": len(rows),
        "window": list(window),
    }


DEFAULT_WINDOWS = ((-3, 3), (-4, 4), (-5, 5))


def abelian_invariants(group: str, n: int, window: tuple[int, int],
                       reduced: bool = True) -> dict:
    """Invariants of one group's truncated presentation over one window.

    The reduced catalog is the default (the one whose windowed invariants
    reproduce the stabilized values); pass reduced=False for the full
    derived catalog. The window must instantiate every relator family at
    least once.
    """
    if reduced:
        p = presets.reduced_presentation(group, n)
    else:
        p = presets.derived_presentation(group, n)
    return abelianization(p, window)


def stabilization_profile(group: str, n: int, windows=DEFAULT_WINDOWS) -> dict:
    """Invariants of the reduced presentation over a ladder of windows.

    The profile is stable when the torsion part does not move and the
    free rank grows by a constant amount per window step.  Every window
    must instantiate every relator family at least once.
    """
    if len(windows) < 2:
        raise WindowTooNarrow("need at least two windows to compare")
    p = presets.reduced_presentation(group, n)
    rows = [abelianization(p, w) for w in windows]
    torsions = [r["torsion"] for r in rows]
    ranks = [r["free_rank"] for r in rows]
    deltas = {b - a for a, b in zip(ranks, ranks[1:])}
    stable = len(set(map(tuple, torsions))) == 1 and len(deltas) == 1
    return {
        "group": group,
        "n": n,
        "windows": [list(w) for w in windows],
        "rows": rows,
        "torsion": torsions[0] if stable else None,
        "free_rank_delta": deltas.pop() if len(deltas) == 1 else None,
        "stable": stable,
    }


def settled(profile: dict, torsion: list) -> bool:
    """Whether a profile is stable with torsion list ``torsion`` and a free
    rank that does not move with the window."""
    return profile["stable"] and profile["torsion"] == torsion and profile["free_rank_delta"] == 0


def check_perfect(group: str, n: int, windows=DEFAULT_WINDOWS) -> dict:
    """Decide whether the windowed profile is consistent with perfectness.

    Consistent means the profile is settled with no torsion. The full
    profile rides along so a negative verdict shows what was found
    instead.
    """
    prof = stabilization_profile(group, n, windows)
    ok = settled(prof, [])
    return {
        "verdict": "consistent with perfect" if ok else "not perfect",
        "profile": prof,
    }


# ---------------------------------------------------------------------------
# Matched window truncation along a script
# ---------------------------------------------------------------------------


def step_invariants(
    before: Presentation,
    after: Presentation,
    record: dict,
    window: tuple[int, int],
    carry: Optional[dict] = None,
) -> tuple[dict, dict]:
    """Matched truncated invariants on both sides of one script step.

    A relator instance is kept only when it stays inside the window both
    before and after the step, or when the step removed its relator; for
    an elimination the removed family is restricted to the indices whose
    replacement words fit the window.  A removed block without a window
    slot keeps its one column, and a replacement of it that fits at no m
    raises ShapeMismatch.

    ``carry``, when given, is a dict that hands this step's after side on
    to the next call: its rows, its kept instance keys and its
    invariants.  The next step reuses the rows as its before side when
    the presentation and its domains are the same, and the invariants
    too when it keeps the same instances, since the same rows over the
    same columns have the same cokernel; `_invariants` never changes the
    rows it reads, so they can be handed on.  A caller that walks a script
    one window at a time so builds and reduces each intermediate
    presentation once, not once as the after side of a step and again as
    the before side of the next.
    """
    doms_b, doms_a = before.domains(window), after.domains(window)
    if record["op"] == "eliminate":
        key = (record["family"], tuple(record["fixed"]))
        _, lo, hi = presets.span(record["replacement"], doms_a)
        if doms_b[key] is not None:
            doms_b[key] = (max(doms_b[key][0], lo), min(doms_b[key][1], hi))
        elif lo > hi:
            raise ShapeMismatch("the replacement of %s fits at no m of the window" % GeneratorFamily(*key).name())
    if carry is None:
        carry = {}
    if carry.get("presentation") is before and carry["domains"] == doms_b:
        rows_b = carry["rows"]
    else:
        carry.clear()  # the stale rows go before new ones are built
        rows_b = _rows(before, doms_b)
    rows_a = _rows(after, doms_a)
    labels_a = {inst.label for inst in after.relators}
    kept = [k for k in rows_b if k in rows_a or k[0] not in labels_a]
    if carry.get("kept") == kept:
        inv_b = carry["invariants"]
    else:
        inv_b = _invariants([rows_b[k] for k in kept], presets.width(doms_b))
    kept_a = [k for k in kept if k in rows_a]
    inv_a = _invariants([rows_a[k] for k in kept_a], presets.width(doms_a))
    carry.update(presentation=after, domains=doms_a, rows=rows_a, kept=kept_a, invariants=inv_a)
    return inv_b, inv_a


def check_script_truncation(result, windows=DEFAULT_WINDOWS) -> dict:
    """Compare truncated invariants across every step of a script run.

    Each window walks the script once, carrying each step's after-side
    rows to the next step (see step_invariants); the report lists the
    steps in script order, each with its windows in order.
    """
    checked = []
    prev = result.initial
    for idx, (record, after) in enumerate(result.steps):
        if record["op"] not in ("seeds", "observe"):
            checked.append((idx, record, prev, after))
        prev = after
    invariants_at = {}
    for window in windows:
        carry: dict = {}
        for idx, record, before, after in checked:
            invariants_at[idx, window] = step_invariants(before, after, record, window, carry)
    steps = []
    for idx, record, _, _ in checked:
        for window in windows:
            inv_b, inv_a = invariants_at[idx, window]
            steps.append(
                {
                    "step": idx,
                    "text": record["text"],
                    "window": list(window),
                    "before": inv_b,
                    "after": inv_a,
                    "agree": inv_b == inv_a,
                }
            )
    agree = all(step["agree"] for step in steps)
    return {"script": result.name, "n": result.n, "steps": steps, "agree": agree}


# The transform-returning entry point under the name used at the design
# level; snf is the short working name.
smith_normal_form = snf

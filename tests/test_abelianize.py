"""Integer Smith form and windowed abelian invariants.

The invariant factors are cross-checked against a minor-gcd oracle
built here from a fraction-free Bareiss determinant, so the two sides
share no code.  The window profiles and the per-step truncation
comparison are pinned to their stable values.  The sparse invariants
are checked against the diagonal of the dense certified Smith form, and
the template-to-row builder against the Words that `instantiate` spells
out, made dense by `relation_matrix`.  The one-pass substitution core,
the sparse-transform `snf` and the int-column builder are held to the
row heap and the per-entry heap of Markowitz-priced pivots, the
dense-transform Smith form and the builder keyed by (family, fixed,
index) columns that they replaced, kept here as oracles.  The
substitution core picks its pivots in row order, so its answer is also
checked under permuted and reversed rows.
"""

import dataclasses
import functools
import heapq
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidsub import abelianize, presets, rewriting, tietze
from braidsub.abelianize import (
    abelian_invariants,
    abelianization,
    check_perfect,
    check_script_truncation,
    invariants,
    relation_matrix,
    smith_normal_form,
    snf,
    stabilization_profile,
)
from braidsub.errors import (
    BadRank,
    EmptyWindow,
    ParametricInput,
    ShapeMismatch,
    WindowTooNarrow,
)
from braidsub.presets import (
    FamilyInstance,
    FinitePresentation,
    GeneratorFamily,
    Presentation,
    derived_presentation,
    instantiate,
    parse_presentation,
    reduced_presentation,
    stated_final,
)
from braidsub.rewriting import template_canon_key
from braidsub.tietze import run_script
from braidsub.words import Symbol, TemplateWord, parse_template, parse_word


# ---------------------------------------------------------------------------
# Oracle: Bareiss determinants and minor gcds, written from scratch
# ---------------------------------------------------------------------------


def bareiss_det(mat):
    """Exact determinant of a square integer matrix."""
    n = len(mat)
    if n == 0:
        return 1
    a = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor_gcd_invariants(mat):
    """Invariant factors from gcds of k by k minors."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                sub = [[mat[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, bareiss_det(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def test_oracle_sanity():
    assert bareiss_det([[2, 0], [0, 3]]) == 6
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    assert minor_gcd_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert minor_gcd_invariants([[2, 0], [0, 2]]) == [2, 2]
    assert minor_gcd_invariants([[0, 0], [0, 0]]) == []


# ---------------------------------------------------------------------------
# Oracles: the elimination and the Smith form before they went sparse
# ---------------------------------------------------------------------------


def snf_dense_transforms(matrix, zero_q=None):
    """Oracle: the Smith form that rebuilds full rows of U and V at every
    step.  ``zero_q``, when given, collects "row" or "col" for every
    addition with multiplier 0."""
    a = [[int(x) for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    for row in a:
        if len(row) != cols:
            raise ShapeMismatch("ragged matrix")
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row i += q * row j
        if q == 0 and zero_q is not None:
            zero_q.append("row")
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):
        if q == 0 and zero_q is not None:
            zero_q.append("col")
        for row in a:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    t = 0
    while t < rows and t < cols:
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x and (piv is None or abs(x) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
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
            u[i] = [-x for x in u[i]]
    diag = [a[i][i] for i in range(min(rows, cols))]
    return diag, u, v


def invariants_per_entry_heap(vectors, cols):
    """Oracle: unit-pivot elimination with one heap candidate per +-1
    entry, then the dense-transform Smith form of the remainder."""
    rows = {}
    colrows = {}
    ids = {}  # column key -> int, so heap entries only ever compare ints
    seen = set()
    for vec in vectors:
        key = frozenset(vec.items())
        # a row and its negation state the same relation
        if key and key not in seen and frozenset((j, -x) for j, x in vec.items()) not in seen:
            seen.add(key)
            r = len(rows)
            rows[r] = row = {}
            for j, x in vec.items():
                c = ids.setdefault(j, len(ids))
                row[c] = x
                colrows.setdefault(c, set()).add(r)
    del seen, ids  # free the dedupe keys and column ids before the heap is built

    # Markowitz: (row length - 1) * (column count - 1) bounds the fill-in.
    # The heap holds a candidate per +-1 entry; a cost goes stale when its
    # row or column changes, so each popped candidate is checked again.
    def candidates(r):
        row = rows[r]
        for c, x in row.items():
            if x == 1 or x == -1:
                yield (len(row) - 1) * (len(colrows[c]) - 1), r, c

    heap = [entry for r in rows for entry in candidates(r)]
    heapq.heapify(heap)
    units = 0
    while heap:
        cost, p, c = heapq.heappop(heap)
        prow = rows.get(p)
        if prow is None or prow.get(c) not in (1, -1):
            continue
        now = (len(prow) - 1) * (len(colrows[c]) - 1)
        if now > cost:
            heapq.heappush(heap, (now, p, c))
            continue
        del rows[p]
        for j in prow:
            colrows[j].discard(p)
        changed = list(colrows[c])
        for r in changed:
            row = rows[r]
            q = row[c] * prow[c]  # prow[c] is its own inverse
            for j, x in prow.items():
                v = row.get(j, 0) - q * x
                if v:
                    row[j] = v
                    colrows[j].add(r)
                else:
                    del row[j]
                    colrows[j].discard(r)
            if not row:
                del rows[r]
        for j in prow:
            if not colrows[j]:
                del colrows[j]
        units += 1
        for r in changed:
            if r in rows:
                for entry in candidates(r):
                    heapq.heappush(heap, entry)
    remainder = {}
    for row in rows.values():
        vec = [row.get(j, 0) for j in colrows]
        if next(x for x in vec if x) < 0:
            vec = [-x for x in vec]
        remainder[tuple(vec)] = None
    diag, _, _ = snf_dense_transforms(list(remainder))
    nonzero = [d for d in diag if d]
    torsion = [d for d in nonzero if d != 1]
    return {"torsion": torsion, "free_rank": cols - units - len(nonzero)}


def invariants_row_heap(vectors, cols):
    """Oracle: unit-pivot elimination off a heap with one entry per live
    row, priced by the Markowitz bound of its cheapest +-1 entry, then
    `snf` of the remainder rows that differ up to sign."""
    rows = {}
    colrows = {}
    seen = set()
    for vec in vectors:
        if not vec:
            continue
        # a row and its negation state the same relation: the key takes
        # the sign that makes the entry in the lowest column positive
        key = frozenset(vec.items() if vec[min(vec)] > 0 else ((c, -x) for c, x in vec.items()))
        if key not in seen:
            seen.add(key)
            r = len(rows)
            rows[r] = dict(vec)  # eliminated in place; the caller's row stays
            for c in vec:
                if c in colrows:
                    colrows[c].add(r)
                else:
                    colrows[c] = {r}

    # Markowitz: (row length - 1) * (column count - 1) bounds the fill-in
    # of a pivot.  The heap holds one entry per live row, priced by its
    # cheapest +-1 entry; a price goes stale when the row or one of its
    # columns changes, so each popped entry is priced again: a price that
    # grew goes back on the heap, one that fell is taken at once.
    def price(row):
        """(cost, column) of the row's cheapest +-1 pivot, or None."""
        best = None
        for c, x in row.items():
            if x == 1 or x == -1:
                count = len(colrows[c])
                if best is None or count < best[0]:
                    best = count, c
        return best and ((len(row) - 1) * (best[0] - 1), best[1])

    heap = []
    for r, row in rows.items():
        priced = price(row)
        if priced:
            heap.append((priced[0], r))
    heapq.heapify(heap)
    queued = {r for _, r in heap}  # the live rows with a heap entry
    units = 0
    while heap:
        cost, p = heapq.heappop(heap)
        if p not in queued:
            continue  # the row is gone
        priced = price(rows[p])
        if priced is None:
            queued.remove(p)
            continue
        now, c = priced
        if now > cost:
            heapq.heappush(heap, (now, p))
            continue
        queued.remove(p)
        prow = rows.pop(p)
        for j in prow:
            colrows[j].discard(p)
        changed = list(colrows[c])
        for r in changed:
            row = rows[r]
            q = row[c] * prow[c]  # prow[c] is its own inverse
            for j, x in prow.items():
                if j in row:
                    v = row[j] - q * x
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                        colrows[j].discard(r)
                else:
                    row[j] = -q * x
                    colrows[j].add(r)
            if not row:
                del rows[r]
                queued.discard(r)
        for j in prow:
            if not colrows[j]:
                del colrows[j]
        units += 1
        # a changed row with an entry is priced when that entry pops
        for r in changed:
            if r in rows and r not in queued:
                priced = price(rows[r])
                if priced:
                    queued.add(r)
                    heapq.heappush(heap, (priced[0], r))
    remainder = {}
    for row in rows.values():
        vec = [row.get(j, 0) for j in colrows]
        if next(x for x in vec if x) < 0:
            vec = [-x for x in vec]
        remainder[tuple(vec)] = None
    diag, _, _ = snf(list(remainder))
    nonzero = [d for d in diag if d]
    torsion = [d for d in nonzero if d != 1]
    return {"torsion": torsion, "free_rank": cols - units - len(nonzero)}


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def check_certificates(mat):
    diag, u, v = snf(mat)
    rows, cols = len(mat), len(mat[0]) if mat else 0
    assert abs(bareiss_det(u)) == 1
    assert abs(bareiss_det(v)) == 1
    # U * M * V must equal the diagonal matrix exactly
    um = [
        [sum(u[i][k] * mat[k][j] for k in range(rows)) for j in range(cols)]
        for i in range(rows)
    ]
    umv = [
        [sum(um[i][k] * v[k][j] for k in range(cols)) for j in range(cols)]
        for i in range(rows)
    ]
    for i in range(rows):
        for j in range(cols):
            want = diag[i] if i == j and i < len(diag) else 0
            assert umv[i][j] == want
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert nonzero == minor_gcd_invariants(mat)
    return diag


def test_snf_frozen_cases():
    assert check_certificates([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
    assert check_certificates([[1, 0], [0, 1]]) == [1, 1]
    assert check_certificates([[0, 0], [0, 0]]) == [0, 0]
    assert check_certificates([[3, 6]]) == [3]
    assert check_certificates([[3], [6]]) == [3]
    assert snf([])[0] == []
    assert snf([[-5]])[0] == [5]
    with pytest.raises(ShapeMismatch):
        snf([[1, 2], [3]])


def test_snf_random_sweep():
    rng = random.Random(271828)
    for _ in range(80):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        check_certificates(mat)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_snf_certificates_property(mat):
    check_certificates(mat)


def test_snf_matches_the_dense_transform_oracle():
    # U's sparse rows and V's sparse columns give back exactly the
    # oracle's (diagonal, U, V); the first two matrices make the oracle
    # add a row, and a column, times 0 to one that lacks an entry of the
    # other, which must leave the sparse one alone
    zero_q = []
    for mat in ([[-3, -3], [0, 4], [-3, -4]], [[-3, -3, -3], [-3, -3, -1], [-2, -3, -3]],
                [], [[]], [[0, 0], [0, 0]], [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]):
        assert snf(mat) == snf_dense_transforms(mat, zero_q), mat
    assert {"row", "col"} <= set(zero_q)
    rng = random.Random(161803)
    for _ in range(1500):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert snf(mat) == snf_dense_transforms(mat), mat


def test_snf_matches_the_dense_transform_oracle_on_a_catalog_matrix():
    matrix, gens = relation_matrix(instantiate(reduced_presentation("wb", 8), (-8, 8)))
    assert (len(matrix), len(gens)) == (1379, 123)
    assert snf(matrix) == snf_dense_transforms(matrix)


def test_invariants_of_cokernel():
    assert invariants([[3]]) == {"torsion": [3], "free_rank": 0}
    assert invariants([[0]]) == {"torsion": [], "free_rank": 1}
    assert invariants([[1, 0]]) == {"torsion": [], "free_rank": 1}
    assert invariants([], cols=3) == {"torsion": [], "free_rank": 3}
    # cols must be the width of a nonempty matrix
    with pytest.raises(ShapeMismatch):
        invariants([[2, 0]], cols=1)
    with pytest.raises(ShapeMismatch):
        invariants([[1, 0]], cols=3)
    assert invariants([[2, 0], [0, 2]]) == {"torsion": [2, 2], "free_rank": 0}
    # a ragged matrix is rejected before any row is dropped or reduced
    with pytest.raises(ShapeMismatch):
        invariants([[1, 2], [3]])
    with pytest.raises(ShapeMismatch):
        invariants([[1, 2], [0]])


def dense_invariants(mat, cols):
    """Invariants read off the diagonal of the dense certified Smith form."""
    nonzero = [d for d in snf(mat)[0] if d]
    return {"torsion": [d for d in nonzero if d != 1], "free_rank": cols - len(nonzero)}


@st.composite
def sparse_relation_matrices(draw):
    """Mostly-zero, mostly-unit matrices with zero, repeated and negated rows."""
    cols = draw(st.integers(min_value=0, max_value=7))
    entries = [0] * 6 + [1, -1, 1, -1, 2, 3, -4]
    if draw(st.booleans()):
        entries = [0] * 3 + [2, 3, -4, 6]  # no unit entry at all
    row = st.lists(st.sampled_from(entries), min_size=cols, max_size=cols)
    mat = draw(st.lists(row, max_size=8 if cols else 0))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if not mat:
            break
        src = mat[draw(st.integers(min_value=0, max_value=len(mat) - 1))]
        flipped = [-x for x in src]
        near = flipped[:1] + src[1:]  # equal to src up to one sign, not a duplicate
        extra = draw(st.sampled_from(([0] * cols, list(src), flipped, near)))
        mat.insert(draw(st.integers(min_value=0, max_value=len(mat))), extra)
    return mat, cols


@settings(max_examples=300, deadline=None)
@given(sparse_relation_matrices())
def test_invariants_match_dense_snf(case):
    mat, cols = case
    assert invariants(mat, cols) == dense_invariants(mat, cols)


@st.composite
def unit_heavy_matrices(draw):
    """Larger, mostly-unit matrices: every pivot changes many rows, so the
    heap of pivot candidates holds entries gone stale (no longer +-1, or
    no longer present) when they are popped."""
    cols = draw(st.integers(min_value=1, max_value=15))
    entries = draw(st.sampled_from(([0] * 4 + [1, -1] * 3 + [2, -3],
                                    [0] * 10 + [1, -1] * 2 + [2])))
    row = st.lists(st.sampled_from(entries), min_size=cols, max_size=cols)
    return draw(st.lists(row, max_size=30)), cols


@settings(max_examples=100, deadline=None)
@given(unit_heavy_matrices())
def test_invariants_match_dense_snf_on_unit_heavy_matrices(case):
    mat, cols = case
    assert invariants(mat, cols) == dense_invariants(mat, cols)


@st.composite
def sparse_row_sets(draw):
    """Sparse rows over int column ids in no particular order: zero,
    repeated and negated rows, non-unit entries, and columns no row
    touches."""
    keys = draw(st.lists(st.integers(min_value=0, max_value=40), unique=True, max_size=10))
    entry = st.sampled_from([1, -1, 1, -1, 2, -2, 3, -5])
    row = st.dictionaries(st.sampled_from(keys), entry, max_size=5) if keys else st.just({})
    vectors = draw(st.lists(row, max_size=25))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if not vectors:
            break
        src = vectors[draw(st.integers(min_value=0, max_value=len(vectors) - 1))]
        extra = draw(st.sampled_from(({}, dict(src), {j: -x for j, x in src.items()})))
        vectors.insert(draw(st.integers(min_value=0, max_value=len(vectors))), extra)
    return vectors, keys


@settings(max_examples=300, deadline=None)
@given(sparse_row_sets())
def test_substitution_matches_the_row_heap_the_per_entry_heap_and_the_dense_path(case):
    vectors, keys = case
    given_rows = [dict(v) for v in vectors]
    out = abelianize._invariants(vectors, len(keys))
    assert vectors == given_rows  # the input rows are read, never changed
    assert out == invariants_row_heap(vectors, len(keys))
    assert out == invariants_per_entry_heap(vectors, len(keys))
    assert out == dense_invariants([[v.get(k, 0) for k in keys] for v in vectors], len(keys))


@settings(max_examples=300, deadline=None)
@given(sparse_row_sets(), st.data())
def test_invariants_do_not_depend_on_the_row_order(case, data):
    # pivots are taken in row order, so a permutation changes the pivots,
    # never the cokernel
    vectors, keys = case
    permuted = data.draw(st.permutations(vectors))
    assert abelianize._invariants(permuted, len(keys)) == abelianize._invariants(vectors, len(keys))


def test_unit_elimination_leaves_a_small_remainder(monkeypatch):
    # fill-in guard: a worse pivot order grows the matrix handed to snf
    handed = []
    dense = abelianize.snf

    def record(matrix):
        handed.append(matrix)
        return dense(matrix)

    monkeypatch.setattr(abelianize, "snf", record)
    for n, window, max_rows, max_cols in ((8, (-8, 8), 26, 6), (9, (-10, 10), 34, 7)):
        handed.clear()
        assert abelian_invariants("vb", n, window)["torsion"] == []
        (matrix,) = handed
        assert len(matrix) <= max_rows, (n, len(matrix))
        assert all(len(row) <= max_cols for row in matrix), n


def test_invariants_match_dense_snf_on_catalog_matrices(monkeypatch):
    # every row set the window profiles and the WB4 step checks hand to
    # the sparse core, made dense over its columns, and reversed: pivots
    # follow the row order, the answer must not
    seen = []
    core = abelianize._invariants

    def record(vectors, cols):
        vectors = [dict(v) for v in vectors]
        out = core(vectors, cols)
        seen.append((vectors, cols, out))
        return out

    monkeypatch.setattr(abelianize, "_invariants", record)
    for group in ("vb", "wb"):
        for n in (3, 4, 5, 6):
            stabilization_profile(group, n, ((-4, 4), (-6, 6), (-8, 8)))
    check_script_truncation(run_script("WB4_REDUCE"))
    assert len(seen) > 24
    for vectors, cols, out in seen:
        columns = list(dict.fromkeys(c for v in vectors for c in v))
        assert len(columns) <= cols
        matrix = [[v.get(c, 0) for c in columns] + [0] * (cols - len(columns)) for v in vectors]
        assert out == dense_invariants(matrix, cols)
        assert core(vectors[::-1], cols) == out


# ---------------------------------------------------------------------------
# Relation matrices and window invariants
# ---------------------------------------------------------------------------


def test_relation_matrix_frozen():
    p = Presentation(
        "vb",
        3,
        (GeneratorFamily("f", (0,)),),
        (FamilyInstance("cube", parse_template("f(m,0) f(m,0) f(m,0)")),),
    )
    fp = instantiate(p, (0, 1))
    matrix, cols = relation_matrix(fp)
    assert [str(sym) for sym in cols] == ["f(0,0)", "f(1,0)"]
    assert matrix == [[3, 0], [0, 3]]
    assert invariants(matrix, len(cols)) == {"torsion": [3, 3], "free_rank": 0}


def test_relation_matrix_rejects_foreign_letters():
    sym = next(iter(parse_word("f(0,0)")))[0]
    fp = FinitePresentation((sym,), (("r", parse_word("a(0)")),))
    with pytest.raises(ShapeMismatch):
        relation_matrix(fp)
    # the template builder rejects a letter outside every declared block
    gens = (GeneratorFamily("f", (0,)),)
    cube = FamilyInstance("cube", parse_template("f(m,0) f(m,0) f(m,0)"))
    stray = FamilyInstance("cube", parse_template("f(m,0) f(m,0) f(m,0) b(m,1)"))
    before = Presentation("vb", 3, gens, (cube,))
    after = Presentation("vb", 3, gens, (stray,))
    with pytest.raises(ShapeMismatch, match=r"b\(m,1\)"):
        abelianize.step_invariants(before, after, {"op": "rotate"}, (-2, 2))
    with pytest.raises(ShapeMismatch):
        abelianization(after, (-2, 2))


def test_a_variable_trailing_index_raises_parametric_input():
    gens = (GeneratorFamily("g", (3,)),)
    free = Presentation("vb", 4, gens, (FamilyInstance("sq", parse_template("g(m,i+3) g(m,i+3)")),))
    for call in (abelianization, instantiate):
        with pytest.raises(ParametricInput, match=r"a trailing index slot of g\(m,i\+3\)"):
            call(free, (-2, 2))
    # a c letter has one slot, its strand index
    c_gens = (GeneratorFamily("c", (3,)),)
    c_free = Presentation("vb", 4, c_gens, (FamilyInstance("sq", parse_template("c(m) c(m)")),))
    with pytest.raises(ParametricInput, match=r"template variable in the strand index slot of c\(m\)$"):
        instantiate(c_free, (-2, 2))
    bound = Presentation("vb", 4, gens, (FamilyInstance("sq", parse_template("g(m,3) g(m,3)")),))
    assert abelianization(bound, (-2, 2))["torsion"] == [2] * 5


def test_a_variable_other_than_m_in_the_window_slot_raises_parametric_input():
    gens = (GeneratorFamily("f", (0,)),)
    free = Presentation("vb", 3, gens, (FamilyInstance("cube", parse_template("f(i,0) f(i,0) f(i,0)")),))
    for call in (abelianization, instantiate):
        with pytest.raises(ParametricInput, match=r"f\(i,0\)"):
            call(free, (-2, 2))
    bound = Presentation("vb", 3, gens, (FamilyInstance("cube", parse_template("f(m,0) f(m,0) f(m,0)")),))
    assert abelianization(bound, (-2, 2))["torsion"] == [3] * 5


def test_a_c_block_is_one_column_of_its_own():
    gens = (GeneratorFamily("c", (3,)), GeneratorFamily("f", (0,)))
    conj = FamilyInstance("conj", parse_template("c(3) f(m,0) c(3)^-1 f(m+1,0)^-1"))
    p = Presentation("wb", 4, gens, (conj,))
    assert [gen.windowed for gen in gens] == [False, True]
    domains = p.domains((-2, 2))
    letters, lo, hi = presets.span(conj.template, domains)
    assert letters == [
        (("c", (3,)), None, None, 1), (("f", (0,)), "m", 0, 1),
        (("c", (3,)), None, None, -1), (("f", (0,)), "m", 1, -1),
    ]
    assert (lo, hi) == (-2, 1)
    # c(3) and f(-2..2), with f(m) = f(m+1) at m = -2..1
    out = abelianization(p, (-2, 2))
    assert (out["generators"], out["relator_instances"]) == (6, 4)
    assert (out["torsion"], out["free_rank"]) == ([], 2)
    with pytest.raises(ShapeMismatch, match=r"c\(4\)"):
        presets.span(parse_template("c(4) f(m,0)"), domains)


def builder_cases():
    for group in ("vb", "wb"):
        for n in range(3, 9):
            yield derived_presentation(group, n)
            yield reduced_presentation(group, n)
    yield stated_final("vb", 3)
    yield stated_final("wb", 3)  # trimmed a block
    yield stated_final("wb", 4)
    yield WIDENED_SQUARE


# A trim that widens its block: the a(m) letter fits the domain [lo-1, hi+1]
# at two more m than the window itself holds.
WIDENED_SQUARE = parse_presentation(
    "group: vb\nn: 3\ngenerators:\n  a(m) for m in Z\ntrim: a -1 +1\nrelators:\n  # square\n  a(m) a(m)\n"
)


def tuple_keyed_rows(p, domains):
    """Oracle: the template builder before its columns were numbered, with
    rows keyed by (family, fixed, index) columns; a fixed generator has
    index None."""
    rows = {}
    for inst in p.relators:
        letters, lo, hi = presets.span(inst.template, domains)
        sums = {}
        for prefix, var, off, exp in letters:
            sums[prefix, var, off] = sums.get((prefix, var, off), 0) + exp
        terms = [(prefix, var, off, e) for (prefix, var, off), e in sums.items() if e]
        for m in [None] if lo == -math.inf else range(lo, hi + 1):
            row = {}
            for prefix, var, off, e in terms:
                col = prefix + (m + off if var else off,)
                row[col] = row.get(col, 0) + e
            rows[inst.label, m] = {c: e for c, e in row.items() if e}
    return rows


def column_keys(domains):
    """The (family, fixed, index) key of each int column of
    `presets.columns(domains)`; every id below the width is used once."""
    base, width = presets.columns(domains)
    keys = {}
    for block, dom in domains.items():
        if dom is None:
            keys[base[block]] = block + (None,)
        else:
            for index in range(dom[0], dom[1] + 1):
                keys[base[block] + index] = block + (index,)
    assert sorted(keys) == list(range(width))
    return keys


def decoded_rows(p, domains):
    """`_rows` with its int columns decoded to (family, fixed, index)."""
    keys = column_keys(domains)
    return {k: {keys[c]: e for c, e in row.items()} for k, row in abelianize._rows(p, domains).items()}


def test_int_rows_equal_the_tuple_keyed_oracle():
    cases = [(p, p.domains(window)) for p in [*builder_cases(), COLLIDING]
             for window in ((-2, 2), (-4, 4), (-8, 8), (-3, 5))]
    # one empty interval: a windowed block that keeps no index, as an
    # eliminated family restricted to no replacement can
    emptied = reduced_presentation("wb", 5)
    domains = emptied.domains((-4, 4))
    block = next(b for b, d in domains.items() if d is not None)
    domains[block] = (3, 2)
    cases.append((emptied, domains))
    for p, domains in cases:
        case = (p.group, p.n, domains)
        want = tuple_keyed_rows(p, domains)
        got = decoded_rows(p, domains)
        assert list(got) == list(want), case
        assert got == want, case
        # the numbering reads the blocks in sorted order, not dict order
        assert presets.columns(dict(reversed(domains.items()))) == presets.columns(domains), case
        assert presets.width(domains) == len(column_keys(domains)), case
    assert not any(key[:2] == block for row in decoded_rows(emptied, domains).values() for key in row)


def test_template_builder_matches_instantiate():
    # oracle: Words spelled out by instantiate, then the dense relation matrix;
    # the catalog comparison keys the very instances instantiate spells
    for p in builder_cases():
        for window in ((-2, 2), (-4, 4), (-8, 8), (-3, 5)):
            fp = instantiate(p, window)
            matrix, gens = relation_matrix(fp)
            domains = p.domains(window)
            rows = decoded_rows(p, domains)
            built = Counter(
                frozenset((Symbol(fam, fixed if m is None else (m,) + fixed), e)
                          for (fam, fixed, m), e in row.items())
                for row in rows.values()
            )
            spelled = Counter(
                frozenset((gens[j], x) for j, x in enumerate(vec) if x) for vec in matrix
            )
            case = (p.group, p.n, window)
            assert built == spelled, case
            assert presets.width(domains) == len(gens), case
            assert len(rows) == len(matrix), case
            keyed = [label for labels in rewriting._instance_keys(p, window).values() for label in labels]
            assert sorted(keyed) == sorted(label for label, _ in fp.relators), case
    with pytest.raises(EmptyWindow):
        abelianization(stated_final("vb", 3), (2, -2))
    # every reader keeps the seven instances m = -3..3 of the widened square
    fp = instantiate(WIDENED_SQUARE, (-2, 2))
    assert [label for label, _ in fp.relators] == ["square@%d" % m for m in range(-3, 4)]
    matrix, gens = relation_matrix(fp)
    flat = invariants(matrix, len(gens))
    assert flat == {"torsion": [2] * 7, "free_rank": 0}
    out = abelianization(WIDENED_SQUARE, (-2, 2))
    assert (out["torsion"], out["free_rank"], out["relator_instances"]) == ([2] * 7, 0, 7)


# A windowed letter and a constant-index letter of one block meet at one
# m, and some templates cancel to nothing in the abelianization.
COLLIDING = parse_presentation(
    "group: vb\nn: 4\ngenerators:\n  a(m) for m in Z\n  c(3)\n  f(m,0) for m in Z\nrelators:\n"
    "  # meet\n  a(m) f(m,0) a(1)^-1 f(m+1,0) a(m)\n"
    "  # cancel-at-zero\n  a(m) a(0)^-1\n"
    "  # commutator\n  a(m) f(m+1,0) a(m)^-1 f(m+1,0)^-1\n"
    "  # fixed-commutator\n  c(3) a(2) c(3)^-1 a(2)^-1\n"
    "  # inner-cancel\n  f(m,0) a(m) f(m,0)^-1 c(3)\n"
)


def test_template_builder_sums_colliding_letters():
    window = (-2, 2)
    rows = decoded_rows(COLLIDING, COLLIDING.domains(window))
    a, f, c3 = (lambda m: ("a", (), m)), (lambda m: ("f", (0,), m)), ("c", (3,), None)
    assert rows["meet", 1] == {a(1): 1, f(1): 1, f(2): 1}
    assert rows["meet", 0] == {a(0): 2, f(0): 1, a(1): -1, f(1): 1}
    assert rows["cancel-at-zero", 0] == {}
    assert rows["cancel-at-zero", 2] == {a(2): 1, a(0): -1}
    assert all(rows["commutator", m] == {} for m in range(-2, 2))
    assert rows["fixed-commutator", None] == {}
    assert rows["inner-cancel", -2] == {a(-2): 1, c3: 1}
    # oracle: the Words instantiate spells out, made dense
    matrix, gens = relation_matrix(instantiate(COLLIDING, window))
    assert len(rows) == len(matrix)
    built = Counter(
        frozenset((Symbol(fam, fixed if m is None else (m,) + fixed), e) for (fam, fixed, m), e in row.items())
        for row in rows.values()
    )
    spelled = Counter(frozenset((gens[j], x) for j, x in enumerate(vec) if x) for vec in matrix)
    assert built == spelled


def test_abelianization_window_handling():
    p = stated_final("vb", 3)
    with pytest.raises(EmptyWindow):
        abelianization(p)
    out = abelianization(p, (-3, 3))
    assert out["window"] == [-3, 3]
    assert out["torsion"] == [3, 3, 3]
    assert out["free_rank"] == 7
    matrix, gens = relation_matrix(instantiate(p, (-3, 3)))
    flat = invariants(matrix, len(gens))
    assert (flat["torsion"], flat["free_rank"]) == (out["torsion"], out["free_rank"])
    assert (len(gens), len(matrix)) == (out["generators"], out["relator_instances"])


def test_abelian_invariants_reduced_and_derived():
    out = abelian_invariants("wb", 4, (-4, 4))
    assert out["torsion"] == [3]
    # the raw truncation of the larger catalog settles on its own values;
    # only the matched per-step comparison relates the two catalogs
    full = abelian_invariants("wb", 4, (-4, 4), reduced=False)
    assert full["torsion"] == [3, 3]
    assert abelian_invariants("wb", 4, (-8, 8), reduced=False)["torsion"] == [3, 3]
    with pytest.raises(WindowTooNarrow):
        abelian_invariants("wb", 4, (0, 0))


def test_stabilization_profiles_frozen():
    prof = stabilization_profile("vb", 3)
    assert prof["stable"]
    assert prof["torsion"] == [3, 3, 3]
    assert [r["free_rank"] for r in prof["rows"]] == [7, 9, 11]
    assert prof["free_rank_delta"] == 2
    for group, n, torsion, delta in (
        ("vb", 4, [3, 3, 3], 0),
        ("wb", 3, [3, 3, 3], 0),
        ("wb", 4, [3], 0),
        ("vb", 5, [], 0),
        ("vb", 6, [], 0),
        ("wb", 5, [], 0),
    ):
        prof = stabilization_profile(group, n)
        assert prof["stable"], (group, n)
        assert prof["torsion"] == torsion, (group, n)
        assert prof["free_rank_delta"] == delta, (group, n)
    assert stabilization_profile("wb", 3)["rows"][0]["free_rank"] == 1
    with pytest.raises(WindowTooNarrow):
        stabilization_profile("vb", 5, windows=((-3, 3),))


def test_check_perfect_verdicts():
    assert check_perfect("vb", 5)["verdict"] == "consistent with perfect"
    assert check_perfect("wb", 5)["verdict"] == "consistent with perfect"
    out = check_perfect("vb", 3)
    assert out["verdict"] == "not perfect"
    assert out["profile"]["torsion"] == [3, 3, 3]
    with pytest.raises(BadRank):
        check_perfect("vb", 1)


def test_profiles_reject_narrow_windows():
    # [-1, 1] instantiates no span-3 b0-recurrence relator of the rank-5
    # catalog; the profile must not read as stable and perfect.
    windows = ((-1, 1), (-2, 2))
    with pytest.raises(WindowTooNarrow, match="no b0-recurrence relator"):
        stabilization_profile("vb", 5, windows)
    with pytest.raises(WindowTooNarrow, match="no b0-recurrence relator"):
        check_perfect("vb", 5, windows)


def test_check_perfect_on_wide_windows():
    windows = ((-10, 10), (-12, 12))
    for group, n, torsion, ranks in (
        ("vb", 3, [3, 3, 3], [21, 25]),
        ("vb", 4, [3, 3, 3], [0, 0]),
        ("wb", 3, [3, 3, 3], [1, 1]),
        ("wb", 4, [3], [0, 0]),
    ):
        out = check_perfect(group, n, windows)
        assert out["verdict"] == "not perfect", (group, n)
        assert out["profile"]["torsion"] == torsion, (group, n)
        assert [r["free_rank"] for r in out["profile"]["rows"]] == ranks, (group, n)
    for group in ("vb", "wb"):
        for n in (5, 6):
            out = check_perfect(group, n, windows)
            assert out["verdict"] == "consistent with perfect", (group, n)


def test_welded_inverse_pairs_leave_the_invariants_alone():
    # The catalog states both members of each pair, and each pair is one
    # cyclic relator up to inversion (and, for the c3 pair, the sign of the
    # involution g).  The a-f rows are negated duplicates, which invariants
    # drops; the c3 rows differ by twice a g column.
    p = derived_presentation("wb", 5)
    keys = {inst.label: template_canon_key(inst.template) for inst in p.relators}
    assert keys["welded-a-f"] == keys["welded-a-f-inverse"]
    assert keys["welded-c3-braid-0"] == keys["welded-c3-braid-1"]
    assert keys["welded-a-f"] != keys["welded-c3-braid-0"]

    def without(*labels):
        return dataclasses.replace(
            p, relators=tuple(i for i in p.relators if i.label not in labels)
        )

    def rows_up_to_sign(q, window):
        rows = relation_matrix(instantiate(q, window))[0]
        return {max(tuple(r), tuple(-x for x in r)) for r in rows}

    pruned = without("welded-a-f-inverse", "welded-c3-braid-1")
    for window in ((-4, 4), (-8, 8)):
        half_af = rows_up_to_sign(without("welded-a-f-inverse"), window)
        assert half_af == rows_up_to_sign(p, window)
        full, half = abelianization(p, window), abelianization(pruned, window)
        assert half["relator_instances"] < full["relator_instances"]
        assert (half["torsion"], half["free_rank"]) == (full["torsion"], full["free_rank"])


def test_f_killed_quotient():
    # erasing the f letters of the stated VB3 list leaves every relator
    # freely trivial, so the quotient that kills f is free on a
    p = stated_final("vb", 3)
    assert {gen.family for gen in p.generators} == {"a", "f"}
    assert not any(inst.template.substitute_family("f", (0,), TemplateWord(())) for inst in p.relators)


@functools.lru_cache(maxsize=None)
def script_truncation(name, n):
    """A script run and its truncation check, cached for the session; the
    tests below only read them."""
    res = run_script(name, n)
    return res, check_script_truncation(res)


def test_script_truncation_agreement():
    for name, n in (("VB3_REDUCE", None), ("VBN_REDUCE", None), ("VBN_REDUCE", 5),
                    ("VBN_REDUCE", 6), ("VBN_REDUCE", 7), ("VBN_REDUCE", 8),
                    ("WB3_REDUCE", None), ("WB4_REDUCE", None), ("WBN_REDUCE", None),
                    ("WBN_REDUCE", 6), ("WBN_REDUCE", 7), ("WBN_REDUCE", 8)):
        res, out = script_truncation(name, n)
        assert out["agree"], (name, n)
        assert out["script"] == name
        for step in out["steps"]:
            assert step["agree"], (name, n, step["text"], step["window"])
        # every elimination shows up at every window
        elim_steps = {s["step"] for s in out["steps"]}
        elim_records = [
            i for i, (rec, _) in enumerate(res.steps) if rec["op"] == "eliminate"
        ]
        assert set(elim_records) <= elim_steps
    # at rank 7 the replacement of g(m,6) reads f(m-7,0)..f(m-5,0), inside
    # [-2, 2] for no m in [-2, 2]: the eliminated block keeps no index and
    # adds no column
    out = check_script_truncation(run_script("WBN_REDUCE", 7), ((-2, 2),))
    assert out["agree"]
    step = next(s for s in out["steps"] if s["step"] == 13)
    assert step["text"].startswith("eliminate g(m,6)")
    assert step["before"] == step["after"] == {"torsion": [], "free_rank": 0}


def test_script_truncation_builds_each_presentations_rows_once(monkeypatch):
    res = run_script("WBN_REDUCE", 8)
    steps = [(i, rec) for i, (rec, _) in enumerate(res.steps) if rec["op"] not in ("seeds", "observe")]
    eliminations = sum(rec["op"] == "eliminate" for _, rec in steps)
    assert (len(steps), eliminations) == (16, 8)
    calls = []

    def counted(p, domains):
        calls.append(p)
        return rows(p, domains)

    rows = abelianize._rows
    monkeypatch.setattr(abelianize, "_rows", counted)
    out = check_script_truncation(res, ((-3, 3),))
    # one build per step for the after side; the before side is the last
    # step's after side, except where an elimination trims its domains
    assert len(calls) == len(steps) + eliminations == 24
    # each step on its own builds both sides: the same invariants
    presentations = [res.initial] + [after for _, after in res.steps]
    for (idx, rec), row in zip(steps, out["steps"]):
        inv = abelianize.step_invariants(presentations[idx], presentations[idx + 1], rec, (-3, 3))
        assert (row["step"], row["before"], row["after"]) == (idx, *inv)
    assert len(calls) == 24 + 2 * len(steps)


def test_script_truncation_equals_each_step_on_its_own():
    # reference: every step and window through step_invariants without a
    # carry, so nothing is reused between steps; VBN_REDUCE at n=4..7 and
    # WBN_REDUCE at n=5..7
    for name, n in (("VB3_REDUCE", None), ("WB3_REDUCE", None), ("WB4_REDUCE", None),
                    ("VBN_REDUCE", None), ("VBN_REDUCE", 5), ("VBN_REDUCE", 6), ("VBN_REDUCE", 7),
                    ("WBN_REDUCE", None), ("WBN_REDUCE", 6), ("WBN_REDUCE", 7)):
        res, out = script_truncation(name, n)
        presentations = [res.initial] + [after for _, after in res.steps]
        steps = []
        for idx, (rec, _) in enumerate(res.steps):
            if rec["op"] in ("seeds", "observe"):
                continue
            for window in abelianize.DEFAULT_WINDOWS:
                inv_b, inv_a = abelianize.step_invariants(
                    presentations[idx], presentations[idx + 1], rec, window, carry=None)
                steps.append({"step": idx, "text": rec["text"], "window": list(window),
                              "before": inv_b, "after": inv_a, "agree": inv_b == inv_a})
        want = {"script": name, "n": res.n, "steps": steps, "agree": all(s["agree"] for s in steps)}
        assert out == want, (name, n)


def test_script_truncation_reduces_each_kept_row_set_once(monkeypatch):
    calls = []
    core = abelianize._invariants

    def counted(vectors, cols):
        calls.append(cols)
        return core(vectors, cols)

    monkeypatch.setattr(abelianize, "_invariants", counted)
    # two calls per step and window without the reuse: 72 and 30
    for name, pairs, want in (("WB4_REDUCE", 36, 48), ("WB3_REDUCE", 15, 21)):
        calls.clear()
        out = check_script_truncation(run_script(name))
        assert len(out["steps"]) == pairs, name
        assert len(calls) == want, name


def test_carried_rows_stay_as_built(monkeypatch):
    # carry reuse is sound only while _invariants leaves its input rows
    # alone: every rows dict a step carries, after the next step has
    # reduced it as its before side, still equals a fresh build
    carried = []
    step = abelianize.step_invariants

    def record(before, after, rec, window, carry=None):
        out = step(before, after, rec, window, carry)
        carried.append((carry["rows"], after, carry["domains"]))
        return out

    monkeypatch.setattr(abelianize, "step_invariants", record)
    out = check_script_truncation(run_script("WB4_REDUCE"))
    assert out["agree"] and len(carried) == len(out["steps"]) == 36
    for rows, after, domains in carried:
        assert rows == abelianize._rows(after, domains)


def test_step_reuse_needs_the_same_kept_instances():
    # the after side of the first step is the before side of the second,
    # whose narrower after side keeps fewer of its instances
    text = "group: vb\nn: 3\ngenerators:\n  a(m) for m in Z\n  f(m,0) for m in Z\nrelators:\n  # sq\n  %s\n"
    first, second, third = (parse_presentation(text % t) for t in (
        "a(m) a(m)", "a(m) a(m)", "a(m) f(m+2,0) a(m) f(m+2,0)^-1"))
    carry: dict = {}
    inv = abelianize.step_invariants(first, second, {"op": "rotate"}, (-2, 2), carry)
    assert inv[1] == {"torsion": [2] * 5, "free_rank": 5}
    assert carry["kept"] == [("sq", m) for m in range(-2, 3)]
    inv = abelianize.step_invariants(second, third, {"op": "rotate"}, (-2, 2), carry)
    assert inv[0] == inv[1] == {"torsion": [2] * 3, "free_rank": 7}


C_PAIR = (
    "group: wb\nn: 5\ngenerators:\n  c(3)\n  c(4)\n  f(m,0) for m in Z\nrelators:\n  # pair\n  %s\n"
    "  # conj\n  c(4) f(m+1,0) c(4)^-1 f(m,0)^-1\n  # cube\n  f(m,0) f(m,0) f(m,0)\n"
)


def test_eliminating_a_block_without_a_window_slot_keeps_its_column():
    # c(4) := c(3) leaves f(m) = f(m+1) and its cube, [3], and c(3) free on
    # both sides; the c(4) column is one column, not a window to narrow
    p = parse_presentation(C_PAIR % "c(4) c(3)^-1")
    p2, rec = tietze.eliminate_family(p, "c", (4,), "pair")
    want = {"torsion": [3], "free_rank": 1}
    assert abelianize.step_invariants(p, p2, rec, (-2, 2)) == (want, want)
    result = tietze.ScriptResult("PAIR", "wb", 5, p, [(rec, p2)], p2, None, None)
    assert check_script_truncation(result)["agree"]
    # a replacement that fits at no m of the window leaves the column unmatched
    p = parse_presentation(C_PAIR % "c(4) f(9,0)^-1")
    p2, rec = tietze.eliminate_family(p, "c", (4,), "pair")
    with pytest.raises(ShapeMismatch, match=r"^the replacement of c\(4\) fits at no m of the window$"):
        abelianize.step_invariants(p, p2, rec, (-2, 2))


def test_derived_catalog_invariants_match_reduced():
    # the full catalog and the reduced one present the same group, so the
    # truncated invariants agree wherever both windows instantiate fully
    for group, n in (("vb", 3), ("vb", 4)):
        a = abelian_invariants(group, n, (-4, 4), reduced=True)
        b = abelian_invariants(group, n, (-4, 4), reduced=False)
        assert a["torsion"] == b["torsion"], (group, n)

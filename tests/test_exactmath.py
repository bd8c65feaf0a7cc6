"""Exact linear algebra: rank/nullspace and Jordan structure."""

import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from currentfock import State, exactmath
from currentfock.dims import DimTable
from currentfock.exactmath import (
    RatMatrix,
    _echelon,
    _nullspace,
    _rref,
    jordan_structure,
    rank,
    rank_nullspace,
    rat,
    rat_str,
)
from currentfock.fock import Monomial
from currentfock.repcat import HomProblem, TopSpace
from currentfock.vertexops import Report, Truncation


def det(matrix):
    """Brute-force determinant by permutation expansion (independent oracle)."""
    n = len(matrix)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= matrix[i][perm[i]]
        total += sign * prod
    return total


def rank_by_minors(m):
    """Largest k with a nonvanishing k x k minor (independent oracle)."""
    entries = m.entries
    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                sub = [[entries[r][c] for c in cols] for r in rows]
                if det(sub) != 0:
                    best = k
                    break
            else:
                continue
            break
    return best


def test_rat_parsing_roundtrip():
    for text in ["-3/4", "7", "0", "22/7"]:
        assert rat_str(rat(text)) == text
    assert rat(5) == Fraction(5)
    assert rat(Fraction(2, 6)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)
    with pytest.raises(ValueError):
        rat("1/0")


def test_rank_nullspace_identity():
    r, ns = rank_nullspace(RatMatrix.identity(3))
    assert r == 3
    assert ns == []


def test_rank_nullspace_zero():
    r, ns = rank_nullspace(RatMatrix.zero(2, 4))
    assert r == 0
    assert len(ns) == 4
    # canonical basis of the full space
    for pos, vec in enumerate(ns):
        assert vec[pos] == 1


def test_rank_nullspace_hand_case():
    m = RatMatrix([[1, 2], [2, 4]])
    r, ns = rank_nullspace(m)
    assert r == 1
    assert ns == [(Fraction(-2), Fraction(1))]


def test_rank_nullspace_empty_matrix():
    r, ns = rank_nullspace(RatMatrix.zero(0, 3))
    assert r == 0
    assert len(ns) == 3


@pytest.mark.parametrize("seed", range(20))
def test_rank_nullspace_random_properties(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 4)
    cols = rng.randint(1, 4)
    m = RatMatrix(
        [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )
    r, ns = rank_nullspace(m)
    assert r + len(ns) == cols
    assert r == rank_by_minors(m)
    assert r == rank(m.transpose())
    for vec in ns:
        assert all(x == 0 for x in m.apply(vec))


def sparse_rref_as_dense(entries, cols):
    """`_rref` of the `_echelon` of dense rows, written out as `dense_rref` writes it.

    The pivot rows come first, in pivot order, then one zero row for each
    dependent input row.
    """
    reduced = _rref(_echelon([dict(enumerate(row)) for row in entries]))
    pivots = sorted(reduced)
    rows = [[reduced[p].get(col, 0) for col in range(cols)] for p in pivots]
    rows.extend([0] * cols for _ in range(len(entries) - len(pivots)))
    return rows, pivots


def has_float(reduced):
    return any(isinstance(a, float) for row in reduced.values() for a in row.values())


def test_rref_of_int_rows_stays_exact():
    # an int pivot once inverted to a float: [[1.0, 0.0], [0.0, 1.0]]
    assert not has_float(_rref(_echelon([{0: 2, 1: 1}, {0: 1, 1: 3}])))
    assert sparse_rref_as_dense([(2, 1), (1, 3)], 2) == ([[1, 0], [0, 1]], [0, 1])


SCALARS = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
INT_OR_FRACTION_ROWS = st.integers(0, 4).flatmap(
    lambda cols: st.tuples(
        st.lists(st.lists(SCALARS, min_size=cols, max_size=cols), max_size=4),
        st.just(cols),
    )
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(INT_OR_FRACTION_ROWS)
def test_rank_nullspace_is_exact_on_int_and_fraction_entries(case):
    rows, cols = case
    assert not has_float(_rref(_echelon([dict(enumerate(row)) for row in rows])))
    m = RatMatrix(rows, cols=cols)
    r, ns = rank_nullspace(m)
    assert r + len(ns) == cols
    for vec in ns:
        assert not any(isinstance(x, float) for x in vec)
        assert all(x == 0 for x in m.apply(vec))


NONZERO_SCALARS = SCALARS.filter(bool)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example({1: 2, 2: 1}, -1, {1: 2, 3: Fraction(1, 2), 4: 0})
@given(
    st.dictionaries(st.integers(0, 5), NONZERO_SCALARS),
    SCALARS,
    st.dictionaries(st.integers(0, 5), SCALARS),
)
def test_axpy_adds_pairs_and_drops_the_keys_that_cancel(out, s, d):
    # the dict formula out[k] + s*c on every key, with the keys that cancel gone
    expected = {k: out.get(k, 0) + s * d.get(k, 0) for k in out.keys() | d.keys()}
    expected = {k: v for k, v in expected.items() if v}
    for pairs in (d.items(), tuple(d.items())):
        got = dict(out)
        exactmath._axpy(got, s, pairs)
        assert got == expected and 0 not in got.values()


def test_matrix_algebra_basics():
    a = RatMatrix([[1, 2], [3, 4]])
    b = RatMatrix([["1/2", 0], [1, -1]])
    assert (a * b)[0, 0] == Fraction(5, 2)
    assert (a + b - b) == a
    assert a.transpose().transpose() == a
    assert (a ** 0) == RatMatrix.identity(2)
    assert (a ** 3) == a * a * a
    with pytest.raises(ValueError):
        RatMatrix([[1, 2], [3]])


SQUARE = RatMatrix([[1, 2], [3, 4]])
WIDE = RatMatrix([[1, 2, 3]])


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: RatMatrix([[1, 2], [3]]), "matrix rows have unequal lengths"),
        (lambda: RatMatrix([[1, 2]], cols=3), "declared column count does not match entries"),
        (lambda: WIDE * SQUARE, "matrix shapes do not compose"),
        (lambda: WIDE ** 2, "only square matrices can be raised to a power"),
        (lambda: SQUARE ** -1, "negative matrix powers are not supported"),
        (lambda: SQUARE.apply([1, 2, 3]), "vector length does not match column count"),
        (lambda: SQUARE + WIDE, "matrix shapes differ"),
        (lambda: SQUARE - WIDE, "matrix shapes differ"),
    ],
    ids=["ragged-rows", "cols-mismatch", "mul-shapes", "pow-not-square", "pow-negative",
         "apply-length", "add-shapes", "sub-shapes"],
)
def test_matrix_refusals_keep_their_messages(refused, message):
    with pytest.raises(ValueError) as info:
        refused()
    assert str(info.value) == message


def test_matrix_value_semantics():
    m = RatMatrix([[1, "1/2"], [0, -3]])
    with pytest.raises(AttributeError):
        m.rows = 3
    assert repr(m) == "RatMatrix([['1', '1/2'], ['0', '-3']])"
    assert m * 2 == RatMatrix([[2, 1], [0, -6]])
    from_ints = RatMatrix([[1, 0], [2, -3]])
    from_strings = RatMatrix([["2/2", "0/5"], ["4/2", "-3/1"]])
    assert from_ints == from_strings and hash(from_ints) == hash(from_strings)
    assert hash(m) == hash((m.rows, m.cols, m.entries))
    loaded = pickle.loads(pickle.dumps(m))
    assert loaded == m and hash(loaded) == hash(m)
    assert RatMatrix.zero(0, 3).cols == 3
    assert jordan_structure(RatMatrix([]), 0) == []
    # one field differs (an entry, or cols alone), and a tuple of the fields is not a matrix
    assert m != RatMatrix([[1, "1/2"], [0, -2]])
    assert RatMatrix.zero(0, 3) != RatMatrix.zero(0, 2)
    assert m != (m.rows, m.cols, m.entries) and (m.rows, m.cols, m.entries) != m
    with pytest.raises(AttributeError):
        del m.entries
    assert m == RatMatrix([[1, "1/2"], [0, -3]])


JORDAN_TOP = TopSpace(2, (1, "1/2"), [[[1, 1], [0, 1]], [["1/2", 0], [0, "1/2"]]])

# name: (build, an instance with one field changed, field names, repr, hashable)
VALUES = {
    "truncation": (
        lambda: Truncation(4, 2, 1), Truncation(4, 2), ("max_wt", "max_nwt", "j_max"),
        "Truncation(max_wt=4, max_nwt=2, j_max=1)", True,
    ),
    "top-space": (
        lambda: TopSpace(2, (1, "1/2"), [[[1, 1], [0, 1]], [["1/2", 0], [0, "1/2"]]]),
        TopSpace(2, (1, "1/2"), [[[1, 0], [0, 1]], [["1/2", 0], [0, "1/2"]]]),
        ("r", "lam", "H"),
        "TopSpace(r=2, lam=(Fraction(1, 1), Fraction(1, 2)), "
        "H=(RatMatrix([['1', '1'], ['0', '1']]), RatMatrix([['1/2', '0'], ['0', '1/2']])))",
        True,
    ),
    "hom-problem": (
        lambda: HomProblem(JORDAN_TOP, TopSpace.scalar((0, 1)), JORDAN_TOP),
        HomProblem(JORDAN_TOP, TopSpace.scalar((0, 2)), JORDAN_TOP),
        ("source", "middle", "target"),
        "HomProblem(source=TopSpace(r=2, lam=(Fraction(1, 1), Fraction(1, 2)), "
        "H=(RatMatrix([['1', '1'], ['0', '1']]), RatMatrix([['1/2', '0'], ['0', '1/2']]))), "
        "middle=TopSpace(r=1, lam=(Fraction(0, 1), Fraction(1, 1)), "
        "H=(RatMatrix([['0']]), RatMatrix([['1']]))), "
        "target=TopSpace(r=2, lam=(Fraction(1, 1), Fraction(1, 2)), "
        "H=(RatMatrix([['1', '1'], ['0', '1']]), RatMatrix([['1/2', '0'], ['0', '1/2']]))))",
        True,
    ),
    "report": (
        lambda: Report("virasoro", {"m": 0, "n": 1}, 7, False, Fraction(1, 2),
                       State.term(Monomial.make([(1, 0, 1)]), 0)),
        Report("virasoro", {"m": 0, "n": 1}, 8, False, Fraction(1, 2),
               State.term(Monomial.make([(1, 0, 1)]), 0)),
        ("identity", "params", "states_checked", "defect_zero", "max_defect", "counterexample"),
        "Report(identity='virasoro', params={'m': 0, 'n': 1}, states_checked=7, "
        "defect_zero=False, max_defect=Fraction(1, 2), counterexample=State(1*x[1,0,1]@0))",
        False,
    ),
    "dim-table": (
        lambda: DimTable(1, {(0, 0): 1, (1, 1): 1}), DimTable(1, {(0, 0): 1}), ("d", "entries"),
        "DimTable(d=1, entries={(0, 0): 1, (1, 1): 1})", False,
    ),
}


@pytest.mark.parametrize("build, other, fields, shown, hashable", VALUES.values(), ids=VALUES)
def test_value_semantics(build, other, fields, shown, hashable):
    value = build()
    assert repr(value) == shown
    again = build()
    assert again is not value and again == value and not again != value
    assert value != other and other != value
    assert value != tuple(getattr(value, name) for name in fields)
    if hashable:
        assert hash(again) == hash(value)
        with pytest.raises(AttributeError):
            setattr(value, fields[0], getattr(other, fields[0]))
        assert value == again
    else:
        with pytest.raises(TypeError):
            hash(value)
    assert pickle.loads(pickle.dumps(value)) == value


def test_dim_table_entries_default_to_a_fresh_dict():
    first, second = DimTable(2), DimTable(2)
    assert first.entries == {} and first.entries is not second.entries
    assert repr(first) == "DimTable(d=2, entries={})"


def test_jordan_canonical_block():
    lam = Fraction(5, 3)
    m = RatMatrix([[lam, 1], [0, lam]])
    assert jordan_structure(m, lam) == [2]


def test_jordan_diagonal():
    m = RatMatrix.scalar(2, Fraction(7))
    assert jordan_structure(m, 7) == [1, 1]


def test_jordan_hand_case():
    # rank(m - I) = 1, rank((m - I)^2) = 0
    m = RatMatrix([[1, 2], [0, 1]])
    assert jordan_structure(m, 1) == [2]


def test_jordan_mixed_spectrum_restricts_to_generalized_eigenspace():
    # eigenvalue 0 in a Jordan block of size 2, plus an eigenvalue 3 elsewhere
    m = RatMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 3]])
    assert jordan_structure(m, 0) == [2]
    assert jordan_structure(m, 3) == [1]
    assert jordan_structure(m, 1) == []


def test_jordan_non_square_rejected():
    with pytest.raises(ValueError):
        jordan_structure(RatMatrix.zero(2, 3), 0)


@pytest.mark.parametrize("seed", range(10))
def test_jordan_block_sizes_partition_generalized_eigenspace(seed):
    rng = random.Random(100 + seed)
    # assemble a block-diagonal matrix from known Jordan blocks, then shuffle
    # by a unimodular similarity so the answer is known in advance
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    lam = Fraction(rng.randint(-2, 2))
    n = sum(sizes)
    rows = [[Fraction(0)] * n for _ in range(n)]
    pos = 0
    for size in sizes:
        for s in range(size):
            rows[pos + s][pos + s] = lam
            if s + 1 < size:
                rows[pos + s][pos + s + 1] = Fraction(1)
        pos += size
    j = RatMatrix(rows)
    # random unimodular conjugation keeps everything exact
    p_rows = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
    for _ in range(4):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            for cidx in range(n):
                p_rows[a][cidx] += rng.randint(-1, 1) * p_rows[b][cidx]
    p = RatMatrix(p_rows)
    p_inv = _invert(p)
    m = p * j * p_inv
    assert jordan_structure(m, lam) == sorted(sizes, reverse=True)
    assert sum(jordan_structure(m, lam)) == n


def _invert(m):
    n = m.rows
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(m.entries)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return RatMatrix([row[n:] for row in aug])


def dense_rref(entries, cols):
    """Gauss-Jordan on dense rows, pivot column by pivot column (reference copy)."""
    rows = [list(row) for row in entries]
    pivots = []
    pivot_row = 0
    for col in range(cols):
        hit = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                hit = r
                break
        if hit is None:
            continue
        rows[pivot_row], rows[hit] = rows[hit], rows[pivot_row]
        inv = Fraction(1) / rows[pivot_row][col]
        rows[pivot_row] = [a * inv for a in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows, pivots


def dense_kernel(entries, cols):
    """The canonical kernel basis read off `dense_rref`, as {column: coeff} dicts.

    One vector per free column f, in increasing order: 1 at f and
    ``-rref[r][f]`` at the pivot column of each row r where that is nonzero.
    """
    reduced, pivots = dense_rref(entries, cols)
    kernel = []
    for free in sorted(set(range(cols)) - set(pivots)):
        vec = {free: 1}
        for r, pc in enumerate(pivots):
            if reduced[r][free]:
                vec[pc] = -reduced[r][free]
        kernel.append(vec)
    return kernel


# rows drawn from a small pool, so repeated rows and zero rows are common
ROW_POOLS = st.integers(0, 5).flatmap(
    lambda cols: st.tuples(
        st.lists(
            st.one_of(
                st.lists(SCALARS, min_size=cols, max_size=cols),
                st.just([0] * cols),
            ),
            min_size=1,
            max_size=3,
        ),
        st.just(cols),
    )
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ROW_POOLS, st.data())
def test_rref_matches_dense_gauss_jordan(case, data):
    pool, cols = case
    rows = data.draw(st.lists(st.sampled_from(pool), max_size=6))
    assert sparse_rref_as_dense(rows, cols) == dense_rref(rows, cols)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(INT_OR_FRACTION_ROWS, st.randoms(use_true_random=False))
def test_rank_of_sparse_rows_with_tuple_columns_matches_dense(case, rng):
    rows, cols = case
    labels = [(("x", (col * 7) % 5), col % 2) for col in range(cols)]
    sparse = [{labels[col]: a for col, a in enumerate(row)} for row in rows]
    order = list(range(cols))
    rng.shuffle(order)
    dense = RatMatrix([[row[col] for col in order] for row in rows], cols=cols)
    assert rank(sparse) == rank(dense) == rank_by_minors(dense)


# column labels of two kinds: basis monomials, as `repcat.vacuum_space` uses,
# and nested tuples like the (monomial, top) keys of a term dict
LABELS = st.sampled_from([
    [Monomial.make(f) for f in ([], [(1, 0, 1)], [(1, 0, 2)], [(1, 0, 1), (1, 0, 1)],
                                [(1, 1, 1)], [(2, 0, 1), (1, 0, 1)])],
    [(("x", (col * 7) % 5), col % 2) for col in range(6)],
])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(LABELS, st.integers(0, 6), st.data())
def test_nullspace_of_sparse_rows_with_label_columns_matches_dense(labels, cols, data):
    labels = data.draw(st.permutations(labels))[:cols]
    entries = st.dictionaries(st.sampled_from(labels), SCALARS) if labels else st.just({})
    rows = data.draw(st.lists(entries, max_size=4))
    order = sorted(labels)
    basis = _nullspace(rows, order)
    dense = RatMatrix([[row.get(label, 0) for label in order] for row in rows], cols=cols)
    assert [tuple(vec.get(label, 0) for label in order) for vec in basis] == (
        rank_nullspace(dense)[1]
    )
    assert basis == [
        {order[col]: a for col, a in vec.items()} for vec in dense_kernel(dense.entries, cols)
    ]
    for vec in basis:
        for row in rows:
            assert sum(a * vec.get(label, 0) for label, a in row.items()) == 0


def count_eliminations(monkeypatch):
    """Count the calls of `_echelon` and of `_rref` made through exactmath."""
    calls = {"_echelon": 0, "_rref": 0}
    for name in calls:
        def counted(arg, real=getattr(exactmath, name), name=name):
            calls[name] += 1
            return real(arg)
        monkeypatch.setattr(exactmath, name, counted)
    return calls


def test_nullspace_of_full_column_rank_rows_skips_back_substitution(monkeypatch):
    calls = count_eliminations(monkeypatch)
    rows = ({0: 1, 1: 2, 2: 3}, {1: Fraction(1, 2), 2: 1}, {0: 4, 2: 7}, {0: 1, 1: 1, 2: 1})
    assert _nullspace(iter(rows), range(3)) == []
    assert calls == {"_echelon": 1, "_rref": 0}


def test_nullspace_reads_a_generator_of_rank_deficient_rows_once(monkeypatch):
    calls = count_eliminations(monkeypatch)
    entries = [(1, 2, 3, 0), (2, 4, 6, 0), (0, 1, 1, Fraction(1, 3))]
    rows = ({col: a for col, a in enumerate(row) if a} for row in entries)
    basis = _nullspace(rows, range(4))
    assert basis == dense_kernel(entries, 4)
    assert basis == [{2: 1, 0: -1, 1: -1}, {3: 1, 0: Fraction(2, 3), 1: Fraction(-1, 3)}]
    assert calls == {"_echelon": 1, "_rref": 1}

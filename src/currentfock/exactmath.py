"""Exact rational scalars, rational matrices and one sparse elimination.

Scalars are exact rationals: a Python `int` where a value is integral and a
`fractions.Fraction` otherwise (`RatMatrix` stores Fractions).  No floating
point enters the package at any point; every computation downstream of this
module is an exact identity over the rationals.

Every exact rank and kernel is sparse.  It goes through `_echelon`, a
forward elimination over sparse rows {column: coefficient} whose columns may
be any mutually ordered keys, so callers hand their term dicts straight in.
`rank` counts its pivots.  `_nullspace` runs it once: when every column
is a pivot the kernel is empty and it stops there; otherwise `_rref`
finishes the reduced row echelon form from that same elimination, and a
canonical kernel basis is read off it as sparse vectors.
`RatMatrix` is kept for top-space matrices and public outputs:
`rank_nullspace` is `_nullspace` with dense rows in and dense tuples out.

Serialization convention: a rational renders as ``"num/den"`` with the
denominator omitted when it is 1 (``"-3/4"``, ``"7"``).  This is exactly what
``str(Fraction)`` produces; `rat` parses it back.
"""

from __future__ import annotations

from fractions import Fraction


def rat(x) -> Fraction:
    """Coerce an int (not a bool), a "num/den" string or a Fraction to a rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % x) from None
    raise TypeError("cannot build an exact rational from %r" % (x,))


def _int_first(x):
    """An integral rational as an int; any other rational unchanged."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def rat_str(x) -> str:
    """Serialize a rational as "num/den" (denominator omitted when 1)."""
    return str(rat(x))


class Value:
    """An immutable value with named fields, compared and hashed over them.

    A subclass names its fields in `_fields` and sets them once, in its own
    `__init__`, through `_set`; assigning or deleting an attribute after
    that raises `AttributeError`.  Two instances of one class are equal
    when their field tuples are, and an instance is never equal to one of
    another class.  `repr` reads ``Name(field=value, ...)``.  Pickling
    goes through the instance ``__dict__``.  A subclass with a mutable
    field sets ``__hash__ = None``.
    """

    _fields = ()

    def _set(self, *values):
        self.__dict__.update(zip(self._fields, values))

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (type(self).__qualname__, fields)


class RatMatrix(Value):
    """Immutable dense matrix over the rationals.

    A `Value`, compared and hashed over ``(rows, cols, entries)``; entries
    are stored as a tuple of row tuples of Fractions.  Matrices are
    hashable because the top-space matrices H_i are fields of the hashed
    `ModuleSpec`, which keys the operator registry.
    """

    _fields = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        rows = tuple(tuple(rat(e) for e in row) for row in entries)
        if rows:
            ncols = len(rows[0])
            if any(len(row) != ncols for row in rows):
                raise ValueError("matrix rows have unequal lengths")
            if cols is not None and cols != ncols:
                raise ValueError("declared column count does not match entries")
        else:
            ncols = 0 if cols is None else cols
        self._set(len(rows), ncols, rows)

    @classmethod
    def zero(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def scalar(cls, n, value):
        value = rat(value)
        return cls([[value if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __repr__(self):
        return "RatMatrix(%r)" % ([list(map(str, row)) for row in self.entries],)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shapes differ")
        return RatMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            cols=self.cols,
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            if self.cols != other.rows:
                raise ValueError("matrix shapes do not compose")
            cols_of_other = list(zip(*other.entries)) if other.entries else []
            return RatMatrix(
                [
                    [sum(a * b for a, b in zip(row, col)) for col in cols_of_other]
                    for row in self.entries
                ],
                cols=other.cols,
            )
        return self.scale(other)

    def scale(self, s):
        s = rat(s)
        return RatMatrix(
            [[s * a for a in row] for row in self.entries], cols=self.cols
        )

    def __pow__(self, k):
        if self.rows != self.cols:
            raise ValueError("only square matrices can be raised to a power")
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        result = RatMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def transpose(self):
        return RatMatrix(list(zip(*self.entries)) if self.entries else [], cols=self.rows)

    def is_zero(self):
        return all(a == 0 for row in self.entries for a in row)

    def apply(self, vec):
        """Matrix-vector product, vec given as a sequence of rationals."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(a * rat(v) for a, v in zip(row, vec)) for row in self.entries)

    def to_json(self):
        return [[rat_str(a) for a in row] for row in self.entries]

    @classmethod
    def from_json(cls, data, cols=None):
        return cls(data, cols=cols)


def _axpy(out, s, pairs):
    """out += s * pairs on a sparse {key: coefficient} dict; cancelled keys go.

    pairs is any iterable of (key, coefficient) pairs, such as `d.items()`
    of a dict d or a column tuple.
    """
    for key, c in pairs:
        v = out.get(key, 0) + s * c
        if v:
            out[key] = v
        else:
            out.pop(key, None)


def _sparse_rows(entries):
    """Dense rows as sparse rows {column index: nonzero entry}."""
    return ({col: a for col, a in enumerate(row) if a} for row in entries)


def _echelon(rows):
    """Forward elimination over sparse rows {column: coefficient}.

    Columns may be any mutually ordered keys.  Each row is reduced by the
    pivots found so far, smallest column first, until it is zero or its
    smallest column holds no pivot yet; that column becomes its pivot.
    Returns {pivot column: row scaled to 1 there}; the number of pivots is
    the rank.  The input rows are not changed.
    """
    pivots = {}
    for row in rows:
        row = {col: a for col, a in row.items() if a}
        while row:
            col = min(row)
            lead = row[col]
            if col not in pivots:
                if lead != 1:
                    inv = Fraction(1) / lead
                    row = {key: a * inv for key, a in row.items()}
                pivots[col] = row
                break
            _axpy(row, -lead, pivots[col].items())
    return pivots


def _rref(reduced):
    """Finish the reduced row echelon form of an `_echelon` result, in place.

    Each pivot column is cleared above its pivot, last pivot first.  Returns
    the same {pivot column: row}, each row now 1 at its own pivot and absent
    at every other pivot.
    """
    pivots = sorted(reduced)
    for k in range(len(pivots) - 1, 0, -1):
        below = reduced[pivots[k]]
        for col in pivots[:k]:
            above = reduced[col]
            if pivots[k] in above:
                _axpy(above, -above[pivots[k]], below.items())
    return reduced


def _nullspace(rows, columns):
    """The canonical kernel basis of sparse rows, as sparse vectors {column: coeff}.

    One vector per free column f, in the order of `columns`: 1 at f and
    ``-row[f]`` at the pivot of each reduced row that holds f.  The rows
    are read once, by one `_echelon`; when every column is a pivot the
    kernel is empty and no back-substitution is done.
    """
    reduced = _echelon(rows)
    free = [col for col in columns if col not in reduced]
    if not free:
        return []
    _rref(reduced)
    basis = []
    for col in free:
        vec = {col: 1}
        for pivot, row in reduced.items():
            if col in row:
                vec[pivot] = -row[col]
        basis.append(vec)
    return basis


def rank_nullspace(m):
    """Exact rank and a deterministic nullspace basis of a rational matrix.

    Returns ``(rank, basis)`` with rank + len(basis) == m.cols and
    m.apply(v) == 0 for every basis vector v.  The basis is the canonical
    one of `_nullspace`, each vector made a dense tuple of Fractions.
    """
    basis = [
        tuple(Fraction(vec.get(col, 0)) for col in range(m.cols))
        for vec in _nullspace(_sparse_rows(m.entries), range(m.cols))
    ]
    return m.cols - len(basis), basis


def rank(m):
    """Exact rank of a RatMatrix or of an iterable of sparse rows {column: coeff}."""
    if isinstance(m, RatMatrix):
        m = _sparse_rows(m.entries)
    return len(_echelon(m))


def jordan_structure(m, eigenvalue):
    """Jordan block sizes of a square matrix at one rational eigenvalue.

    Computed from nullity jumps of powers of N = m - eigenvalue*I, restricted
    automatically to the generalized eigenspace (the nullities stabilize at
    its dimension).  Returns the sizes sorted descending; the empty list when
    the given value is not an eigenvalue.
    """
    if m.rows != m.cols:
        raise ValueError("jordan_structure requires a square matrix")
    n = m.rows
    if n == 0:
        return []
    shifted = m - RatMatrix.scalar(n, eigenvalue)
    nullities = [0]
    power = RatMatrix.identity(n)
    for _ in range(n):
        power = power * shifted
        nullities.append(n - rank(power))
    nullities.append(nullities[-1])
    blocks = []
    for k in range(1, n + 1):
        count = (nullities[k] - nullities[k - 1]) - (nullities[k + 1] - nullities[k])
        blocks.extend([k] * count)
    blocks.sort(reverse=True)
    return blocks

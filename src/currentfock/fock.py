"""Fock-space states over the current algebra of an abelian Lie algebra.

The symmetric-algebra basis is indexed by monomials in commuting variables
x_{i,j,n}: color i in 1..d picks a basis vector of the abelian algebra,
j >= 0 the power of the polynomial variable, and n >= 1 the depth of the
creation mode that the variable realizes.  A monomial carries two gradings:

* weight   = sum of the n's (the conformal-weight shift above the top space),
* nwt      = sum of the j's (the second N-grading).

States are finite rational combinations of (monomial, top-index) pairs; the
top index labels a basis vector of the finite-dimensional top space the
module is induced from.  The adjoint module (the vertex algebra itself) is
the special case of a one-dimensional top space on which all zero modes act
as zero.

Single-mode actions follow the polynomial realization: the mode with depth
-n (n > 0) multiplies by x_{i,j,n}, the mode with depth n differentiates as
n*l*d/dx_{i,j,n}, and the zero mode acts on the top index through the matrix
c^j * H_i.  The central element is never materialized; it is the level l
stored in the module description.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exactmath import RatMatrix, Value, _axpy, _int_first, rat, rat_str

KIND_ADJOINT = "adjoint"
KIND_EVALUATION = "evaluation"


class NotHomogeneousError(ValueError):
    """Raised when a state mixes terms of different bigrades."""


def mode(i, j, n):
    """The single mode (u^(i) t^j)(n) as ((i, j), n), the argument of `apply_mode`."""
    return ((i, j), n)


class Monomial(tuple):
    """Sorted multiset of creation variables, stored as (i, j, n) triples.

    The tuple is always sorted, which makes equality, hashing and the
    lexicographic order canonical.  Tables and serialized output use the
    graded order (weight, nwt, lex) exposed by `sort_key`.
    """

    __slots__ = ()

    @classmethod
    def make(cls, factors):
        factors = sorted(tuple(f) for f in factors)
        for i, j, n in factors:
            # an index is an int; bool is not, and a float would reach the coefficients
            if not (type(i) is type(j) is type(n) is int) or i < 1 or j < 0 or n < 1:
                raise ValueError("invalid creation variable %r" % ((i, j, n),))
        return cls(tuple(f) for f in factors)

    def weight(self):
        return sum(n for _, _, n in self)

    def nwt(self):
        return sum(j for _, j, _ in self)

    def sort_key(self):
        return (self.weight(), self.nwt(), tuple(self))

    def times(self, i, j, n):
        """Multiply by one more variable x_{i,j,n}."""
        return Monomial(sorted(self + ((i, j, n),)))

    def without(self, i, j, n):
        """Remove one occurrence of x_{i,j,n} (which must be present)."""
        factors = list(self)
        factors.remove((i, j, n))
        return Monomial(factors)

    def distinct(self):
        """Yield ((i, j, n), multiplicity) over the distinct variables."""
        prev = None
        mult = 0
        for f in self:
            if f == prev:
                mult += 1
            else:
                if prev is not None:
                    yield prev, mult
                prev, mult = f, 1
        if prev is not None:
            yield prev, mult

    def to_json(self):
        return [list(f) for f in self]

    @classmethod
    def from_json(cls, data):
        return cls.make(tuple(f) for f in data)


EMPTY = Monomial()


class State:
    """Finite rational combination of (monomial, top-index) basis vectors.

    Elements of the vertex algebra M(l) use top index 0 throughout; module
    states over an r-dimensional top space use indices 0..r-1.  Zero
    coefficients are never stored, and a coefficient is an `int` wherever
    it is integral.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                coeff = rat(coeff)
                if coeff != 0:
                    clean[key] = _int_first(coeff)
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def term(cls, mono, top=0, coeff=1):
        return cls({(mono, top): coeff})

    @classmethod
    def vacuum(cls, top=0):
        return cls.term(EMPTY, top)

    def is_zero(self):
        return not self.terms

    def iter_terms(self):
        """Iterate (monomial, top, coefficient) in canonical order."""
        for mono, top in sorted(self.terms, key=lambda k: (k[0].sort_key(), k[1])):
            yield mono, top, self.terms[(mono, top)]

    def __eq__(self, other):
        return isinstance(other, State) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        _axpy(out, 1, other.terms.items())
        return State(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        s = rat(s)
        return State({k: s * c for k, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "State(0)"
        bits = []
        for mono, top, coeff in self.iter_terms():
            var = "*".join("x[%d,%d,%d]" % f for f in mono) or "1"
            bits.append("%s*%s@%d" % (coeff, var, top))
        return "State(%s)" % " + ".join(bits)

    def to_json(self):
        return [
            {"mono": mono.to_json(), "top": top, "coeff": rat_str(coeff)}
            for mono, top, coeff in self.iter_terms()
        ]

    @classmethod
    def from_json(cls, data):
        terms = {}
        for entry in data:
            if not isinstance(entry, dict):
                raise ValueError("a state term must be a JSON object, got %r" % (entry,))
            top = entry.get("top", 0)
            # as for a monomial's indices: bool is not an int, and a float is refused
            if type(top) is not int or top < 0:
                raise ValueError("invalid top index %r" % (top,))
            key = (Monomial.from_json(entry["mono"]), top)
            terms[key] = terms.get(key, 0) + rat(entry["coeff"])
        return cls(terms)


def _check_top(r, lam, H):
    """Validate a top space: d commuting r x r matrices with H_i - lam_i*I nilpotent."""
    if len(lam) != len(H):
        raise ValueError("lambda and H must have one entry per color")
    for i, m in enumerate(H):
        if m.rows != r or m.cols != r:
            raise ValueError("H[%d] is not %d x %d" % (i, r, r))
        shifted = m - RatMatrix.scalar(r, lam[i])
        if not (shifted**r).is_zero():
            raise ValueError(
                "lambda[%d] is not the unique eigenvalue of H[%d]" % (i, i)
            )
    for a in range(len(H)):
        for b in range(a + 1, len(H)):
            if H[a] * H[b] != H[b] * H[a]:
                raise ValueError("top-space matrices H[%d], H[%d] do not commute" % (a, b))


class ModuleSpec(Value):
    """Which module operators act on, with all exact data needed to act.

    kind "adjoint" is the vertex algebra M(l) itself (r = 1, zero modes act
    as 0, c irrelevant).  kind "evaluation" is the module induced from the
    evaluation top space at the point c: the matrices H give the action of
    the colors u^(i) on the top space, and lam_i is the unique eigenvalue of
    H_i.  The r = 1 case with H_i = (lam_i) is the classical irreducible
    evaluation module; r > 1 with nontrivial nilpotent parts produces the
    logarithmic ones.
    """

    _fields = ("kind", "d", "l", "c", "r", "lam", "H")

    def __init__(self, kind, d, l, c, r, lam, H):
        self._set(kind, d, l, c, r, lam, H)
        if self.kind not in (KIND_ADJOINT, KIND_EVALUATION):
            raise ValueError("unknown module kind %r" % (self.kind,))
        if self.d < 1:
            raise ValueError("color count must be at least 1")
        if self.l == 0:
            raise ValueError("level must be nonzero")
        if self.r < 1:
            raise ValueError("top-space dimension must be at least 1")
        if len(self.lam) != self.d:
            raise ValueError("lambda must have d entries")
        _check_top(self.r, self.lam, self.H)
        if self.kind == KIND_ADJOINT:
            if self.r != 1 or any(not m.is_zero() for m in self.H):
                raise ValueError("the adjoint module has r = 1 and trivial top action")
            if self.c is not None:
                raise ValueError("the adjoint module carries no evaluation point")
        elif self.c is None:
            raise ValueError("evaluation modules need an evaluation point c")

    @classmethod
    def adjoint(cls, d, l):
        return cls(
            kind=KIND_ADJOINT,
            d=d,
            l=rat(l),
            c=None,
            r=1,
            lam=tuple(Fraction(0) for _ in range(d)),
            H=tuple(RatMatrix.zero(1, 1) for _ in range(d)),
        )

    @classmethod
    def evaluation(cls, d, l, c, lam, H=None):
        lam = tuple(rat(x) for x in lam)
        if H is None:
            H = tuple(RatMatrix([[x]]) for x in lam)
            r = 1
        else:
            H = tuple(m if isinstance(m, RatMatrix) else RatMatrix(m) for m in H)
            r = H[0].rows if H else 1
        return cls(kind=KIND_EVALUATION, d=d, l=rat(l), c=rat(c), r=r, lam=lam, H=H)

    def is_adjoint(self):
        return self.kind == KIND_ADJOINT

    def zero_mode_matrix(self, i, j):
        """The matrix of (u^(i) t^j)(0) on the top space: c^j * H_i."""
        if self.is_adjoint():
            return RatMatrix.zero(self.r, self.r)
        return self.H[i - 1].scale(self.c**j)

    def to_json(self):
        return {
            "kind": self.kind,
            "d": self.d,
            "l": rat_str(self.l),
            "c": None if self.c is None else rat_str(self.c),
            "lambda": [rat_str(x) for x in self.lam],
            "H": [m.to_json() for m in self.H],
        }

    @classmethod
    def from_json(cls, data):
        kind = data["kind"]
        if kind == KIND_ADJOINT:
            return cls.adjoint(data["d"], rat(data["l"]))
        return cls.evaluation(
            data["d"],
            rat(data["l"]),
            rat(data["c"]),
            [rat(x) for x in data["lambda"]],
            H=[RatMatrix.from_json(m) for m in data["H"]],
        )


def enumerate_basis(d, m, n):
    """Monomial basis of the doubly homogeneous subspace (nwt m, weight n).

    Returned in canonical (lexicographic) order with no duplicates; empty
    whenever m > 0 and n = 0, since every variable has positive weight.
    The order needs no sort.  A depth-first walk builds each monomial as a
    sorted tuple, one factor at a time, trying each next factor >= the last
    one in increasing order; and since every factor has positive weight, no
    monomial of the cell is a prefix of another.  So the walk meets them in
    lexicographic order.  A fresh list is built on every call; nothing is
    cached.  `count_table` counts a whole box of cells in one walk of its own.
    """
    _check_cell("enumerate_basis", d, m, n)
    if n == 0:
        return [EMPTY] if m == 0 else []
    out = []
    _extend(out, d, (), m, n, 1, 0, 1)
    return out


def count_basis(d, m, n):
    """len(enumerate_basis(d, m, n)): the (m, n) cell of `count_table(d, m, n)`."""
    _check_cell("count_basis", d, m, n)
    return count_table(d, m, n)[m][n]


def count_table(d, max_nwt, max_wt):
    """counts[m][n] = len(enumerate_basis(d, m, n)) for every m <= max_nwt, n <= max_wt.

    One depth-first walk over the whole box meets every monomial of nwt <=
    max_nwt and weight <= max_wt once, builds none, and counts each into its
    own cell.  So every count stays an explicit enumeration, independent of
    the partition-counting formulas.
    """
    _check_cell("count_table", d, max_nwt, max_wt)
    counts = [[0] * (max_wt + 1) for _ in range(max_nwt + 1)]
    counts[0][0] = 1
    _count(counts, d, 0, 0, max_nwt, max_wt, 1, 0, 1)
    return counts


def _check_cell(name, d, m, n):
    if d < 1 or m < 0 or n < 0:
        raise ValueError("%s needs d >= 1 and m, n >= 0" % name)


def _extend(out, d, prefix, rem_m, rem_n, i0, j0, nu0):
    """Append to out, in order, every completion of prefix as a Monomial.

    See `enumerate_basis` for the order.  A module-level function, not a
    closure, so a returned list is freed by reference counting alone.
    """
    # next factor (i, j, nu) >= (i0, j0, nu0), with j <= rem_m and nu <= rem_n
    for i in range(i0, d + 1):
        for j in range(j0 if i == i0 else 0, rem_m + 1):
            lo = nu0 if i == i0 and j == j0 else 1
            # at color d every later factor has power >= j as well
            if i < d or 2 * j <= rem_m:
                for nu in range(lo, rem_n):
                    _extend(out, d, prefix + ((i, j, nu),), rem_m - j, rem_n - nu, i, j, nu)
            if j == rem_m and lo <= rem_n:
                out.append(Monomial(prefix + ((i, j, rem_n),)))


def _count(counts, d, m, n, rem_m, rem_n, i0, j0, nu0):
    """Count every extension of a prefix of bigrade (m, n) into the cell it lands in.

    A next factor (i, j, nu) >= (i0, j0, nu0) takes j <= rem_m more nwt and
    nu <= rem_n more weight; the walk goes on past it only where a factor
    >= (i, j, nu) still fits in what is left.
    """
    for i in range(i0, d + 1):
        for j in range(j0 if i == i0 else 0, rem_m + 1):
            lo = nu0 if i == i0 and j == j0 else 1
            left_m = rem_m - j
            # the largest nu after which a further factor fits: below color d or
            # with room for a larger power, (i + 1, 0, 1) or (d, j + 1, 1) needs
            # weight 1; else only (d, j, nu' >= nu) can follow, or nothing
            if i < d or j < left_m:
                top = rem_n - 1
            elif j == left_m:
                top = rem_n // 2
            else:
                top = 0
            row = counts[m + j]
            for nu in range(lo, rem_n + 1):
                row[n + nu] += 1
                if nu <= top:
                    _count(counts, d, m + j, n + nu, left_m, rem_n - nu, i, j, nu)


@lru_cache(maxsize=8)
def _basis_labels(d, r, max_wt, max_nwt):
    """The labels of `module_basis`, as a tuple; they depend on no other spec field."""
    return tuple(
        (mono, top)
        for n in range(max_wt + 1)
        for m in range(max_nwt + 1)
        for mono in enumerate_basis(d, m, n)
        for top in range(r)
    )


def module_basis(spec, max_wt, max_nwt):
    """All (monomial, top) basis labels of a module within the given bounds.

    Ordered by (weight, nwt, monomial, top) so every table built from it is
    deterministic.  A fresh list each call, so callers may change it freely.
    """
    return list(_basis_labels(spec.d, spec.r, max_wt, max_nwt))


def grading(s):
    """The common bigrade (weight shift, nwt) of a state.

    Raises NotHomogeneousError when terms disagree in either grading.  The
    zero state is reported as (0, 0).
    """
    result = None
    for (mono, _top) in s.terms:
        bigrade = (mono.weight(), mono.nwt())
        if result is None:
            result = bigrade
        elif result != bigrade:
            raise NotHomogeneousError(
                "state mixes bigrades %s and %s" % (result, bigrade)
            )
    return result if result is not None else (0, 0)


def _check_mode(spec, i, j):
    if not 1 <= i <= spec.d:
        raise ValueError("color index %d out of range 1..%d" % (i, spec.d))
    if j < 0:
        raise ValueError("generator power must be nonnegative")


def apply_mode(op, w, spec):
    """Apply a single mode (u^(i) t^j)(n) to a state.

    n < 0 multiplies by x_{i,j,-n}; n > 0 acts as n*l*d/dx_{i,j,n}; n = 0
    acts on the top index through c^j * H_i (and as zero on the adjoint
    module).  Each term's column is computed afresh and nothing is stored.
    """
    (i, j), n = op
    _check_mode(spec, i, j)
    out = {}
    for (mono, top), coeff in w.terms.items():
        _axpy(out, coeff, _mode_column(spec, i, j, n, mono, top).items())
    return State(out)


def _mode_column(spec, i, j, n, mono, top):
    """The image of one basis label under (u^(i) t^j)(n), as a fresh int-first dict."""
    if n < 0:
        return {(mono.times(i, j, -n), top): 1}
    if n > 0:
        mult = mono.count((i, j, n))
        if mult == 0:
            return {}
        # n*l*mult with the level's int parts: an int wherever it is integral
        l = spec.l
        num, den = n * mult * l.numerator, l.denominator
        coeff = num // den if num % den == 0 else Fraction(num, den)
        return {(mono.without(i, j, n), top): coeff}
    if spec.is_adjoint():
        return {}
    matrix = spec.zero_mode_matrix(i, j)
    return {
        (mono, t): _int_first(matrix[t, top]) for t in range(spec.r) if matrix[t, top] != 0
    }

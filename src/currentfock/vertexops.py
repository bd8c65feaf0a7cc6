"""Vertex-operator modes, the operators L(n) for n >= -1, and identity checks.

The vertex operator attached to a monomial a_1(-n_1)...a_k(-n_k)1 is the
normal-ordered product of the derivative fields (1/(n_t-1)!)(d/dz)^{n_t-1}
a_t(z).  Its modes are built one factor at a time by the iterate formula of
a normal-ordered product (see `Operators`), so a vertex-operator mode applied
to a state is a finite signed sum of ordinary mode compositions.

L(n) is the quadratic expression (1/2l) sum over colors, generator powers j
and splittings of n into two modes, normal ordered.  On the adjoint module
every L(n) is a finite exact sum.  On evaluation modules two infinite j-sums
appear: the doubly-zero-mode part of L(0), which is summed in closed form as
a geometric series (hence the c^2 != 1 requirement), and the creation times
zero-mode tail of L(-1), which for c != 0 is genuinely infinite and is
truncated at j <= j_max with an explicit exactness flag.

Every internal use of these operators reads columns, dicts {id:
numerator}, compiled by `Operators` into one memo per operator L(n) or
Y(v)_k (a single mode a(k) is Y(x_{i,j,1})_k), a dict from the id of a
basis label to its column; a compiled column is served by a plain dict
lookup.  A column is compiled straight into ids in one pass: each output
label is built once and interned at once, so no column is first keyed by
labels.  The numerators are ints over one positive int `den` per memo,
fixed when the memo is made, so the sweeps do int arithmetic and divide
once per defect.  An id is a small int that one `Operators` object gives a
(monomial, top) label the first time it meets it, in its intern table,
which also keeps the weight, nwt and degree of each id; so no memo or sum
hashes a nested label.  Ids of two objects never mix.  Columns are handed
out read-only to the identity checkers (Virasoro, mode and field
commutators, L(0) grading, d = L(-1), strong grading), the contragredient
matrices here and the C1 quotients in `dims`, which accumulate into dicts
of their own.  Every caller outside the sweep applies an operator to a term
dict through one method, `Operators.apply`, which turns the labels into
ids, sums the columns at the level asked for, divides by the den and turns
the result back into labels.  What depends only on the module (the
zero-mode entries) is computed once per `Operators`; the L(0) rows of the
top space are built when the memo of L(0) is made and passed to its
compile, as are the tail rows of L(-1).  The public `State` API,
`l_apply`, `vertex_mode`, `d_apply` and `fock.apply_mode`, still returns
fresh states and is not called inside the package.  A single-mode column
is built here from the module's constants, apart from
`fock._mode_column`, which `apply_mode` and the vacuum spaces in `repcat`
read unmemoized.

The six identities are plans of one sweep, `_sweep`, which refuses an
empty plan and rescales each defect by the level law below.  One walk of
the basis runs a list of plans and gives one report per plan, so a
command's checks share a walk: every pair of `virasoro`, every (n, k) of
`e1`, and every (n, k) of one A of the field commutator, whose pieces that
depend on A alone are built once.  A plan is of one of two kinds.  A
product plan lists parts of products c X(Y w) and singles s Z w whose sum
must vanish: a commutator c [X, Y] is the products (c, X, Y) and (-c, Y,
X), so Virasoro [L(m), L(n)] = (m-n) L(m+n), e1 [L(n), a(k)] = -k a(n+k)
and the field commutator are product plans, and d = L(-1) is the singles d
and -L(-1).  e1 keeps its closed form: it is the field commutator's sum at
A = x_{i,j,1}, but that sum also compiles the columns of Y(x_{i,j,2}),
which the closed form never reads.  A containment plan, for L(0) grading
and strong grading (one entry per monomial of each sampled v), lists
entries that name an operator Y, the weight shift of its terms and the
window their change of nwt must keep, an empty one meaning Y w = 0.

The level law.  On the adjoint module a positive mode is n*l*d/dx and zero
modes vanish, so a term w -> w' of a column is the l = 1 term times
l^((deg w - deg w')/2) under L(n), and l^((p + deg w - deg w')/2) under
Y(v)_k, v with p factors; deg counts the variables of a monomial.  So the
registry `operators` keys the adjoint module by d alone and serves every
level the one l = 1 object, compiled in ints.  `Operators.apply` rescales
each column it reads to the level asked for, and the sweep rescales each
defect once per label, both with `_rescale`; so sweep defects, `State`
results and contragredient rows come out at that level, and an odd power
raises AssertionError.  The states L(m)A of the field commutator are read
at the level of the sweep's own object, whose defect is then rescaled.
The C1 quotients read the level-1 columns as they are: the law scales each
image row and column by a nonzero factor, which changes no rank.
Evaluation modules keep their own level: their zero modes carry no l.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial

from .exactmath import RatMatrix, _axpy, rat_str
from .fock import (
    ModuleSpec,
    Monomial,
    State,
    _check_mode,
    _int_first,
    _int_first_terms,
    grading,
    module_basis,
)
from .repcat import l0_top_matrix


@dataclass(frozen=True)
class Truncation:
    """Explicit bounds making infinite sweeps and sums finitely computable."""

    max_wt: int
    max_nwt: int
    j_max: int = 0

    def __post_init__(self):
        if self.max_wt < 0 or self.max_nwt < 0 or self.j_max < 0:
            raise ValueError("truncation bounds must be nonnegative")


def _gbinom(m, r):
    """Binomial coefficient C(m, r) for integer m of any sign, r >= 0."""
    if m >= 0:
        return math.comb(m, r)
    # C(m, r) = (-1)^r C(r - m - 1, r): negate each of the r factors m - s
    return (-1) ** r * math.comb(r - m - 1, r)


def _vertex_labels(v, spec):
    """The (monomial, coefficient) pairs of a label of Y(v, z) on spec, in canonical order."""
    out = []
    for vmono, vtop, vcoeff in v.iter_terms():
        if vtop != 0:
            raise ValueError("vertex-operator labels live in M(l); top index must be 0")
        for i, j, _n in vmono:
            _check_mode(spec, i, j)
        out.append((vmono, _int_first(vcoeff)))
    return out


_EMPTY_COLUMN = {}  # shared by every operator that kills a label; never changed


class _Memo(dict):
    """A dict that fills a missing key on lookup with `compile(*args, key)`.

    Once the value exists, `memo[key]` and `memo.__getitem__` are plain dict
    lookups.  If `compile` raises, nothing is stored.  A memo of columns
    holds numerators over its positive int `den` (see `Operators`).  A memo
    of memos is `_Memo(partial(_Memo, compile, *args, den=den), den=den)`:
    its value at k is `_Memo(compile, *args, k, den=den)`.
    """

    __slots__ = ("compile", "args", "den")

    def __init__(self, compile, *args, den=1):
        super().__init__()
        self.compile = compile
        self.args = args
        self.den = den

    def __missing__(self, key):
        value = self[key] = self.compile(*self.args, key)
        return value


class _Fresh(_Memo):
    """A `_Memo` that stores nothing: a plan's own operator, read once per label."""

    __slots__ = ()

    def __missing__(self, key):
        return self.compile(*self.args, key)


def _numerators(column):
    """column itself, once each value is checked to be an int: a den is checked, not trusted."""
    for coeff in column.values():
        if type(coeff) is not int:
            raise AssertionError("a numerator is not an int: the den of its memo is wrong")
    return column


def _top_rows(matrix, r):
    """The nonzero int-first entries (t, matrix[t, top]) of each column top of an r x r matrix."""
    return tuple(
        tuple((t, _int_first(matrix[t, top])) for t in range(r) if matrix[t, top])
        for top in range(r)
    )


def _rows_den(*rows):
    """The lcm of the denominators of the entries of some `_top_rows`; 1 for none."""
    return math.lcm(*(entry.denominator for row in rows for top in row for _t, entry in top))


def _rows_over(den, rows):
    """`_top_rows` as int numerators over den, a multiple of `_rows_den(rows)`."""
    return tuple(tuple((t, _int_first(den * entry)) for t, entry in top) for top in rows)


class _Module:
    """What the columns of one module read besides the label; holds no `Operators`.

    Its intern table numbers the labels 0, 1, 2, ... in the order they are
    met: `ids` maps a label to its id, `labels` an id to its label, and
    `wt`, `nwt` and `deg` hold the weight, nwt and variable count of each
    id's monomial.  It keeps no L(n) data: the L(0) rows of the top space
    are built when the memo of L(0) is made and passed to its compile.
    """

    __slots__ = (
        "spec", "j_max", "l", "top_acts", "cuts_tail", "zero_modes",
        "ids", "labels", "wt", "nwt", "deg",
    )

    def __init__(self, spec, j_max):
        self.spec = spec
        self.j_max = j_max
        self.l = _int_first(spec.l)
        self.top_acts = not spec.is_adjoint() and any(not m.is_zero() for m in spec.H)
        # the creation * zero-mode tail of L(-1) is cut at j <= j_max
        self.cuts_tail = self.top_acts and spec.c != 0
        self.zero_modes = _Memo(_zero_mode_rows, spec)
        self.ids = {}
        self.labels = []
        self.wt = []
        self.nwt = []
        self.deg = []

    def intern(self, label):
        """The id of a (monomial, top) label, numbered on first sight."""
        try:
            return self.ids[label]
        except KeyError:
            pass
        id_ = self.ids[label] = len(self.labels)
        self.labels.append(label)
        mono = label[0]
        wt = nwt = 0  # Monomial.weight() and nwt() in one pass
        for _i, j, n in mono:
            wt += n
            nwt += j
        self.wt.append(wt)
        self.nwt.append(nwt)
        self.deg.append(len(mono))
        return id_

    def to_ids(self, terms):
        """A term dict {label: coeff} keyed by ids, as a fresh dict."""
        get = self.ids.get
        out = {}
        for label, coeff in terms.items():
            id_ = get(label)
            out[self.intern(label) if id_ is None else id_] = coeff
        return out

    def to_labels(self, column, den=1):
        """A column {id: numerator} over den keyed by labels, as a fresh dict of its values.

        A value over a den other than 1 comes out int-first.
        """
        labels = self.labels
        if den == 1:
            return {labels[id_]: coeff for id_, coeff in column.items()}
        return {labels[id_]: _int_first(Fraction(coeff, den)) for id_, coeff in column.items()}


class Operators:
    """L(n) and vertex-operator modes Y(v)_k, single modes among them, on one module.

    Each operator is compiled on demand, one basis label at a time, into a
    column: a dict {id: numerator}.  An id is the number of a (monomial,
    top) label in this object's intern table (see `_Module`):
    `intern(label)` gives it, `to_ids` and `to_labels` turn a term dict into
    ids and a column over a den back into labels.  A compile interns each
    output label as it builds it; `to_ids` serves only the term dicts that
    callers hand in.  Each operator has a memo,
    a dict from the id of a basis label to its column that compiles a
    missing column on lookup, in one of two families: `_l[n]`, made once
    L(n) is checked to exist here, and `_vertex[v][k]`.  The single mode
    (u^(i) t^j)(k) is Y(x_{i,j,1})_k, the base case of the iterate formula
    below.  A sweep looks a column up with `memo[id]`, so a compiled column
    costs one dict lookup; any other caller applies a sum of operators to a
    term dict with `apply(level, operator, terms)`.  Columns are handed out
    read-only; a caller that changed one would corrupt every later use.
    `apply` and the public `State` API return fresh dicts and states.

    Each memo's columns hold int numerators over its den, and each compile
    checks that they are ints (a scaled single-mode column is an int times
    checked ints).  A single mode's den is the lcm of the
    denominators of l and of c^j H_i; Y(v)_k's is the product of its
    factors' single-mode dens, as each iterate term multiplies a numerator
    of x by one of u; L(n)'s is that of the module constants it reads (see
    `_l_memo`).  L(n >= 1) on a top that acts at a c that is not an integer
    reads c^j H_i at every j, so it has no such bound: it keeps den 1 and
    int-first rationals.  Every value that leaves a memo is divided by its
    den: in `apply`, `to_labels` and the sweeps' defects.
    Obtain one through `operators(spec, j_max)`, so that every sweep of one
    command reuses the same columns.

    The columns are those of `spec` at its own level; the registry serves
    an adjoint spec at any level the level-1 object, and `apply` rescales
    its columns to the level asked for (the level law above).

    What depends only on the module (`_Module`), the intern table among it,
    is computed once per object.  The compile callables of the memos hold it
    and other memos, never the object, so no reference cycle keeps a dropped
    object alive.
    The memos of Y(v)_k for one v share v's split into its first factor x
    and its tail u, and hold the memos of x and u that the iterate formula
    reads.

    Y(v)_k is compiled by the iterate formula for a normal-ordered product.
    For v = x(-n) u, with x = u^(i) t^j and r = n - 1,

        (x(-n) u)_k w = sum_{mu >= 0} C(-mu-1, r) u_{k-mu-r-1} (x(mu) w)
                      + sum_{mu < 0}  C(-mu-1, r) x(mu) (u_{k-mu-r-1} w),

    Y(1)_k = delta_{k,-1} and Y(x_{i,j,1})_k = x(k).  x(mu) w vanishes for
    mu > 0 unless w holds the variable x_{i,j,mu}; C(-mu-1, r) vanishes for
    -n < mu < 0; and the sum over mu < 0 stops where u_{k-mu-r-1} w would
    have negative weight.
    The columns of the tail u come from the same memos, so they are shared
    across the labels v, the modes k and the depths n.  At u = 1 the
    formula reduces to the derivative base case: x_{i,j,n} is
    (1/(n-1)!) L(-1)^(n-1) x_{i,j,1}, whose field is the divided derivative
    of x(z), so Y(x_{i,j,n})_k = C(n-k-2, n-1) x(k-n+1), one scaled column
    of the single mode over its den.  Y(1) is made only for v = 1 itself.
    """

    def __init__(self, spec, j_max):
        self.spec = spec
        module = self._module = _Module(spec, j_max)
        self.intern = module.intern
        self.to_ids = module.to_ids
        self.to_labels = module.to_labels
        # n -> memo of L(n); v -> k -> memo of Y(v)_k
        self._l = _Memo(_l_memo, module)
        self._vertex = {}

    def l_columns(self, n):
        """The memo of L(n): id of a basis label -> read-only column; see `l_apply`."""
        return self._l[n]

    def exact_l_columns(self, n):
        """The memo of L(n); ValueError if L(n) is j-truncated here."""
        memo = self._l[n]
        if self.l_truncated(n):
            raise ValueError(
                "identity check hit a truncated L(-1) tail; "
                "restrict to exact configurations (c = 0 or trivial top action)"
            )
        return memo

    def l_truncated(self, n):
        """Whether the columns of L(n) are cut at j <= j_max (L(-1) only)."""
        return n == -1 and self._module.cuts_tail

    def vertex_columns(self, vmono, k):
        """The memo of Y(v)_k, v a monomial of M(l): id of a basis label -> read-only column."""
        return self._vertex_memos(vmono)[k]

    def apply(self, level, operator, terms):
        """The sum of c X applied to `terms`, {label: coeff}, over the (c, X, p) of operator.

        X is the memo of an L(n), with p = 0, or of a Y(v)_k whose v has p
        factors.  At the object's own level each column is read as compiled;
        at another level, on the level-1 adjoint object, it is rescaled by
        the level law.  The sum is taken over the lcm of the memos' dens and
        divided once.  Returns a fresh {label: coeff} with no zero entries.
        """
        ratio = _int_first(level / self.spec.l)
        deg = self._module.deg
        w = self.to_ids(terms)
        den = math.lcm(*(memo.den for _c, memo, _p in operator))
        out = {}
        for c, memo, p in operator:
            scale = den // memo.den
            for id_, coeff in w.items():
                _axpy(out, c * coeff * scale, _rescale(memo[id_], ratio, p + deg[id_], deg))
        return self.to_labels(out, den)

    def _vertex_memos(self, vmono):
        """The memo k -> memo of Y(v)_k, made after the memos of v's tail."""
        memos = self._vertex.get(vmono)
        if memos is None:
            module = self._module
            if not vmono:  # Y(1, z) is the identity field
                den, compile = 1, partial(_Memo, _compile_identity)
            elif len(vmono) > 1:
                first = vmono[0]
                x = self._vertex_memos(Monomial((first[:2] + (1,),)))
                u = self._vertex_memos(Monomial(vmono[1:]))
                den = x.den * u.den
                args = (_compile_vertex, module, first, x, u, vmono.weight())
                compile = partial(_Memo, *args, den=den)
            elif vmono[0][2] == 1:  # a single mode a(k)
                i, j, _n = vmono[0]
                _check_mode(self.spec, i, j)
                rows = module.zero_modes[(i, j)]
                den = math.lcm(module.l.denominator, _rows_den(rows))
                rows, l = _rows_over(den, rows), _int_first(den * module.l)
                compile = partial(_Memo, _compile_mode, module, i, j, den, l, rows, den=den)
            else:  # x_{i,j,n}, n >= 2: the divided derivative of x(z), x = x_{i,j,1}
                i, j, n = vmono[0]
                x = self._vertex_memos(Monomial(((i, j, 1),)))
                den, compile = x.den, partial(_derivative_memo, x, n)
            memos = self._vertex[vmono] = _Memo(compile, den=den)
        return memos


def _l_memo(module, n):
    """The memo of L(n), made once L(n) is checked to exist, over the den of its constants.

    Besides ints, the columns of L(n) read l (n >= 2) and, where the top
    acts, c^j H_i at every power j (n >= 1) or the top-space terms built
    here: the doubly-zero-mode rows of L(0), from `repcat.l0_top_matrix`,
    and the tail rows c^j H_i / l of L(-1), cut at j <= j_max for c != 0.
    The den is the lcm of their denominators; those of c^j H_i are bounded
    only for an integral c, and otherwise the memo keeps den 1 and int-first
    rationals (`bounded` false).  The top-space terms are passed to
    `_compile_l` as (created variable or None, rows over the den); its
    columns are compiled in one pass into ids, and each is checked by
    `_numerators` (bounded) or made int-first by `_int_first_terms`
    (unbounded).
    """
    if n < -1:
        raise ValueError("only the operators L(n) with n >= -1 exist here")
    spec = module.spec
    if module.top_acts and spec.c**2 == 1:
        raise ValueError("L(n) on an evaluation module with nontrivial top action needs c^2 != 1")
    den = module.l.denominator if n >= 2 else 1
    bounded = True
    top_terms = ()
    if module.top_acts:
        if n == 0:
            top_terms = [(None, _top_rows(l0_top_matrix(spec), spec.r))]
        elif n == -1:
            powers = range(module.j_max + 1) if module.cuts_tail else (0,)
            top_terms = [
                ((i, j, 1), _top_rows(spec.zero_mode_matrix(i, j).scale(1 / spec.l), spec.r))
                for i in range(1, spec.d + 1)
                for j in powers
            ]
        elif spec.c.denominator == 1:  # then the denominators of c^j H_i divide those of H_i
            h = [module.zero_modes[(i, 0)] for i in range(1, spec.d + 1)]
            den = math.lcm(den, _rows_den(*h))
        else:
            den, bounded = 1, False
        if top_terms:
            den = _rows_den(*(rows for _var, rows in top_terms))
            top_terms = tuple((var, _rows_over(den, rows)) for var, rows in top_terms)
    l = _int_first(den * module.l)
    return _Memo(_compile_l, module, n, den, bounded, l, top_terms, den=den)


def _zero_mode_rows(spec, gen):
    """The nonzero entries (t, c^j H_i[t, top]) of (u^(i) t^j)(0), per top index."""
    return _top_rows(spec.zero_mode_matrix(*gen), spec.r)


def _compile_identity(k, id_):
    return {id_: 1} if k == -1 else _EMPTY_COLUMN


def _compile_mode(module, i, j, den, l, rows, k, id_):
    """The column of (u^(i) t^j)(k) at a label; l is den times the level, rows are over den."""
    mono, top = module.labels[id_]
    if k < 0:
        return {module.intern((mono.times(i, j, -k), top)): den}
    if k > 0:
        mult = mono.count((i, j, k))
        if not mult:
            return _EMPTY_COLUMN
        return _numerators({module.intern((mono.without(i, j, k), top)): k * mult * l})
    if not rows[top]:
        return _EMPTY_COLUMN
    return _numerators({module.intern((mono, t)): entry for t, entry in rows[top]})


def _derivative_memo(x, n, k):
    """The memo of Y(x_{i,j,n})_k = C(n-k-2, n-1) x(k-n+1); at scale 1, that of x(k-n+1)."""
    scale = _gbinom(n - k - 2, n - 1)
    if scale == 1:
        return x[k - n + 1]
    return _Memo(_compile_scaled, x[k - n + 1] if scale else None, scale, den=x.den)


def _compile_scaled(mode, scale, id_):
    column = mode[id_] if scale else _EMPTY_COLUMN
    return {key: scale * c for key, c in column.items()} if column else _EMPTY_COLUMN


def _compile_vertex(module, first, x, u, wt_v, k, id_):
    """The column of Y(v)_k at a label: each term is an int C(-mu-1, r) times numerators."""
    i, j, n = first
    r = n - 1
    # every term of a column of Y(v)_k has the label's weight plus wt v - k - 1
    weight = module.wt[id_] + wt_v - k - 1
    if weight < 0:
        return _EMPTY_COLUMN
    # mu = 0 and each distinct q of a variable x_{i,j,q} of w, adjacent in the sorted label
    mus = [0]
    for a, b, q in module.labels[id_][0]:
        if a == i and b == j and q != mus[-1]:
            mus.append(q)
    # mu <= -n: x(mu) raises the weight by -mu, so u_{k-mu-r-1} w (mostly empty) has
    # weight `weight + mu`; each term is summed into the column as it is found
    mus += range(-n, -weight - 1, -1)
    out = {}
    get = out.get
    for mu in mus:
        column = x[mu][id_] if mu >= 0 else u[k - mu - r - 1][id_]
        if column:
            images = u[k - mu - r - 1] if mu >= 0 else x[mu]
            scale = _gbinom(-mu - 1, r) if r else 1
            for key, coeff in column.items():
                s = scale * coeff
                for image, c in images[key].items():
                    out[image] = get(image, 0) + s * c
    if 0 in out.values():
        out = {key: c for key, c in out.items() if c}
    return _numerators(out) if out else _EMPTY_COLUMN


def _compile_l(module, n, den, bounded, l, top_terms, id_):
    """The column of L(n) at a label as numerators over den, l being den times the level.

    top_terms are the (created variable or None, rows over den) of
    `_l_memo`.  Each output label is built once, from a copy of the label's
    factors with the annihilated variables removed and the created one
    inserted in order, and interned at once; the terms are summed into the
    column by id and its zeros dropped once, at the end.  The label's
    variables are counted only for n != 0: the terms of L(0) do not read
    them.
    """
    weight = module.wt[id_]
    if n > weight:
        return _EMPTY_COLUMN  # L(n) lowers the weight by n, and no weight is negative
    mono, top = module.labels[id_]
    intern = module.intern
    out = {}
    get = out.get

    if n == 0:
        # the creation * annihilation pairings each give back w: they sum to its weight
        if mono:
            out[id_] = weight * den
    else:
        counts = {}
        for var in mono:
            counts[var] = counts.get(var, 0) + 1
        floor = max(0, n)
        # one pass over the distinct variables x_{i,j,q}, each paired with the mode p = n - q
        for var, mult in counts.items():
            i, j, q = var
            p = n - q
            if q > floor:  # creation * annihilation
                factors = list(mono)
                factors.remove(var)
                insort(factors, (i, j, -p))
                key = intern((Monomial(factors), top))
                out[key] = get(key, 0) + q * mult * den
            elif q <= p:  # annihilation * annihilation, both on variables of w, q the smaller
                pairs = mult * counts.get((i, j, p), 0) if q < p else mult * (mult - 1) // 2
                if pairs:
                    factors = list(mono)
                    factors.remove(var)
                    factors.remove((i, j, p))
                    key = intern((Monomial(factors), top))
                    out[key] = get(key, 0) + p * q * pairs * l
            # zero mode * annihilation, where the zero mode acts on this top vector
            elif p == 0 and (rows := module.zero_modes[(i, j)][top]):
                factors = list(mono)
                factors.remove(var)
                rest = Monomial(factors)
                for t, entry in rows:
                    key = intern((rest, t))
                    out[key] = get(key, 0) + _int_first(n * mult * den * entry)

    # top-space terms: the doubly-zero-mode part of L(0), a geometric series summed in
    # closed form, and the creation * zero-mode tail of L(-1), cut at j <= j_max
    for var, rows in top_terms:
        grown = mono
        if var is not None:
            factors = list(mono)
            insort(factors, var)
            grown = Monomial(factors)
        for t, entry in rows[top]:
            key = intern((grown, t))
            out[key] = get(key, 0) + entry

    if 0 in out.values():
        out = {key: c for key, c in out.items() if c}
    if not out:
        return _EMPTY_COLUMN
    return _numerators(out) if bounded else _int_first_terms(out)


@lru_cache(maxsize=4)
def _registry(key):
    """One `Operators` per key: (spec, j_max), or the color count d of the level-1 adjoint module."""
    if isinstance(key, int):
        return Operators(ModuleSpec.adjoint(key, 1), 0)
    return Operators(*key)


def operators(spec, j_max):
    """The shared `Operators` of (spec, j_max), from a small bounded registry.

    One command keeps using the same few modules (a field-commutator sweep
    needs its module and the adjoint one), so their columns live across all
    of the command's sweeps while the registry stays bounded.  An adjoint
    spec is keyed by d alone: see the level law above; `j_max` cuts no
    adjoint column.
    """
    return _registry(spec.d if spec.is_adjoint() else (spec, j_max))


def _rescale(terms, ratio, shift, deg):
    """Adjoint terms {id: coeff} of one level at `ratio` times that level, by the level law.

    `shift` is deg w under L(n) and p + deg w under Y(v)_k, the same for
    every term: callers split sums over mixed degrees or factor counts.
    `deg` is the degree table of the ids.  Returns `terms` itself when
    there is nothing to scale.
    """
    if not terms or ratio == 1:
        return terms
    out = {}
    for key, coeff in terms.items():
        half, odd = divmod(shift - deg[key], 2)
        if odd:
            raise AssertionError("an odd power of the level: the level law is broken")
        out[key] = _int_first(coeff * ratio**half)
    return out


def vertex_mode(v, k, w, spec):
    """The coefficient of z^{-k-1} in Y_W(v, z) applied to w.

    Linear in v and in w; exact.  The adjoint module realizes the algebra's
    own operators Y(v, z).
    """
    ops = operators(spec, 0)
    y = [(c, ops.vertex_columns(vmono, k), len(vmono)) for vmono, c in _vertex_labels(v, spec)]
    return State(ops.apply(spec.l, y, w.terms))


def l_apply(n, w, spec, tr=None):
    """Apply L(n), n >= -1, returning (result, exact).

    exact is False only for the j-truncated creation/zero-mode tail of L(-1)
    on evaluation modules with c != 0 and a nontrivial top action; the tail
    is cut at j <= tr.j_max.  Everything else is a finite exact sum.
    """
    ops = operators(spec, tr.j_max if tr is not None else 0)
    out = ops.apply(spec.l, [(1, ops.l_columns(n), 0)], w.terms)
    return State(out), not (w.terms and ops.l_truncated(n))


def d_apply(v):
    """The translation operator of M(l): the derivation x_{i,j,n} -> n x_{i,j,n+1}.

    Coincides with L(-1) on the adjoint module; implemented independently so
    the two can be checked against each other.
    """
    return State(_translate(v.terms))


def _translate(terms):
    """`d_apply` on a term dict; a fresh dict."""
    out = {}
    for (mono, top), coeff in terms.items():
        for (i, j, q), mult in mono.distinct():
            _axpy(out, coeff * q * mult, {(mono.without(i, j, q).times(i, j, q + 1), top): 1})
    return out


@dataclass
class Report:
    """Outcome of one identity sweep over a truncated basis."""

    identity: str
    params: dict
    states_checked: int
    defect_zero: bool
    max_defect: Fraction
    counterexample: State | None

    def to_json(self):
        return {
            "identity": self.identity,
            "params": self.params,
            "states_checked": self.states_checked,
            "defect_zero": self.defect_zero,
            "max_defect": rat_str(self.max_defect),
            "counterexample": None
            if self.counterexample is None
            else self.counterexample.to_json(),
        }


def merge_reports(reports, identity, params):
    """Combine sub-reports: counts add, defects max, first counterexample wins."""
    total = 0
    max_defect = Fraction(0)
    counterexample = None
    for rep in reports:
        total += rep.states_checked
        if rep.max_defect > max_defect:
            max_defect = rep.max_defect
        if counterexample is None and rep.counterexample is not None:
            counterexample = rep.counterexample
    return Report(identity, params, total, max_defect == 0, max_defect, counterexample)


def _sweep(identity, spec, tr, ops, entries, defect_of):
    """One report per (params, plan, den) of entries, in order, from one walk of the basis.

    The walk visits the id in ops of every basis label within tr, and
    `defect_of(plans, module, w)` gives, for each entry e whose plan has a
    nonzero defect at the id w, (e, parts): den times that defect at the
    level of ops as (p, terms) parts, terms a nonzero dict over ids whose
    factor count is p.  Each part is rescaled once by the
    level law, with shift p + deg w, and the parts are summed before the
    defect is measured: parts of different p can share a key.  Each entry
    keeps its largest defect, divided by its den once at the end, and its
    first counterexample in basis order.  An entry with an empty plan checks
    nothing and is refused before the walk.
    """
    plans = [plan for _params, plan, _den in entries]
    if not all(plans):
        raise ValueError(identity + " needs at least one operator to check")
    ratio = _int_first(spec.l / ops.spec.l)
    module = ops._module
    intern, deg = module.intern, module.deg
    basis = module_basis(spec, tr.max_wt, tr.max_nwt)
    maxima = [0] * len(plans)
    first = [None] * len(plans)
    for label in basis:
        w = intern(label)
        for e, parts in defect_of(plans, module, w):
            defect = {}
            for p, terms in parts:
                _axpy(defect, 1, _rescale(terms, ratio, p + deg[w], deg))
            if defect:
                if first[e] is None:
                    first[e] = label
                size = max(abs(c) for c in defect.values())
                if size > maxima[e]:
                    maxima[e] = size
    return [
        Report(identity, params, len(basis), size == 0, Fraction(size, den),
               None if label is None else State.term(*label))
        for (params, _plan, den), size, label in zip(entries, maxima, first)
    ]


def _product_sweep(identity, spec, tr, ops, entries):
    """`_sweep` of (params, product plan) entries over memos, each in ints over its own D.

    A plan lists (p, products, singles) parts: products are (c, X, Y) and
    singles (s, Z), X, Y and Z memos; a commutator c [X, Y] is the two
    products (c, X, Y) and (-c, Y, X).  D is the lcm over the plan of
    den(c) D_X D_Y and den(s) D_Z, so a product reads its columns with the
    int multiplier c D / (D_X D_Y) and a single with s D / D_Z, and the
    sweep divides the entry's largest defect by D.
    """
    int_entries = []
    for params, plan in entries:
        den = 1
        for _p, products, singles in plan:
            for c, x, y in products:
                den = math.lcm(den, c.denominator * x.den * y.den)
            for s, z in singles:
                den = math.lcm(den, s.denominator * z.den)
        int_plan = [
            (
                p,
                [(int(c * (den // (x.den * y.den))), x.__getitem__, y.__getitem__)
                 for c, x, y in products],
                [(int(s * (den // z.den)), z.__getitem__) for s, z in singles],
            )
            for p, products, singles in plan
        ]
        int_entries.append((params, int_plan, den))
    return _sweep(identity, spec, tr, ops, int_entries, _product_defect)


def _product_defect(plans, module, w):
    """The (e, parts) of each plan e with a nonzero part at w, in plan order.

    A plan's parts are those of sum_t c_t X_t(Y_t w) + sum_s s Z_s w, one
    per (p, products, singles) of it, products being (c, X lookup, Y
    lookup) and singles (s, Z lookup), with int multipliers (see
    `_product_sweep`).  Each part is summed into one dict over ids and its
    zeros dropped once, at its end.
    """
    out = []
    for e, plan in enumerate(plans):
        parts = []
        for p, products, singles in plan:
            part = {}
            get = part.get
            for c, x, y in products:
                for key, coeff in y(w).items():
                    s = c * coeff
                    for image, a in x(key).items():
                        part[image] = get(image, 0) + s * a
            for s, z in singles:
                for key, coeff in z(w).items():
                    part[key] = get(key, 0) + s * coeff
            if any(part.values()):
                parts.append((p, {key: a for key, a in part.items() if a}))
        if parts:
            out.append((e, parts))
    return out


def _containment_defect(plans, module, w):
    """The terms w' of Y w off weight wt(w) + shift or with nwt(w') - nwt(w) off window.

    Each plan lists (Y memo, p, shift, window); in each plan the first
    entry with an offending term gives the plan's one part, divided by the
    den of Y, and an empty window means Y w = 0.  Plans with no offending
    term are left out.
    """
    wt, nwt = module.wt, module.nwt
    wt_w, nwt_w = wt[w], nwt[w]
    out = []
    for e, plan in enumerate(plans):
        for y, p, shift, window in plan:
            offending = {
                key: Fraction(coeff, y.den)
                for key, coeff in y[w].items()
                if nwt[key] - nwt_w not in window or wt[key] != wt_w + shift
            }
            if offending:
                out.append((e, [(p, offending)]))
                break
    return out


def check_l_mode_commutator(n, gen, k, spec, tr):
    """Verify [L(n), a(k)] = -k a(n+k) on every basis state within tr."""
    return check_l_mode_commutators(gen, [n], [k], spec, tr)[0]


def check_l_mode_commutators(gen, n_values, k_values, spec, tr):
    """The reports of `check_l_mode_commutator(n, gen, k, spec, tr)` for each n, then k, from one walk."""
    i, j = gen
    ops = operators(spec, tr.j_max)
    # a single mode a(k) is Y(x_{i,j,1})_k, with one factor
    a = Monomial(((i, j, 1),))
    entries = []
    for n in n_values:
        for k in k_values:
            a_k = ops.vertex_columns(a, k)
            a_nk = ops.vertex_columns(a, n + k)
            l_n = ops.exact_l_columns(n)
            plan = [(1, [(1, l_n, a_k), (-1, a_k, l_n)], [(k, a_nk)])]
            entries.append(({"n": n, "gen": [i, j], "k": k}, plan))
    return _product_sweep("l-mode-commutator", spec, tr, ops, entries)


def check_virasoro(m, n, spec, tr):
    """Verify [L(m), L(n)] = (m-n) L(m+n) on every basis state within tr.

    An index below -1 is refused where L(n) is made; m + n >= -1 then
    holds except at the diagonal pair (-1, -1), which composes nothing.
    """
    return check_virasoro_pairs([(m, n)], spec, tr)[0]


def check_virasoro_pairs(pairs, spec, tr):
    """The reports of `check_virasoro(m, n, spec, tr)` for each (m, n) of pairs, in order.

    The plans of all pairs run in one walk of the basis.  The defect of
    (n, m) is minus that of (m, n), term by term, for any linear maps L; so
    only the first of an unordered pair gets a plan, and its mirror takes
    its report with m and n swapped in the params.  A diagonal pair (m, m)
    cancels term by term: its L(m) is checked to exist and be exact, and
    its basis is counted, but nothing is composed.
    """
    ops = operators(spec, tr.j_max)
    entries = []
    planned = {}  # {m, n} -> index of the entry of the first of the two pairs
    for m, n in pairs:
        l_m = ops.exact_l_columns(m)
        l_n = ops.exact_l_columns(n)
        if m != n and frozenset((m, n)) not in planned:
            planned[frozenset((m, n))] = len(entries)
            plan = [(0, [(1, l_m, l_n), (-1, l_n, l_m)], [(n - m, ops.exact_l_columns(m + n))])]
            entries.append(({"m": m, "n": n}, plan))
    swept = _product_sweep("virasoro", spec, tr, ops, entries)
    checked = len(module_basis(spec, tr.max_wt, tr.max_nwt))
    diagonal = Report("virasoro", None, checked, True, Fraction(0), None)
    return [
        replace(swept[planned[frozenset((m, n))]] if m != n else diagonal, params={"m": m, "n": n})
        for m, n in pairs
    ]


def check_field_commutator(n, a_state, k, spec, tr):
    """Verify [L(n), A_k] = sum_m C(n+1, m+1) (L(m)A)_{k+n-m} on basis states.

    A must be doubly homogeneous; the right side runs over m = -1..n.
    """
    return check_field_commutators(a_state, [n], [k], spec, tr)[0]


def check_field_commutators(a_state, n_values, k_values, spec, tr):
    """The reports of `check_field_commutator(n, a_state, k, spec, tr)` for each n, then k.

    All of them run in one walk of the basis.  What depends on A alone, its
    grading, its labels, its JSON and the states L(m)A with their labels,
    is computed once.
    """
    grading(a_state)
    a_labels = _vertex_labels(a_state, spec)
    ops = operators(spec, tr.j_max)
    adj = _registry(spec.d)  # the level-1 adjoint module; its L(n) is never truncated
    # A split by the factor count p of its terms: the check is linear in A,
    # and the defect of each part carries its own power of the level
    parts = []
    for p in sorted({len(vmono) for vmono, _vcoeff in a_labels}):
        labels = [(vmono, vcoeff) for vmono, vcoeff in a_labels if len(vmono) == p]
        a_part = {(vmono, 0): vcoeff for vmono, vcoeff in labels}
        # the labels of L(m)A for m = -1, 0, ..., at the level of ops, as the
        # sweep rescales the whole defect
        lma = [
            _vertex_labels(State(adj.apply(ops.spec.l, [(1, adj.l_columns(m), 0)], a_part)), spec)
            for m in range(-1, max(n_values, default=-2) + 1)
        ]
        parts.append((p, labels, lma))
    a_json = a_state.to_json()
    entries = []
    for n in n_values:
        l_n = ops.exact_l_columns(n)
        for k in k_values:
            plan = []
            for p, labels, lma in parts:
                # c [L(n), A_k] for each term c A of this part
                products = []
                for vmono, vcoeff in labels:
                    a_k = ops.vertex_columns(vmono, k)
                    products += [(vcoeff, l_n, a_k), (-vcoeff, a_k, l_n)]
                # (-coefficient, Y column of one term) of each (L(m)A)_{k+n-m} on the right
                rhs = [
                    (-math.comb(n + 1, m + 1) * vcoeff, ops.vertex_columns(vmono, k + n - m))
                    for m in range(-1, n + 1)
                    for vmono, vcoeff in lma[m + 1]
                ]
                plan.append((p, products, rhs))
            entries.append(({"n": n, "A": a_json, "k": k}, plan))
    return _product_sweep("field-commutator", spec, tr, ops, entries)


def check_l0_grading(spec, tr, j_values):
    """L(0) eigenvalues match weights (adjoint) and every L(j) preserves the bigrade.

    A truncated L(-1) tail is refused at tr.j_max = 0; at tr.j_max > 0 it is
    cut at j <= tr.j_max and the report is tagged "truncated": true.
    """
    ops = operators(spec, tr.j_max)
    # L(j) keeps the nwt and lowers the weight by j; an L(j) with j < -1 is
    # reported before the c^2 != 1 check
    plan = [(ops.l_columns(j), 0, -j, range(1)) for j in j_values]
    truncated = any(ops.l_truncated(j) for j in j_values)
    if truncated and not tr.j_max:
        raise ValueError("l0-grading hit a truncated L(-1) tail; pass a truncation with j_max > 0")
    if spec.is_adjoint():
        l_0 = ops.l_columns(0)
        wt = ops._module.wt

        def mismatch(w):  # L(0) w - wt(w) w, which must vanish; over the den of L(0)
            out = dict(l_0[w])
            _axpy(out, -wt[w] * l_0.den, {w: 1})
            return out

        plan.insert(0, (_Fresh(mismatch, den=l_0.den), 0, 0, range(0)))
    params = {"j_values": j_values, "spec": spec.to_json()}
    if truncated:
        params["truncated"] = True
    return _sweep("l0-grading", spec, tr, ops, [(params, plan, 1)], _containment_defect)[0]


def check_d_equals_lminus1(spec, tr):
    """L(-1) agrees with the translation derivation on the adjoint module."""
    if not spec.is_adjoint():
        raise ValueError("d-equals-lminus1 is an adjoint-module identity")
    ops = operators(spec, tr.j_max)
    l_minus1 = ops.l_columns(-1)
    labels = ops._module.labels

    def d(w):
        return ops.to_ids(_translate({labels[w]: 1}))

    plan = [(0, [], [(1, _Fresh(d)), (-1, l_minus1)])]
    params = {"spec": spec.to_json()}
    return _product_sweep("d-equals-lminus1", spec, tr, ops, [(params, plan)])[0]


def check_strong_grading(spec, tr, sample):
    """Sweep the grading containments over sampled modes against all basis states.

    For each sampled (v, j) with v doubly homogeneous of bigrade (wt_v, m)
    and every basis state w of bigrade (wt_w, k) within tr, every term of
    v_j w must have nwt <= m + k and weight exactly wt_w + wt_v - j - 1.
    """
    ops = operators(spec, tr.j_max)
    plan = []
    params = {"sample": []}
    for v, j in sample:
        wt_v, nwt_v = grading(v)
        # nwt(w') - nwt(w) >= -tr.max_nwt; each monomial of v has v's bigrade,
        # and the containment of each implies that of v_j w
        window = range(-tr.max_nwt, nwt_v + 1)
        for vmono, _vcoeff in _vertex_labels(v, spec):
            y = ops.vertex_columns(vmono, j)
            plan.append((y, len(vmono), wt_v - j - 1, window))
        params["sample"].append([v.to_json(), j])
    return _sweep("strong-grading", spec, tr, ops, [(params, plan, 1)], _containment_defect)[0]


def adjoint_mode_matrix(v, n, spec, tr):
    """Matrix of the contragredient mode u_n = Res_z z^n Y'(v, z) on the dual.

    Y'(v, z) pairs with Y applied to exp(z L(1)) (-z^{-2})^{L(0)} v at z^{-1};
    because L(1) strictly lowers weight the exponential terminates, and
    (-z^{-2})^{L(0)} is (-1)^{wt v} z^{-2 wt v} on a doubly homogeneous v.
    The matrix is indexed by the truncated (monomial, top) basis and its
    dual, so M[row, col] carries the dual basis vector `col` to `row`; row w
    holds the image of w under the expanded modes, terms outside tr dropped.
    """
    wt_v, _nwt_v = grading(v)
    if not spec.is_adjoint():
        if spec.c != 0 or any(x != 0 for x in spec.lam):
            raise ValueError(
                "contragredient matrices need an integer L(0) spectrum: "
                "use the adjoint module or an evaluation module with c = 0, lambda = 0"
            )
    ops = operators(spec, tr.j_max)
    adj = _registry(spec.d)  # the level-1 adjoint module; its L(n) is never truncated
    l_1 = [(1, adj.l_columns(1), 0)]

    # (coefficient, Y memo, factor count) of each term of each L(1)^power v / power!
    sign = (-1) ** wt_v
    expansion = []
    u = v.terms
    power = 0
    while u:
        scale = Fraction(sign, math.factorial(power))
        for vmono, vcoeff in _vertex_labels(State(u), spec):
            y = ops.vertex_columns(vmono, 2 * wt_v - n - power - 2)
            expansion.append((scale * vcoeff, y, len(vmono)))
        u = adj.apply(spec.l, l_1, u)
        power += 1
        if power > wt_v + 1:
            raise AssertionError("L(1) expansion failed to terminate")

    basis = module_basis(spec, tr.max_wt, tr.max_nwt)
    zero = Fraction(0)  # shared, so RatMatrix need not build one per cell
    rows = []
    for w in basis:
        image = ops.apply(spec.l, expansion, {w: 1})
        rows.append([image.get(key, zero) for key in basis])
    return RatMatrix(rows, cols=len(basis))

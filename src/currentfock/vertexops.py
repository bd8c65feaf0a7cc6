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

Every internal use of these operators reads columns, dicts
{(monomial, top): coefficient}, memoized by `Operators`.  Columns are handed
out read-only to the identity checkers (Virasoro, mode and field
commutators, L(0) grading, d = L(-1), strong grading), the contragredient
matrices here and the C1 quotients in `dims`, which accumulate into dicts of
their own.  The public `State` API, `l_apply`, `vertex_mode`, `d_apply` and
`fock.apply_mode`, still returns fresh states and is not called inside the
package.  The vacuum spaces in `repcat` read each single-mode column
`fock._mode_column` once, unmemoized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .exactmath import RatMatrix, _axpy, rat, rat_str
from .fock import (
    ModuleSpec,
    Monomial,
    State,
    _check_mode,
    _int_first,
    _int_first_terms,
    _mode_column,
    grading,
    module_basis,
)


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
    num = 1
    for s in range(r):
        num *= m - s
    # a product of r consecutive integers is divisible by r!
    return num // math.factorial(r)


def _compose(out, scale, column, column_of):
    """Add scale * coeff * column_of(key) to out for each (key, coeff) of column."""
    for key, coeff in column.items():
        _axpy(out, scale * coeff, column_of(key))


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


class Operators:
    """L(n), single modes a(k) and vertex-operator modes Y(v)_k on one module.

    Each operator is compiled on demand, one basis label at a time, into a
    column: a dict {(monomial, top): coefficient} whose coefficients are
    int-first (an int wherever the rational is integral, else a Fraction).
    Columns are memoized here and handed out read-only to the checkers
    through `l_column`, `exact_l_column`, `mode_column` and `vertex_column`;
    a caller that changed one would corrupt every later use; callers apply an
    operator to a column with `_compose`.  `l` and `vertex` apply an
    operator to a term dict and return a fresh dict, and the public `State`
    API still returns fresh states.  Obtain one through
    `operators(spec, j_max)`, so that every sweep of one command reuses the
    same columns.

    Y(v)_k is compiled by the iterate formula for a normal-ordered product.
    For v = x(-n) u, with x = u^(i) t^j and r = n - 1,

        (x(-n) u)_k w = sum_{mu >= 0} C(-mu-1, r) u_{k-mu-r-1} (x(mu) w)
                      + sum_{mu < 0}  C(-mu-1, r) x(mu) (u_{k-mu-r-1} w),

    and Y(1)_k = delta_{k,-1}.  x(mu) w vanishes for mu > 0 unless w holds
    the variable x_{i,j,mu}; C(-mu-1, r) vanishes for -n < mu < 0; and the
    sum over mu < 0 stops where u_{k-mu-r-1} w would have negative weight.
    The columns of the tail u come from the same memo, so they are shared
    across the labels v, the modes k and the depths n.
    """

    def __init__(self, spec, j_max):
        self.spec = spec
        self.j_max = j_max
        self._level_ok = (
            spec.is_adjoint() or spec.c**2 != 1 or all(m.is_zero() for m in spec.H)
        )
        self._l = {}
        self._modes = {}
        self._vertex = {}

    def l_column(self, n, label):
        """The read-only (column, exact) of L(n) on one basis label; see `l_apply`."""
        key = (n, label)
        entry = self._l.get(key)
        if entry is None:
            entry = self._l[key] = self._compile_l(n, *label)
        return entry

    def exact_l_column(self, n, label):
        """The read-only column of L(n) on one label; ValueError if it is j-truncated."""
        return _exact(self.l_column(n, label))

    def mode_column(self, i, j, k, label):
        """The read-only column of the single mode (u^(i) t^j)(k) on one basis label."""
        key = (i, j, k, label)
        column = self._modes.get(key)
        if column is None:
            _check_mode(self.spec, i, j)
            column = _mode_column(self.spec, i, j, k, *label) or _EMPTY_COLUMN
            self._modes[key] = column
        return column

    def vertex_column(self, vmono, k, label):
        """The read-only column of Y(v)_k on one basis label, v a monomial of M(l)."""
        key = (vmono, k, label)
        column = self._vertex.get(key)
        if column is None:
            column = self._vertex[key] = self._compile_vertex(vmono, k, label)
        return column

    def l(self, n, terms):
        """L(n) applied to a term dict: (fresh dict, exact); see `l_apply`."""
        self._check_l(n)
        out = {}
        _compose(out, 1, terms, lambda label: self.l_column(n, label)[0])
        return out, all(self.l_column(n, label)[1] for label in terms)

    def vertex(self, labels, k, terms):
        """Y(v)_k applied to a term dict, v as (monomial, coefficient) pairs; a fresh dict."""
        out = {}
        for vmono, vcoeff in labels:
            _compose(out, vcoeff, terms, partial(self.vertex_column, vmono, k))
        return out

    def _check_l(self, n):
        if n < -1:
            raise ValueError("only the operators L(n) with n >= -1 exist here")
        if not self._level_ok:
            raise ValueError(
                "L(n) on an evaluation module with nontrivial top action needs c^2 != 1"
            )

    def _compile_vertex(self, vmono, k, label):
        if not vmono:
            # Y(1, z) is the identity field.
            return {label: 1} if k == -1 else _EMPTY_COLUMN
        (i, j, n), tail = vmono[0], Monomial(vmono[1:])
        r = n - 1
        # every term of the column has this weight
        weight = label[0].weight() + vmono.weight() - k - 1
        if weight < 0:
            return _EMPTY_COLUMN
        out = {}
        for mu in sorted({0} | {q for (a, b, q) in label[0] if (a, b) == (i, j)}):
            u_of = partial(self.vertex_column, tail, k - mu - r - 1)
            _compose(out, _gbinom(-mu - 1, r), self.mode_column(i, j, mu, label), u_of)
        # x(-p) raises the weight by p, so u_{k+p-r-1} w (mostly empty) has weight `weight - p`
        for p in range(n, weight + 1):
            u_k = self.vertex_column(tail, k + p - r - 1, label)
            if u_k:
                _compose(out, _gbinom(p - 1, r), u_k, partial(self.mode_column, i, j, -p))
        return _int_first_terms(out) if out else _EMPTY_COLUMN

    def _compile_l(self, n, mono, top):
        self._check_l(n)
        spec = self.spec
        l = spec.l
        out = {}
        exact = True

        def add(key, coeff):
            v = out.get(key, 0) + coeff
            if v:
                out[key] = v
            else:
                out.pop(key, None)

        # creation * annihilation pairings (for n = 0 this is the weight count)
        floor = max(0, n)
        for (i, j, q), mult in mono.distinct():
            if q > floor:
                add((mono.without(i, j, q).times(i, j, q - n), top), q * mult)

        # annihilation * annihilation, both factors acting on variables of w
        if n >= 2:
            seen = {(i, j) for (i, j, _q) in mono}
            for p in range(1, n // 2 + 1):
                q = n - p
                for i, j in sorted(seen):
                    mp = mono.multiplicity(i, j, p)
                    mq = mono.multiplicity(i, j, q)
                    if p == q:
                        if mq >= 2:
                            coeff = p * q * mq * (mq - 1) // 2 * l
                            add((mono.without(i, j, p).without(i, j, q), top), coeff)
                    elif mp >= 1 and mq >= 1:
                        coeff = p * q * l * mp * mq
                        add((mono.without(i, j, p).without(i, j, q), top), coeff)

        if spec.is_adjoint():
            return _int_first_terms(out), exact

        # zero mode * annihilation: a(n) kills all but finitely many variables
        if n >= 1:
            for (i, j, q), mult in mono.distinct():
                if q == n:
                    matrix = spec.zero_mode_matrix(i, j)
                    if matrix.is_zero():
                        continue
                    base = mono.without(i, j, n)
                    for t in range(spec.r):
                        entry = matrix[t, top]
                        if entry:
                            add((base, t), n * mult * entry)

        # doubly-zero-mode part of L(0): geometric series summed in closed form
        if n == 0:
            total = spec.h_square_sum()
            if not total.is_zero():
                scale = 1 / (2 * l * (1 - spec.c**2))
                for t in range(spec.r):
                    entry = total[t, top]
                    if entry:
                        add((mono, t), scale * entry)

        # creation * zero-mode tail of L(-1): infinite in j unless c = 0
        if n == -1:
            for i in range(1, spec.d + 1):
                H = spec.H[i - 1]
                if H.is_zero():
                    continue
                if spec.c == 0:
                    powers = [0]
                else:
                    powers = range(self.j_max + 1)
                    exact = False
                for j in powers:
                    cj = spec.c**j
                    for t in range(spec.r):
                        entry = H[t, top]
                        if entry:
                            add((mono.times(i, j, 1), t), cj * entry / l)

        return _int_first_terms(out), exact


@lru_cache(maxsize=4)
def operators(spec, j_max):
    """The shared `Operators` of (spec, j_max), from a small bounded registry.

    One command keeps using the same few modules (a field-commutator sweep
    needs its module and the adjoint one), so their columns live across all
    of the command's sweeps while the registry stays bounded.
    """
    return Operators(spec, j_max)


def vertex_mode(v, k, w, spec):
    """The coefficient of z^{-k-1} in Y_W(v, z) applied to w.

    Linear in v and in w; exact.  The adjoint module realizes the algebra's
    own operators Y(v, z).
    """
    return State(operators(spec, 0).vertex(_vertex_labels(v, spec), k, w.terms))


def l_apply(n, w, spec, tr=None):
    """Apply L(n), n >= -1, returning (result, exact).

    exact is False only for the j-truncated creation/zero-mode tail of L(-1)
    on evaluation modules with c != 0 and a nontrivial top action; the tail
    is cut at j <= tr.j_max.  Everything else is a finite exact sum.
    """
    j_max = tr.j_max if tr is not None else 0
    out, exact = operators(spec, j_max).l(n, w.terms)
    return State(out), exact


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

    @classmethod
    def from_json(cls, data):
        counterexample = data.get("counterexample")
        return cls(
            identity=data["identity"],
            params=data["params"],
            states_checked=data["states_checked"],
            defect_zero=data["defect_zero"],
            max_defect=rat(data["max_defect"]),
            counterexample=None
            if counterexample is None
            else State.from_json(counterexample),
        )


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


def _sweep(identity, params, spec, tr, defect_of):
    """Run defect_of on every basis label within tr; a defect is a term dict."""
    checked = 0
    max_defect = 0
    counterexample = None
    for label in module_basis(spec, tr.max_wt, tr.max_nwt):
        defect = defect_of(label)
        checked += 1
        if defect:
            if counterexample is None:
                counterexample = State.term(*label)
            size = max(abs(c) for c in defect.values())
            if size > max_defect:
                max_defect = size
    max_defect = Fraction(max_defect)
    return Report(identity, params, checked, max_defect == 0, max_defect, counterexample)


def _exact(pair):
    terms, exact = pair
    if not exact:
        raise ValueError(
            "identity check hit a truncated L(-1) tail; "
            "restrict to exact configurations (c = 0 or trivial top action)"
        )
    return terms


def check_l_mode_commutator(n, gen, k, spec, tr):
    """Verify [L(n), a(k)] = -k a(n+k) on every basis state within tr."""
    i, j = gen
    ops = operators(spec, tr.j_max)
    l_n = partial(ops.exact_l_column, n)
    a_k = partial(ops.mode_column, i, j, k)

    def defect_of(label):
        defect = {}
        _compose(defect, 1, a_k(label), l_n)
        _compose(defect, -1, l_n(label), a_k)
        _axpy(defect, k, ops.mode_column(i, j, n + k, label))
        return defect

    params = {"n": n, "gen": [i, j], "k": k}
    return _sweep("l-mode-commutator", params, spec, tr, defect_of)


def check_virasoro(m, n, spec, tr):
    """Verify [L(m), L(n)] = (m-n) L(m+n) on every basis state within tr."""
    if m < -1 or n < -1:
        raise ValueError("Virasoro generators exist only for indices >= -1")
    if m + n < -1 and m != n:
        raise ValueError("L(%d) is not defined; need m+n >= -1 or m = n" % (m + n))
    ops = operators(spec, tr.j_max)
    l_m = partial(ops.exact_l_column, m)
    l_n = partial(ops.exact_l_column, n)

    def defect_of(label):
        defect = {}
        _compose(defect, 1, l_n(label), l_m)
        _compose(defect, -1, l_m(label), l_n)
        if m != n:
            _axpy(defect, n - m, ops.exact_l_column(m + n, label))
        return defect

    params = {"m": m, "n": n}
    return _sweep("virasoro", params, spec, tr, defect_of)


def check_field_commutator(n, a_state, k, spec, tr):
    """Verify [L(n), A_k] = sum_m C(n+1, m+1) (L(m)A)_{k+n-m} on basis states.

    A must be doubly homogeneous; the right side runs over m = -1..n.
    """
    grading(a_state)
    a_labels = _vertex_labels(a_state, spec)
    ops = operators(spec, tr.j_max)
    adj = ops if spec.is_adjoint() else operators(ModuleSpec.adjoint(spec.d, spec.l), 0)
    # (monomial, mode, -coefficient) of each term of each (L(m)A)_{k+n-m} on the right
    rhs = []
    for m in range(-1, n + 1):
        lma = State(_exact(adj.l(m, a_state.terms)))
        for vmono, vcoeff in _vertex_labels(lma, spec):
            rhs.append((vmono, k + n - m, -math.comb(n + 1, m + 1) * vcoeff))

    l_n = partial(ops.exact_l_column, n)
    a_k = [(vcoeff, partial(ops.vertex_column, vmono, k)) for vmono, vcoeff in a_labels]

    def defect_of(label):
        defect = {}
        l_column = l_n(label)
        for vcoeff, y in a_k:
            _compose(defect, vcoeff, y(label), l_n)
            _compose(defect, -vcoeff, l_column, y)
        for vmono, mode_k, scale in rhs:
            _axpy(defect, scale, ops.vertex_column(vmono, mode_k, label))
        return defect

    params = {"n": n, "A": a_state.to_json(), "k": k}
    return _sweep("field-commutator", params, spec, tr, defect_of)


def check_l0_grading(spec, tr, j_values, allow_truncated=False):
    """L(0) eigenvalues match weights (adjoint) and every L(j) preserves the bigrade.

    Truncated L(-1) tails are refused unless allow_truncated is set, in which
    case the report is tagged "truncated": true.
    """
    hit_truncation = False
    ops = operators(spec, tr.j_max)

    def defect_of(label):
        nonlocal hit_truncation
        mono, _top = label
        wt_w, nwt_w = mono.weight(), mono.nwt()
        if spec.is_adjoint():
            mismatch = {label: -wt_w} if wt_w else {}
            _axpy(mismatch, 1, ops.l_column(0, label)[0])
            if mismatch:
                return mismatch
        for j in j_values:
            image, exact = ops.l_column(j, label)
            if not exact:
                if not allow_truncated:
                    raise ValueError(
                        "l0-grading hit a truncated L(-1) tail; pass --j-max N "
                        "to run the truncated computation"
                    )
                hit_truncation = True
            for key, coeff in image.items():
                if key[0].nwt() != nwt_w or key[0].weight() != wt_w - j:
                    return {key: coeff}
        return {}

    params = {"j_values": j_values, "spec": spec.to_json()}
    report = _sweep("l0-grading", params, spec, tr, defect_of)
    if hit_truncation:
        report.params["truncated"] = True
    return report


def check_d_equals_lminus1(spec, tr):
    """L(-1) agrees with the translation derivation on the adjoint module."""
    if not spec.is_adjoint():
        raise ValueError("d-equals-lminus1 is an adjoint-module identity")
    ops = operators(spec, tr.j_max)

    def defect_of(label):
        defect = _translate({label: 1})
        _axpy(defect, -1, ops.l_column(-1, label)[0])
        return defect

    params = {"spec": spec.to_json()}
    return _sweep("d-equals-lminus1", params, spec, tr, defect_of)


def check_strong_grading(spec, tr, sample):
    """Sweep the grading containments over sampled modes against all basis states.

    For each sampled (v, j) with v doubly homogeneous of bigrade (wt_v, m)
    and every basis state w of bigrade (wt_w, k) within tr, every term of
    v_j w must have nwt <= m + k and weight exactly wt_w + wt_v - j - 1.
    """
    graded_sample = []
    params = {"sample": []}
    for v, j in sample:
        wt_v, nwt_v = grading(v)
        graded_sample.append((j, _vertex_labels(v, spec), wt_v, nwt_v))
        params["sample"].append([v.to_json(), j])
    ops = operators(spec, tr.j_max)

    def defect_of(label):
        mono, _top = label
        wt_w, nwt_w = mono.weight(), mono.nwt()
        for j, labels, wt_v, nwt_v in graded_sample:
            # every offending term, so the reported defect does not hang on key order
            offending = {
                key: coeff
                for key, coeff in ops.vertex(labels, j, {label: 1}).items()
                if key[0].nwt() > nwt_v + nwt_w or key[0].weight() != wt_w + wt_v - j - 1
            }
            if offending:
                return offending
        return {}

    if grading(State.vacuum()) != (0, 0):
        raise AssertionError("the vacuum must sit in bigrade (0, 0)")
    return _sweep("strong-grading", params, spec, tr, defect_of)


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
    adj = operators(spec if spec.is_adjoint() else ModuleSpec.adjoint(spec.d, spec.l), 0)

    # (monomial, mode k, coefficient) of each term of each L(1)^p v / p! of the expansion
    sign = (-1) ** wt_v
    expansion = []
    u = v.terms
    power = 0
    while u:
        scale = Fraction(sign, math.factorial(power))
        for vmono, vcoeff in _vertex_labels(State(u), spec):
            expansion.append((vmono, 2 * wt_v - n - power - 2, scale * vcoeff))
        u = _exact(adj.l(1, u))
        power += 1
        if power > wt_v + 1:
            raise AssertionError("L(1) expansion failed to terminate")

    ops = operators(spec, tr.j_max)
    basis = module_basis(spec, tr.max_wt, tr.max_nwt)
    zero = Fraction(0)  # shared, so RatMatrix need not build one per cell
    rows = []
    for label in basis:
        image = {}
        for vmono, k, scale in expansion:
            _axpy(image, scale, ops.vertex_column(vmono, k, label))
        rows.append([image.get(key, zero) for key in basis])
    return RatMatrix(rows, cols=len(basis))

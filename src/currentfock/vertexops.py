"""Vertex-operator modes, the operators L(n) for n >= -1, and identity checks.

The vertex operator attached to a monomial a_1(-n_1)...a_k(-n_k)1 is the
normal-ordered product of the derivative fields (1/(n_t-1)!)(d/dz)^{n_t-1}
a_t(z).  Extracting the coefficient of z^{-k-1} turns each field into a sum
of single modes with integer binomial prefactors, so a vertex-operator mode
applied to a state is a finite signed sum of ordinary mode compositions.
Normal ordering places creation modes strictly left of annihilation modes;
zero modes go to the far right (they are central here, so this is only a
bookkeeping convention).

L(n) is the quadratic expression (1/2l) sum over colors, generator powers j
and splittings of n into two modes, normal ordered.  On the adjoint module
every L(n) is a finite exact sum.  On evaluation modules two infinite j-sums
appear: the doubly-zero-mode part of L(0), which is summed in closed form as
a geometric series (hence the c^2 != 1 requirement), and the creation times
zero-mode tail of L(-1), which for c != 0 is genuinely infinite and is
truncated at j <= j_max with an explicit exactness flag.

Every internal use of these operators applies columns, dicts
{(monomial, top): coefficient}, to term dicts of the same shape.  The
identity checkers (Virasoro, mode and field commutators, L(0) grading,
d = L(-1), strong grading) and the contragredient matrices here and the C1
quotients in `dims` use the memoized columns of `Operators`; the vacuum
spaces in `repcat` read each single-mode column `fock._mode_column` once,
unmemoized.  `l_apply`, `vertex_mode`, `d_apply` and `fock.apply_mode` are
the public `State` API and are not called inside the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactmath import RatMatrix, _axpy, rat_str
from .fock import (
    ModuleSpec,
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


def _vertex_labels(v):
    """The (monomial, coefficient) pairs of a label of Y(v, z), in canonical order."""
    out = []
    for vmono, vtop, vcoeff in v.iter_terms():
        if vtop != 0:
            raise ValueError("vertex-operator labels live in M(l); top index must be 0")
        out.append((vmono, _int_first(vcoeff)))
    return out


class Operators:
    """L(n), single modes a(k) and vertex-operator modes Y(v)_k on one module.

    Each operator is compiled on demand, one basis label at a time, into a
    column: a dict {(monomial, top): coefficient} whose coefficients are
    int-first (an int wherever the rational is integral, else a Fraction).
    Columns are memoized here and never handed out: `l`, `mode` and
    `vertex` apply an operator to a term dict and return a fresh dict.
    Obtain one through `operators(spec, j_max)`, so that every sweep of one
    command reuses the same columns.
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

    def l(self, n, terms):
        """L(n) applied to a term dict: (fresh dict, exact); see `l_apply`."""
        if n < -1:
            raise ValueError("only the operators L(n) with n >= -1 exist here")
        if not self._level_ok:
            raise ValueError(
                "L(n) on an evaluation module with nontrivial top action needs c^2 != 1"
            )
        out = {}
        exact = True
        for (mono, top), coeff in terms.items():
            key = (n, mono, top)
            column = self._l.get(key)
            if column is None:
                column = self._l[key] = self._l_column(n, mono, top)
            _axpy(out, coeff, column[0])
            exact = exact and column[1]
        return out, exact

    def mode(self, i, j, k, terms):
        """The single mode (u^(i) t^j)(k) applied to a term dict; a fresh dict."""
        _check_mode(self.spec, i, j)
        out = {}
        for (mono, top), coeff in terms.items():
            key = (i, j, k, mono, top)
            column = self._modes.get(key)
            if column is None:
                column = self._modes[key] = _mode_column(self.spec, i, j, k, mono, top)
            _axpy(out, coeff, column)
        return out

    def vertex(self, labels, k, terms):
        """Y(v)_k applied to a term dict, v as (monomial, coefficient) pairs; a fresh dict."""
        out = {}
        for vmono, vcoeff in labels:
            for (wmono, wtop), wcoeff in terms.items():
                key = (vmono, k, wmono, wtop)
                column = self._vertex.get(key)
                if column is None:
                    column = self._vertex[key] = self._vertex_column(vmono, k, wmono, wtop)
                _axpy(out, vcoeff * wcoeff, column)
        return out

    def _vertex_column(self, vmono, k, wmono, wtop):
        spec = self.spec
        factors = tuple(vmono)
        count = len(factors)
        if count == 0:
            # Y(1, z) is the identity field.
            return {(wmono, wtop): 1} if k == -1 else {}
        target = k + 1 - vmono.weight()

        pos = {}
        for i, j, q in wmono:
            pos.setdefault((i, j), set()).add(q)

        def zero_ok(i, j):
            if spec.is_adjoint() or spec.H[i - 1].is_zero():
                return False
            return j == 0 or spec.c != 0

        max_mu = []
        for i, j, _nt in factors:
            cands = pos.get((i, j))
            if cands:
                max_mu.append(max(cands))
            else:
                max_mu.append(0 if zero_ok(i, j) else -1)
        suffix_max = [0] * (count + 1)
        for t in reversed(range(count)):
            suffix_max[t] = suffix_max[t + 1] + max_mu[t]

        out = {}
        assignment = []

        def descend(t, remaining):
            if t == count:
                if remaining == 0:
                    _axpy(out, 1, self._apply_assignment(factors, assignment, wmono, wtop))
                return
            i, j, _nt = factors[t]
            lo = remaining - suffix_max[t + 1]
            for mu in range(lo, max_mu[t] + 1):
                if mu > 0 and mu not in pos.get((i, j), ()):
                    continue
                if mu == 0 and not zero_ok(i, j):
                    continue
                assignment.append(mu)
                descend(t + 1, remaining - mu)
                assignment.pop()

        descend(0, target)
        return _int_first_terms(out)

    def _apply_assignment(self, factors, mus, wmono, wtop):
        scalar = 1
        for (_i, _j, nt), mu in zip(factors, mus):
            r = nt - 1
            scalar *= (-1) ** r * _gbinom(mu + r, r)
            if scalar == 0:
                return {}
        # Zero modes act first, then annihilation modes, then creation modes.
        ordered = sorted(
            zip(factors, mus),
            key=lambda fm: (0 if fm[1] == 0 else (1 if fm[1] > 0 else 2), fm[1]),
        )
        terms = {(wmono, wtop): scalar}
        for (i, j, _nt), mu in ordered:
            terms = self.mode(i, j, mu, terms)
            if not terms:
                break
        return terms

    def _l_column(self, n, mono, top):
        """(column, exact) of L(n) on one basis label."""
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
    return State(operators(spec, 0).vertex(_vertex_labels(v), k, w.terms))


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
        from .exactmath import rat

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

    def defect_of(label):
        w = {label: 1}
        defect = _exact(ops.l(n, ops.mode(i, j, k, w)))
        _axpy(defect, -1, ops.mode(i, j, k, _exact(ops.l(n, w))))
        _axpy(defect, k, ops.mode(i, j, n + k, w))
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

    def defect_of(label):
        w = {label: 1}
        defect = _exact(ops.l(m, _exact(ops.l(n, w))))
        _axpy(defect, -1, _exact(ops.l(n, _exact(ops.l(m, w)))))
        if m != n:
            _axpy(defect, n - m, _exact(ops.l(m + n, w)))
        return defect

    params = {"m": m, "n": n}
    return _sweep("virasoro", params, spec, tr, defect_of)


def check_field_commutator(n, a_state, k, spec, tr):
    """Verify [L(n), A_k] = sum_m C(n+1, m+1) (L(m)A)_{k+n-m} on basis states.

    A must be doubly homogeneous; the right side runs over m = -1..n.
    """
    grading(a_state)
    ops = operators(spec, tr.j_max)
    adj = ops if spec.is_adjoint() else operators(ModuleSpec.adjoint(spec.d, spec.l), 0)
    rhs = []
    for m in range(-1, n + 1):
        lma = _exact(adj.l(m, a_state.terms))
        if lma:
            rhs.append((k + n - m, math.comb(n + 1, m + 1), _vertex_labels(State(lma))))
    a_labels = _vertex_labels(a_state)

    def defect_of(label):
        w = {label: 1}
        defect = _exact(ops.l(n, ops.vertex(a_labels, k, w)))
        _axpy(defect, -1, ops.vertex(a_labels, k, _exact(ops.l(n, w))))
        for mode_k, binom, lma in rhs:
            _axpy(defect, -binom, ops.vertex(lma, mode_k, w))
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
        w = {label: 1}
        if spec.is_adjoint():
            mismatch, _ = ops.l(0, w)
            _axpy(mismatch, -wt_w, w)
            if mismatch:
                return mismatch
        for j in j_values:
            image, exact = ops.l(j, w)
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
        defect, _ = ops.l(-1, {label: 1})
        _axpy(defect, -1, _translate({label: 1}))
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
        graded_sample.append((j, _vertex_labels(v), wt_v, nwt_v))
        params["sample"].append([v.to_json(), j])
    ops = operators(spec, tr.j_max)

    def defect_of(label):
        mono, _top = label
        wt_w, nwt_w = mono.weight(), mono.nwt()
        for j, labels, wt_v, nwt_v in graded_sample:
            for key, coeff in ops.vertex(labels, j, {label: 1}).items():
                if key[0].nwt() > nwt_v + nwt_w or key[0].weight() != wt_w + wt_v - j - 1:
                    return {key: coeff}
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

    # (mode k, coefficient, label) of each term L(1)^p v / p! of the expansion
    sign = (-1) ** wt_v
    expansion = []
    u = v.terms
    power = 0
    while u:
        scale = Fraction(sign, math.factorial(power))
        expansion.append((2 * wt_v - n - power - 2, scale, _vertex_labels(State(u))))
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
        for k, scale, labels in expansion:
            _axpy(image, scale, ops.vertex(labels, k, {label: 1}))
        rows.append([image.get(key, zero) for key in basis])
    return RatMatrix(rows, cols=len(basis))

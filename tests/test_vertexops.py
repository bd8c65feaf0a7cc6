"""Vertex-operator modes, L(n), the translation operator and identity sweeps."""

import copy
import gc
import hashlib
import json
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from currentfock import cli, dims, exactmath, fock, repcat, vertexops
from currentfock import (
    ModuleSpec,
    Monomial,
    RatMatrix,
    State,
    Truncation,
    adjoint_mode_matrix,
    apply_mode,
    check_field_commutator,
    check_l0_grading,
    check_l_mode_commutator,
    check_strong_grading,
    check_virasoro,
    d_apply,
    enumerate_basis,
    grading,
    l_apply,
    mode,
    module_basis,
    vertex_mode,
)
from currentfock.fock import EMPTY
from currentfock.vertexops import _gbinom, _registry, operators


def mono(*factors):
    return Monomial.make(factors)


ADJ = ModuleSpec.adjoint(1, 1)
ADJ2 = ModuleSpec.adjoint(2, Fraction(1, 2))
TR = Truncation(4, 2, 0)


class TestVertexMode:
    def test_single_generator_reduces_to_mode_action(self):
        # Y_W(a, z) = a_W(z): the weight-one state acts by its plain modes
        v = State.term(mono((1, 0, 1)))
        for k in range(-3, 4):
            for wmono, top in module_basis(ADJ, 3, 1):
                w = State.term(wmono, top)
                assert vertex_mode(v, k, w, ADJ) == apply_mode(mode(1, 0, k), w, ADJ)

    def test_derivative_field(self):
        # Y(a(-2)1, z) = (d/dz) a(z), so the k-th mode is -k a(k-1)
        v = State.term(mono((1, 1, 2)))
        spec = ModuleSpec.evaluation(1, 1, Fraction(1, 3), (2,))
        for k in range(-3, 4):
            for wmono, top in module_basis(spec, 3, 1):
                w = State.term(wmono, top)
                expected = apply_mode(mode(1, 1, k - 1), w, spec).scale(-k)
                assert vertex_mode(v, k, w, spec) == expected

    def test_quadratic_state_on_vacuum(self):
        v = State.term(mono((1, 0, 1), (1, 0, 1)))
        out = vertex_mode(v, -3, State.vacuum(), ADJ)
        expected = State.term(mono((1, 0, 1), (1, 0, 3)), coeff=2) + State.term(
            mono((1, 0, 2), (1, 0, 2))
        )
        assert out == expected

    def test_identity_field(self):
        w = State.term(mono((1, 1, 2)))
        assert vertex_mode(State.vacuum(), -1, w, ADJ) == w
        assert vertex_mode(State.vacuum(), 0, w, ADJ).is_zero()

    def test_creation_property(self):
        # Y(v, z)1 = v + O(z): the mode at k = -1 returns v on the vacuum
        for m in range(3):
            for n in range(4):
                for vmono in enumerate_basis(1, m, n):
                    v = State.term(vmono)
                    assert vertex_mode(v, -1, State.vacuum(), ADJ) == v

    def test_lower_truncation(self):
        # for fixed v, w the modes vanish for all sufficiently large k
        v = State.term(mono((1, 0, 2), (1, 1, 1)))
        w = State.term(mono((1, 0, 1), (1, 1, 2)))
        assert all(
            vertex_mode(v, k, w, ADJ).is_zero() for k in range(8, 16)
        )

    def test_linear_in_both_slots(self):
        v1 = State.term(mono((1, 0, 1)))
        v2 = State.term(mono((1, 1, 2)))
        w1 = State.term(mono((1, 0, 2)))
        w2 = State.vacuum()
        v = v1.scale(2) + v2
        w = w1 - w2.scale(3)
        direct = vertex_mode(v, -1, w, ADJ)
        split = (
            vertex_mode(v1, -1, w1, ADJ).scale(2)
            - vertex_mode(v1, -1, w2, ADJ).scale(6)
            + vertex_mode(v2, -1, w1, ADJ)
            - vertex_mode(v2, -1, w2, ADJ).scale(3)
        )
        assert direct == split

    def test_bigrade_bookkeeping(self):
        # wt drops by k + 1 - wt(v); nwt rises by at most nwt(v)
        v = State.term(mono((1, 2, 1), (1, 0, 1)))
        wt_v, nwt_v = grading(v)
        for k in range(-4, 5):
            for wmono, top in module_basis(ADJ, 3, 2):
                w = State.term(wmono, top)
                out = vertex_mode(v, k, w, ADJ)
                for (m2, _t2), _c in out.terms.items():
                    assert m2.weight() == wmono.weight() + wt_v - k - 1
                    assert m2.nwt() <= wmono.nwt() + nwt_v


class TestLApply:
    def test_l0_counts_weight(self):
        s = State.term(mono((1, 0, 1), (1, 2, 3)))
        out, exact = l_apply(0, s, ADJ)
        assert exact and out == s.scale(4)

    def test_l1_kills_vacuum(self):
        out, exact = l_apply(1, State.vacuum(), ADJ)
        assert exact and out.is_zero()

    def test_l0_top_eigenvalue(self):
        spec = ModuleSpec.evaluation(1, 1, Fraction(1, 2), (2,))
        out, exact = l_apply(0, State.vacuum(), spec)
        assert exact and out == State.vacuum().scale(Fraction(8, 3))

    def test_lminus1_matches_translation_everywhere(self):
        for spec in (ADJ, ADJ2):
            for wmono, top in module_basis(spec, 4, 2):
                w = State.term(wmono, top)
                out, exact = l_apply(-1, w, spec)
                assert exact
                assert out == d_apply(w)

    def test_nwt_preserved_for_small_indices(self):
        # L(-1), L(0), L(1) preserve the second grading on the adjoint module
        for j in (-1, 0, 1):
            for wmono, top in module_basis(ADJ2, 3, 2):
                out, exact = l_apply(j, State.term(wmono, top), ADJ2)
                assert exact
                for (m2, _t), _c in out.terms.items():
                    assert m2.nwt() == wmono.nwt()
                    assert m2.weight() == wmono.weight() - j

    def test_nwt_never_raised(self):
        specs = [ADJ, ADJ2, ModuleSpec.evaluation(1, 1, 0, (1,))]
        for spec in specs:
            for j in range(-1, 4):
                for wmono, top in module_basis(spec, 3, 2):
                    out, exact = l_apply(j, State.term(wmono, top), spec)
                    assert exact
                    for (m2, _t), _c in out.terms.items():
                        assert m2.nwt() <= wmono.nwt()
                        assert m2.weight() == wmono.weight() - j

    def test_nwt_drop_counterexample_is_forced(self):
        # the double-annihilation part of L(2) removes two generator-power-1
        # variables: combined with [L(2), a(-1)] = a(1) and L(2) a(-1)1 = 0
        # this value is forced, so exact nwt preservation cannot hold at j = 2
        spec = ModuleSpec.adjoint(1, 3)
        xx = State.term(mono((1, 1, 1), (1, 1, 1)))
        out, exact = l_apply(2, xx, spec)
        assert exact
        assert out == State.vacuum().scale(3)

    def test_truncated_tail_flagged(self):
        spec = ModuleSpec.evaluation(1, 1, Fraction(1, 2), (1,))
        out, exact = l_apply(-1, State.vacuum(), spec, Truncation(4, 2, j_max=3))
        assert not exact
        # truncated tail: (1/l) sum_{j<=3} c^j x_{i,j,1} lambda
        expected = State.zero()
        for j in range(4):
            expected += State.term(mono((1, j, 1)), coeff=Fraction(1, 2) ** j)
        assert out == expected

    @pytest.mark.parametrize("j_max", [1, 2])
    def test_truncated_tail_of_a_matrix_top(self, j_max):
        # L(-1) u = sum_{i, j <= j_max} x_{i,j,1} (c^j H_i / l) u on each top vector u
        spec = JORDAN_TOPS["c1/3"]
        for top in range(spec.r):
            out, exact = l_apply(-1, State.vacuum(top), spec, Truncation(2, 1, j_max))
            expected = State.zero()
            for i in range(1, spec.d + 1):
                for j in range(j_max + 1):
                    matrix = spec.zero_mode_matrix(i, j)
                    for t in range(spec.r):
                        expected += State.term(mono((i, j, 1)), t, matrix[t, top] / spec.l)
            assert not exact and out == expected and len(out.terms) > spec.d * j_max

    def test_c_zero_tail_is_exact(self):
        spec = ModuleSpec.evaluation(1, 2, 0, (3,))
        out, exact = l_apply(-1, State.vacuum(), spec)
        assert exact
        assert out == State.term(mono((1, 0, 1)), coeff=Fraction(3, 2))

    def test_trivial_top_action_tail_is_exact(self):
        spec = ModuleSpec.evaluation(1, 1, Fraction(1, 2), (0,))
        out, exact = l_apply(-1, State.term(mono((1, 0, 2))), spec)
        assert exact
        assert out == State.term(mono((1, 0, 3)), coeff=2)

    def test_c_squared_one_rejected(self):
        spec = ModuleSpec.evaluation(1, 1, 1, (1,))
        with pytest.raises(ValueError):
            l_apply(0, State.vacuum(), spec)
        # a trivial top action leaves no geometric series to sum at c^2 = 1
        trivial = ModuleSpec.evaluation(1, 1, -1, (0,))
        s = State.term(mono((1, 0, 2)))
        assert l_apply(0, s, trivial) == (s.scale(2), True)

    def test_n_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            l_apply(-2, State.vacuum(), ADJ)


class TestDApply:
    def test_vacuum_annihilated(self):
        assert d_apply(State.vacuum()).is_zero()

    def test_derivation_values(self):
        assert d_apply(State.term(mono((1, 0, 1)))) == State.term(mono((1, 0, 2)))
        assert d_apply(State.term(mono((1, 0, 2)))) == State.term(
            mono((1, 0, 3)), coeff=2
        )

    def test_leibniz_on_products(self):
        s = State.term(mono((1, 0, 1), (1, 1, 2)))
        expected = State.term(mono((1, 0, 2), (1, 1, 2))) + State.term(
            mono((1, 0, 1), (1, 1, 3)), coeff=2
        )
        assert d_apply(s) == expected


class TestChecks:
    def test_e1_example(self):
        rep = check_l_mode_commutator(1, (1, 0), -1, ADJ, TR)
        assert rep.defect_zero and rep.states_checked > 0

    def test_e1_trivial_zero_mode(self):
        rep = check_l_mode_commutator(0, (1, 1), 0, ADJ, TR)
        assert rep.defect_zero

    def test_e1_on_evaluation_module(self):
        spec = ModuleSpec.evaluation(1, 2, 0, (1,))
        rep = check_l_mode_commutator(2, (1, 0), -3, spec, Truncation(4, 0, 0))
        assert rep.defect_zero

    def test_virasoro_pair(self):
        rep = check_virasoro(1, -1, ADJ, TR)
        assert rep.defect_zero

    def test_virasoro_equal_indices(self):
        _registry.cache_clear()
        rep = check_virasoro(0, 0, ADJ, TR)
        assert rep.defect_zero
        rep = check_virasoro(-1, -1, ADJ, TR)
        assert rep.defect_zero
        assert rep.states_checked == len(module_basis(ADJ, TR.max_wt, TR.max_nwt))
        # each L(m) memo was made, so L(m) was checked, but nothing was composed
        ops = operators(ADJ, 0)
        assert set(ops._l) == {0, -1} and not any(ops._l.values())

    def test_virasoro_on_evaluation_module(self):
        spec = ModuleSpec.evaluation(1, 1, Fraction(1, 3), (1,))
        rep = check_virasoro(2, 1, spec, TR)
        assert rep.defect_zero

    def test_virasoro_bad_indices_rejected(self):
        with pytest.raises(ValueError, match="L\\(n\\) with n >= -1 exist"):
            check_virasoro(-2, 0, ADJ, TR)
        with pytest.raises(ValueError, match="L\\(n\\) with n >= -1 exist"):
            check_virasoro(0, -2, ADJ, TR)

    @pytest.mark.parametrize(
        "sweep",
        [
            lambda: check_strong_grading(ADJ, TR, []),
            lambda: check_l0_grading(EVAL_C0, TR, []),
        ],
        ids=["strong-grading-empty-sample", "l0-grading-no-j-on-evaluation"],
    )
    def test_a_grading_sweep_with_nothing_to_check_is_refused(self, sweep):
        with pytest.raises(ValueError, match="needs at least one operator to check"):
            sweep()

    def test_a_field_commutator_with_a_zero_label_is_refused(self):
        # A = 0 composes nothing, so its sweep would pass while checking nothing
        with pytest.raises(ValueError, match="field-commutator needs at least one operator"):
            check_field_commutator(0, State.zero(), 0, ADJ, TR)
        # an L(n) that does not exist is reported first
        with pytest.raises(ValueError, match="L\\(n\\) with n >= -1 exist"):
            check_field_commutator(-2, State.zero(), 0, ADJ, TR)

    def test_field_commutator_weight_one_reduces_to_e1(self):
        a = State.term(mono((1, 0, 1)))
        rep = check_field_commutator(1, a, -1, ADJ, TR)
        assert rep.defect_zero

    def test_field_commutator_vacuum_label(self):
        rep = check_field_commutator(2, State.vacuum(), 0, ADJ, TR)
        assert rep.defect_zero

    def test_field_commutator_quadratic_label(self):
        a = State.term(mono((1, 0, 1), (1, 0, 1)))
        rep = check_field_commutator(1, a, 0, ADJ, Truncation(4, 0, 0))
        assert rep.defect_zero

    def test_inexact_configuration_rejected(self):
        spec = ModuleSpec.evaluation(1, 1, Fraction(1, 3), (1,))
        with pytest.raises(ValueError):
            check_virasoro(0, -1, spec, TR)
        # a diagonal pair composes nothing but still refuses the cut tail
        with pytest.raises(ValueError, match="truncated L\\(-1\\) tail"):
            check_virasoro(-1, -1, spec, TR)

    def test_report_serialization(self):
        rep = check_virasoro(1, 0, ADJ, Truncation(2, 1, 0))
        data = rep.to_json()
        assert data["defect_zero"] is True
        assert data["counterexample"] is None
        assert data["max_defect"] == "0"
        assert data["states_checked"] == rep.states_checked
        failing = vertexops.Report(
            identity="demo",
            params={"n": 2},
            states_checked=5,
            defect_zero=False,
            max_defect=Fraction(3, 7),
            counterexample=State.term(mono((1, 1, 1)), coeff=Fraction(-1, 2)),
        )
        assert failing.to_json() == {
            "identity": "demo",
            "params": {"n": 2},
            "states_checked": 5,
            "defect_zero": False,
            "max_defect": "3/7",
            "counterexample": [{"mono": [[1, 1, 1]], "top": 0, "coeff": "-1/2"}],
        }


class TestAdjointModeMatrix:
    def test_identity_label(self):
        tr = Truncation(2, 1, 0)
        size = len(module_basis(ADJ, 2, 1))
        assert adjoint_mode_matrix(State.vacuum(), -1, ADJ, tr) == RatMatrix.identity(
            size
        )
        assert adjoint_mode_matrix(State.vacuum(), 0, ADJ, tr).is_zero()

    def test_weight_one_pairs_with_negated_mode(self):
        # L(1) a(-1)1 = 0, so Y'(a(-1)1, z) = -z^{-2} Y(a(-1)1, z^{-1})
        tr = Truncation(3, 1, 0)
        basis = module_basis(ADJ, 3, 1)
        index = {label: pos for pos, label in enumerate(basis)}
        v = State.term(mono((1, 0, 1)))
        for n in (-2, -1, 0, 1, 2):
            got = adjoint_mode_matrix(v, n, ADJ, tr)
            rows = [[Fraction(0)] * len(basis) for _ in basis]
            for col, (wm, wt) in enumerate(basis):
                img = apply_mode(mode(1, 0, -n), State.term(wm, wt), ADJ).scale(-1)
                for key, coeff in img.terms.items():
                    if key in index:
                        rows[index[key]][col] = coeff
            assert got == RatMatrix(rows, cols=len(basis)).transpose()

    def test_weight_bookkeeping(self):
        tr = Truncation(4, 2, 0)
        basis = module_basis(ADJ, 4, 2)
        v = State.term(mono((1, 1, 1), (1, 0, 1)))
        wt_v, nwt_v = grading(v)
        for n in range(-2, 3):
            matrix = adjoint_mode_matrix(v, n, ADJ, tr)
            for row in range(matrix.rows):
                for col in range(matrix.cols):
                    if matrix[row, col] == 0:
                        continue
                    src_mono, _ = basis[col]
                    dst_mono, _ = basis[row]
                    assert dst_mono.weight() == src_mono.weight() + wt_v - n - 1
                    assert dst_mono.nwt() <= src_mono.nwt() + nwt_v

    def test_non_integer_spectrum_rejected(self):
        spec = ModuleSpec.evaluation(1, 1, Fraction(1, 2), (1,))
        with pytest.raises(ValueError):
            adjoint_mode_matrix(State.vacuum(), 0, spec, Truncation(2, 1, 0))

    def test_zero_lambda_evaluation_at_zero_allowed(self):
        spec = ModuleSpec.evaluation(1, 1, 0, (0,), H=[RatMatrix([[0, 1], [0, 0]])])
        matrix = adjoint_mode_matrix(
            State.term(mono((1, 0, 1))), 0, spec, Truncation(2, 1, 0)
        )
        assert matrix.rows == matrix.cols == len(module_basis(spec, 2, 1))


@pytest.mark.parametrize("seed", range(4))
def test_vertex_mode_commutes_with_central_zero_modes(seed):
    # zero modes commute with every vertex-operator mode on evaluation modules
    rng = random.Random(seed)
    spec = ModuleSpec.evaluation(1, 1, Fraction(1, 3), (1,))
    labels = module_basis(spec, 3, 2)
    wm, top = labels[rng.randrange(len(labels))]
    w = State.term(wm, top)
    v = State.term(mono((1, 1, 1), (1, 0, 2)))
    z = mode(1, rng.randint(0, 2), 0)
    k = rng.randint(-3, 3)
    lhs = apply_mode(z, vertex_mode(v, k, w, spec), spec)
    rhs = vertex_mode(v, k, apply_mode(z, w, spec), spec)
    assert lhs == rhs


# L(n) = omega_{n+1} with omega = (1/2l) sum_{i, j <= nwt(w)} x_{i,j,1}^2: a second
# implementation of L(n), through Y, sharing no code with the L(n) columns.
OMEGA_SPECS = {
    "adj-d%d-l%s" % (d, l): ModuleSpec.adjoint(d, l)
    for d in (1, 2)
    for l in (Fraction(1), Fraction(1, 2), Fraction(-2))
}
OMEGA_SPECS["eval-c0-d1"] = ModuleSpec.evaluation(1, 1, 0, (1,))
OMEGA_SPECS["eval-c0-d2-jordan"] = ModuleSpec.evaluation(
    2, Fraction(1, 2), 0, (1, 1), H=[[[1, 1], [0, 1]], [[1, 0], [0, 1]]]
)
# the dens of its memos come from l (modes, Y, L(2)) and from the Casimir 27/4 (L(0))
FRACTIONAL_EVAL = ModuleSpec.evaluation(1, Fraction(2, 3), 0, (3,))
OMEGA_SPECS["eval-c0-l2/3-lam3"] = FRACTIONAL_EVAL


def assert_l_is_omega_mode(spec, n_values):
    """L(n) w = omega_{n+1} w on the (3, 2) box; the number of nonzero images."""
    nonzero = 0
    for wmono, top in module_basis(spec, 3, 2):
        w = State.term(wmono, top)
        scale = 1 / (2 * spec.l)
        omega = State(
            {
                (mono((i, j, 1), (i, j, 1)), 0): scale
                for i in range(1, spec.d + 1)
                for j in range(wmono.nwt() + 1)
            }
        )
        for n in n_values:
            lw, exact = l_apply(n, w, spec)
            assert exact
            assert lw == vertex_mode(omega, n + 1, w, spec), (wmono, top, n)
            nonzero += not lw.is_zero()
    return nonzero


@pytest.mark.parametrize("spec", OMEGA_SPECS.values(), ids=OMEGA_SPECS.keys())
def test_l_equals_omega_mode(spec):
    assert assert_l_is_omega_mode(spec, range(-1, 6))


def test_gbinom_is_an_exact_int():
    for m in range(-6, 7):
        for r in range(5):
            expected = Fraction(1)
            for s in range(r):
                expected *= Fraction(m - s, s + 1)
            got = _gbinom(m, r)
            assert type(got) is int and got == expected


def assert_int_first(state):
    for coeff in state.terms.values():
        assert type(coeff) in (int, Fraction)
        assert (type(coeff) is int) == (Fraction(coeff).denominator == 1)


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def spec_and_state(draw):
    l = draw(SMALL.filter(lambda x: x != 0))
    if draw(st.booleans()):
        spec = ModuleSpec.adjoint(draw(st.integers(1, 2)), l)
    else:
        c = draw(SMALL.filter(lambda x: x * x != 1))
        lam = draw(SMALL)
        H = [[[lam, 1], [0, lam]]] if draw(st.booleans()) else None
        spec = ModuleSpec.evaluation(1, l, c, (lam,), H=H)
    labels = module_basis(spec, 2, 1)
    picked = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=2, unique=True))
    coeffs = draw(st.lists(SMALL.filter(lambda x: x != 0), min_size=2, max_size=2))
    return spec, State(dict(zip(picked, coeffs)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec_and_state())
def test_coefficients_are_int_first(case):
    spec, w = case
    tr = Truncation(2, 2, 1)
    for n in range(-1, 3):
        assert_int_first(l_apply(n, w, spec, tr)[0])
    for vmono, _top in module_basis(ModuleSpec.adjoint(spec.d, spec.l), 2, 1):
        for k in (-2, 0, 1):
            assert_int_first(vertex_mode(State.term(vmono), k, w, spec))
    for j in (0, 1):
        for k in (-1, 0, 1, 2):
            assert_int_first(apply_mode(mode(1, j, k), w, spec))
    assert_int_first(w)
    assert_int_first(w + w)
    for s in (Fraction(2), Fraction(3, 2), -1):
        assert_int_first(w.scale(s))
    for mono, top in module_basis(spec, 1, 1):
        assert_int_first(State.term(mono, top))
        assert_int_first(State.term(mono, top, Fraction(4, 2)))
    for state in repcat.vacuum_space(spec, Truncation(2, 1)):
        assert_int_first(state)
    # L(2) x_{1,1,1}^2 = l*vacuum leaves the bigrade, so this defect is nonzero
    rep = check_l0_grading(spec, tr, [2])
    assert type(rep.max_defect) is Fraction and rep.max_defect > 0


def test_returned_states_do_not_alias_compiled_columns():
    spec = ModuleSpec.evaluation(1, Fraction(1, 2), Fraction(1, 3), (1,), H=[[[1, 1], [0, 1]]])
    w = State.term(mono((1, 0, 1), (1, 1, 2)), 1)
    v = State.term(mono((1, 0, 1), (1, 0, 1)))
    calls = [
        lambda: l_apply(0, w, spec)[0].terms,
        lambda: l_apply(-1, w, spec, Truncation(3, 2, 2))[0].terms,
        lambda: vertex_mode(v, -1, w, spec).terms,
        lambda: vertex_mode(v, 2, w, spec).terms,
        lambda: apply_mode(mode(1, 0, 1), w, spec).terms,
    ]
    for call in calls:
        first = call()
        expected = dict(first)
        assert expected
        for key in first:
            first[key] = 12345
        first[(EMPTY, 0)] = 7
        assert call() == expected


A_MONO = mono((1, 0, 1), (1, 1, 1))
A_LABEL = State.term(A_MONO)
EVAL_C0 = ModuleSpec.evaluation(1, Fraction(5, 7), 0, (2,))
# each sweep, its module, and the memo of `Operators` and the operator in it
# (its first key there) whose columns the sweep must leave compiled
SWEEPS = {
    # the module and the adjoint one (for L(m)A) share the registry without evicting
    "field-commutator": (
        EVAL_C0,
        lambda spec, tr: check_field_commutator(1, A_LABEL, -1, spec, tr),
        ("_vertex", A_MONO),
    ),
    "strong-grading": (
        EVAL_C0,
        lambda spec, tr: check_strong_grading(
            spec, tr, [(A_LABEL, -1), (State.term(mono((1, 0, 2))), 1)]
        ),
        ("_vertex", mono((1, 0, 2))),
    ),
    "virasoro": (EVAL_C0, lambda spec, tr: check_virasoro(2, -1, spec, tr), ("_l", 2)),
    "l-mode-commutator": (
        EVAL_C0,
        lambda spec, tr: check_l_mode_commutator(1, (1, 0), -2, spec, tr),
        ("_vertex", mono((1, 0, 1))),
    ),
    "l0-grading": (EVAL_C0, lambda spec, tr: check_l0_grading(spec, tr, [-1, 0, 1]), ("_l", 1)),
    "d-equals-lminus1": (
        ADJ2, lambda spec, tr: vertexops.check_d_equals_lminus1(spec, tr), ("_l", -1)
    ),
}


def labeled(ops, memo, label):
    """The column of a memo of ops at a basis label, keyed by labels, its numerators over den."""
    return ops.to_labels(memo[ops.intern(label)], memo.den)


def memoized_columns(memo, path=()):
    """Every column of a (nested) memo of `Operators`, as (path of keys, column) pairs."""
    for key, value in memo.items():
        if isinstance(value, vertexops._Memo):
            yield from memoized_columns(value, path + (key,))
        else:
            yield path + (key,), value


def compiled_columns(ops):
    """Every memoized column of ops, as plain dicts {memo name: {path: column}}."""
    names = ("_l", "_vertex")
    return {name: dict(memoized_columns(getattr(ops, name))) for name in names}


@pytest.mark.parametrize("spec, sweep, memo", SWEEPS.values(), ids=SWEEPS.keys())
def test_vertex_columns_are_compiled_once_per_command(spec, sweep, memo):
    name, operator = memo
    tr = Truncation(3, 2, 0)
    assert sweep(spec, tr).defect_zero
    ops = operators(spec, 0)
    compiled = copy.deepcopy(compiled_columns(ops))
    assert any(path[0] == operator for path in compiled[name])
    assert sweep(spec, tr).defect_zero
    assert operators(spec, 0) is ops
    assert compiled_columns(ops) == compiled


def test_the_intern_table_numbers_each_label_once():
    # a field-commutator sweep fills the tables of its module and of the adjoint one (L(m)A)
    _registry.cache_clear()
    assert check_field_commutator(1, A_LABEL, -1, EVAL_C0, Truncation(3, 2, 0)).defect_zero
    ops = operators(EVAL_C0, 0)
    adj = operators(ModuleSpec.adjoint(EVAL_C0.d, 1), 0)
    assert ops is not adj and ops._module is not adj._module
    for table in (ops._module, adj._module):
        ids, labels = table.ids, table.labels
        assert labels and len(set(labels)) == len(labels) == len(ids)
        for label, id_ in ids.items():
            assert labels[id_] == label
            mono = label[0]
            assert (table.wt[id_], table.nwt[id_], table.deg[id_]) == (
                mono.weight(), mono.nwt(), len(mono)
            )
    # the adjoint table holds A and its images under L(m), not the module's basis
    assert (A_MONO, 0) in adj._module.ids
    assert set(adj._module.labels) != set(ops._module.labels)
    # every id a column holds is one of its own object's
    for family in compiled_columns(ops).values():
        for column in family.values():
            assert all(0 <= key < len(ops._module.labels) for key, _coeff in column)


class _OrderedColumns(vertexops.Operators):
    """Operators whose every L and Y column holds the same terms in a chosen key order."""

    def __init__(self, spec, column):
        super().__init__(spec, 0)
        self.column = tuple(self.to_ids(column).items())

    def l_columns(self, n):
        return vertexops._Memo(lambda label: self.column)

    def vertex_columns(self, vmono, k):
        return vertexops._Memo(lambda label: self.column)


# two terms that leave every bigrade, in either key order
OFFENDING = [((mono((1, 2, 1)), 0), Fraction(1, 3)), ((mono((1, 3, 1)), 0), -5)]
# two monomials of bigrade (2, 0) whose equal images cancel in v_j w; each is checked alone
CANCELLING_V = State({(mono((1, 0, 2)), 0): 1, (mono((1, 0, 1), (1, 0, 1)), 0): -1})


@pytest.mark.parametrize("order", [1, -1], ids=["small-first", "large-first"])
def test_strong_grading_defect_does_not_hang_on_key_order(monkeypatch, order):
    # no valid module violates strong grading, so feed the sweep two offending terms
    ops = _OrderedColumns(ADJ, dict(OFFENDING[::order]))
    monkeypatch.setattr(vertexops, "operators", lambda spec, j_max: ops)
    for v in (State.vacuum(), CANCELLING_V):
        rep = check_strong_grading(ADJ, Truncation(1, 0), [(v, -1)])
        assert not rep.defect_zero and rep.max_defect == 5, v
        assert rep.counterexample == State.vacuum()


@pytest.mark.parametrize("order", [1, -1], ids=["small-first", "large-first"])
def test_l0_grading_defect_does_not_hang_on_key_order(monkeypatch, order):
    # an evaluation module skips the adjoint L(0) eigenvalue check, so L(1) is read first
    ops = _OrderedColumns(EVAL_C0, dict(OFFENDING[::order]))
    monkeypatch.setattr(vertexops, "operators", lambda spec, j_max: ops)
    rep = check_l0_grading(EVAL_C0, Truncation(0, 0), [1])
    assert not rep.defect_zero and rep.max_defect == 5
    assert rep.counterexample == State.vacuum()


@pytest.mark.parametrize("c", [1, -1])
def test_module_constants_wait_for_the_level_check(c):
    # at c^2 = 1 the L(0) top matrix has no closed form, but modes and Y still exist
    spec = ModuleSpec.evaluation(1, 1, c, (2,), H=[[[2, 1], [0, 2]]])
    ops = vertexops.Operators(spec, 2)
    labels = module_basis(spec, 2, 1)
    v = mono((1, 0, 1), (1, 1, 2))
    for label in labels:
        for j in range(3):
            for k in (-1, 0, 1):
                labeled(ops, ops.vertex_columns(mono((1, j, 1)), k), label)
        for k in range(-3, 3):
            labeled(ops, ops.vertex_columns(v, k), label)
    assert labeled(ops, ops.vertex_columns(mono((1, 1, 1)), 0), (EMPTY, 1)) == {
        (EMPTY, 0): c, (EMPTY, 1): 2 * c
    }
    for n in range(-1, 3):
        # the memo of L(n) itself is refused, before any column is looked up
        for memo_of in (ops.l_columns, ops.exact_l_columns):
            with pytest.raises(ValueError, match="c\\^2 != 1"):
                memo_of(n)
        assert not ops._l
        with pytest.raises(ValueError, match="c\\^2 != 1"):
            l_apply(n, State.vacuum(), spec, Truncation(0, 0, 2))


JORDAN_TOPS = {
    "c%s" % c: ModuleSpec.evaluation(
        2, Fraction(1, 2), c, (1, -2), H=[[[1, 1], [0, 1]], [[-2, 3], [0, -2]]]
    )
    for c in (Fraction(1, 3), Fraction(-2))
}


# At c != 0 the sum over j of omega is infinite, but for n >= 1 each term of L(n)
# has a positive mode a_{i,j}, which kills w unless j <= nwt(w): omega_{n+1} is exact.
OMEGA_TOPS = {
    # no bound on the denominators of c^j H_i: the int-first path of L(n >= 1)
    "jordan-d2-c1/3": JORDAN_TOPS["c1/3"],
    # an integral c: the den of L(n >= 1) is that of H
    "eval-c-2-l2/3-lam3": ModuleSpec.evaluation(1, Fraction(2, 3), -2, (3,)),
}


@pytest.mark.parametrize("spec", OMEGA_TOPS.values(), ids=OMEGA_TOPS.keys())
def test_l_equals_omega_mode_on_a_top_that_acts_at_nonzero_c(spec):
    assert assert_l_is_omega_mode(spec, range(1, 6))


@pytest.mark.parametrize("spec", JORDAN_TOPS.values(), ids=JORDAN_TOPS.keys())
def test_module_constants_match_the_matrices_they_replace(spec):
    ops = vertexops.Operators(spec, 3)
    top_l0 = repcat.l0_top_matrix(spec)
    for label in module_basis(spec, 2, 2):
        m, top = label
        for i in (1, 2):
            for j in range(4):
                # the zero-mode rows read c^j H_i off ModuleSpec.zero_mode_matrix, apart
                # from fock._mode_column, which compiles the columns of a(0)
                rows = ops._module.zero_modes[(i, j)][top]
                expected = {(m, t): entry for t, entry in rows}
                got = labeled(ops, ops.vertex_columns(mono((i, j, 1)), 0), label)
                assert got == expected, (label, i, j)
        # L(0) acts as the weight plus the top-space matrix
        expected = {(m, t): top_l0[t, top] for t in range(spec.r) if top_l0[t, top]}
        exactmath._axpy(expected, m.weight(), ((label, 1),))
        assert labeled(ops, ops.l_columns(0), label) == expected, label


@pytest.mark.parametrize("spec", [ADJ2, JORDAN_TOPS["c1/3"]], ids=["adjoint", "jordan"])
def test_a_single_mode_is_the_vertex_operator_of_its_variable(spec):
    # a(k) = Y(x_{i,j,1})_k: the columns of that memo are the mode action
    ops = vertexops.Operators(spec, 2)
    labels = module_basis(spec, 2, 1)
    zero_modes_act = False
    for i in range(1, spec.d + 1):
        for j in range(3):
            for k in range(-2, 3):
                memo = ops.vertex_columns(mono((i, j, 1)), k)
                for label in labels:
                    w = State.term(*label)
                    column = labeled(ops, memo, label)
                    assert column == apply_mode(mode(i, j, k), w, spec).terms, (i, j, k)
                    zero_modes_act |= k == 0 and bool(column)
    assert zero_modes_act == (not spec.is_adjoint())


def test_truncated_l_minus1_is_refused_by_its_exact_memo():
    spec = JORDAN_TOPS["c1/3"]
    ops = vertexops.Operators(spec, 2)
    label = (EMPTY, 1)
    assert ops.l_truncated(-1) and not ops.l_truncated(0)
    assert ops.l_columns(-1)[ops.intern(label)]
    with pytest.raises(ValueError, match="truncated L\\(-1\\) tail"):
        ops.exact_l_columns(-1)
    assert ops.exact_l_columns(0) is ops.l_columns(0)


def test_l0_grading_refuses_a_truncated_tail_before_any_column():
    spec = JORDAN_TOPS["c1/3"]
    _registry.cache_clear()
    refusal = "truncated L\\(-1\\) tail; pass a truncation with j_max > 0"
    with pytest.raises(ValueError, match=refusal):
        check_l0_grading(spec, Truncation(2, 1, 0), [-1, 0, 1])
    # the memos of L(j) were made, so each L(j) was checked, but no column was compiled
    ops = operators(spec, 0)
    assert set(ops._l) == {-1, 0, 1} and not any(ops._l.values())


@pytest.mark.parametrize(
    "spec, j_max", [(ADJ2, 0), (JORDAN_TOPS["c1/3"], 2)], ids=["adjoint", "jordan"]
)
def test_l_columns_compile_straight_into_ids(monkeypatch, spec, j_max):
    # each output label is built and interned once: no term dict keyed by labels is
    # turned into ids, and no Monomial is rebuilt through without() or times()
    ops = vertexops.Operators(spec, j_max)
    ids = [ops.intern(label) for label in module_basis(spec, 3, 2)]
    calls = [count_calls(monkeypatch, vertexops._Module, "to_ids"),
             count_calls(monkeypatch, Monomial, "without"),
             count_calls(monkeypatch, Monomial, "times")]
    terms = 0
    for n in range(-1, 6):
        memo = ops.l_columns(n)
        for id_ in ids:
            column = memo[id_]
            assert 0 not in (coeff for _key, coeff in column), (n, id_)
            terms += len(column)
    assert calls == [[], [], []]
    assert terms > len(ids)


@pytest.mark.parametrize("spec, j_max", [(JORDAN_TOPS["c1/3"], 2), (JORDAN_TOPS["c-2"], 1)],
                         ids=["jordan-c1/3", "jordan-c-2"])
def test_l_memos_reassign_no_attribute_of_the_module(spec, j_max):
    # the top-space rows of L(0) and L(-1) are passed to their compiles: making and
    # compiling every L(n) fills the intern table and the zero-mode memo in place only
    ops = vertexops.Operators(spec, j_max)
    module = ops._module
    before = {name: getattr(module, name) for name in type(module).__slots__}
    ids = [ops.intern(label) for label in module_basis(spec, 3, 2)]
    terms = 0
    for n in range(-1, 6):
        memo = ops.l_columns(n)
        terms += sum(len(memo[id_]) for id_ in ids)
    assert [name for name, value in before.items() if getattr(module, name) is not value] == []
    assert module.zero_modes and len(module.labels) > len(ids) and terms > len(ids)


def test_l_columns_drop_the_terms_that_cancel():
    # L(0) = wt + h with h = -1 here: every weight-1 column cancels to an empty one
    spec = ModuleSpec.evaluation(1, Fraction(-1, 2), 0, (1,))
    ops = vertexops.Operators(spec, 0)
    l_0 = ops.l_columns(0)
    for label in module_basis(spec, 2, 1):
        column = l_0[ops.intern(label)]
        assert bool(column) == (label[0].weight() != 1), label
        assert 0 not in (coeff for _key, coeff in column)


MODULES = [cli, dims, exactmath, fock, repcat, vertexops]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__.split(".")[-1] for m in MODULES])
def test_no_unbounded_caches(module):
    for name, value in vars(module).items():
        info = getattr(value, "cache_info", None)
        if callable(info):
            assert info().maxsize is not None, name


def adjoint_mode_matrix_oracle(v, n, spec, tr):
    """The contragredient matrix built State by State through l_apply and vertex_mode."""
    wt_v, _nwt_v = grading(v)
    adj = spec if spec.is_adjoint() else ModuleSpec.adjoint(spec.d, spec.l)
    expansion = []
    u = v
    while not u.is_zero():
        expansion.append((len(expansion), u))
        u, exact = l_apply(1, u, adj)
        assert exact
    basis = module_basis(spec, tr.max_wt, tr.max_nwt)
    index = {label: pos for pos, label in enumerate(basis)}
    rows = []
    for mono_w, top in basis:
        w = State.term(mono_w, top)
        image = State.zero()
        for power, u in expansion:
            k = 2 * wt_v - n - power - 2
            image += vertex_mode(u, k, w, spec).scale(
                Fraction((-1) ** wt_v, math.factorial(power))
            )
        row = [Fraction(0)] * len(basis)
        for key, coeff in image.terms.items():
            if key in index:
                row[index[key]] = coeff
        rows.append(row)
    return RatMatrix(rows, cols=len(basis))


CONTRAGREDIENT_SPECS = {
    "adj-d1": ModuleSpec.adjoint(1, 1),
    "adj-d2": ModuleSpec.adjoint(2, Fraction(1, 2)),
    "scalar-c0": ModuleSpec.evaluation(1, Fraction(-2), 0, (0,)),
    "nilpotent-c0": ModuleSpec.evaluation(1, 1, 0, (0,), H=[[[0, 1], [0, 0]]]),
    "jordan-d2-c0": ModuleSpec.evaluation(
        2, 2, 0, (0, 0), H=[[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
    ),
}
CONTRAGREDIENT_LABELS = [
    State.vacuum(),
    State.term(mono((1, 0, 1))),
    State.term(mono((1, 1, 1), (1, 0, 1))),
    State.term(mono((1, 0, 2)), coeff=Fraction(2, 3)) - State.term(mono((1, 0, 1), (1, 0, 1))),
]


@pytest.mark.parametrize("tr", [Truncation(2, 1), Truncation(3, 2), Truncation(4, 2)], ids=str)
@pytest.mark.parametrize(
    "spec", CONTRAGREDIENT_SPECS.values(), ids=CONTRAGREDIENT_SPECS.keys()
)
def test_adjoint_mode_matrix_matches_state_level_oracle(spec, tr):
    for v in CONTRAGREDIENT_LABELS:
        for n in (-2, 0, 1):
            got = adjoint_mode_matrix(v, n, spec, tr).to_json()
            assert got == adjoint_mode_matrix_oracle(v, n, spec, tr).to_json(), (v, n)


# The oracle above applies l_apply and vertex_mode, which share `Operators.apply`
# with adjoint_mode_matrix.  These fixed values check the matrices on their own:
# (nonzero entries, first 16 hex digits of the sha256 of json.dumps(M.to_json()))
# of M = adjoint_mode_matrix(CONTRAGREDIENT_LABELS[i], n, adj-d2 at level l,
# Truncation(3, 2)), keyed by (l, i, n).
CONTRAGREDIENT_PINS = {
    ("1/2", 0, -2): (0, "366da2fbbc79467e"),
    ("1/2", 0, 0): (0, "366da2fbbc79467e"),
    ("1/2", 0, 1): (0, "366da2fbbc79467e"),
    ("1/2", 1, -2): (7, "b8f5ff4bf8c39e2d"),
    ("1/2", 1, 0): (0, "366da2fbbc79467e"),
    ("1/2", 1, 1): (27, "da0aa0956f5aafbe"),
    ("1/2", 2, -2): (2, "4aa28c904d045632"),
    ("1/2", 2, 0): (12, "51e7a69db9d72c4a"),
    ("1/2", 2, 1): (44, "8cdc8edcb92e3763"),
    ("1/2", 3, -2): (2, "dd7107e6bf72628d"),
    ("1/2", 3, 0): (8, "154a6353735448ac"),
    ("1/2", 3, 1): (34, "7e3e66a9cb3be72f"),
    ("-2", 0, -2): (0, "366da2fbbc79467e"),
    ("-2", 0, 0): (0, "366da2fbbc79467e"),
    ("-2", 0, 1): (0, "366da2fbbc79467e"),
    ("-2", 1, -2): (7, "4a49878bedbfda0c"),
    ("-2", 1, 0): (0, "366da2fbbc79467e"),
    ("-2", 1, 1): (27, "da0aa0956f5aafbe"),
    ("-2", 2, -2): (2, "c063d363f66c9835"),
    ("-2", 2, 0): (12, "dff5d601ad2f5fae"),
    ("-2", 2, 1): (44, "aaa5b36522efe9c1"),
    ("-2", 3, -2): (2, "a3ab8e1baf08960d"),
    ("-2", 3, 0): (8, "1f5881b3f0c57617"),
    ("-2", 3, 1): (34, "ac25d10cad6529e5"),
}


@pytest.mark.parametrize("level", ["1/2", "-2"])
def test_adjoint_mode_matrix_is_pinned(level):
    spec = ModuleSpec.adjoint(2, Fraction(level))
    for i, v in enumerate(CONTRAGREDIENT_LABELS):
        for n in (-2, 0, 1):
            got = adjoint_mode_matrix(v, n, spec, Truncation(3, 2)).to_json()
            nonzero = sum(entry != "0" for row in got for entry in row)
            digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()[:16]
            assert (nonzero, digest) == CONTRAGREDIENT_PINS[(level, i, n)], (i, n)


def vertex_column_oracle(spec, vmono, k, label, modes):
    """Y(v)_k on one label by enumerating every mode assignment of v's factors.

    Each factor x(-n) of v contributes the modes x(mu) with coefficient
    (-1)^r C(mu+r, r), r = n - 1; the modes of one assignment sum to
    k + 1 - wt(v) and are applied in normal order, zero modes first, then
    annihilation modes, then creation modes.  `modes` memoizes the
    single-mode columns across calls.
    """
    wmono, _wtop = label
    factors = tuple(vmono)
    if not factors:
        return {label: 1} if k == -1 else {}

    def zero_ok(i, j):
        if spec.is_adjoint() or spec.H[i - 1].is_zero():
            return False
        return j == 0 or spec.c != 0

    pos = {}
    for i, j, q in wmono:
        pos.setdefault((i, j), set()).add(q)
    max_mu = [
        max(pos[(i, j)]) if (i, j) in pos else (0 if zero_ok(i, j) else -1)
        for i, j, _nt in factors
    ]
    suffix_max = [sum(max_mu[t:]) for t in range(len(factors) + 1)]
    out = {}

    def apply_assignment(mus):
        scalar = 1
        for (_i, _j, nt), mu in zip(factors, mus):
            scalar *= (-1) ** (nt - 1) * _gbinom(mu + nt - 1, nt - 1)
        ordered = sorted(
            zip(factors, mus),
            key=lambda fm: (0 if fm[1] == 0 else (1 if fm[1] > 0 else 2), fm[1]),
        )
        terms = {label: scalar} if scalar else {}
        for (i, j, _nt), mu in ordered:
            if not terms:
                return
            image = {}
            for (m, top), coeff in terms.items():
                key = (i, j, mu, m, top)
                if key not in modes:
                    modes[key] = fock._mode_column(spec, i, j, mu, m, top)
                exactmath._axpy(image, coeff, modes[key].items())
            terms = image
        exactmath._axpy(out, 1, terms.items())

    def descend(t, remaining, mus):
        if t == len(factors):
            if remaining == 0:
                apply_assignment(mus)
            return
        i, j, _nt = factors[t]
        for mu in range(remaining - suffix_max[t + 1], max_mu[t] + 1):
            if (mu > 0 and mu not in pos.get((i, j), ())) or (mu == 0 and not zero_ok(i, j)):
                continue
            descend(t + 1, remaining - mu, mus + [mu])

    descend(0, k + 1 - vmono.weight(), [])
    return {key: fock._int_first(c) for key, c in out.items()}


ORACLE_SPECS = {
    **{
        "adj-d%d-l%s" % (d, l): (ModuleSpec.adjoint(d, l), 0)
        for d in (1, 2)
        for l in (1, Fraction(1, 2), -2)
    },
    "scalar-c0": (ModuleSpec.evaluation(1, 1, 0, (1,)), 0),
    "jordan-d2-c1/3": (
        ModuleSpec.evaluation(
            2, 1, Fraction(1, 3), (1, 1), H=[[[1, 1], [0, 1]], [[1, 0], [0, 1]]]
        ),
        2,
    ),
    "eval-c0-l2/3-lam3": (FRACTIONAL_EVAL, 0),
}
ORACLE_V = [
    (),
    ((1, 0, 1),),
    ((1, 1, 2),),
    ((1, 0, 3),),
    ((1, 2, 4),),
    ((1, 0, 1), (1, 0, 1)),
    ((1, 0, 1), (1, 1, 2)),
    ((1, 0, 3), (1, 2, 1)),
    ((1, 0, 1), (1, 0, 2), (1, 1, 3)),
]
ORACLE_V_D2 = [((2, 1, 3),), ((1, 0, 1), (2, 0, 1)), ((1, 1, 2), (2, 0, 1), (2, 0, 3))]
# four factors; left out on the Jordan top, where enumerating every mode
# assignment (zero modes act at every power) takes seconds per label of v
ORACLE_V_LONG = [
    ((1, 0, 1), (1, 0, 1), (1, 0, 2), (1, 1, 1)),
    ((1, 0, 1), (1, 0, 1), (1, 0, 1), (1, 1, 3)),
]
ORACLE_V_LONG_D2 = [((1, 0, 1), (1, 0, 3), (2, 0, 2), (2, 1, 1))]


@pytest.mark.parametrize("spec, j_max", ORACLE_SPECS.values(), ids=ORACLE_SPECS.keys())
def test_vertex_columns_match_assignment_enumeration(spec, j_max):
    ops = vertexops.Operators(spec, j_max)
    vs = ORACLE_V + (ORACLE_V_D2 if spec.d == 2 else [])
    if spec.r == 1:
        vs += ORACLE_V_LONG + (ORACLE_V_LONG_D2 if spec.d == 2 else [])
    nonzero = 0
    modes = {}
    for factors in vs:
        vmono = mono(*factors)
        for k in range(-4, 5):
            for label in module_basis(spec, 3, 2):
                got = labeled(ops, ops.vertex_columns(vmono, k), label)
                expected = vertex_column_oracle(spec, vmono, k, label, modes)
                assert got == expected, (vmono, k, label)
                assert [type(c) for c in got.values()] == [
                    type(expected[key]) for key in got
                ], (vmono, k, label)
                nonzero += bool(got)
    assert nonzero > 100


@pytest.mark.parametrize(
    "spec",
    [ADJ, ModuleSpec.evaluation(1, 1, 0, (0,), H=[[[0, 1], [0, 0]]])],
    ids=["adj", "nilpotent-c0"],
)
def test_vertex_label_colors_are_checked_up_front(spec):
    # the empty truncation leaves no column to compile, so only the label check can fail
    v = State.term(mono((2, 0, 1)))
    tr = Truncation(0, 0)
    calls = [
        lambda: vertex_mode(v, 5, State.vacuum(), spec),
        lambda: check_field_commutator(0, v, 5, spec, tr),
        lambda: check_strong_grading(spec, tr, [(v, 5)]),
        lambda: adjoint_mode_matrix(v, 5, spec, tr),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="color index 2"):
            call()


LAW_LEVELS = [Fraction(1, 2), Fraction(-2), Fraction(3, 7)]


def at_level(column, l, shift):
    """A level-1 adjoint column at level l: a term (mono, top) gets l^((shift - deg mono)/2)."""
    out = {}
    for key, coeff in column.items():
        twice = shift - len(key[0])
        assert twice % 2 == 0, (key, shift)
        out[key] = coeff * l ** (twice // 2)
    return out


def by_hand(ops, memos, w):
    """The sum over (coefficient, memo of ops) of coefficient times the memo's columns on w."""
    out = State.zero()
    for coeff, memo in memos:
        for label, w_coeff in w.terms.items():
            out += State(labeled(ops, memo, label)).scale(coeff * w_coeff)
    return out


@pytest.mark.parametrize("l", LAW_LEVELS, ids=str)
@pytest.mark.parametrize("d", [1, 2])
def test_adjoint_columns_obey_the_level_law(d, l):
    # the oracle is the same class built directly at level l, not the level-1 object rescaled
    direct = vertexops.Operators(ModuleSpec.adjoint(d, l), 0)
    one = vertexops.Operators(ModuleSpec.adjoint(d, 1), 0)
    labels = module_basis(direct.spec, 3, 1)
    for n in range(-1, 4):
        for label in labels:
            expected = at_level(labeled(one, one.l_columns(n), label), l, len(label[0]))
            assert labeled(direct, direct.l_columns(n), label) == expected, (n, label)
    vs = [v for wt in range(4) for nwt in range(3) for v in enumerate_basis(d, nwt, wt)]
    nonzero = 0
    for v in vs:
        for k in range(-4, 4):
            for label in labels:
                got = labeled(direct, direct.vertex_columns(v, k), label)
                one_column = labeled(one, one.vertex_columns(v, k), label)
                assert got == at_level(one_column, l, len(v) + len(label[0]))
                nonzero += bool(got)
    assert nonzero > 100
    # the public State API at level l: w with 1- and 2-variable terms, v with 1- and 2-factor terms
    w = State({(mono((1, 0, 1)), 0): Fraction(2, 3), (mono((d, 0, 1), (d, 0, 2)), 0): -1})
    v = State({(mono((1, 0, 2)), 0): 3, (mono((1, 0, 1), (d, 0, 1)), 0): Fraction(-1, 2)})
    images = []
    for n in range(-1, 4):
        images.append(l_apply(n, w, direct.spec))
        assert images[-1] == (by_hand(direct, [(1, direct.l_columns(n))], w), True), n
    for k in range(-4, 4):
        memos = [(vc, direct.vertex_columns(vm, k)) for (vm, _top), vc in v.terms.items()]
        images.append((vertex_mode(v, k, w, direct.spec), True))
        assert images[-1][0] == by_hand(direct, memos, w), k
    assert sum(not image.is_zero() for image, _exact in images) >= 10
    # every level of one d is served by the one level-1 object
    assert operators(direct.spec, 0) is operators(one.spec, 0)
    assert operators(direct.spec, 0).spec.l == 1


@pytest.mark.parametrize("l", [Fraction(1, 2), Fraction(-2)], ids=str)
def test_apply_reads_any_level_off_the_level_one_object(l):
    # the oracle is the same class built directly at level l, read column by column
    direct = vertexops.Operators(ModuleSpec.adjoint(2, l), 0)
    one = operators(direct.spec, 0)
    assert one.spec.l == 1
    w = {
        (mono((1, 0, 1)), 0): Fraction(2, 3),
        (mono((2, 0, 1), (2, 0, 2)), 0): -1,
        (mono((1, 0, 1), (1, 1, 1), (2, 0, 3)), 0): 5,
    }
    before = dict(w)
    v1, v2 = mono((1, 0, 2)), mono((1, 0, 1), (2, 0, 1))  # one and two factors

    def operator(ops, n, k):
        return [
            (Fraction(1, 3), ops.l_columns(n), 0),
            (3, ops.vertex_columns(v1, k), 1),
            (Fraction(-1, 2), ops.vertex_columns(v2, k), 2),
        ]

    nonzero = 0
    for n in range(-1, 3):
        for k in range(-3, 2):
            got = one.apply(l, operator(one, n, k), w)
            expected = by_hand(direct, [term[:2] for term in operator(direct, n, k)], State(w))
            assert State(got) == expected and 0 not in got.values(), (n, k)
            nonzero += bool(got)
    assert nonzero >= 10
    # Y(a(-2)1)_k = -k a(k-1): the two sides cancel to an empty dict, not to zero entries
    a = mono((1, 0, 1))
    for k in (-3, -2, 2):
        y = [(1, one.vertex_columns(v1, k), 1)]
        assert one.apply(l, y, w)
        assert one.apply(l, y + [(k, one.vertex_columns(a, k - 1), 1)], w) == {}
    assert w == before


def test_an_evicted_operators_object_is_freed_without_the_cycle_collector():
    spec = ModuleSpec.evaluation(1, Fraction(3, 11), Fraction(1, 5), (1,), H=[[[1, 1], [0, 1]]])
    tr = Truncation(2, 1, 1)
    gc.disable()
    try:
        ops = operators(spec, tr.j_max)
        # fill every memo: L(n) (L(0) reads the top matrix), modes, zero modes, Y with a tail
        assert check_field_commutator(1, A_LABEL, -1, spec, tr).defect_zero
        assert check_l_mode_commutator(1, (1, 0), 0, spec, tr).defect_zero
        check_l0_grading(spec, tr, [0, -1])  # the cut tail leaves nwt
        assert set(ops._l) == {-1, 0, 1} and all(ops._l.values()) and ops._vertex
        assert ops._l[0].fill.args[-1]  # the L(0) memo holds the rows of the top matrix
        assert len(ops._module.ids) == len(ops._module.labels) > 0
        freed = weakref.ref(ops)
        del ops
        for c in range(2, 6):  # four keys no other test builds evict it from the registry
            operators(ModuleSpec.evaluation(1, Fraction(3, 11), Fraction(1, c), (0,)), 0)
        assert freed() is None
    finally:
        gc.enable()


class _BadColumns(vertexops.Operators):
    """Operators whose column of one label under one L(n) or Y(v)_k has one term more.

    The extra term w -> key obeys the level law by hand: `coeff` is its
    coefficient at l = 1, and `power` the power of l it carries.  The memo
    that holds it keeps the den of the memo it wraps, and the term is added
    as a numerator over that den.
    """

    def __init__(self, spec, operator, label, key, coeff, power):
        super().__init__(spec, 0)
        self.bad = (operator, self.intern(label), self.intern(key), coeff * spec.l**power)

    def _with_extra(self, operator, memo):
        op, label, key, coeff = self.bad
        if operator != op:
            return memo

        def column(w):  # w and label are ids
            if w != label:
                return memo[w]
            out = dict(memo[w])
            exactmath._axpy(out, coeff * memo.den, ((key, 1),))
            return tuple(out.items())

        return vertexops._Memo(column, den=memo.den)

    def l_columns(self, n):
        return self._with_extra(("L", n), super().l_columns(n))

    def exact_l_columns(self, n):
        return self._with_extra(("L", n), super().exact_l_columns(n))

    def vertex_columns(self, vmono, k):
        return self._with_extra(("Y", vmono, k), super().vertex_columns(vmono, k))


ADJ2_ONE = ModuleSpec.adjoint(2, 1)
W = (mono((1, 0, 1), (1, 0, 2), (2, 0, 1)), 0)
# A with a one-factor and a two-factor term, both of bigrade (2, 0)
A_MIXED = State({(mono((1, 0, 2)), 0): Fraction(2, 3), (mono((1, 0, 1), (2, 0, 1)), 0): -1})
A_MIXED_JSON = json.dumps(A_MIXED.to_json())
FRACTIONAL_COUNTEREXAMPLES = {
    # L(2) w -> x_{2,0,1} drops two variables: one power of l
    "virasoro": (
        ("L", 2), (mono((2, 0, 1)), 0), 7, 1,
        lambda spec, tr: check_virasoro(2, 0, spec, tr),
    ),
    # Y(x_{1,0,1} x_{2,0,1})_{-1} w -> a term with as many variables: (2 + 0)/2
    "field-commutator": (
        ("Y", mono((1, 0, 1), (2, 0, 1)), -1), (mono((1, 0, 1), (1, 0, 3), (2, 0, 1)), 0), 3, 1,
        lambda spec, tr: check_field_commutator(1, A_MIXED, -1, spec, tr),
    ),
    # the same term, of weight 5 where Y(x_{1,0,1} x_{2,0,1})_{-1} w must have weight 6
    "strong-grading": (
        ("Y", mono((1, 0, 1), (2, 0, 1)), -1), (mono((1, 0, 1), (1, 0, 3), (2, 0, 1)), 0), 3, 1,
        lambda spec, tr: check_strong_grading(
            spec, tr, [(State.term(mono((1, 0, 1), (2, 0, 1))), -1)]
        ),
    ),
    # L(2) w -> x_{2,0,1}, of weight 1 where L(2) w must have weight 2
    "l0-grading": (
        ("L", 2), (mono((2, 0, 1)), 0), 7, 1,
        lambda spec, tr: check_l0_grading(spec, tr, [-1, 2]),
    ),
    # a(2) w -> x_{1,0,1} x_{2,0,2}, of weight 3 where a(2) w has weight 2: (1 + 3 - 2)/2
    "l-mode-commutator": (
        ("Y", mono((1, 0, 1)), 2), (mono((1, 0, 1), (2, 0, 2)), 0), 3, 1,
        lambda spec, tr: check_l_mode_commutator(0, (1, 0), 2, spec, tr),
    ),
    # L(-1) w -> x_{1,0,5}, with two variables fewer than w: (3 - 1)/2
    "d-equals-lminus1": (
        ("L", -1), (mono((1, 0, 5)), 0), 5, 1,
        lambda spec, tr: vertexops.check_d_equals_lminus1(spec, tr),
    ),
}


@pytest.mark.parametrize(
    "operator, key, coeff, power, sweep",
    FRACTIONAL_COUNTEREXAMPLES.values(),
    ids=FRACTIONAL_COUNTEREXAMPLES.keys(),
)
def test_counterexamples_at_a_fractional_level_match_the_direct_path(
    monkeypatch, operator, key, coeff, power, sweep
):
    tr = Truncation(4, 0)
    reports = {}
    for name, spec in (("direct", ADJ2), ("served", ADJ2_ONE), ("level-1", ADJ2_ONE)):
        ops = _BadColumns(spec, operator, W, key, coeff, power)
        monkeypatch.setattr(vertexops, "operators", lambda spec, j_max, ops=ops: ops)
        # the level-1 object at level 1/2 is what the registry serves for ADJ2
        reports[name] = sweep(ADJ2 if name != "level-1" else ADJ2_ONE, tr)
    direct, served, level_one = reports["direct"], reports["served"], reports["level-1"]
    assert not direct.defect_zero and direct.max_defect != level_one.max_defect
    assert served.to_json() == direct.to_json()


def test_virasoro_at_three_levels_shares_one_compile(capsys):
    _registry.cache_clear()
    argv = ["verify", "virasoro", "--d", "1", "--max-wt", "3", "--max-nwt", "1",
            "--m-range=-1..2", "--n-range=-1..2"]
    sizes = []
    for level in ("1/3", "-2", "5/3"):
        assert cli.main(argv + ["--l=" + level]) == 0
        ops = operators(ModuleSpec.adjoint(1, 1), 0)
        assert operators(ModuleSpec.adjoint(1, Fraction(level)), 0) is ops
        sizes.append(len(dict(memoized_columns(ops._l))))
    capsys.readouterr()
    assert sizes[0] > 0 and sizes == [sizes[0]] * 3


def test_the_adjoint_module_is_keyed_by_d_alone():
    # j_max cuts no adjoint column, and every level is served the level-1 object
    _registry.cache_clear()
    ops = operators(ModuleSpec.adjoint(2, Fraction(1, 3)), 5)
    assert operators(ModuleSpec.adjoint(2, 1), 0) is ops
    assert _registry.cache_info().currsize == 1


VIRASORO_PLANS = {
    # every mirror present, and the diagonal
    "square": [(m, n) for m in range(-1, 4) for n in range(-1, 4)],
    # some mirrors absent: only (0, 1) and (1, 0) pair up off the diagonal
    "asymmetric": [(m, n) for m in range(0, 4) for n in range(-1, 2)],
}


@pytest.mark.parametrize(
    "spec", [ModuleSpec.adjoint(1, 1), ModuleSpec.evaluation(1, 1, 0, (1,))],
    ids=["adjoint", "evaluation-c0"],
)
@pytest.mark.parametrize("plan", VIRASORO_PLANS.values(), ids=VIRASORO_PLANS.keys())
def test_virasoro_pairs_match_the_per_pair_sweeps(monkeypatch, spec, plan):
    # one corrupted L(2) column: the shared reports must still be those of full sweeps
    label = (mono((1, 0, 1), (1, 0, 3)), 0)
    ops = _BadColumns(spec, ("L", 2), label, (mono((1, 0, 1), (1, 0, 1)), 0), 3, 0)
    monkeypatch.setattr(vertexops, "operators", lambda spec, j_max: ops)
    tr = Truncation(4, 1)
    per_pair = [check_virasoro(m, n, spec, tr) for m, n in plan]
    assert any(not report.defect_zero for report in per_pair)

    walks = []
    sweep = vertexops._sweep
    monkeypatch.setattr(
        vertexops, "_sweep", lambda *args: walks.append(args[4]) or sweep(*args)
    )
    shared = vertexops.check_virasoro_pairs(plan, spec, tr)
    assert [r.to_json() for r in shared] == [r.to_json() for r in per_pair]
    assert shared == per_pair
    merged = [vertexops.merge_reports(reports, "virasoro", {}) for reports in (shared, per_pair)]
    assert merged[0].to_json() == merged[1].to_json() and not merged[0].defect_zero
    # one walk, with one plan per unordered pair, the first of the two in plan order; a
    # diagonal pair composes nothing, so it has no plan
    assert len(walks) == 1
    assert [(params["m"], params["n"]) for params, _plan, _den in walks[0]] == [
        (m, n) for k, (m, n) in enumerate(plan) if m != n and (n, m) not in plan[:k]
    ]


def assert_shared_walk_matches(shared, per_entry):
    """The reports of one shared walk equal those of one sweep per entry, and so do their merges."""
    assert [r.to_json() for r in shared] == [r.to_json() for r in per_entry]
    assert shared == per_entry
    merged = [vertexops.merge_reports(reports, "walk", {}) for reports in (shared, per_entry)]
    assert merged[0].to_json() == merged[1].to_json()
    return merged[0]


# the field-commutator operator FRACTIONAL_COUNTEREXAMPLES corrupts, with its extra term
BAD_Y = FRACTIONAL_COUNTEREXAMPLES["field-commutator"][:4]
FIELD_WALKS = {
    "adjoint-l1/2": (ModuleSpec.adjoint(1, Fraction(1, 2)), A_LABEL, Truncation(3, 1), None),
    "evaluation-c0": (EVAL_C0, A_LABEL, Truncation(3, 1), None),
    "mixed": (ADJ2, A_MIXED, Truncation(3, 1), None),
    "mixed-one-bad-column": (ADJ2, A_MIXED, Truncation(4, 0), BAD_Y),
}


@pytest.mark.parametrize("spec, a, tr, bad", FIELD_WALKS.values(), ids=FIELD_WALKS.keys())
def test_field_commutators_of_one_a_match_the_per_mode_sweeps(monkeypatch, spec, a, tr, bad):
    if bad is not None:
        ops = _BadColumns(spec, bad[0], W, *bad[1:])
        monkeypatch.setattr(vertexops, "operators", lambda spec, j_max: ops)
    ns, ks = [-1, 0, 1, 2], [-2, -1, 0]
    shared = vertexops.check_field_commutators(a, ns, ks, spec, tr)
    per_mode = [check_field_commutator(n, a, k, spec, tr) for n in ns for k in ks]
    merged = assert_shared_walk_matches(shared, per_mode)
    if bad is None:
        assert merged.defect_zero
    else:
        # only the (n, k) that read the corrupted Y(v)_{-1} have a defect
        assert {r.defect_zero for r in shared} == {True, False}


E1_WALKS = {
    "adjoint-l1/2": (ADJ2, (2, 1), None),
    "evaluation-c0": (EVAL_C0, (1, 0), None),
    "one-bad-l1-column": (ADJ2, (1, 0), ("L", 1)),
}


@pytest.mark.parametrize("spec, gen, bad", E1_WALKS.values(), ids=E1_WALKS.keys())
def test_l_mode_commutators_match_the_per_mode_sweeps(monkeypatch, spec, gen, bad):
    if bad is not None:
        ops = _BadColumns(spec, bad, (mono((1, 0, 1)), 0), (mono((2, 0, 1)), 0), 3, 0)
        monkeypatch.setattr(vertexops, "operators", lambda spec, j_max: ops)
    ns, ks, tr = [-1, 0, 1, 2], [-2, 0, 1], Truncation(3, 1)
    shared = vertexops.check_l_mode_commutators(gen, ns, ks, spec, tr)
    per_mode = [check_l_mode_commutator(n, gen, k, spec, tr) for n in ns for k in ks]
    merged = assert_shared_walk_matches(shared, per_mode)
    if bad is None:
        assert merged.defect_zero
    else:
        # only n = 1 reads the corrupted L(1) column (at k = 0, a(0) = 0 hides it)
        assert [(r.params["n"], r.params["k"]) for r in shared if not r.defect_zero] == [
            (1, -2), (1, 1)
        ]


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that appends its arguments to the returned list."""
    calls = []
    wrapped = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or wrapped(*args))
    return calls


@pytest.mark.parametrize(
    "a_flags, labels, parts",
    [(["--a-max-wt", "2", "--a-max-nwt", "1"], 16, 1), (["--a-state", A_MIXED_JSON], 1, 2)],
    ids=["generated", "mixed"],
)
def test_a_field_commutator_command_walks_once_per_a(capsys, monkeypatch, a_flags, labels, parts):
    # the work that depends on A alone is done once per A, not once per (n, k)
    _registry.cache_clear()
    walks = count_calls(monkeypatch, vertexops, "module_basis")
    applies = count_calls(monkeypatch, vertexops.Operators, "apply")
    argv = ["verify", "field-commutator", "--d", "2", "--l=1/2", "--n-range=0..1",
            "--k-range=-1..1", "--max-wt", "2", "--max-nwt", "1", *a_flags]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["params"]["a_count"] == labels
    assert len(walks) == labels
    # L(m)A for m = -1, 0, 1 on each part of each A, on the adjoint module
    adj = operators(ModuleSpec.adjoint(2, 1), 0)
    assert [args[0] for args in applies] == [adj] * (labels * parts * 3)


@pytest.mark.parametrize(
    "identity, plans",
    # the default ranges: 25 virasoro pairs, of which 10 unordered off-diagonal ones get a
    # plan, and 5 x 7 (n, k) of e1
    [("virasoro", 10), ("e1", 35)],
)
def test_a_virasoro_or_e1_command_walks_once(capsys, monkeypatch, identity, plans):
    walks = count_calls(monkeypatch, vertexops, "_sweep")
    assert cli.main(["verify", identity, "--max-wt", "3", "--max-nwt", "1"]) == 0
    capsys.readouterr()
    assert len(walks) == 1 and len(walks[0][4]) == plans


@pytest.mark.parametrize("spec", [ADJ2, JORDAN_TOPS["c1/3"]], ids=["adjoint", "jordan"])
@pytest.mark.parametrize(
    "n, gen, k",
    [(0, (1, 0), -1), (1, (2, 1), -2), (2, (1, 1), -1), (1, (2, 0), 1)],
    ids=["n0-k-1", "n1-k-2", "n2-k-1", "n1-k1"],
)
def test_e1_is_the_field_commutator_of_a_single_mode(monkeypatch, spec, n, gen, k):
    # -k a(n+k) is the Borcherds sum at A = x_{i,j,1}: with one L(n) column corrupted,
    # both plans of the commutator sweep report the same nonzero defect
    label = (mono((1, 0, 1)), 0)
    ops = _BadColumns(spec, ("L", n), label, (mono((2, 0, 1)), 0), 3, 0)
    monkeypatch.setattr(vertexops, "operators", lambda spec, j_max: ops)
    tr = Truncation(3, 1)
    closed = check_l_mode_commutator(n, gen, k, spec, tr)
    borcherds = check_field_commutator(n, State.term(mono(gen + (1,))), k, spec, tr)
    assert not closed.defect_zero
    for field in ("states_checked", "max_defect", "counterexample"):
        assert getattr(closed, field) == getattr(borcherds, field), field


def test_e1_compiles_only_its_single_mode(capsys):
    # the closed form -k a(n+k) reads a(k) alone, never the columns of Y(x_{i,j,2})
    _registry.cache_clear()
    argv = ["verify", "e1", "--d", "2", "--l=1/2", "--gen", "2,1",
            "--max-wt", "3", "--max-nwt", "1"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert list(operators(ModuleSpec.adjoint(2, 1), 0)._vertex) == [mono((2, 1, 1))]


@pytest.mark.parametrize("spec", [ADJ2, JORDAN_TOPS["c1/3"]], ids=["adjoint", "jordan"])
def test_one_variable_columns_and_sweeps_do_no_extra_calls(monkeypatch, spec):
    # Y(x_{i,j,n})_k = C(n-k-2, n-1) x(k-n+1) reads the single mode x alone: no iterate
    # formula and no Y(1); x builds its own labels, apart from fock._mode_column
    compiles = count_calls(monkeypatch, vertexops, "_compile_vertex")

    def refuse(*args):
        raise AssertionError("a single-mode column read fock._mode_column")

    for owner in (fock, vertexops):
        monkeypatch.setattr(owner, "_mode_column", refuse, raising=False)
    ops = vertexops.Operators(spec, 0)
    basis = [ops.intern(label) for label in module_basis(spec, 3, 2)]
    nonzero = 0
    for i in range(1, spec.d + 1):
        for j in range(3):
            for n in range(2, 5):
                for k in range(-4, 5):
                    memo = ops.vertex_columns(mono((i, j, n)), k)
                    nonzero += sum(bool(memo[w]) for w in basis)
    assert compiles == [] and EMPTY not in ops._vertex and nonzero > 100
    # one defect call per basis state, for all the entries of a walk at once
    defects = count_calls(monkeypatch, vertexops, "_product_defect")
    tr = Truncation(3, 1)
    pairs = [(0, 1), (0, 2), (1, 2)]
    assert all(r.defect_zero for r in vertexops.check_virasoro_pairs(pairs, spec, tr))
    assert len(defects) == len(module_basis(spec, 3, 1))
    assert {len(args[0]) for args in defects} == {len(pairs)}


def memo_dens(ops):
    """The den of each memo of ops: ("L", n), ("Y", v, k) and ("Y", v), v's memo of memos."""
    dens = {("L", n): memo.den for n, memo in ops._l.items()}
    for v, memos in ops._vertex.items():
        dens[("Y", v)] = memos.den
        dens.update({("Y", v, k): memo.den for k, memo in memos.items()})
    return dens


def test_the_dens_of_a_fractional_module():
    # l = 2/3, c = 0, lambda = 3: a(k) reads l and lambda, L(0) the Casimir 27/4,
    # L(-1) the tail lambda/l = 9/2 and L(2) the level
    ops = vertexops.Operators(FRACTIONAL_EVAL, 0)
    for n in range(-1, 3):
        ops.l_columns(n)
    x, xx = mono((1, 0, 1)), mono((1, 0, 1), (1, 1, 2))
    ops.vertex_columns(xx, 0)
    assert memo_dens(ops) == {
        ("L", -1): 2, ("L", 0): 4, ("L", 1): 1, ("L", 2): 3,
        ("Y", x): 3, ("Y", mono((1, 1, 2))): 3, ("Y", mono((1, 1, 1))): 3,
        ("Y", xx): 9, ("Y", xx, 0): 9,
    }
    # the top terms of the L(0) memo: no created variable, rows over its den 4
    assert ops._l[0].fill.args[-1] == ((None, (((0, 27),),)),)


def test_an_unbounded_l_memo_keeps_den_one_and_rationals():
    # c = 1/3 on a top that acts: L(1) reads c^j H at every power j of the label
    spec = ModuleSpec.evaluation(1, Fraction(1, 2), Fraction(1, 3), (2,))
    ops = vertexops.Operators(spec, 2)
    memo = ops.l_columns(1)
    assert memo.den == 1 and ops.l_columns(2).den == 1 and ops.l_columns(0).den != 1
    label = (mono((1, 3, 1)), 0)
    assert labeled(ops, memo, label) == {(EMPTY, 0): 2 * Fraction(1, 27)}


@pytest.mark.parametrize("lam", [1, 3])
def test_field_eval0_at_odd_lambda_runs_in_ints(capsys, lam):
    # the tiny field-eval0 command: lambda^2/2 makes L(0) the one memo with den != 1
    _registry.cache_clear()
    argv = ["verify", "field-commutator", "--kind", "evaluation", "--c", "0",
            "--lambda=%d" % lam, "--a-max-wt", "1", "--a-max-nwt", "1", "--n-range=0..1",
            "--k-range=-1..1", "--max-wt", "2", "--max-nwt", "1"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    ops = operators(ModuleSpec.evaluation(1, 1, 0, (lam,)), 0)
    dens = memo_dens(ops)
    assert len(dens) > 10 and {key for key, den in dens.items() if den != 1} == {("L", 0)}
    assert dens[("L", 0)] == 2
    values = [
        coeff
        for family in compiled_columns(ops).values()
        for column in family.values()
        for _key, coeff in column
    ]
    assert len(values) > 50 and all(type(coeff) is int for coeff in values)
    # and the den is needed: some L(0) value is a half-integer
    assert any(coeff % 2 for column in ops._l[0].values() for _key, coeff in column)


ODD_LAMBDA = ModuleSpec.evaluation(1, 1, 0, (1,))
# L(0) vacuum -> x_{1,0,2} with coefficient 5/2, the numerator 5 over the den 2 of L(0)
EXTRA_IN_L0 = ((EMPTY, 0), (mono((1, 0, 2)), 0), Fraction(5, 2))
DEN_TWO_SWEEPS = {
    # [L(0), a(-1)] = a(-1): at the vacuum only -a(-1) L(0) reads the term
    "l-mode-commutator": lambda spec, tr: check_l_mode_commutator(0, (1, 0), -1, spec, tr),
    # the term has weight 2 where L(0) keeps the weight 0 of the vacuum
    "l0-grading": lambda spec, tr: check_l0_grading(spec, tr, [0]),
}


@pytest.mark.parametrize("sweep", DEN_TWO_SWEEPS.values(), ids=DEN_TWO_SWEEPS.keys())
def test_a_wrong_term_in_a_den_two_memo_gives_the_exact_defect(monkeypatch, sweep):
    label, key, coeff = EXTRA_IN_L0
    ops = _BadColumns(ODD_LAMBDA, ("L", 0), label, key, coeff, 0)
    assert ops.l_columns(0).den == 2
    monkeypatch.setattr(vertexops, "operators", lambda spec, j_max: ops)
    report = sweep(ODD_LAMBDA, Truncation(2, 1))
    assert type(report.max_defect) is Fraction and report.max_defect == Fraction(5, 2)
    assert report.counterexample == State.vacuum() and not report.defect_zero


TINY_VIRASORO = ["verify", "virasoro", "--max-wt", "2", "--max-nwt", "1",
                 "--m-range=-1..1", "--n-range=-1..1", "--threads", "1", "--format", "json"]


def test_memo_columns_are_immutable_pair_tuples(capsys):
    # fill the memos of the tiny field-eval0 and virasoro-adjoint commands, and every
    # L(n) of a Jordan top whose L(n >= 1) keeps int-first rationals over den 1
    _registry.cache_clear()
    assert cli.main(["verify", "field-commutator", "--kind", "evaluation", "--c", "0",
                     "--lambda=1", "--a-max-wt", "1", "--a-max-nwt", "1", "--n-range=0..1",
                     "--k-range=-1..1", "--max-wt", "2", "--max-nwt", "1",
                     "--threads", "1", "--format", "json"]) == 0
    for d in ("1", "2"):
        for level in ("1", "1/2", "-2"):
            assert cli.main(TINY_VIRASORO[:2] + ["--d", d, "--l=" + level] + TINY_VIRASORO[2:]) == 0
    capsys.readouterr()
    jordan = vertexops.Operators(JORDAN_TOPS["c1/3"], 2)
    ids = [jordan.intern(label) for label in module_basis(jordan.spec, 3, 2)]
    for n in range(-1, 6):
        for id_ in ids:
            jordan.l_columns(n)[id_]
    objects = [operators(ModuleSpec.evaluation(1, 1, 0, (1,)), 0), _registry(1), _registry(2),
               jordan]
    columns = empty = rationals = 0
    for ops in objects:
        known = len(ops._module.labels)
        for name, family in compiled_columns(ops).items():
            for path, column in family.items():
                memo = ops._l[path[0]] if name == "_l" else ops._vertex[path[0]][path[1]]
                unbounded = ops is jordan and name == "_l" and path[0] >= 1
                assert memo.den == 1 or not unbounded
                assert type(column) is tuple, (name, path)
                assert all(type(pair) is tuple and len(pair) == 2 for pair in column)
                keys = [key for key, _coeff in column]
                assert len(set(keys)) == len(keys) and all(0 <= key < known for key in keys)
                for _key, coeff in column:
                    assert coeff != 0, (name, path)
                    if unbounded:  # int-first: an int wherever integral
                        assert type(coeff) is int or coeff.denominator != 1
                        rationals += type(coeff) is not int
                    else:
                        assert type(coeff) is int, (name, path)
                if not column:
                    assert column == ()
                    empty += 1
                with pytest.raises(TypeError):
                    column[0] = (0, 1)
                columns += 1
    assert columns > 1000 and empty and rationals

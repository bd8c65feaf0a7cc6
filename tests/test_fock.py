"""Monomials, states, basis enumeration and single-mode actions."""

import gc
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from currentfock import (
    ModuleSpec,
    Monomial,
    NotHomogeneousError,
    RatMatrix,
    State,
    apply_mode,
    enumerate_basis,
    grading,
    mode,
    module_basis,
)
from currentfock.fock import _mode_column
from currentfock.vertexops import _registry, operators


def mono(*factors):
    return Monomial.make(factors)


def adjoint(d=1, l=1):
    return ModuleSpec.adjoint(d, l)


class TestEnumerateBasis:
    def test_vacuum_cell(self):
        assert enumerate_basis(1, 0, 0) == [Monomial()]

    def test_hand_enumerated_cell(self):
        found = {tuple(m) for m in enumerate_basis(1, 2, 3)}
        expected = {
            ((1, 2, 3),),
            ((1, 0, 1), (1, 2, 2)),
            ((1, 1, 1), (1, 1, 2)),
            ((1, 0, 2), (1, 2, 1)),
            ((1, 0, 1), (1, 0, 1), (1, 2, 1)),
            ((1, 0, 1), (1, 1, 1), (1, 1, 1)),
        }
        assert found == expected

    def test_positive_nwt_needs_positive_weight(self):
        assert enumerate_basis(1, 3, 0) == []

    def test_sorted_no_duplicates(self):
        for d in (1, 2):
            for m in range(4):
                for n in range(5):
                    basis = enumerate_basis(d, m, n)
                    assert basis == sorted(basis)
                    assert len(basis) == len(set(basis))
                    for item in basis:
                        assert item.nwt() == m and item.weight() == n

    def test_exhaustive_oracle_small_range(self):
        # independent oracle: multisets over all parts via combinations_with_replacement
        parts = [(1, j, n) for j in range(4) for n in range(1, 5)]
        for m in range(4):
            for n in range(5):
                count = 0
                for size in range(n + 1):
                    for combo in itertools.combinations_with_replacement(parts, size):
                        if (
                            sum(p[1] for p in combo) == m
                            and sum(p[2] for p in combo) == n
                        ):
                            count += 1
                assert len(enumerate_basis(1, m, n)) == count

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ordered_oracle(self, d):
        # independent oracle, order included: k factors of weight >= 1 that sum
        # to n weigh at most n - k + 1 each, and combinations_with_replacement
        # yields every multiset of them once, as a sorted tuple
        max_m, max_n = 4, 6
        for n in range(max_n + 1):
            by_nwt = {m: [] for m in range(max_m + 1)}
            for k in range(n + 1):
                parts = [
                    (i, j, nu)
                    for i in range(1, d + 1)
                    for j in range(max_m + 1)
                    for nu in range(1, n - k + 2)
                ]
                for combo in itertools.combinations_with_replacement(parts, k):
                    nwt = sum(p[1] for p in combo)
                    if sum(p[2] for p in combo) == n and nwt <= max_m:
                        by_nwt[nwt].append(Monomial(combo))
            for m in range(max_m + 1):
                assert enumerate_basis(d, m, n) == sorted(by_nwt[m])

    def test_callers_cannot_corrupt_the_basis(self):
        spec = ModuleSpec.evaluation(
            2, 1, 0, (0, 0), H=[[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
        )
        for fetch in (
            lambda: enumerate_basis(2, 2, 3),
            lambda: module_basis(spec, 3, 2),
        ):
            first = fetch()
            expected = list(first)
            first.reverse()
            first.append(None)
            assert fetch() == expected

    def test_a_dropped_basis_is_freed_without_the_cycle_collector(self):
        gc.collect()
        gc.disable()
        try:
            for d, m, n in ((1, 2, 5), (2, 2, 4), (3, 1, 3)):
                assert enumerate_basis(d, m, n)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGrading:
    def test_vacuum(self):
        # the vacuum of every top index, and the zero state, sit in bigrade (0, 0)
        for top in range(3):
            assert grading(State.vacuum(top)) == (0, 0)
        assert grading(State.zero()) == (0, 0)

    def test_paper_weight_and_nwt(self):
        s = State.term(mono((1, 0, 1), (1, 2, 3)))
        assert grading(s) == (4, 2)

    def test_mixed_nwt_rejected(self):
        s = State.term(mono((1, 0, 1))) + State.term(mono((1, 1, 1)))
        with pytest.raises(NotHomogeneousError):
            grading(s)


class TestApplyMode:
    def test_pure_creation(self):
        out = apply_mode(mode(1, 0, -2), State.vacuum(), adjoint())
        assert out == State.term(mono((1, 0, 2)))

    def test_bracket_on_vacuum(self):
        # [a(2), a(-2)] = 2l on the vacuum, with l = 3
        spec = adjoint(l=3)
        up = apply_mode(mode(1, 0, -2), State.vacuum(), spec)
        down = apply_mode(mode(1, 0, 2), up, spec)
        assert down == State.vacuum().scale(6)

    def test_zero_mode_scalar(self):
        spec = ModuleSpec.evaluation(1, 1, Fraction(1, 2), (3,))
        out = apply_mode(mode(1, 2, 0), State.vacuum(), spec)
        assert out == State.vacuum().scale(Fraction(3, 4))

    def test_zero_mode_on_adjoint_vanishes(self):
        assert apply_mode(mode(1, 2, 0), State.term(mono((1, 0, 1))), adjoint()).is_zero()

    def test_color_out_of_range(self):
        with pytest.raises(ValueError):
            apply_mode(mode(2, 0, 1), State.vacuum(), adjoint(d=1))

    def test_annihilation_respects_multiplicity(self):
        spec = adjoint(l=2)
        s = State.term(mono((1, 0, 1), (1, 0, 1), (1, 0, 1)))
        out = apply_mode(mode(1, 0, 1), s, spec)
        assert out == State.term(mono((1, 0, 1), (1, 0, 1)), coeff=6)


@pytest.mark.parametrize(
    "l, n, mult, value",
    [
        (Fraction(1, 2), 2, 1, 1),
        (Fraction(1, 2), 1, 2, 1),
        (Fraction(1, 2), 1, 1, Fraction(1, 2)),
        (Fraction(1, 3), 1, 1, Fraction(1, 3)),
        (Fraction(-2, 3), 3, 2, -4),
        (Fraction(-2, 3), 2, 1, Fraction(-4, 3)),
        (Fraction(3), 2, 3, 18),
    ],
)
def test_annihilation_value_is_an_int_wherever_integral(l, n, mult, value):
    # n*l*mult, exact: an int when integral, else a Fraction in lowest terms
    label = mono(*[(1, 0, n)] * mult, (2, 1, 1))
    column = _mode_column(ModuleSpec.adjoint(2, l), 1, 0, n, label, 0)
    assert column == {(label.without(1, 0, n), 0): value}
    assert type(column[label.without(1, 0, n), 0]) is type(value)


def random_state(rng, spec, max_wt=3, max_nwt=2, terms=2):
    labels = module_basis(spec, max_wt, max_nwt)
    chosen = rng.sample(labels, min(terms, len(labels)))
    return State(
        {
            key: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for key in chosen
        }
    )


@pytest.mark.parametrize("seed", range(8))
def test_mode_commutator_relation(seed):
    # [a(m), b(n)] = m l [m+n=0][i=i'][j=j'] on arbitrary states
    rng = random.Random(seed)
    spec = ModuleSpec.evaluation(2, Fraction(3, 2), Fraction(1, 3), (1, 0))
    w = random_state(rng, spec)
    for _ in range(6):
        i1, j1, m = rng.randint(1, 2), rng.randint(0, 2), rng.choice([-2, -1, 1, 2])
        i2, j2, n = rng.randint(1, 2), rng.randint(0, 2), rng.choice([-2, -1, 0, 1, 2])
        a, b = mode(i1, j1, m), mode(i2, j2, n)
        lhs = apply_mode(a, apply_mode(b, w, spec), spec) - apply_mode(
            b, apply_mode(a, w, spec), spec
        )
        expected = (
            w.scale(m * spec.l)
            if (m + n == 0 and i1 == i2 and j1 == j2)
            else State.zero()
        )
        assert lhs == expected


def test_zero_modes_commute_with_everything():
    spec = ModuleSpec.evaluation(
        1, 1, Fraction(1, 2), (1,), H=[RatMatrix([[1, 1], [0, 1]])]
    )
    w = State.term(mono((1, 1, 2)), top=1) + State.term(mono((1, 0, 1)), top=0)
    z = mode(1, 1, 0)
    for other in [mode(1, 1, -2), mode(1, 1, 2), mode(1, 0, 0)]:
        lhs = apply_mode(z, apply_mode(other, w, spec), spec)
        rhs = apply_mode(other, apply_mode(z, w, spec), spec)
        assert lhs == rhs


def test_restricted_axiom_only_finitely_many_j_act():
    # for fixed w and n > 0, (u t^j)(n) w != 0 for only finitely many j
    spec = adjoint()
    w = State.term(mono((1, 0, 2), (1, 3, 2)))
    nonzero = [
        j for j in range(50) if not apply_mode(mode(1, j, 2), w, spec).is_zero()
    ]
    assert nonzero == [0, 3]


def test_bigrade_shifts():
    spec = ModuleSpec.evaluation(1, 1, Fraction(1, 2), (2,))
    w = State.term(mono((1, 1, 2)))
    assert grading(apply_mode(mode(1, 2, -3), w, spec)) == (5, 3)
    assert grading(apply_mode(mode(1, 1, 2), w, spec)) == (0, 0)
    assert grading(apply_mode(mode(1, 1, 0), w, spec)) == (2, 1)


class TestModuleSpec:
    def test_equal_specs_share_cache_entries(self):
        def build():
            return ModuleSpec.evaluation(
                1, Fraction(7, 11), Fraction(2, 13), (1,), H=[[[1, 1], [0, 1]]]
            )

        first, second = build(), build()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert operators(first, 0) is operators(second, 0)
        assert _registry.cache_info().maxsize is not None

    @pytest.mark.parametrize(
        "build, other, shown",
        [
            (
                lambda: ModuleSpec.adjoint(1, 1),
                ModuleSpec.adjoint(1, 2),
                "ModuleSpec(kind='adjoint', d=1, l=Fraction(1, 1), c=None, r=1, "
                "lam=(Fraction(0, 1),), H=(RatMatrix([['0']]),))",
            ),
            (
                lambda: ModuleSpec.evaluation(
                    2, Fraction(1, 2), Fraction(1, 3), (1, 1), H=[[[1, 1], [0, 1]], [[1, 0], [0, 1]]]
                ),
                ModuleSpec.evaluation(
                    2, Fraction(1, 2), Fraction(1, 4), (1, 1), H=[[[1, 1], [0, 1]], [[1, 0], [0, 1]]]
                ),
                "ModuleSpec(kind='evaluation', d=2, l=Fraction(1, 2), c=Fraction(1, 3), r=2, "
                "lam=(Fraction(1, 1), Fraction(1, 1)), H=(RatMatrix([['1', '1'], ['0', '1']]), "
                "RatMatrix([['1', '0'], ['0', '1']])))",
            ),
        ],
        ids=["adjoint", "jordan"],
    )
    def test_pickle_roundtrip(self, build, other, shown):
        spec = build()
        payload = pickle.dumps(spec)
        loaded = pickle.loads(payload)
        assert loaded == spec and hash(loaded) == hash(spec)
        assert loaded.H == spec.H and hash(loaded.H[0]) == hash(spec.H[0])
        # no hash is pickled: a string hashes differently in another process
        assert b"_hash" not in payload
        # the value semantics of the registry key: other differs in l (adjoint) or c
        assert repr(spec) == shown
        again = build()
        assert again is not spec and again == spec and hash(again) == hash(spec)
        assert spec != other and other != spec
        assert spec != (spec.kind, spec.d, spec.l, spec.c, spec.r, spec.lam, spec.H)
        with pytest.raises(AttributeError):
            spec.l = Fraction(2)
        with pytest.raises(AttributeError):
            del spec.c
        assert spec == again

    def test_level_must_be_nonzero(self):
        with pytest.raises(ValueError):
            ModuleSpec.adjoint(1, 0)

    def test_noncommuting_tops_rejected(self):
        a = RatMatrix([[0, 1], [0, 0]])
        b = RatMatrix([[0, 0], [1, 0]])
        with pytest.raises(ValueError):
            ModuleSpec.evaluation(2, 1, 0, (0, 0), H=[a, b])

    def test_wrong_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            ModuleSpec.evaluation(1, 1, 0, (2,), H=[RatMatrix([[1, 1], [0, 1]])])

    def test_non_nilpotent_rejected(self):
        # distinct eigenvalues 1 and 2: (H - I) is not nilpotent
        with pytest.raises(ValueError):
            ModuleSpec.evaluation(1, 1, 0, (1,), H=[RatMatrix([[1, 0], [0, 2]])])

    def test_json_roundtrip(self):
        spec = ModuleSpec.evaluation(
            2,
            Fraction(-1, 2),
            Fraction(1, 3),
            (1, Fraction(2, 3)),
            H=[
                RatMatrix([[1, 1], [0, 1]]),
                RatMatrix([[Fraction(2, 3), 0], [0, Fraction(2, 3)]]),
            ],
        )
        assert ModuleSpec.from_json(spec.to_json()) == spec
        adj = ModuleSpec.adjoint(2, Fraction(1, 2))
        assert ModuleSpec.from_json(adj.to_json()) == adj


def test_state_json_roundtrip():
    s = State(
        {
            (mono((1, 0, 1), (1, 2, 2)), 0): Fraction(-3, 4),
            (mono((1, 1, 1)), 1): Fraction(7),
        }
    )
    assert State.from_json(s.to_json()) == s
    assert State.from_json(State.zero().to_json()).is_zero()


@pytest.mark.parametrize("data", [[1], {"a": 1}, "x", [None]], ids=repr)
def test_a_state_term_is_a_json_object(data):
    # each item of the state's JSON list is a term object; anything else is bad input
    with pytest.raises(ValueError, match="a state term must be a JSON object"):
        State.from_json(data)


@pytest.mark.parametrize(
    "factor",
    [(1, 0, 1.5), (1, 0, 2.0), (1.0, 0, 1), (1, True, 1), (0, 0, 1), (1, -1, 1), (1, 0, 0)],
    ids=str,
)
def test_monomial_indices_are_ints_in_range(factor):
    # a float or bool index would be carried into the coefficients as a non-rational
    with pytest.raises(ValueError, match="invalid creation variable") as err:
        Monomial.make([factor])
    assert str(err.value).endswith(repr(factor))  # so 1.5 is not shown as 1
    with pytest.raises(ValueError, match="invalid creation variable"):
        State.from_json([{"mono": [list(factor)], "coeff": "1"}])


@pytest.mark.parametrize("top", [False, True, 0.0, 1.0, -1, "0", None], ids=repr)
def test_top_index_is_a_nonnegative_int(top):
    # as for a monomial's indices: a bool or float top would pass `top != 0` checks
    with pytest.raises(ValueError, match="invalid top index"):
        State.from_json([{"mono": [[1, 0, 1]], "top": top, "coeff": "1"}])
    assert State.from_json([{"mono": [[1, 0, 1]], "top": 2, "coeff": "1"}]).terms == {
        (mono((1, 0, 1)), 2): 1
    }

"""Evaluation actions, Casimir scalars, vacuum spaces and Hom dimensions."""

import itertools
import random
from fractions import Fraction

import pytest

from currentfock import (
    HomProblem,
    ModuleSpec,
    RatMatrix,
    State,
    TopSpace,
    Truncation,
    apply_mode,
    casimir_partial,
    casimir_scalar,
    enumerate_basis,
    eval_action,
    grading,
    intertwiner_dim,
    is_genuine_logarithmic,
    jordan_structure,
    l0_top_matrix,
    mode,
    module_basis,
    rank_nullspace,
    vacuum_space,
)
from currentfock import repcat
from test_exactmath import dense_kernel


class TestEvalAction:
    def test_constant_polynomial(self):
        top = TopSpace.scalar((5,))
        assert eval_action((1, 0), [(0, 1)], top, Fraction(7)) == RatMatrix([[5]])

    def test_square_power(self):
        top = TopSpace.scalar((3,))
        assert eval_action((1, 2), [(2, 1)], top, Fraction(1, 2)) == RatMatrix(
            [[Fraction(3, 4)]]
        )

    def test_vanishing_at_zero(self):
        top = TopSpace(2, (1,), (RatMatrix([[1, 1], [0, 1]]),))
        assert eval_action((1, 1), [(1, 1)], top, 0).is_zero()

    def test_general_polynomial(self):
        # f = 2 + 3t^2 at c = 1/2 gives f(c) = 11/4
        top = TopSpace.scalar((1,))
        out = eval_action((1, 0), [(0, 2), (2, 3)], top, Fraction(1, 2))
        assert out == RatMatrix([[Fraction(11, 4)]])


class TestCasimir:
    def test_paper_scalar(self):
        assert casimir_scalar((1, 1), Fraction(1, 2)) == Fraction(8, 3)

    def test_zero_lambda(self):
        assert casimir_scalar((0, 0), Fraction(1, 3)) == 0

    def test_no_tail_at_zero(self):
        assert casimir_scalar((3,), 0) == 9

    def test_partial_two_terms(self):
        assert casimir_partial((1,), Fraction(1, 2), 1) == Fraction(5, 4)

    def test_partial_at_zero(self):
        for J in range(5):
            assert casimir_partial((1,), 0, J) == 1

    def test_partial_three_terms(self):
        assert casimir_partial((2,), Fraction(1, 3), 2) == Fraction(364, 81)

    def test_c_squared_one_rejected(self):
        for c in (1, -1):
            with pytest.raises(ValueError):
                casimir_scalar((1,), c)

    @pytest.mark.parametrize("c", [0, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5)])
    @pytest.mark.parametrize("lam", [(0,), (1,), (2, 1), (Fraction(1, 2), 3)])
    def test_geometric_identities(self, c, lam):
        norm = sum(Fraction(x) ** 2 for x in lam)
        for J in range(8):
            partial = casimir_partial(lam, c, J)
            assert partial == norm * (1 - Fraction(c) ** (2 * J + 2)) / (1 - Fraction(c) ** 2)
            tail = casimir_scalar(lam, c) - partial
            assert tail == norm * Fraction(c) ** (2 * J + 2) / (1 - Fraction(c) ** 2)


class TestVacuumSpace:
    def test_adjoint_vacuum(self):
        spec = ModuleSpec.adjoint(1, 1)
        states = vacuum_space(spec, Truncation(4, 2))
        assert len(states) == 1
        assert states[0] == State.vacuum()

    def test_irreducible_evaluation_module(self):
        spec = ModuleSpec.evaluation(1, 1, Fraction(1, 2), (2,))
        states = vacuum_space(spec, Truncation(4, 3))
        assert len(states) == 1
        assert grading(states[0]) == (0, 0)

    def test_logarithmic_module_r2(self):
        spec = ModuleSpec.evaluation(
            1, 1, Fraction(1, 3), (1,), H=[RatMatrix([[1, 1], [0, 1]])]
        )
        states = vacuum_space(spec, Truncation(3, 2))
        assert len(states) == 2
        for s in states:
            assert grading(s) == (0, 0)

    def test_multicolor_module(self):
        spec = ModuleSpec.evaluation(2, Fraction(1, 2), 0, (1, 2))
        states = vacuum_space(spec, Truncation(3, 2))
        assert len(states) == 1

    def test_vacuum_vectors_are_killed_by_annihilation(self):
        spec = ModuleSpec.evaluation(
            1, 2, 0, (0,), H=[RatMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])]
        )
        states = vacuum_space(spec, Truncation(3, 2))
        assert len(states) == 3
        for s in states:
            for j in range(3):
                for n in range(1, 4):
                    assert apply_mode(mode(1, j, n), s, spec).is_zero()


def whole_matrix_vacuum(spec, tr):
    """Independent oracle: one stacked matrix over the whole truncated basis.

    Every annihilation mode within tr is applied to every basis state; the
    images fill one dense matrix (one row per mode and output label, one
    column per basis label).  Its canonical nullspace is read at once off the
    dense Gauss-Jordan form of the test-only `dense_rref`, with no use of the
    bigrading and none of the package's elimination.
    """
    basis = module_basis(spec, tr.max_wt, tr.max_nwt)
    index = {label: pos for pos, label in enumerate(basis)}
    size = len(basis)
    rows = []
    for i in range(1, spec.d + 1):
        for j in range(tr.max_nwt + 1):
            for n in range(1, tr.max_wt + 1):
                block = {}
                for col, (mono, top) in enumerate(basis):
                    image = apply_mode(mode(i, j, n), State.term(mono, top), spec)
                    for key, coeff in image.terms.items():
                        block.setdefault(index[key], [Fraction(0)] * size)[col] = coeff
                rows.extend(block[pos] for pos in sorted(block))
    return [
        State({basis[pos]: coeff for pos, coeff in vec.items()})
        for vec in dense_kernel(rows, size)
    ]


VACUUM_SPECS = {
    "adjoint-d1": ModuleSpec.adjoint(1, 1),
    "adjoint-d2": ModuleSpec.adjoint(2, Fraction(1, 2)),
    "adjoint-d2-l-2/3": ModuleSpec.adjoint(2, Fraction(-2, 3)),
    "scalar-eval": ModuleSpec.evaluation(1, 1, Fraction(1, 2), (2,)),
    "jordan-r2-c1/3": ModuleSpec.evaluation(
        2, 1, Fraction(1, 3), (1, 1), H=[[[1, 1], [0, 1]], [[1, 0], [0, 1]]]
    ),
    "r3-c2": ModuleSpec.evaluation(
        1, 2, 2, (1,), H=[[[1, 1, 0], [0, 1, 1], [0, 0, 1]]]
    ),
    "nilpotent-d2-c0": ModuleSpec.evaluation(
        2, 1, 0, (0, 0), H=[[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
    ),
}


@pytest.mark.parametrize("tr", [(0, 0), (2, 1), (3, 2), (4, 1)], ids=str)
@pytest.mark.parametrize("name", sorted(VACUUM_SPECS))
def test_vacuum_space_matches_whole_matrix_oracle(name, tr):
    spec, tr = VACUUM_SPECS[name], Truncation(*tr)
    expected = [s.to_json() for s in whole_matrix_vacuum(spec, tr)]
    assert [s.to_json() for s in vacuum_space(spec, tr)] == expected


def test_vacuum_space_reads_each_monomial_under_its_own_variables_only(monkeypatch):
    # a(n), n > 0, kills every monomial without x_{i,j,n}: no other mode is applied
    spec = VACUUM_SPECS["jordan-r2-c1/3"]
    calls = []
    read = repcat._mode_column

    def counted(spec, i, j, n, mono, top):
        calls.append((mono, (i, j, n)))
        return read(spec, i, j, n, mono, top)

    monkeypatch.setattr(repcat, "_mode_column", counted)
    assert len(vacuum_space(spec, Truncation(2, 1))) == 2
    pairs = [
        (m, var)
        for wt, nwt in itertools.product(range(3), range(2))
        for m in enumerate_basis(2, nwt, wt)
        for var, _mult in m.distinct()
    ]
    assert sorted(calls) == sorted(pairs)
    # the scan of every mode over every monomial made 80 calls here
    assert len(calls) == 20


class TestL0TopMatrix:
    def test_scalar_case(self):
        spec = ModuleSpec.evaluation(1, 1, Fraction(1, 2), (2,))
        assert l0_top_matrix(spec) == RatMatrix([[Fraction(8, 3)]])

    def test_nilpotent_square_vanishes(self):
        spec = ModuleSpec.evaluation(1, 1, 0, (0,), H=[RatMatrix([[0, 1], [0, 0]])])
        assert l0_top_matrix(spec).is_zero()

    def test_jordan_block_squares(self):
        spec = ModuleSpec.evaluation(
            1, Fraction(1, 2), 0, (1,), H=[RatMatrix([[1, 1], [0, 1]])]
        )
        assert l0_top_matrix(spec) == RatMatrix([[1, 2], [0, 1]])

    def test_adjoint_rejected(self):
        with pytest.raises(ValueError):
            l0_top_matrix(ModuleSpec.adjoint(1, 1))

    def test_c_squared_one_rejected(self):
        # constructing a module at c = -1 is fine; only the geometric sum refuses it
        spec = ModuleSpec.evaluation(1, 1, -1, (1,))
        with pytest.raises(ValueError):
            l0_top_matrix(spec)


class TestGenuineLogarithmic:
    def test_jordan_block_with_nonzero_lambda(self):
        spec = ModuleSpec.evaluation(1, 1, 0, (1,), H=[RatMatrix([[1, 1], [0, 1]])])
        genuine, blocks = is_genuine_logarithmic(spec)
        assert genuine and blocks == [2]

    def test_nilpotent_with_zero_lambda_degenerates(self):
        spec = ModuleSpec.evaluation(1, 1, 0, (0,), H=[RatMatrix([[0, 1], [0, 0]])])
        genuine, blocks = is_genuine_logarithmic(spec)
        assert not genuine and blocks == [1, 1]

    def test_scalar_tops_never_genuine(self):
        for lam in [(0,), (1,), (Fraction(-2, 3),)]:
            spec = ModuleSpec.evaluation(1, 1, Fraction(1, 2), lam)
            genuine, blocks = is_genuine_logarithmic(spec)
            assert not genuine and blocks == [1]

    def test_blocks_match_jordan_structure_of_l0(self):
        spec = ModuleSpec.evaluation(
            1, Fraction(3, 2), Fraction(1, 2), (2,), H=[RatMatrix([[2, 1], [0, 2]])]
        )
        genuine, blocks = is_genuine_logarithmic(spec)
        eigen = Fraction(4) / (2 * Fraction(3, 2) * (1 - Fraction(1, 4)))
        assert blocks == jordan_structure(l0_top_matrix(spec), eigen)
        assert genuine

    def test_flag_equivalent_to_unscaled_operator(self):
        # L(0)|top is a nonzero multiple of sum H_i^2, so the genuine flag can
        # be read off the unscaled operator at eigenvalue <lam, lam>
        cases = [
            ModuleSpec.evaluation(1, 1, 0, (1,), H=[RatMatrix([[1, 1], [0, 1]])]),
            ModuleSpec.evaluation(1, -2, Fraction(1, 2), (0,), H=[RatMatrix([[0, 1], [0, 0]])]),
            ModuleSpec.evaluation(2, Fraction(1, 2), Fraction(1, 3), (1, 1)),
            ModuleSpec.evaluation(
                1, 1, Fraction(1, 2), (2,), H=[RatMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 2]])]
            ),
        ]
        for spec in cases:
            total = RatMatrix.zero(spec.r, spec.r)
            for H in spec.H:
                total = total + H * H
            norm = sum(x**2 for x in spec.lam)
            unscaled = jordan_structure(total, norm)
            genuine, blocks = is_genuine_logarithmic(spec)
            assert genuine == any(size >= 2 for size in unscaled)
            assert blocks == unscaled


def brute_force_hom_dim(problem):
    """Independent oracle: assemble the constraints via Kronecker products.

    vec(T) is ordered with the source index fastest; the constraint for
    color i is (I (x) I (x) H1^T - H3 (x) I (x) I + I (x) H2^T (x) I) vec(T) = 0.
    """

    def kron(a, b):
        rows = []
        for ra in a.entries:
            for rb in b.entries:
                rows.append([x * y for x in ra for y in rb])
        return RatMatrix(rows, cols=a.cols * b.cols)

    src, mid, tgt = problem.source, problem.middle, problem.target
    i1, i2, i3 = (RatMatrix.identity(t.r) for t in (src, mid, tgt))
    stacked = []
    for i in range(src.d):
        m = (
            kron(kron(i3, i2), src.H[i].transpose())
            - kron(kron(tgt.H[i], i2), i1)
            + kron(kron(i3, mid.H[i].transpose()), i1)
        )
        stacked.extend(m.entries)
    matrix = RatMatrix(stacked, cols=src.r * mid.r * tgt.r)
    _rank, kernel = rank_nullspace(matrix)
    return len(kernel)


class TestIntertwinerDim:
    def test_selection_rule_holds(self):
        p = HomProblem(
            TopSpace.scalar((1,)), TopSpace.scalar((1,)), TopSpace.scalar((2,))
        )
        assert intertwiner_dim(p) == 1

    def test_selection_rule_fails(self):
        p = HomProblem(
            TopSpace.scalar((1,)), TopSpace.scalar((1,)), TopSpace.scalar((3,))
        )
        assert intertwiner_dim(p) == 0

    def test_jordan_triple(self):
        p = HomProblem(
            TopSpace(2, (1,), (RatMatrix([[1, 1], [0, 1]]),)),
            TopSpace.scalar((1,)),
            TopSpace(2, (2,), (RatMatrix([[2, 1], [0, 2]]),)),
        )
        assert intertwiner_dim(p) == 2

    def test_mismatched_d_rejected(self):
        with pytest.raises(ValueError):
            HomProblem(
                TopSpace.scalar((1,)), TopSpace.scalar((1, 0)), TopSpace.scalar((2,))
            )

    def test_selection_rule_multicolor(self):
        for l1, l2, l3 in itertools.product([(0, 1), (1, 0), (1, 1)], repeat=3):
            p = HomProblem(
                TopSpace.scalar(l1), TopSpace.scalar(l2), TopSpace.scalar(l3)
            )
            expected = int(all(a + b == c for a, b, c in zip(l1, l2, l3)))
            assert intertwiner_dim(p) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_kronecker_oracle(self, seed):
        rng = random.Random(seed)

        def random_top():
            r = rng.randint(1, 2)
            lam = Fraction(rng.randint(-2, 2))
            if r == 1:
                return TopSpace.scalar((lam,))
            h = RatMatrix([[lam, Fraction(rng.randint(0, 1))], [0, lam]])
            return TopSpace(2, (lam,), (h,))

        p = HomProblem(random_top(), random_top(), random_top())
        assert intertwiner_dim(p) == brute_force_hom_dim(p)

    @pytest.mark.parametrize("seed", range(10))
    def test_transpose_symmetry(self, seed):
        # dualizing source and target (transposed H, negated middle) keeps the dim
        rng = random.Random(200 + seed)

        def random_top():
            r = rng.randint(1, 2)
            lam = Fraction(rng.randint(-2, 2))
            if r == 1:
                return TopSpace.scalar((lam,))
            h = RatMatrix([[lam, Fraction(rng.randint(0, 1))], [0, lam]])
            return TopSpace(2, (lam,), (h,))

        def dual(top):
            return TopSpace(
                top.r,
                tuple(x for x in top.lam),
                tuple(h.transpose() for h in top.H),
            )

        def negated(top):
            return TopSpace(
                top.r,
                tuple(-x for x in top.lam),
                tuple(h.scale(-1) for h in top.H),
            )

        src, mid, tgt = random_top(), random_top(), random_top()
        direct = HomProblem(src, mid, tgt)
        flipped = HomProblem(dual(tgt), negated(mid), dual(src))
        assert intertwiner_dim(direct) == intertwiner_dim(flipped)
        assert intertwiner_dim(flipped) == brute_force_hom_dim(flipped)

    @pytest.mark.parametrize(
        "lams",
        [(0, 0, 0), (1, 2, 3), (Fraction(1, 2), Fraction(1, 3), Fraction(5, 6)), (1, 1, 3)],
        ids=["zero", "integral", "fractional", "off-sum"],
    )
    def test_d1_matches_clebsch_gordan_closed_form(self, lams):
        # at d = 1 the maps are Hom(Omega_1 (x) Omega_2, Omega_3) over C[x], x acting
        # as H1 (x) 1 + 1 (x) H2; on J_a (x) J_b its nilpotent part has Jordan type
        # J_{a+b+1-2i}, i = 1..min(a, b), and dim Hom(J_p, J_q) = min(p, q)
        jordan_types = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]

        def top(blocks, lam):
            r = sum(blocks)
            starts = {sum(blocks[:k]) for k in range(len(blocks))}
            rows = [
                [lam if a == b else int(b == a + 1 and b not in starts) for b in range(r)]
                for a in range(r)
            ]
            return TopSpace(r, (lam,), (RatMatrix(rows),))

        l1, l2, l3 = lams
        for p1, p2, p3 in itertools.product(jordan_types, repeat=3):
            expected = 0
            if l1 + l2 == l3:
                expected = sum(
                    min(a + b + 1 - 2 * i, c)
                    for a in p1
                    for b in p2
                    for c in p3
                    for i in range(1, min(a, b) + 1)
                )
            p = HomProblem(top(p1, l1), top(p2, l2), top(p3, l3))
            assert intertwiner_dim(p) == expected, (p1, p2, p3)

    def test_hom_problem_json_roundtrip(self):
        p = HomProblem(
            TopSpace(2, (1,), (RatMatrix([[1, 1], [0, 1]]),)),
            TopSpace.scalar((1,)),
            TopSpace.scalar((2,)),
        )
        assert HomProblem.from_json(p.to_json()) == p


class TestTopSpace:
    def test_json_roundtrip(self):
        top = TopSpace(2, (Fraction(1, 2),), (RatMatrix([["1/2", 1], [0, "1/2"]]),))
        assert TopSpace.from_json(top.to_json()) == top

    def test_validation(self):
        with pytest.raises(ValueError):
            TopSpace(2, (1,), (RatMatrix([[1, 0], [0, 2]]),))

"""Dimension tables, Pochhammer expansions, strong grading and C1 quotients."""

from fractions import Fraction

import pytest

from currentfock import (
    ModuleSpec,
    Monomial,
    RatMatrix,
    State,
    Truncation,
    bipartite_count,
    bipartite_table,
    c1_quotient_dims,
    check_strong_grading,
    count_basis,
    count_table,
    enumerate_basis,
    gf_paper_ct,
    gf_product_count,
    module_basis,
    partitions_exact_parts,
    partitions_nonneg_parts,
    vertex_mode,
)
from currentfock.dims import DimTable, LaurentSeries2, validate_dimension_table
from currentfock.exactmath import rank

PARTITION_NUMBERS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def mono(*factors):
    return Monomial.make(factors)


class TestBipartiteCount:
    def test_ordinary_partitions_row(self):
        for n, p_n in enumerate(PARTITION_NUMBERS):
            assert bipartite_count(1, 0, n) == p_n

    def test_hand_cases(self):
        assert bipartite_count(1, 0, 4) == 5
        assert bipartite_count(1, 1, 2) == 2
        assert bipartite_count(1, 2, 3) == 6

    def test_one_table_answers_every_cell(self):
        for d in (1, 2, 3):
            table = bipartite_table(d, 6, 3)
            for m in range(4):
                for n in range(7):
                    count = len(enumerate_basis(d, m, n))
                    assert table.get(m, n) == bipartite_count(d, m, n) == count

    def test_matches_enumeration(self):
        for d in (1, 2):
            for m in range(5):
                for n in range(6):
                    assert bipartite_count(d, m, n) == len(enumerate_basis(d, m, n))

    def test_count_walk_matches_enumeration_and_dp(self):
        # n = 0 is covered, with m > 0 there too
        for d in (1, 2, 3):
            for m in range(5):
                for n in range(8):
                    count = count_basis(d, m, n)
                    assert count == len(enumerate_basis(d, m, n)) == bipartite_count(d, m, n)

    @pytest.mark.parametrize("cell", [(0, 1, 1), (1, -1, 2), (1, 2, -1)])
    def test_count_walk_refuses_what_enumeration_refuses(self, cell):
        for walk in (enumerate_basis, count_basis, count_table):
            with pytest.raises(ValueError, match="needs d >= 1 and m, n >= 0"):
                walk(*cell)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_box_walk_matches_enumeration_cell_by_cell(self, d):
        # boxes with no weight, no nwt and neither, beside boxes with both
        for max_nwt, max_wt in [(0, 0), (3, 0), (0, 6), (2, 5), (4, 3)]:
            counts = count_table(d, max_nwt, max_wt)
            assert [len(row) for row in counts] == [max_wt + 1] * (max_nwt + 1)
            for m in range(max_nwt + 1):
                for n in range(max_wt + 1):
                    assert counts[m][n] == len(enumerate_basis(d, m, n))

    def test_monotone_in_colors(self):
        for m in range(4):
            for n in range(1, 5):
                assert bipartite_count(2, m, n) >= bipartite_count(1, m, n)

    def test_triple_agreement_full_range(self):
        # enumeration, dynamic program and Euler product agree cell by cell
        for d in (1, 2):
            table = gf_product_count(d, 10, 8)
            for m in range(9):
                for n in range(11):
                    count = bipartite_count(d, m, n)
                    assert count == len(enumerate_basis(d, m, n)) == table.get(m, n)


class TestEulerProduct:
    def test_empty_product_cell(self):
        for d in (1, 2, 3):
            assert gf_product_count(d, 3, 2).get(0, 0) == 1

    @pytest.mark.parametrize(
        "table",
        [
            lambda: gf_product_count(0, 2, 1),
            lambda: gf_product_count(1, -1, 1),
            lambda: gf_paper_ct(-1, 2),
        ],
        ids=["product-no-colors", "product-negative-weight", "paper-negative-weight"],
    )
    def test_bad_bounds_rejected(self, table):
        with pytest.raises(ValueError, match="needs d >= 1 and nonnegative bounds"):
            table()

    def test_partition_column(self):
        table = gf_product_count(1, 6, 3)
        for n in range(7):
            assert table.get(0, n) == PARTITION_NUMBERS[n]

    def test_hand_cell(self):
        assert gf_product_count(1, 4, 3).get(2, 3) == 6

    def test_agrees_with_dp_everywhere(self):
        for d in (1, 2):
            table = gf_product_count(d, 5, 4)
            for m in range(5):
                for n in range(6):
                    assert table.get(m, n) == bipartite_count(d, m, n)

    def test_structural_invariants(self):
        validate_dimension_table(gf_product_count(2, 4, 4))


class TestPaperConstantTerm:
    def test_partition_row(self):
        table = gf_paper_ct(6, 3)
        assert table.get(0, 4) == 5

    def test_hand_cell_one_two(self):
        assert gf_paper_ct(4, 2).get(1, 2) == 2

    def test_known_discrepancy_cell(self):
        # the constant term gives 5 at (2, 3) while the monomial count is 6
        table = gf_paper_ct(5, 4)
        assert table.get(2, 3) == 5
        assert bipartite_count(1, 2, 3) == 6

    def test_matches_pochhammer_pairing(self):
        table = gf_paper_ct(7, 5)
        for m in range(6):
            for n in range(8):
                expected = sum(
                    partitions_exact_parts(k, n) * partitions_nonneg_parts(k, m)
                    for k in range(n + 1)
                )
                assert table.get(m, n) == expected


class TestPartitionHelpers:
    def test_exact_parts_values(self):
        assert partitions_exact_parts(0, 0) == 1
        assert partitions_exact_parts(2, 5) == 2  # 4+1, 3+2
        assert partitions_exact_parts(3, 3) == 1
        assert partitions_exact_parts(4, 3) == 0

    def test_nonneg_parts_values(self):
        assert partitions_nonneg_parts(1, 2) == 1
        assert partitions_nonneg_parts(2, 2) == 2  # 2+0, 1+1
        assert partitions_nonneg_parts(3, 2) == 2  # 2+0+0, 1+1+0
        assert partitions_nonneg_parts(0, 0) == 1
        assert partitions_nonneg_parts(0, 1) == 0

    def test_column_sums_give_partition_numbers(self):
        for n in range(1, 11):
            total = sum(partitions_exact_parts(k, n) for k in range(n + 1))
            assert total == PARTITION_NUMBERS[n]


class TestLaurentSeries:
    def test_geometric_expansion(self):
        series = LaurentSeries2.one(4, 0).mul_geometric(0, 1, 0)
        for t in range(5):
            assert series.coefficients[(0, t, 0)] == 1

    def test_x_bounds_clamp(self):
        series = LaurentSeries2.one(2, 2, xmin=-1, xmax=1).mul_geometric(1, 0, 0)
        assert set(series.coefficients) == {(0, 0, 0), (1, 0, 0)}

    def test_bad_factor_rejected(self):
        with pytest.raises(ValueError):
            LaurentSeries2.one(2, 2).mul_geometric(0, 0, 0)

    def test_every_coefficient_is_an_int(self):
        # every factor is a geometric series with coefficient 1: no Fraction, no float
        series = LaurentSeries2.one(3, 2, xmin=-2, xmax=2)
        for factor in [(0, 1, 0), (1, 0, 1), (-1, 2, 0), (0, 1, 1)]:
            series = series.mul_geometric(*factor)
        tables = [gf_product_count(d, 6, 4) for d in (1, 2, 3)] + [gf_paper_ct(6, 4)]
        values = [v for table in tables for _, v in table.cells()]
        values += series.coefficients.values()
        assert values and all(type(v) is int for v in values)


class TestStrongGrading:
    def test_identity_label_trivial(self):
        spec = ModuleSpec.adjoint(1, 1)
        rep = check_strong_grading(
            spec, Truncation(3, 2), [(State.vacuum(), j) for j in range(-2, 3)]
        )
        assert rep.defect_zero

    def test_nwt_two_label_on_adjoint(self):
        spec = ModuleSpec.adjoint(1, 1)
        rep = check_strong_grading(
            spec, Truncation(4, 2), [(State.term(mono((1, 2, 1))), -1)]
        )
        assert rep.defect_zero and rep.states_checked > 0

    def test_annihilating_label_on_evaluation_module(self):
        spec = ModuleSpec.evaluation(1, 1, 0, (1,))
        rep = check_strong_grading(
            spec, Truncation(4, 3), [(State.term(mono((1, 1, 2))), 1)]
        )
        assert rep.defect_zero

    def test_full_small_sample_sweep(self):
        spec = ModuleSpec.adjoint(2, Fraction(1, 2))
        sample = [
            (State.term(m), j)
            for wt in range(1, 3)
            for nwt in range(3)
            for m in enumerate_basis(2, nwt, wt)
            for j in (-2, 0, 2)
        ]
        rep = check_strong_grading(spec, Truncation(3, 2), sample)
        assert rep.defect_zero


class TestC1Quotients:
    def test_adjoint_near_vacuum(self):
        spec = ModuleSpec.adjoint(1, 1)
        table = c1_quotient_dims(spec, Truncation(3, 1))
        assert table.get(0, 0) == 1
        assert table.get(0, 1) == 0

    def test_top_space_survives_for_modules(self):
        spec = ModuleSpec.evaluation(
            1, 1, 0, (1,), H=[RatMatrix([[1, 1], [0, 1]])]
        )
        table = c1_quotient_dims(spec, Truncation(3, 1))
        assert table.get(0, 0) == 2

    def test_quotients_bounded_by_cell_dimension(self):
        spec = ModuleSpec.evaluation(1, 1, 0, (1,))
        table = c1_quotient_dims(spec, Truncation(3, 2))
        for (m, n), value in table.cells():
            assert 0 <= value <= bipartite_count(1, m, n) * spec.r

    def test_per_nwt_totals_stabilize_in_weight(self):
        # growing the weight window must not grow the m = 1 total
        spec = ModuleSpec.evaluation(1, 1, 0, (1,))
        totals = []
        for max_wt in (2, 3, 4):
            table = c1_quotient_dims(spec, Truncation(max_wt, 1))
            totals.append(sum(table.get(1, n) for n in range(max_wt + 1)))
        assert totals[0] >= totals[1] >= totals[2]
        assert totals[1] == totals[2]

    def test_adjoint_d2_at_a_fractional_level_is_pinned(self):
        # a fixed value, independent of the stacked-rank oracle below
        table = c1_quotient_dims(ModuleSpec.adjoint(2, Fraction(1, 2)), Truncation(3, 1))
        assert table.to_json() == {
            "d": 2,
            "entries": [[0, 0, 1], [0, 1, 0], [0, 2, 0], [0, 3, 0],
                        [1, 0, 0], [1, 1, 0], [1, 2, 0], [1, 3, 0]],
        }


def c1_quotient_dims_oracle(spec, tr):
    """C1 quotients State by State through vertex_mode; dim(S cap U) from a stacked rank.

    Each bigrade's coordinate subspace U is stacked under the span S as one
    identity row per label, and dim(S cap U) = rank S + dim U - rank(S + U).
    """
    labels_by_wt = {
        n: [
            (w, top)
            for m in range(2 * tr.max_nwt + 1)
            for w in enumerate_basis(spec.d, m, n)
            for top in range(spec.r)
        ]
        for n in range(tr.max_wt + 1)
    }
    module_labels = module_basis(spec, tr.max_wt, tr.max_nwt)
    table = DimTable(d=spec.d)
    for target_m in range(tr.max_nwt + 1):
        gens = [
            u
            for wt_u in range(1, tr.max_wt + 1)
            for nwt_u in range(target_m + 1)
            for u in enumerate_basis(spec.d, nwt_u, wt_u)
        ]
        for n in range(tr.max_wt + 1):
            labels = labels_by_wt[n]
            index = {label: pos for pos, label in enumerate(labels)}
            span = []
            for u in gens:
                for w_mono, top in module_labels:
                    if w_mono.weight() != n - u.weight():
                        continue
                    image = vertex_mode(State.term(u), -1, State.term(w_mono, top), spec)
                    if not image.is_zero():
                        row = [Fraction(0)] * len(labels)
                        for key, coeff in image.terms.items():
                            row[index[key]] = coeff
                        span.append(row)
            positions = [pos for pos, (m, _t) in enumerate(labels) if m.nwt() == target_m]
            intersection = 0
            if span:
                stacked = list(span)
                for pos in positions:
                    row = [Fraction(0)] * len(labels)
                    row[pos] = Fraction(1)
                    stacked.append(row)
                intersection = (
                    rank(RatMatrix(span, cols=len(labels)))
                    + len(positions)
                    - rank(RatMatrix(stacked, cols=len(labels)))
                )
            table.entries[(target_m, n)] = len(positions) - intersection
    return table


C1_CASES = {
    "adj-d1": (ModuleSpec.adjoint(1, 1), ((2, 1), (3, 2), (4, 1), (4, 2))),
    "adj-d2": (ModuleSpec.adjoint(2, Fraction(1, 2)), ((2, 1), (3, 2), (4, 1))),
    "scalar-c0": (ModuleSpec.evaluation(1, 1, 0, (1,)), ((3, 2), (4, 2))),
    "scalar-c1/2": (ModuleSpec.evaluation(1, -2, Fraction(1, 2), (2,)), ((3, 2), (4, 1))),
    "jordan-d1-c1/3": (
        ModuleSpec.evaluation(1, 1, Fraction(1, 3), (1,), H=[[[1, 1], [0, 1]]]),
        ((3, 2), (4, 1)),
    ),
    "jordan-d2-c1/3": (
        ModuleSpec.evaluation(
            2, 1, Fraction(1, 3), (1, 1), H=[[[1, 1], [0, 1]], [[1, 0], [0, 1]]]
        ),
        ((2, 1), (3, 1), (3, 2), (4, 2)),
    ),
    "nilpotent-c0": (ModuleSpec.evaluation(1, 1, 0, (0,), H=[[[0, 1], [0, 0]]]), ((4, 2),)),
}


@pytest.mark.parametrize(
    "spec, bounds",
    [(spec, b) for spec, bounds in C1_CASES.values() for b in bounds],
    ids=["%s-%s" % (name, b) for name, (_s, bounds) in C1_CASES.items() for b in bounds],
)
def test_c1_quotient_dims_matches_stacked_rank_oracle(spec, bounds):
    tr = Truncation(*bounds)
    assert c1_quotient_dims(spec, tr).to_json() == c1_quotient_dims_oracle(spec, tr).to_json()

"""Bigraded dimension tables and C1 quotient dimensions.

The dimension of the doubly homogeneous subspace with nwt m and weight n is
the number of d-colored bipartite partitions (m, n) = sum_j (m_j, n_j) with
m_j >= 0 and n_j >= 1.  Three independent computations are provided and
cross-checked: explicit monomial enumeration (`fock.count_table` walks every
monomial of the whole box once, builds none, and counts each into its own
cell), a dynamic program over parts, and the coefficient extraction from the
Euler product prod_{a>=0, b>=1} (1 - q^a p^b)^{-d}.  Every factor of that
product is a geometric series with coefficient 1, so its truncated expansion
runs in ints.

A fourth column evaluates the constant-term expression
CT_x 1/((x^{-1}p; p)_inf (x; q)_inf), built from the two Pochhammer
expansions sum p(k,n) x^k q^n = 1/(xq; q)_inf and
sum p'(k,m) x^k q^m = 1/(x; q)_inf.  The matched-index pairing of the two
factors does not biject with multisets of pairs, so this column genuinely
differs from the other three (first at (m, n) = (2, 3): 5 against 6); it is
reported as a diagnostic with a diff column rather than silently dropped.

The C1 quotient applies the modes u_{-1} through the shared column maps of
`vertexops.operators` and reads each intersection dimension off two ranks.
On the adjoint module at any level these are the level-1 columns, unscaled,
since by the level law (`vertexops._rescale`) the level scales each image
row and column by a nonzero factor, which changes no rank.
"""

from __future__ import annotations

from .exactmath import Value, rank
from .fock import ModuleSpec, count_table, module_basis
from .vertexops import operators


class DimTable(Value):
    """Map from bigrades (m = nwt, n = weight) to a natural number.

    Unhashable: its entries are a dict, filled after construction.
    """

    _fields = ("d", "entries")
    __hash__ = None

    def __init__(self, d, entries=None):
        self._set(d, {} if entries is None else entries)

    def get(self, m, n):
        return self.entries.get((m, n), 0)

    def cells(self):
        """Iterate ((m, n), value) sorted by bigrade."""
        for key in sorted(self.entries):
            yield key, self.entries[key]

    def to_json(self):
        return {
            "d": self.d,
            "entries": [[m, n, v] for (m, n), v in self.cells()],
        }


def validate_dimension_table(table):
    """Check the structural facts true of any graded-dimension table."""
    if table.get(0, 0) != 1:
        raise ValueError("a graded-dimension table has a one-dimensional (0, 0) cell")
    for (m, n), value in table.cells():
        if n == 0 and m > 0 and value != 0:
            raise ValueError("positive nwt needs positive weight; cell (%d, %d)" % (m, n))


def _check_bounds(d, P, Q):
    if d < 1 or P < 0 or Q < 0:
        raise ValueError("a dimension table needs d >= 1 and nonnegative bounds")


def bipartite_table(d, P, Q):
    """Colored bipartite partition counts for weight <= P, nwt <= Q, as one DP table."""
    _check_bounds(d, P, Q)
    ways = [[0] * (P + 1) for _ in range(Q + 1)]
    ways[0][0] = 1
    for j in range(Q + 1):
        for nu in range(1, P + 1):
            for _color in range(d):
                # one unbounded part type per color
                for m in range(j, Q + 1):
                    for n in range(nu, P + 1):
                        ways[m][n] += ways[m - j][n - nu]
    table = DimTable(d=d)
    for m in range(Q + 1):
        for n in range(P + 1):
            table.entries[(m, n)] = ways[m][n]
    return table


def bipartite_count(d, m, n):
    """Number of multisets of colored parts (color, j >= 0, nu >= 1) summing to (m, n)."""
    return bipartite_table(d, n, m).get(m, n)


class LaurentSeries2:
    """Truncated series in p and q with a bounded Laurent variable x.

    Coefficients are ints keyed by (xpow, ppow, qpow); ppow <= P and qpow <= Q
    always, and xpow is clamped to [xmin, xmax].  Every factor is a geometric
    series with coefficient 1, so no coefficient is ever a fraction.
    """

    __slots__ = ("coefficients", "P", "Q", "xmin", "xmax")

    def __init__(self, P, Q, xmin=0, xmax=0, coefficients=None):
        self.P = P
        self.Q = Q
        self.xmin = xmin
        self.xmax = xmax
        self.coefficients = dict(coefficients or {})

    @classmethod
    def one(cls, P, Q, xmin=0, xmax=0):
        return cls(P, Q, xmin, xmax, {(0, 0, 0): 1})

    def mul_geometric(self, dx, dp, dq):
        """Multiply by 1/(1 - x^dx p^dp q^dq), truncated to the bounds."""
        if dp < 0 or dq < 0 or (dp == 0 and dq == 0 and dx == 0):
            raise ValueError("geometric factor must move in some bounded direction")
        out = dict(self.coefficients)
        frontier = self.coefficients
        while frontier:
            shifted = {}
            for (x, p, q), coeff in frontier.items():
                x2, p2, q2 = x + dx, p + dp, q + dq
                if p2 > self.P or q2 > self.Q or not self.xmin <= x2 <= self.xmax:
                    continue
                shifted[(x2, p2, q2)] = coeff
            for key, coeff in shifted.items():
                out[key] = out.get(key, 0) + coeff
            frontier = shifted
        return LaurentSeries2(self.P, self.Q, self.xmin, self.xmax, out)

    def constant_x_term(self):
        """The x^0 stratum as a dict (ppow, qpow) -> coefficient."""
        return {
            (p, q): coeff
            for (x, p, q), coeff in self.coefficients.items()
            if x == 0 and coeff != 0
        }


def gf_product_count(d, P, Q):
    """Dimension table from the truncated Euler product, for weight <= P, nwt <= Q."""
    _check_bounds(d, P, Q)
    series = LaurentSeries2.one(P, Q)
    for a in range(Q + 1):
        for b in range(1, P + 1):
            for _ in range(d):
                series = series.mul_geometric(0, b, a)
    table = DimTable(d=d)
    for (p, q), coeff in series.constant_x_term().items():
        table.entries[(q, p)] = coeff
    validate_dimension_table(table)
    return table


def gf_paper_ct(P, Q):
    """The constant-term table: CT_x of 1/((x^{-1}p; p)_inf (x; q)_inf), d = 1.

    Both Pochhammer reciprocals are expanded as truncated Laurent series in x
    (the x-degree is bounded by the number of parts, at most P on each side)
    and multiplied; the x^0 stratum is returned with entries keyed (m, n) =
    (q-degree, p-degree).
    """
    _check_bounds(1, P, Q)
    series = LaurentSeries2.one(P, Q, xmin=-P, xmax=P)
    # 1/(x^{-1}p; p)_inf = prod_{b>=1} (1 - x^{-1} p^b)^{-1}
    for b in range(1, P + 1):
        series = series.mul_geometric(-1, b, 0)
    # 1/(x; q)_inf = prod_{a>=0} (1 - x q^a)^{-1}
    for a in range(Q + 1):
        series = series.mul_geometric(1, 0, a)
    table = DimTable(d=1)
    for (p, q), coeff in series.constant_x_term().items():
        table.entries[(q, p)] = coeff
    return table


def partitions_exact_parts(k, n):
    """p(k, n): partitions of n into exactly k positive parts.

    Taking one from every part leaves a partition of n - k into at most k
    parts, which by conjugation is one into parts of size at most k; those
    are counted by one small table per call.
    """
    if k < 0 or n < k:
        return 0
    ways = [1] + [0] * (n - k)
    for part in range(1, k + 1):
        for total in range(part, n - k + 1):
            ways[total] += ways[total - part]
    return ways[n - k]


def partitions_nonneg_parts(k, m):
    """p'(k, m): partitions of m into exactly k nonnegative parts.

    Adding 1 to every part gives a bijection with partitions of m + k into
    exactly k positive parts.
    """
    return partitions_exact_parts(k, m + k)


def c1_quotient_dims(spec, tr):
    """Per-bigrade dimensions of W / C1(W) within the truncation.

    C1 generators are u_{-1} w for doubly homogeneous u of positive weight;
    for the target nwt stratum m only u with nwt(u) <= m are used.  Their
    span S in weight n is intersected exactly with the coordinate subspace U
    of the bigrade (m, n): dim(S cap U) = rank(S) - rank(S with the columns
    of U deleted), the images themselves being the sparse rows.  Entries are
    dim W^(m)_(n) minus that intersection.
    """
    # level-1 columns on M(l): the level law scales rows and columns by nonzero factors, not ranks
    ops = operators(spec, tr.j_max)
    labels_of_weight = {}
    for label in module_basis(spec, tr.max_wt, tr.max_nwt):
        labels_of_weight.setdefault(label[0].weight(), []).append(label)

    # the monomials u of M(l) of positive weight: all but the vacuum
    box = module_basis(ModuleSpec.adjoint(spec.d, spec.l), tr.max_wt, tr.max_nwt)
    monomials = [(u.weight(), u) for u, _top in box if u]

    counts = count_table(spec.d, tr.max_nwt, tr.max_wt)
    table = DimTable(d=spec.d)
    for target_m in range(tr.max_nwt + 1):
        gens = [(wt_u, u) for wt_u, u in monomials if u.nwt() <= target_m]
        for n in range(tr.max_wt + 1):
            # each row back in labels, so `rank` eliminates in label order
            images = [
                ops.apply(ops.spec.l, [(1, ops.vertex_columns(u, -1), len(u))], {label: 1})
                for wt_u, u in gens
                for label in labels_of_weight.get(n - wt_u, ())
            ]
            rest = [
                {key: c for key, c in image.items() if key[0].nwt() != target_m}
                for image in images
            ]
            dim_w = spec.r * counts[target_m][n]
            intersection = rank(images) - rank(rest)
            table.entries[(target_m, n)] = dim_w - intersection
    return table

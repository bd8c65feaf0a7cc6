"""Evaluation top spaces, the generalized Casimir, vacuum spaces and Hom dimensions.

An evaluation top space is a finite-dimensional space on which each color
acts by a matrix H_i whose unique eigenvalue is lam_i; the generator u^(i)t^j
then acts as f(c) H_i with f(c) = c^j.  The generalized Casimir operator,
summed over all generator powers, converges geometrically and acts as the
exact scalar <lam, lam> / (1 - c^2).

The vacuum space of a module is the joint kernel of all annihilation modes;
for induced modules it recovers exactly the top space, which is the
computable content of the reconstruction W = M(l) (x) Omega(W).  A module is
genuinely logarithmic when L(0) restricted to the top space, the matrix
(1/(2l(1-c^2))) sum_i H_i^2, carries a Jordan block of size 2 or more.

Spaces of logarithmic intertwining operators among triples of modules
induced from evaluation top spaces at 0 are identified with the space of
linear maps T: Omega_1 -> Hom(Omega_2, Omega_3) intertwining the color
actions; their dimension is an exact nullspace computation.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import product

from .exactmath import RatMatrix, Value, _nullspace, jordan_structure, rank, rat
from .fock import State, _check_top, _mode_column, enumerate_basis


class TopSpace(Value):
    """A finite-dimensional top space: commuting H_i with H_i - lam_i I nilpotent."""

    _fields = ("r", "lam", "H")

    def __init__(self, r, lam, H):
        lam = tuple(rat(x) for x in lam)
        H = tuple(m if isinstance(m, RatMatrix) else RatMatrix(m) for m in H)
        self._set(r, lam, H)
        # as for a monomial's indices: bool is not an int, and a float is refused
        if type(self.r) is not int:
            raise ValueError("top-space dimension must be an int, got %r" % (self.r,))
        if self.r < 1:
            raise ValueError("top-space dimension must be at least 1")
        _check_top(self.r, lam, H)

    @property
    def d(self):
        return len(self.lam)

    @classmethod
    def scalar(cls, lam):
        """The one-dimensional top space with weights lam."""
        lam = tuple(rat(x) for x in lam)
        return cls(r=1, lam=lam, H=tuple(RatMatrix([[x]]) for x in lam))

    def to_json(self):
        return {
            "r": self.r,
            "lambda": [str(x) for x in self.lam],
            "H": [m.to_json() for m in self.H],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            r=data["r"],
            lam=tuple(rat(x) for x in data["lambda"]),
            H=tuple(RatMatrix.from_json(m) for m in data["H"]),
        )


class HomProblem(Value):
    """A triple of evaluation-at-0 top spaces (source, middle, target)."""

    _fields = ("source", "middle", "target")

    def __init__(self, source, middle, target):
        self._set(source, middle, target)
        if not (self.source.d == self.middle.d == self.target.d):
            raise ValueError("all three top spaces must share the color count d")

    def to_json(self):
        return {
            "source": self.source.to_json(),
            "middle": self.middle.to_json(),
            "target": self.target.to_json(),
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            source=TopSpace.from_json(data["source"]),
            middle=TopSpace.from_json(data["middle"]),
            target=TopSpace.from_json(data["target"]),
        )


def eval_action(gen, f_powers, top, c):
    """The matrix of (u^(i) f(t)) on a top space: f(c) H_i, exactly.

    f is given as a list of (exponent, coefficient) pairs.
    """
    i = gen[0] if isinstance(gen, tuple) else gen
    if not 1 <= i <= top.d:
        raise ValueError("color index %d out of range 1..%d" % (i, top.d))
    c = rat(c)
    value = sum((rat(coeff) * c**exp for exp, coeff in f_powers), Fraction(0))
    return top.H[i - 1].scale(value)


def casimir_scalar(lam, c):
    """The exact scalar <lam, lam> / (1 - c^2) by which the Casimir acts."""
    c = rat(c)
    if c**2 == 1:
        raise ValueError("the Casimir scalar needs c^2 != 1")
    norm = sum((rat(x) ** 2 for x in lam), Fraction(0))
    return norm / (1 - c**2)


def casimir_partial(lam, c, J):
    """The Casimir sum truncated at generator power J: sum_{n<=J} c^{2n} <lam, lam>.

    Summed term by term; the closed geometric form is what the tests compare
    against.
    """
    if J < 0:
        raise ValueError("truncation order must be nonnegative")
    c = rat(c)
    norm = sum((rat(x) ** 2 for x in lam), Fraction(0))
    total = Fraction(0)
    for n in range(J + 1):
        total += c ** (2 * n) * norm
    return total


def vacuum_space(spec, tr):
    """A basis of the joint kernel of all annihilation modes within tr.

    Scans the modes per bigrade: (u^(i) t^j)(n) maps bigrade (wt, nwt) into
    (wt - n, nwt - j), so the joint kernel is the direct sum of the kernels
    on each bigrade (wt, nwt) within tr.  One exact kernel is solved per
    bigrade, on its top-0 labels, and each kernel vector is emitted once per
    top index.  An annihilation mode (u^(i) t^j)(n) is n*l*d/dx_{i,j,n}, so
    it kills every monomial without x_{i,j,n}: each monomial is read only
    under the modes of its own distinct variables, one unmemoized column
    each, and the rows are keyed by (mode, output label).  Row order does
    not change a reduced row echelon form, so each block's canonical
    nullspace basis is what the whole stacked matrix would give on those
    columns, and joining the blocks in basis order gives the whole matrix's
    canonical basis.  Above weight 0 each block of a Fock module has full
    column rank and an empty kernel.  For induced modules the result is
    exactly the top space.
    """
    states = []
    for wt, nwt in product(range(tr.max_wt + 1), range(tr.max_nwt + 1)):
        monos = enumerate_basis(spec.d, nwt, wt)
        rows = defaultdict(dict)
        for mono in monos:
            for var, _mult in mono.distinct():
                for key, coeff in _mode_column(spec, *var, mono, 0).items():
                    rows[var, key][mono] = coeff
        # annihilation modes keep the top index and ignore it: r copies of one kernel
        for vec in _nullspace(rows.values(), monos):
            for top in range(spec.r):
                states.append(State({(mono, top): c for mono, c in vec.items()}))
    return states


def l0_top_matrix(spec):
    """The exact matrix of L(0) on the top space: (1/(2l(1-c^2))) sum_i H_i^2."""
    if spec.is_adjoint():
        raise ValueError("l0_top_matrix applies to evaluation modules")
    if spec.c**2 == 1:
        raise ValueError("L(0) on the top space needs c^2 != 1")
    return spec.h_square_sum().scale(1 / (2 * spec.l * (1 - spec.c**2)))


def is_genuine_logarithmic(spec):
    """Whether L(0) on the top space has a Jordan block of size >= 2.

    Returns (flag, block_sizes); the unique eigenvalue of the L(0) top matrix
    is computed from lam directly as <lam, lam> / (2l(1-c^2)).
    """
    matrix = l0_top_matrix(spec)
    norm = sum((x**2 for x in spec.lam), Fraction(0))
    eigenvalue = norm / (2 * spec.l * (1 - spec.c**2))
    blocks = jordan_structure(matrix, eigenvalue)
    return any(size >= 2 for size in blocks), blocks


def intertwiner_dim(problem):
    """Dimension of intertwining maps T: Omega_1 -> Hom(Omega_2, Omega_3) at c = 0.

    T must satisfy T(H1_i u) = H3_i T(u) - T(u) H2_i for every color i; at
    the evaluation point 0 the generators with j >= 1 act as zero, so these
    are the only constraints.  Computed as an exact nullspace dimension over
    the full r1*r2*r3-dimensional space of linear maps, whose unknown T[c, b, a]
    is the column (c, b, a) of one sparse row per constraint.
    """
    src, mid, tgt = problem.source, problem.middle, problem.target
    r1, r2, r3 = src.r, mid.r, tgt.r
    rows = []
    for H1, H2, H3 in zip(src.H, mid.H, tgt.H):
        for c, b, a in product(range(r3), range(r2), range(r1)):
            row = defaultdict(int)
            for a2 in range(r1):
                row[(c, b, a2)] += H1[a2, a]
            for c2 in range(r3):
                row[(c2, b, a)] -= H3[c, c2]
            for b2 in range(r2):
                row[(c, b2, a)] += H2[b, b2]
            rows.append(row)
    return r1 * r2 * r3 - rank(rows)

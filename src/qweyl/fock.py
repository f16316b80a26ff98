"""Truncated oscillator-basis matrices for the effective Hamiltonian.

The zeroth-order part is the exact diagonal n1+n2+n3+3/2.  The
first-order operator H1 is assembled from its closed form in ladder
operators, H1 = iK with K real (see build_h1_matrix), so every stored
element is its infinite-basis value; truncation only limits which
states exist, never corrupts an element.  The reference it is checked
against is the Kronecker route: operator_matrix(_h1_operator(mode), n)
composes the symbolic operator of the effective module from per-axis
band matrices built above the cutoff and cropped afterwards.
Operators are held sparse, over the whole box or over one per-axis
parity sector of it: H1 moves one quantum number by 0 or +-2, so it
never joins two sectors, and each sector is built on its own lattice.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as iter_product

import numpy as np
import scipy.sparse as sp

from .effective import hamiltonian_operator
from .gaussian import DiffOp3
from .realization import check_mode

COUPLING_TOL = 1e-12
INTERIOR_MARGIN = 4  # highest per-axis degree of any first-order term

CONJECTURED_OFFSETS = frozenset(iter_product((-1, 0, 1), repeat=3))
# the per-axis parity sectors (n1 % 2, n2 % 2, n3 % 2); EVEN holds |000>
SECTORS = tuple(iter_product((0, 1), repeat=3))
EVEN = SECTORS[0]


class FockBasis:
    """Ordered product basis |n1,n2,n3> with each n_j <= n_max; with a
    sector (p1, p2, p3), only its lattice n_j = p_j + 2 m_j, in the same
    lexicographic order."""

    def __init__(self, n_max: int, sector=None):
        n_max = operator.index(n_max)
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        self.n_max = n_max
        self.sector = None if sector is None else tuple(map(operator.index, sector))
        if self.sector not in (None, *SECTORS):
            raise ValueError(f"sector {sector} is not one of {SECTORS}")
        # lowest occupation along each axis, and the step between occupations
        self.first, self.step = ((0, 0, 0), 1) if sector is None else (self.sector, 2)
        self.shape = tuple((n_max - p) // self.step + 1 for p in self.first)
        self.dim = math.prod(self.shape)

    @cached_property
    def occupations(self) -> np.ndarray:
        """Read-only (dim, 3) integer table of the states in index order."""
        table = np.indices(self.shape).reshape(3, -1).T
        table *= self.step
        table += self.first
        table.flags.writeable = False
        return table

    def index(self, state) -> int:
        i = 0
        for n, p, side in zip(map(operator.index, state), self.first, self.shape,
                              strict=True):
            if not 0 <= n <= self.n_max:
                raise ValueError(f"state {state} outside cutoff {self.n_max}")
            m, off = divmod(n - p, self.step)
            if off:
                raise ValueError(f"state {state} is not in parity sector {self.sector}")
            i = i * side + m
        return i

    def states(self):
        return map(tuple, self.occupations.tolist())

    def vector(self, state) -> np.ndarray:
        """Unit complex vector on one basis state."""
        v = np.zeros(self.dim, dtype=complex)
        v[self.index(state)] = 1.0
        return v


def ladder_matrices(n_max: int):
    """Single-mode position and derivative matrices on n <= n_max, the
    factors of the Kronecker reference route.

    The position matrix is real symmetric with <n-1|x|n> = sqrt(n/2);
    the derivative matrix is real antisymmetric with the same
    superdiagonal and the negated subdiagonal.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    side = n_max + 1
    x = np.zeros((side, side))
    d = np.zeros((side, side))
    for n in range(1, side):
        root = math.sqrt(n / 2.0)
        x[n - 1, n] = root
        x[n, n - 1] = root
        d[n - 1, n] = root
        d[n, n - 1] = -root
    return x, d


@lru_cache(maxsize=128)
def _axis_term_matrix(n_max: int, power: int, deriv: int):
    """Cropped matrix of u^power d^deriv, exact on all stored elements;
    one Kronecker factor of operator_matrix.

    Built at cutoff n_max + power + deriv so no intermediate state in
    the band product is lost, then cropped back.
    """
    ext = max(1, n_max + power + deriv)
    x, d = ladder_matrices(ext)
    m = np.eye(ext + 1)
    for _ in range(deriv):
        m = d @ m
    for _ in range(power):
        m = x @ m
    m = sp.csr_array(m[: n_max + 1, : n_max + 1])
    m.data.flags.writeable = False  # shared by every caller of the cache
    return m


def operator_matrix(op: DiffOp3, n_max: int) -> sp.csr_array:
    """Sparse matrix of a theta-free polynomial-coefficient operator, one
    Kronecker product of axis matrices per term.  The reference route the
    tests check build_h1_matrix against."""
    side = n_max + 1
    out = sp.csr_array((side ** 3, side ** 3), dtype=complex)
    for coeff, axes in op.axis_terms():
        m1, m2, m3 = (_axis_term_matrix(n_max, power, deriv) for power, deriv in axes)
        out = out + coeff * sp.kron(m1, sp.kron(m2, m3, format="csr"), format="csr")
    return out


@lru_cache(maxsize=2)
def _h1_operator(mode: str) -> DiffOp3:
    """The theta coefficient of hamiltonian_operator(mode), one per mode:
    the symbolic H1 of the Kronecker reference route."""
    return hamiltonian_operator(mode).theta_slice(1)


def build_h1_matrix(n_max: int, mode: str, sector=None) -> sp.csr_array:
    """Matrix of the first-order operator (the theta coefficient) over
    FockBasis(n_max, sector), from its closed form H1 = iK, with K real:

        K = D(N) + sum_j [a_j+^2 c_j(N) - c_j(N) a_j^2],
        c_j(N) = -(N_j + 2 sum_{k<j} N_k + j + 1/2) / 2,
        D(N) = -(3/2 + 2 N_1 + N_2) in paper mode,
               -(3 + 3 N_1 + 2 N_2 + N_3) in rederived mode.

    Each coupling <n+2e_j|K|n> = c_j(n) sqrt((n_j+1)(n_j+2)) is computed
    once and stored with its exact negative at <n|K|n+2e_j>, so Re(H1)
    is exactly 0 and the off-diagonal part exactly antisymmetric.  A
    sector build holds, bit for bit, the full build's block of its states.
    """
    check_mode(mode)
    basis = FockBasis(n_max, sector)
    occ = basis.occupations
    n1, n2, n3 = occ.T
    if mode == "paper":
        diagonal = -(1.5 + 2 * n1 + n2)
    else:
        diagonal = -(3.0 + 3 * n1 + 2 * n2 + n3)
    diagonals, offsets = [diagonal], [0]
    stride = basis.dim
    for axis in range(3):
        stride //= basis.shape[axis]
        # an axis with no n_j + 2 inside the cutoff has no coupling, and
        # its shift could repeat another axis's offset
        if basis.first[axis] + 2 > n_max:
            continue
        n = occ[:, axis]
        shift = 2 // basis.step * stride  # index step of n -> n + 2e_j
        c = -0.5 * (n + 2 * occ[:, :axis].sum(axis=1) + axis + 1.5)
        # zero where n + 2e_j lies above the cutoff; the CSR conversion
        # drops those slots
        up = np.where(n + 2 <= n_max, c * np.sqrt((n + 1.0) * (n + 2)), 0.0)
        diagonals += [up[:-shift], -up[:-shift]]
        offsets += [-shift, shift]
    k = sp.diags_array(diagonals, offsets=offsets, format="csr")
    data = np.zeros(k.nnz, dtype=complex)
    data.imag = k.data
    return sp.csr_array((data, k.indices, k.indptr), shape=k.shape)


def h0_diagonal(n_max: int, sector=None) -> np.ndarray:
    return FockBasis(n_max, sector).occupations.sum(axis=1) + 1.5


@dataclass(frozen=True)
class FockOperator:
    """Sparse (CSR, sorted indices) operator over its basis: the truncated
    box, or one parity sector of it."""

    matrix: sp.csr_array
    basis: FockBasis

    @cached_property
    def h_i_diagonal(self) -> np.ndarray:
        """Read-only diagonal of H_I in the exact split H = H_R + i H_I; the
        first read raises ValueError if (H - H^dagger)/2i is not diagonal."""
        bras, kets = (self.matrix - self.matrix.conj().T).nonzero()
        if np.any(bras != kets):
            raise ValueError("the anti-Hermitian part of H is not diagonal")
        diagonal = self.matrix.diagonal().imag
        diagonal.flags.writeable = False
        return diagonal


def build_h_eff(n_max: int, theta: float, mode: str, sector=None) -> FockOperator:
    """Effective Hamiltonian H0 + theta*H1 over FockBasis(n_max, sector), as
    a sparse sum: it stores no zero (at theta = 0, only H0's diagonal), and
    a -0.0 product on the diagonal as +0.0."""
    check_mode(mode)
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    h0 = sp.diags_array(h0_diagonal(n_max, sector).astype(complex), format="csr")
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = h0 + theta * build_h1_matrix(n_max, mode, sector)
    if not np.all(np.isfinite(matrix.data)):
        raise ValueError(f"theta={theta!r} overflows the operator")
    # the sum leaves data and indices as views of buffers sized for
    # nnz(H0) + nnz(H1), which prune() keeps; hold a compact copy
    return FockOperator(matrix=matrix.copy(), basis=FockBasis(n_max, sector))


def sparsity_pattern(h1: sp.csr_array, basis: FockBasis) -> dict:
    """Scan interior-to-interior couplings above COUPLING_TOL (tol) for
    their transition offsets, with magnitudes and the comparison against
    the conjectured nearest-neighbor mixing set.

    Both bra and ket stay at least INTERIOR_MARGIN (margin) below the
    cutoff so every offset the operator can produce is visible.  offsets
    are sorted, and max_magnitude is keyed by "dx,dy,dz" text.  Weights
    are summed squared magnitudes, split by membership in the conjectured
    {-1,0,1}^3 offset set.
    """
    if basis.n_max - INTERIOR_MARGIN < 0:
        raise ValueError("cutoff too small for the interior margin")
    occ = basis.occupations
    interior = np.flatnonzero((occ <= basis.n_max - INTERIOR_MARGIN).all(axis=1))
    block = h1[interior][:, interior].tocoo()
    mags = np.abs(block.data)
    keep = ~(mags <= COUPLING_TOL)
    bras, kets = interior[block.row[keep]], interior[block.col[keep]]
    offsets = {}
    weight_inside = 0.0
    weight_outside = 0.0
    # one flat list per axis: a 3-item list per coupling would cost 80 bytes
    deltas = zip(*(occ[bras] - occ[kets]).T.tolist())
    for delta, mag in zip(deltas, mags[keep].tolist()):
        prev = offsets.get(delta, 0.0)
        if mag > prev:
            offsets[delta] = mag
        if delta in CONJECTURED_OFFSETS:
            weight_inside += mag * mag
        else:
            weight_outside += mag * mag
    ordered = tuple(sorted(offsets))
    outside = tuple(o for o in ordered if o not in CONJECTURED_OFFSETS)
    total = weight_inside + weight_outside
    return {
        "n_max": basis.n_max,
        "tol": COUPLING_TOL,
        "margin": INTERIOR_MARGIN,
        "offsets": ordered,
        "max_magnitude": {",".join(map(str, o)): offsets[o] for o in ordered},
        "inside_conjecture": tuple(o for o in ordered if o in CONJECTURED_OFFSETS),
        "outside_conjecture": outside,
        "contained_in_conjecture": not outside,
        "weight_inside": weight_inside,
        "weight_outside": weight_outside,
        "outside_weight_fraction": weight_outside / total if total else 0.0,
    }


def mixing_amplitudes(h1: sp.csr_array, basis: FockBasis, source) -> dict:
    """Per-target amplitudes <target|H1|source> above COUPLING_TOL."""
    column = h1[:, [basis.index(source)]].toarray()[:, 0]
    targets = np.flatnonzero(np.abs(column) > COUPLING_TOL)
    return {
        tuple(state): complex(el)
        for state, el in zip(basis.occupations[targets].tolist(), column[targets])
    }


import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from qweyl import fock
from qweyl.algebra import d_code, x_code
from qweyl.cli import FIXED_BYTES, _json_default, run_bytes
from qweyl.dynamics import propagate
from qweyl.effective import hamiltonian_operator
from qweyl.fock import (
    CONJECTURED_OFFSETS,
    EVEN,
    SECTORS,
    FockBasis,
    FockOperator,
    _axis_term_matrix,
    _h1_operator,
    build_h1_matrix,
    build_h_eff,
    h0_diagonal,
    ladder_matrices,
    mixing_amplitudes,
    operator_matrix,
    sparsity_pattern,
)
from qweyl.gaussian import CPoly3, DiffOp3
from qweyl.quadrature import element_1d, element_3d, hermite_prefactor
from qweyl.realization import MODES, MonomialVec
from qweyl.scalars import QScalar

from oracles import gaussian_expectation


def states_up_to(total: int):
    return [
        (n1, n2, n3)
        for n1 in range(total + 1)
        for n2 in range(total + 1)
        for n3 in range(total + 1)
        if n1 + n2 + n3 <= total
    ]


def test_basis_roundtrip():
    basis = FockBasis(4)
    assert basis.dim == 125
    for i, state in enumerate(basis.states()):
        assert basis.index(state) == i
    assert basis.index((0, 0, 0)) == 0
    assert tuple(basis.occupations[basis.dim - 1]) == (4, 4, 4)
    assert basis.occupations.tolist() == [list(s) for s in basis.states()]
    with pytest.raises(ValueError):
        basis.index((5, 0, 0))
    with pytest.raises(ValueError):
        basis.index((0, -1, 0))
    with pytest.raises(ValueError):
        FockBasis(0)


@pytest.mark.parametrize("n_max", [1, 2, 5])
def test_sector_basis_roundtrip(n_max):
    # each sector is the lattice n_j = p_j + 2 m_j in lexicographic order,
    # and indexes only its own states
    full = FockBasis(n_max)
    for sector in SECTORS:
        basis = FockBasis(n_max, sector)
        mine = (full.occupations % 2 == sector).all(axis=1)
        assert np.array_equal(basis.occupations, full.occupations[mine])
        for i, state in enumerate(basis.states()):
            assert basis.index(state) == i
            assert np.array_equal(basis.vector(state), full.vector(state)[mine])
    even = FockBasis(n_max, EVEN)
    with pytest.raises(ValueError, match=r"\(1, 0, 0\) is not in parity sector"):
        even.index((1, 0, 0))
    with pytest.raises(ValueError, match=f"outside cutoff {n_max}"):
        even.index((n_max + 2, 0, 0))
    with pytest.raises(ValueError, match="parity sector"):
        FockBasis(n_max, (0, 1, 1)).vector((0, 0, 0))
    for sector in ((2, 0, 0), (0, 1), (0, 0, 0, 0)):
        with pytest.raises(ValueError, match="is not one of"):
            FockBasis(n_max, sector)


def _tracked(v):
    h = build_h_eff(4, 0.01, "paper")
    traj = propagate(h, h.basis.vector((0, 0, 0)), 0.01, 1e-3, track=[(v, 0, 0)])
    return [(s, occ.tobytes()) for s, occ in traj.tracked.items()]


# every integer input outside the word path, each as a function of one
# integer v whose repr shows the types the input was read into
INTEGER_READERS = {
    "QScalar": lambda v: QScalar({v: 1}),
    "CPoly3": lambda v: CPoly3({(v, 0, 0, 0): 1}),
    "DiffOp3": lambda v: DiffOp3({(0, v, 0): 1}),
    "MonomialVec": lambda v: MonomialVec.basis((0, 0, v)),
    "FockBasis n_max": lambda v: (lambda b: (b.n_max, b.shape, b.dim))(FockBasis(v)),
    "FockBasis sector": lambda v: FockBasis(4, (v - 1, 0, 0)).first,
    "FockBasis.index": lambda v: FockBasis(4).index((0, v, 0)),
    "x_code, d_code": lambda v: (x_code(v), d_code(v)),
    "propagate track": _tracked,
}


@pytest.mark.parametrize("name", INTEGER_READERS)
def test_integer_inputs_are_read_by_index(name):
    # an integer, not merely a number equal to one, whatever the layer;
    # numpy ints and bools read as the ints they equal, to the repr
    read = INTEGER_READERS[name]
    assert repr(read(np.int64(2))) == repr(read(2))
    assert repr(read(True)) == repr(read(1))
    for v in (2.0, 2.9):
        with pytest.raises(TypeError):
            read(v)


@pytest.mark.parametrize("n_max", range(1, 13))
def test_sector_builds_are_the_full_builds_blocks(n_max):
    # parity conservation as a checked invariant: each of the eight sector
    # builds stores, bit for bit, the full build's block of its states, and
    # the eight cover the box
    occ = FockBasis(n_max).occupations
    blocks = [np.flatnonzero((occ % 2 == sector).all(axis=1)) for sector in SECTORS]
    assert sum(FockBasis(n_max, s).dim for s in SECTORS) == (n_max + 1) ** 3
    assert sorted(np.concatenate(blocks).tolist()) == list(range((n_max + 1) ** 3))
    for mode in MODES:
        builds = [(build_h1_matrix(n_max, mode),
                   lambda s: build_h1_matrix(n_max, mode, s))]
        builds += [(build_h_eff(n_max, theta, mode).matrix,
                    lambda s, t=theta: build_h_eff(n_max, t, mode, s).matrix)
                   for theta in (0.0, 0.01, -0.01, 0.3)]
        for full, sector_build in builds:
            for sector, block in zip(SECTORS, blocks):
                want, got = full[block][:, block], sector_build(sector)
                assert got.shape == want.shape
                for part in ("indptr", "indices", "data"):
                    a, b = getattr(got, part), getattr(want, part)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (
                        mode, sector, part)


@pytest.mark.parametrize("n_max", [1, 2, 6, 12])
@pytest.mark.parametrize("mode", MODES)
def test_h_eff_is_the_dense_sum(n_max, mode):
    # over the box and every sector, H_eff holds the bits of the dense
    # diag(H0) + theta*H1, and stores exactly its nonzeros: at theta = +-0
    # and at +-1e-320, where every product underflows, no coupling and no
    # -0.0 is stored.  toarray() adds the stored values into zeros, which
    # turns -0.0 into +0.0, so the stored values are compared as well
    for theta in (0.0, -0.0, 0.01, -0.01, 0.3, 1e-320, -1e-320):
        for sector in (None, *SECTORS):
            want = np.diag(h0_diagonal(n_max, sector).astype(complex))
            want += theta * build_h1_matrix(n_max, mode, sector).toarray()
            got = build_h_eff(n_max, theta, mode, sector).matrix
            stored = got.tocoo()
            assert got.dtype == want.dtype
            assert np.array_equal(got.toarray().view(np.uint64),
                                  want.view(np.uint64)), (theta, sector)
            assert got.data.tobytes() == want[stored.row, stored.col].tobytes()
            assert got.nnz == np.count_nonzero(want), (theta, sector)
            # and keeps no buffer larger than what it stores
            for part in (got.data, got.indices, got.indptr):
                assert part.base is None or part.base.nbytes == part.nbytes


def test_ladder_matrix_elements():
    x, d = ladder_matrices(5)
    assert x[0, 1] == pytest.approx(1 / math.sqrt(2))
    assert np.array_equal(x, x.T)
    assert np.array_equal(d, -d.T)
    assert d[0, 1] == pytest.approx(1 / math.sqrt(2))
    assert d[1, 0] == pytest.approx(-1 / math.sqrt(2))
    with pytest.raises(ValueError):
        ladder_matrices(0)


def test_canonical_commutator_on_interior():
    x, d = ladder_matrices(7)
    comm = d @ x - x @ d
    interior = comm[:7, :7]
    assert np.max(np.abs(interior - np.eye(7))) < 1e-14
    # the last diagonal entry is a pure truncation artifact
    assert comm[7, 7] == pytest.approx(-7.0)


def test_h_eff_at_theta_zero_is_exactly_diagonal():
    h = build_h_eff(4, 0.0, "paper")
    want = np.diag(h0_diagonal(4)).astype(complex)
    assert np.array_equal(h.matrix.toarray(), want)
    assert h.matrix[0, 0] == 1.5
    basis = h.basis
    n = (2, 1, 0)
    assert h.matrix[basis.index(n), basis.index(n)] == 4.5


def test_h_eff_at_theta_zero_builds_no_h1(monkeypatch):
    # every coupling of theta*H1 is zero there, so H1 is not built; the
    # bits are test_h_eff_is_the_dense_sum's
    calls = []
    build = fock.build_h1_matrix
    monkeypatch.setattr(fock, "build_h1_matrix",
                        lambda *args: calls.append(args) or build(*args))
    for theta in (0.0, -0.0, 0):
        for sector in (None, EVEN):
            build_h_eff(6, theta, "paper", sector)
    assert calls == []
    build_h_eff(6, 0.01, "rederived", EVEN)
    assert calls == [(6, "rederived", EVEN)]


@pytest.mark.parametrize("n_max", [1, 4, 8])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("theta", [0.0, -0.0])
def test_h_eff_at_theta_zero_stores_only_the_h0_diagonal(n_max, mode, theta):
    # H0 + theta*H1 is formed at every theta; at theta = +-0 the sparse sum
    # stores none of the zero couplings and leaves H0's bytes as they are
    want = sp.diags_array(h0_diagonal(n_max).astype(complex), format="csr")
    got = build_h_eff(n_max, theta, mode).matrix
    assert got.shape == want.shape
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part


def test_h0_through_ladder_route_is_diagonal():
    # composing the theta^0 operator from band products must agree with
    # the exact diagonal to rounding
    got = operator_matrix(hamiltonian_operator("paper").theta_slice(0), 4)
    want = np.diag(h0_diagonal(4))
    assert np.max(np.abs(got - want)) < 1e-12


def dense_operator_matrix(op, n_max):
    """The dense np.kron build of operator_matrix, kept as its oracle."""
    side = n_max + 1
    out = np.zeros((side ** 3, side ** 3), dtype=complex)
    for coeff, axes in op.axis_terms():
        m1, m2, m3 = (_axis_term_matrix(n_max, p, d).toarray() for p, d in axes)
        out += coeff * np.kron(m1, np.kron(m2, m3))
    return out


@pytest.mark.parametrize("n_max", [4, 6])
@pytest.mark.parametrize("mode", MODES)
def test_sparse_h1_equals_dense_build(n_max, mode):
    h1 = operator_matrix(_h1_operator(mode), n_max)
    dense = dense_operator_matrix(hamiltonian_operator(mode).theta_slice(1), n_max)
    assert np.array_equal(h1.toarray(), dense)
    assert h1.nnz == np.count_nonzero(dense)


def test_operator_matrix_rejects_theta_terms():
    # the ladder route and the quadrature oracle both refuse
    op = hamiltonian_operator("paper")
    with pytest.raises(ValueError, match="theta slice"):
        operator_matrix(op, 2)
    with pytest.raises(ValueError, match="theta slice"):
        element_3d(op, (0, 0, 0), (0, 0, 0))


def test_build_h_eff_validation(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("H1 was built before the arguments were checked")

    with monkeypatch.context() as patch:
        patch.setattr(fock, "build_h1_matrix", unbuilt)
        with pytest.raises(ValueError):
            build_h_eff(4, 0.01, "classical")
        with pytest.raises(ValueError):
            build_h_eff(4, float("nan"), "paper")
    with pytest.raises(ValueError, match="overflows"):
        build_h_eff(4, 1e308, "paper")


def test_ground_state_first_order_element():
    h1 = build_h1_matrix(6, "paper")
    got = h1[0, 0]
    # cross-check against the symbolic Gaussian integral of the same
    # operator route
    energy = gaussian_expectation(hamiltonian_operator("paper").apply(CPoly3.one()))
    symbolic = complex(energy.theta_slice(1).terms[(0, 0, 0, 0)])
    assert abs(got - symbolic) < 1e-12
    assert abs(got - (-1.5j)) < 1e-12
    # the imaginary part is genuinely nonzero: the first-order operator
    # drains ground-state probability
    assert got.imag < -1


def test_frozen_interior_elements():
    h1 = build_h1_matrix(6, "paper")
    basis = FockBasis(6)
    got = h1[basis.index((2, 0, 0)), basis.index((0, 0, 0))]
    assert abs(got - (-3 * math.sqrt(2) / 4) * 1j) < 1e-12
    # parity forbids odd transfer
    assert h1[basis.index((0, 0, 0)), basis.index((1, 0, 0))] == 0
    assert h1[basis.index((1, 1, 1)), basis.index((0, 0, 0))] == 0


def antihermitian_part(h):
    """H_I = (H - H^dagger)/2i as a sparse matrix, formed from h.matrix
    alone, independently of FockOperator.h_i_diagonal."""
    return (h.matrix - h.matrix.conj().T) / 2j


def test_hermitian_split_is_exact():
    h = build_h_eff(4, 0.01, "paper")
    h_r = (h.matrix + h.matrix.conj().T) / 2
    h_i = antihermitian_part(h)
    assert np.array_equal(h_r.toarray(), h_r.conj().T.toarray())
    assert np.array_equal(h_i.toarray(), h_i.conj().T.toarray())
    recon = h_r + 1j * h_i
    assert np.max(np.abs(recon.toarray() - h.matrix.toarray())) < 1e-15


@pytest.mark.parametrize("mode", MODES)
def test_ladder_route_agrees_with_quadrature(mode):
    # Gauss-Hermite quadrature of the symbolic operator pins the closed
    # form, independently of the Kronecker route
    op1 = hamiltonian_operator(mode).theta_slice(1)
    h1 = build_h1_matrix(6, mode)
    basis = FockBasis(6)
    for bra in states_up_to(3):
        for ket in states_up_to(3):
            lm = h1[basis.index(bra), basis.index(ket)]
            qd = element_3d(op1, bra, ket)
            assert abs(lm - qd) < 1e-10, (bra, ket)


def test_hermite_prefactors_normalized():
    from numpy.polynomial.hermite import hermgauss

    nodes, weights = hermgauss(48)
    for n in (0, 1, 4, 9):
        p = hermite_prefactor(n)
        assert np.dot(weights, p(nodes) ** 2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        hermite_prefactor(-1)


def test_quadrature_identity_and_position():
    assert element_1d(2, 0, 0, 2) == pytest.approx(1.0, abs=1e-12)
    assert element_1d(2, 0, 0, 3) == pytest.approx(0.0, abs=1e-13)
    assert element_1d(0, 1, 0, 1) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert element_1d(0, 0, 1, 1) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_sparsity_offsets_even_and_axis_aligned():
    basis = FockBasis(6)
    rep = sparsity_pattern(build_h1_matrix(6, "paper"), basis)
    singles = {
        tuple(s * v for v in axis)
        for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        for s in (-2, 2)
    }
    assert set(rep["offsets"]) == singles | {(0, 0, 0)}
    assert all(all(v % 2 == 0 for v in off) for off in rep["offsets"])
    assert rep["inside_conjecture"] == ((0, 0, 0),)
    assert rep["outside_conjecture"] == tuple(sorted(singles))
    assert 0.0 < rep["outside_weight_fraction"] < 1.0


def pairwise_scan(h1, basis, tol=1e-12, margin=4):
    """Reference for sparsity_pattern: every interior pair, kets then bras."""
    interior = [s for s in basis.states() if max(s) <= basis.n_max - margin]
    offsets, weights = {}, [0.0, 0.0]
    for ket in interior:
        for bra in interior:
            mag = abs(h1[basis.index(bra), basis.index(ket)])
            if mag <= tol:
                continue
            delta = tuple(b - k for b, k in zip(bra, ket))
            offsets[delta] = max(offsets.get(delta, 0.0), mag)
            weights[delta not in CONJECTURED_OFFSETS] += mag * mag
    return offsets, weights


@pytest.mark.parametrize("n_max, mode", [(6, "paper"), (8, "rederived")])
def test_sparsity_matches_pairwise_scan(n_max, mode):
    # the scan walks bras, then kets; |H1| is symmetric, so that sums the
    # same magnitudes in the same order as this scan over kets, then bras,
    # and the weights agree to the bit
    h1 = build_h1_matrix(n_max, mode)
    rep = sparsity_pattern(h1, FockBasis(n_max))
    offsets, weights = pairwise_scan(h1.toarray(), FockBasis(n_max))
    assert rep["max_magnitude"] == {
        ",".join(map(str, k)): v for k, v in sorted(offsets.items())}
    assert [rep["weight_inside"], rep["weight_outside"]] == weights


@pytest.mark.parametrize("mode", MODES)
def test_h1_magnitudes_are_symmetric(mode):
    # the premise of the scan's summation order: every coupling is stored
    # with its exact negative
    for n_max in range(6, 17):
        a = abs(build_h1_matrix(n_max, mode))
        assert (a != a.T).nnz == 0


def test_sparsity_no_odd_offsets():
    # single-step and triple-step transfers are absent: the cubic terms
    # cancel pairwise, leaving only even ladder moves
    rep = sparsity_pattern(build_h1_matrix(6, "paper"), FockBasis(6))
    assert (1, 0, 0) not in rep["offsets"]
    assert (3, 0, 0) not in rep["offsets"]
    assert (-1, 0, 0) not in rep["offsets"]


def test_sparsity_at_theta_zero():
    h = build_h_eff(6, 0.0, "paper")
    rep = sparsity_pattern(h.matrix, h.basis)
    assert rep["offsets"] == ((0, 0, 0),)
    assert rep["outside_weight_fraction"] == 0.0


def test_sparsity_cutoff_stable():
    rep6 = sparsity_pattern(build_h1_matrix(6, "paper"), FockBasis(6))
    rep8 = sparsity_pattern(build_h1_matrix(8, "paper"), FockBasis(8))
    assert rep6["offsets"] == rep8["offsets"]
    with pytest.raises(ValueError):
        sparsity_pattern(build_h1_matrix(2, "paper"), FockBasis(2))


def test_sparsity_report_json():
    rep = sparsity_pattern(build_h1_matrix(6, "paper"), FockBasis(6))
    doc = json.loads(json.dumps(rep, default=_json_default))
    assert doc["contained_in_conjecture"] is False
    assert doc["outside_weight_fraction"] == rep["outside_weight_fraction"]
    assert [0, 0, 0] in doc["offsets"]


# the identity and the six single-axis +-2 moves
SECTOR_OFFSETS = {(0, 0, 0)} | {
    tuple(s * v for v in axis)
    for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for s in (-2, 2)
}


@pytest.mark.parametrize("n_max, mode", [(n, m) for n in range(2, 9) for m in MODES])
def test_parity_sectors_conserved(n_max, mode):
    # per-axis degree parity of every generating term, computed from the
    # symbolic operator itself
    op1 = hamiltonian_operator(mode).theta_slice(1)
    parities = set()
    for (dx, dy, dz), poly in op1.terms.items():
        for (a, b, c, _t) in poly.terms:
            parities.add(((a + dx) % 2, (b + dy) % 2, (c + dz) % 2))
    assert parities == {(0, 0, 0)}
    # every stored coupling stays in one sector, by one of the 7 offsets
    occ = FockBasis(n_max).occupations
    bras, kets = build_h1_matrix(n_max, mode).nonzero()
    assert np.array_equal(occ[bras] % 2, occ[kets] % 2)
    deltas = set(map(tuple, (occ[bras] - occ[kets]).tolist()))
    assert deltas <= SECTOR_OFFSETS


def test_largest_sector_matches_run_bytes():
    # spectrum and evolve are charged the build of the even sector, the one
    # the ground state lies in and the largest: (n_max//2 + 1)^3 states,
    # and the operator it keeps fits in that charge
    for n_max in range(1, 15):
        sizes = [FockBasis(n_max, sector).dim for sector in SECTORS]
        assert max(sizes) == sizes[0] == (n_max // 2 + 1) ** 3
        assert FockBasis(n_max, EVEN).dim == sizes[0]
        nnz = build_h_eff(n_max, 0.01, "paper", EVEN).matrix.nnz
        assert run_bytes(sizes[0], 0) - FIXED_BYTES == 7 * sizes[0] * 56 >= nnz * 24


def test_mixing_amplitudes_from_ground_state():
    basis = FockBasis(6)
    h1 = build_h1_matrix(6, "paper")
    amps = mixing_amplitudes(h1, basis, (0, 0, 0))
    assert set(amps) == {(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)}
    assert amps[(2, 0, 0)] == pytest.approx(-3 * math.sqrt(2) / 4 * 1j)
    op1 = hamiltonian_operator("paper").theta_slice(1)
    for target, amp in amps.items():
        assert amp == pytest.approx(
            element_3d(op1, target, (0, 0, 0)), abs=1e-10
        )
    # the conjectured nearest-neighbor targets receive nothing
    for off in sorted(CONJECTURED_OFFSETS):
        if off != (0, 0, 0):
            assert tuple(off) not in amps


@pytest.mark.parametrize("n_max", [6, 10, 16])
@pytest.mark.parametrize("mode", MODES)
def test_h1_closed_form(mode, n_max):
    # H1 = iK with K real: the diagonal is i*D(N), the first-order energy
    # shifts, and each axis couples n to n +- 2 e_j only.  The closed-form
    # build against the Kronecker reference route
    h1 = build_h1_matrix(n_max, mode)
    reference = operator_matrix(_h1_operator(mode), n_max)
    assert np.all(reference.data.real == 0.0)
    bound = 1e-14 * abs(reference).max()
    assert abs(h1 - reference).max() <= bound
    assert h1.nnz == reference.nnz


@pytest.mark.parametrize("n_max", [6, 10, 16])
@pytest.mark.parametrize("mode", MODES)
def test_h1_is_exactly_imaginary_and_antisymmetric_off_diagonal(mode, n_max):
    h1 = build_h1_matrix(n_max, mode)
    assert h1.has_sorted_indices
    assert np.all(h1.data.real == 0.0)
    sym = sp.csr_array(h1 + h1.T)
    sym.setdiag(0)
    sym.eliminate_zeros()
    assert sym.nnz == 0
    # so H_I = theta*D(n), exactly diagonal, and H_R carries every coupling
    h = build_h_eff(n_max, 0.01, mode)
    h_i = antihermitian_part(h)
    bras, kets = h_i.nonzero()
    assert h_i.nnz == h.basis.dim
    assert np.array_equal(bras, kets)
    assert np.array_equal(h_i.diagonal(), 0.01 * h1.diagonal().imag)


@pytest.mark.parametrize("n_max", [8, 12, 16])
@pytest.mark.parametrize("mode", MODES)
def test_gauge_makes_h_complex_symmetric_with_real_couplings(mode, n_max):
    # S = diag(i^floor(N/2)) turns each coupling i*theta*A (A real
    # antisymmetric, N -> N +- 2) real and symmetric: G = S H S^-1 =
    # H0 + theta*(B + iD) with B real symmetric; S^-1 = conj(S), and
    # multiplying by a power of i is exact
    h = build_h_eff(n_max, 0.01, mode)
    quarter = h.basis.occupations.sum(axis=1) // 2 % 4
    s = np.array([1, 1j, -1, -1j])[quarter]
    g = sp.csr_array(sp.diags_array(s) @ h.matrix @ sp.diags_array(s.conj()))
    assert abs(g - g.T).max() == 0.0
    off = g.copy()
    off.setdiag(0)
    assert np.all(off.data.imag == 0.0)
    assert np.array_equal(g.diagonal(), h.matrix.diagonal())


def even_ground(n_max, theta, mode):
    """The even-sector eigenvalue of H nearest the unperturbed 3/2."""
    lam = np.linalg.eigvals(build_h_eff(n_max, theta, mode, EVEN).matrix.toarray())
    return lam[np.argmin(abs(lam - 1.5))]


@pytest.mark.parametrize("mode, d0", [("paper", -1.5), ("rederived", -3.0)])
def test_ground_state_shift_through_second_order(mode, d0):
    # lambda = 3/2 + i*theta*D(0) + theta^2*mu + O(theta^3), with
    # mu = -sum_j <0|H1|2e_j><2e_j|H1|0>/2 = -sum_j c_j(0)^2 = -83/16 from
    # the three states one level spacing (2) above; each remainder falls
    # by 2^order per halving of theta
    h1 = build_h1_matrix(4, mode)
    basis = FockBasis(4)
    ground = basis.index((0, 0, 0))
    raised = [basis.index(s) for s in ((2, 0, 0), (0, 2, 0), (0, 0, 2))]
    mu = -sum(h1[ground, k] * h1[k, ground] for k in raised) / 2
    assert mu == -83 / 16
    thetas = (0.02, 0.01, 0.005)
    lams = [even_ground(8, t, mode) for t in thetas]
    for t, lam in zip(thetas, lams):
        assert abs(lam - even_ground(10, t, mode)) <= 2e-11
    first = [abs(lam - 1.5 - 1j * t * d0) for t, lam in zip(thetas, lams)]
    second = [abs(lam - 1.5 - 1j * t * d0 - t * t * mu) for t, lam in zip(thetas, lams)]
    for coarse, fine in zip(first, first[1:]):
        assert 3.5 <= coarse / fine <= 4.5
    for coarse, fine in zip(second, second[1:]):
        assert 7.0 <= coarse / fine <= 9.5


def pair_operator(n_max, up, down):
    """The theta = 0 operator with up at <2,0,0|H|0,0,0> and down at
    <0,0,0|H|2,0,0>, a pair inside one parity sector."""
    basis = FockBasis(n_max)
    matrix = build_h_eff(n_max, 0.0, "paper").matrix.tolil()
    ground, raised = basis.index((0, 0, 0)), basis.index((2, 0, 0))
    matrix[raised, ground] = up
    matrix[ground, raised] = down
    return FockOperator(matrix=matrix.tocsr(), basis=basis)


def test_h_i_diagonal_refuses_an_off_diagonal_antihermitian_part():
    # +i in both slots is anti-Hermitian: H_I would join the two states
    h = pair_operator(4, 1j, 1j)
    with pytest.raises(ValueError, match="not diagonal"):
        h.h_i_diagonal
    # +i and -i are a Hermitian pair, which H_R carries
    h = pair_operator(4, 1j, -1j)
    assert np.array_equal(h.h_i_diagonal, np.zeros(h.basis.dim))


@pytest.mark.parametrize("n_max", [6, 16])
@pytest.mark.parametrize("mode", MODES)
def test_h_i_diagonal_is_theta_d(mode, n_max):
    # H1 = iK with K's diagonal D(N), so H_I = theta D(N) exactly
    theta = 0.01
    n1, n2, n3 = FockBasis(n_max).occupations.T
    d = {"paper": -(1.5 + 2 * n1 + n2),
         "rederived": -(3.0 + 3 * n1 + 2 * n2 + n3)}[mode]
    assert np.array_equal(build_h_eff(n_max, theta, mode).h_i_diagonal, theta * d)


def test_h_i_diagonal_is_read_only():
    # the array is cached, so a write would reach every later reader
    h = build_h_eff(4, 0.01, "paper")
    before = h.h_i_diagonal.copy()
    with pytest.raises(ValueError):
        h.h_i_diagonal[0] = 99.0
    assert np.array_equal(h.h_i_diagonal, before)


@pytest.mark.parametrize("n_max", [6, 10, 16])
def test_h1_mode_difference_is_minus_i_h0(n_max):
    paper, rederived = (build_h1_matrix(n_max, mode) for mode in MODES)
    h0 = sp.diags_array(h0_diagonal(n_max))
    bound = 1e-14 * max(abs(paper).max(), abs(rederived).max())
    assert abs(rederived - paper + 1j * h0).max() <= bound


def test_energy_shift_builds_the_operator_once_per_mode(monkeypatch):
    # the Kronecker reference at several cutoffs comes from one theta
    # slice per mode, and the shared slice builds the same bits as a
    # fresh one
    calls = []

    def counted(mode):
        calls.append(mode)
        return hamiltonian_operator(mode)

    monkeypatch.setattr(fock, "hamiltonian_operator", counted)
    fock._h1_operator.cache_clear()
    for mode in MODES:
        fresh = hamiltonian_operator(mode).theta_slice(1)
        for n_max in (4, 6, 8, 10):
            h1 = operator_matrix(fock._h1_operator(mode), n_max)
            want = operator_matrix(fresh, n_max)
            assert np.array_equal(h1.diagonal(), want.diagonal())
            assert (h1 != want).nnz == 0
    assert sorted(calls) == ["paper", "rederived"]


@pytest.mark.parametrize("cached", [_axis_term_matrix, element_1d, hermite_prefactor])
def test_caches_are_bounded(cached):
    maxsize = cached.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_h0_spectrum_exact_at_every_cutoff():
    for n_max in (2, 4):
        h = build_h_eff(n_max, 0.0, "paper")
        eigs = np.sort(np.linalg.eigvalsh(h.matrix.toarray().real))
        want = np.sort(h0_diagonal(n_max))
        assert np.array_equal(eigs, want)

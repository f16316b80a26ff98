"""Evolution tests: closed-form decay oracle, unitarity in the
undeformed limit, integrator cross-validation, the norm-flow identity
dP/dt = 2<H_I> and its dt^2 order, the support a run leaves untouched,
the invariant-subspace stop, the truncation guard rails against a step-by-step reference loop, and the Krylov steps
against scipy's dense expm and expm_multiply."""

import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from qweyl import cli, dynamics
from qweyl.dynamics import (
    EDGE_OCCUPATION_LIMIT,
    WINDOW_CAP,
    decay_operator,
    expm as block_expm,
    gain_loss_map,
    initial_norm_rate,
    norm_flow_check,
    propagate,
)
from qweyl.fock import EVEN, FockBasis, FockOperator, build_h1_matrix, build_h_eff
from qweyl.realization import MODES


def ground(n_max):
    basis = FockBasis(n_max)
    return basis, basis.vector((0, 0, 0))


def parity_labels(basis):
    """The parity sector of each state, (n1%2, n2%2, n3%2) read as a 3-bit
    label in 0..7, from the occupation table alone."""
    return (basis.occupations % 2) @ (4, 2, 1)


def antihermitian_part(h):
    """H_I = (H - H^dagger)/2i as a sparse matrix, formed from h.matrix
    alone, independently of FockOperator.h_i_diagonal."""
    return (h.matrix - h.matrix.conj().T) / 2j


def quiet_propagate(*args, **kwargs):
    """propagate with its edge-abort RuntimeWarning silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return propagate(*args, **kwargs)


def reference_propagate(h, psi0, T, dt, method="matrix-exponential"):
    """Step-by-step evolution with the checks inside the loop.

    Evolves the parity sectors psi0 occupies and checks every point as
    it is made: non-finite amplitudes raise, an edge state above
    EDGE_OCCUPATION_LIMIT stops the run.  Returns (sectors, states,
    warning text or None), sectors the indices into h.basis of those
    sectors' states and states the rows over them.
    """
    parity = parity_labels(h.basis)
    sectors = np.flatnonzero(np.isin(parity, parity[psi0 != 0]))
    matrix = h.matrix[sectors][:, sectors]
    if method == "fourth-order-explicit":
        def step(v):
            k1 = -1j * (matrix @ v)
            k2 = -1j * (matrix @ (v + 0.5 * dt * k1))
            k3 = -1j * (matrix @ (v + 0.5 * dt * k2))
            k4 = -1j * (matrix @ (v + dt * k3))
            return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:
        # the exact step, from scipy's dense expm
        u = expm(-1j * dt * matrix.toarray())

        def step(v):
            return u @ v
    edge = (h.basis.occupations[sectors] > h.basis.n_max - 2).any(axis=1)
    n_steps = int(round(T / dt))
    states = [psi0[sectors]]
    for k in range(n_steps + 1):
        if k:
            with np.errstate(over="ignore", invalid="ignore"):
                v = step(states[-1])
            if not np.all(np.isfinite(v)):
                raise RuntimeError(
                    f"non-finite amplitudes at t = {k * dt:.6g}; "
                    "growth overflowed the truncated basis"
                )
            states.append(v)
        occ = float(np.max(np.abs(states[-1][edge]) ** 2, initial=0.0))
        if occ > EDGE_OCCUPATION_LIMIT:
            where = f"at t = {k * dt:.6g}" if k else "in the initial state"
            return sectors, np.array(states), (
                f"edge occupation {occ:.3g} {where} exceeds "
                f"{EDGE_OCCUPATION_LIMIT}; stopping early"
            )
    return sectors, np.array(states), None


TRACKED = ((0, 0, 0), (2, 0, 0))


def assert_streams_match(traj, h, sectors, states):
    """The streamed series and final state of traj hold, to 1e-12, the
    ones computed row by row from the reference loop's states over
    sectors, which carry their own stepping round-off; <H_I> is also held
    to round-off of the full expectation <psi|H_I|psi>, and the times are
    the grid's, bit for bit.  Every final amplitude off sectors is exactly
    zero.  norms, h_i and the tracked occupations are views of the
    columns of series, in that order, the order of trajectory.csv."""
    named = [traj.norms, traj.h_i, *traj.tracked.values()]
    assert np.array_equal(traj.series, np.column_stack(named))
    assert all(np.shares_memory(series, traj.series) for series in named)
    weights = np.abs(states) ** 2
    assert np.array_equal(traj.times, np.arange(len(states)) * traj.dt)
    assert np.max(np.abs(traj.norms - np.sum(weights, axis=1))) <= 1e-12
    h_i = np.sum(weights * h.h_i_diagonal[sectors], axis=1)
    assert np.max(np.abs(traj.h_i - h_i)) <= 1e-12
    generator = antihermitian_part(h)[sectors][:, sectors]
    full = np.vecdot(states, states @ generator.T).real
    assert np.max(np.abs(h_i - full)) <= 1e-14 * np.max(np.abs(full))
    assert np.max(np.abs(traj.states[:, sectors] - states[-1:])) <= 1e-12
    assert not np.delete(traj.states, sectors, axis=1).any()
    for state in TRACKED:
        column = np.searchsorted(sectors, h.basis.index(state))
        occupation = np.abs(states[:, column]) ** 2
        assert np.max(np.abs(traj.tracked[state] - occupation)) <= 1e-12


@pytest.fixture
def point_spy(monkeypatch):
    """One list per propagate call that gets as far as stepping, of a
    (left, filled, m) triple per Krylov run past point 0's: the grid
    points left to step, the rows the run filled and its basis size,
    the last two None where the iteration raised."""
    calls = []
    krylov_runs = dynamics._krylov_runs

    def spied_runs(matrix, dt, psi0, end):
        calls.append([])
        runs = krylov_runs(matrix, dt, psi0, end)
        yield next(runs)
        start = 1
        while start < end:
            calls[-1].append((end - start, None, None))
            e, v, beta = next(runs)
            calls[-1][-1] = (end - start, len(e), len(v))
            start += len(e)
            yield e, v, beta

    monkeypatch.setattr(dynamics, "_krylov_runs", spied_runs)
    return calls


def fills(calls):
    """The (left, filled) pairs of each propagate call point_spy saw."""
    return [[(left, filled) for left, filled, _ in runs] for runs in calls]


def stepped(runs):
    """The grid points one propagate call's Krylov runs filled."""
    return sum(filled for _, filled, _ in runs)


class TestClosedFormOracles:
    def test_decay_matches_exponential_law(self):
        # diagonal sink: P(t) = exp(-2*alpha*t) exactly
        basis = FockBasis(3)
        psi0 = basis.vector((1, 1, 0))
        for alpha in (0.1, 0.5, 1.0):
            h = decay_operator(3, alpha)
            traj = propagate(h, psi0, T=5.0, dt=1e-3)
            exact = np.exp(-2.0 * alpha * traj.times)
            rel = np.max(np.abs(traj.norms - exact) / exact)
            assert rel <= 1e-8

    def test_decay_operator_structure(self):
        h = decay_operator(2, 0.7)
        basis = FockBasis(2)
        gen = antihermitian_part(h)
        assert np.array_equal(gen.toarray(), -0.7 * np.eye(basis.dim))
        assert np.array_equal(h.h_i_diagonal, np.full(basis.dim, -0.7))
        herm = (h.matrix + h.matrix.conj().T) / 2
        expected = np.diag([sum(state) + 1.5 for state in basis.states()])
        assert np.array_equal(herm.toarray(), expected)

    def test_unitarity_in_undeformed_limit(self):
        h = build_h_eff(4, 0.0, "paper")
        _, psi0 = ground(4)
        traj = propagate(h, psi0, T=10.0, dt=1e-3)
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-10

    def test_occupations_constant_in_undeformed_limit(self):
        h = build_h_eff(3, 0.0, "paper")
        basis = FockBasis(3)
        psi0 = (basis.vector((0, 0, 0)) + basis.vector((1, 1, 0)))
        psi0 /= np.linalg.norm(psi0)
        tracked = ((0, 0, 0), (1, 1, 0), (2, 0, 0))
        traj = propagate(h, psi0, T=2.0, dt=1e-2, track=tracked)
        for state in tracked:
            occ = traj.tracked[state]
            assert np.max(np.abs(occ - occ[0])) <= 1e-12
        # the final state still acquires relative phase
        assert traj.states.shape == (1, basis.dim)
        assert np.max(np.abs(traj.states[0] - psi0)) > 0.1

    def test_unitarity_over_the_full_basis(self):
        # theta = 0 from a state on every basis index, so every parity
        # sector is occupied and the Arnoldi basis spans all of them; edge
        # amplitudes stay under the edge limit
        n_max = 4
        h = build_h_eff(n_max, 0.0, "paper")
        basis = FockBasis(n_max)
        rng = np.random.default_rng(7)
        psi0 = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        psi0[(basis.occupations > n_max - 2).any(axis=1)] = 1e-4
        psi0 /= np.linalg.norm(psi0)
        assert len(np.unique(parity_labels(basis)[psi0 != 0])) == 8
        traj = propagate(h, psi0, T=10.0, dt=1e-3)
        assert not traj.edge_aborted
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-10


def rk4_series(h, psi0, T, dt):
    """Norms, <H_I> and final state of the RK4 reference loop, over the
    states of the parity sectors psi0 occupies (sectors)."""
    sectors, states, message = reference_propagate(h, psi0, T, dt,
                                                   "fourth-order-explicit")
    assert message is None
    generator = antihermitian_part(h)[sectors][:, sectors]
    norms = np.sum(np.abs(states) ** 2, axis=1)
    h_i = np.vecdot(states, states @ generator.T).real
    return sectors, norms, h_i, states[-1]


class TestIntegrators:
    def test_methods_agree(self):
        # the step propagator against the independent RK4 loop
        h = build_h_eff(4, 0.01, "paper")
        _, psi0 = ground(4)
        traj = propagate(h, psi0, T=1.0, dt=1e-3)
        sectors, norms, h_i, final = rk4_series(h, psi0, 1.0, 1e-3)
        assert np.max(np.abs(traj.norms - norms)) <= 1e-9
        assert np.max(np.abs(traj.h_i - h_i)) <= 1e-9
        assert np.max(np.abs(traj.states[0, sectors] - final)) <= 1e-9
        assert not np.delete(traj.states[0], sectors).any()

    def test_propagate_validation(self):
        h = build_h_eff(2, 0.0, "paper")
        basis, psi0 = ground(2)
        with pytest.raises(ValueError, match="positive"):
            propagate(h, psi0, T=-1.0, dt=0.1)
        with pytest.raises(ValueError, match="positive"):
            propagate(h, psi0, T=1.0, dt=0.0)
        with pytest.raises(ValueError, match="multiple"):
            propagate(h, psi0, T=1.0, dt=0.3)
        with pytest.raises(ValueError, match="unit-normalized"):
            propagate(h, 2.0 * psi0, T=1.0, dt=0.1)
        with pytest.raises(ValueError, match="unit-normalized"):
            propagate(h, np.full(basis.dim, np.nan), T=1.0, dt=0.1)
        with pytest.raises(ValueError, match="dimension"):
            propagate(h, np.ones(3, dtype=complex), T=1.0, dt=0.1)
        # a tracked state must be a state of the operator's basis
        with pytest.raises(ValueError, match="outside cutoff"):
            propagate(h, psi0, T=1.0, dt=0.1, track=[(4, 0, 0)])
        even = build_h_eff(2, 0.0, "paper", EVEN)
        with pytest.raises(ValueError, match="not in parity sector"):
            propagate(even, even.basis.vector((0, 0, 0)), T=1.0, dt=0.1,
                      track=[(1, 0, 0)])

    def test_time_grid_uniform(self):
        h = build_h_eff(2, 0.0, "paper")
        _, psi0 = ground(2)
        traj = propagate(h, psi0, T=1.0, dt=0.25)
        assert np.array_equal(traj.times, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))


class TestNormFlow:
    def test_flow_identity_deformed(self):
        h = build_h_eff(4, 0.01, "paper")
        _, psi0 = ground(4)
        traj = propagate(h, psi0, T=1.0, dt=1e-3)
        assert norm_flow_check(traj) <= 1e-6

    def test_flow_identity_decay(self):
        # centered differences leave an O(dt^2) floor, well under 1e-6
        h = decay_operator(3, 0.5)
        basis = FockBasis(3)
        traj = propagate(h, basis.vector((0, 0, 0)), T=2.0, dt=1e-3)
        assert norm_flow_check(traj) <= 1e-6

    def test_flow_flat_for_hermitian(self):
        h = build_h_eff(3, 0.0, "paper")
        _, psi0 = ground(3)
        traj = propagate(h, psi0, T=1.0, dt=1e-2)
        assert norm_flow_check(traj) <= 1e-10
        assert np.max(np.abs(traj.h_i)) <= 1e-12

    @pytest.mark.parametrize("mode", MODES)
    def test_initial_rate_matches_generator_expectation(self, mode):
        # ground-state loss rate: 2 * theta * Im<000|H1|000> = 2 * theta * D(0),
        # -3 * theta in paper mode and -6 * theta in rederived mode
        d0 = {"paper": -1.5, "rederived": -3.0}[mode]
        theta = 0.01
        h = build_h_eff(6, theta, mode)
        _, psi0 = ground(6)
        traj = propagate(h, psi0, T=0.05, dt=1e-3)
        rate = initial_norm_rate(traj)
        expected = 2.0 * (psi0.conj() @ (antihermitian_part(h) @ psi0)).real
        assert abs(expected - 2.0 * theta * d0) <= 1e-12
        assert abs(rate - expected) <= 1e-6

    @pytest.mark.parametrize("mode", MODES)
    def test_flow_deviation_is_second_order_in_dt(self, mode):
        # the centered-difference floor falls 4x per dt halving; T=0.5 at
        # n_max=10 stays clear of the edge (at n_max=8, T=1 stops near 0.8)
        h = build_h_eff(10, 0.05, mode)
        _, psi0 = ground(10)
        deviations = []
        for j in range(4):
            traj = propagate(h, psi0, T=0.5, dt=0.02 / 2 ** j)
            assert not traj.edge_aborted
            deviations.append(norm_flow_check(traj))
        orders = np.log2(np.array(deviations[:-1]) / deviations[1:])
        assert np.all((1.9 <= orders) & (orders <= 2.1)), orders

    @staticmethod
    def assert_norm_within_h_i_bounds(h, traj):
        # dP/dt = 2<H_I> with H_I diagonal, so P(t) lies between
        # exp(2 min(H_I) t) and exp(2 max(H_I) t) over the sector, for
        # either sign of theta
        h_i = h.h_i_diagonal
        assert not traj.edge_aborted
        assert np.all(traj.norms >= np.exp(2.0 * h_i.min() * traj.times) * (1 - 1e-12))
        assert np.all(traj.norms <= np.exp(2.0 * h_i.max() * traj.times) * (1 + 1e-12))

    @pytest.mark.parametrize("theta", [0.01, -0.01])
    @pytest.mark.parametrize("mode", MODES)
    def test_norm_within_h_i_bounds_dense(self, mode, theta):
        # a sector small enough for a dense oracle (216 states)
        h = build_h_eff(10, theta, mode, EVEN)
        psi0 = h.basis.vector((0, 0, 0))
        traj = propagate(h, psi0, T=1.0, dt=1e-3)
        assert h.basis.dim == 216
        self.assert_norm_within_h_i_bounds(h, traj)

    @pytest.mark.parametrize("theta", [0.01, -0.01])
    @pytest.mark.parametrize("mode", MODES)
    def test_norm_within_h_i_bounds_krylov(self, mode, theta):
        # a sector of 1,331 states, past what a dense propagator would
        # hold: the bounds are its oracle, with no dense run to compare
        h = build_h_eff(20, theta, mode, EVEN)
        psi0 = h.basis.vector((0, 0, 0))
        traj = propagate(h, psi0, T=0.2, dt=1e-3)
        assert h.basis.dim == 1331
        self.assert_norm_within_h_i_bounds(h, traj)

    def test_short_trajectories_rejected(self):
        h = build_h_eff(2, 0.0, "paper")
        _, psi0 = ground(2)
        traj = propagate(h, psi0, T=0.1, dt=0.1)
        with pytest.raises(ValueError, match="three"):
            norm_flow_check(traj)
        with pytest.raises(ValueError, match="three"):
            initial_norm_rate(traj)


class TestTransfer:
    def test_short_time_rates_follow_matrix_elements(self):
        # first-order perturbation theory: occ(m) ~ |theta*<m|H1|n>|^2 t^2
        theta = 0.01
        h = build_h_eff(6, theta, "paper")
        basis = FockBasis(6)
        psi0 = basis.vector((1, 0, 0))
        targets = ((3, 0, 0), (1, 2, 0), (1, 0, 2))
        traj = propagate(h, psi0, T=0.01, dt=1e-3, track=targets)
        m1 = build_h1_matrix(6, "paper")
        col = basis.index((1, 0, 0))
        t = traj.times[-1]
        for target in targets:
            occ = traj.tracked[target][-1]
            predicted = (theta * abs(m1[basis.index(target), col]) * t) ** 2
            assert occ == pytest.approx(predicted, rel=5e-3)

    def test_transfer_respects_coupling_pattern(self):
        h = build_h_eff(6, 0.01, "paper")
        basis = FockBasis(6)
        _, psi0 = ground(6)
        forbidden = ((1, 0, 0), (1, 1, 0), (1, 1, 1))
        far = ((4, 0, 0), (2, 2, 0))
        traj = propagate(h, psi0, T=0.01, dt=1e-3,
                         track=forbidden + far + ((2, 0, 0),))
        # parity-forbidden states never populate
        for target in forbidden:
            assert np.max(traj.tracked[target]) == 0.0
        # even states two hops away stay below the direct-coupling scale
        for target in far:
            assert np.max(traj.tracked[target]) <= 1e-10
        # directly coupled states do populate
        assert traj.tracked[(2, 0, 0)][-1] > 1e-9

    @pytest.mark.parametrize("mode", MODES)
    def test_damped_first_order_occupation_law(self, mode):
        # From |000>, first-order perturbation theory with the damping
        # kept: |2e_j> holds |a_j(t)|^2 with
        #   a_j = theta sqrt(2) c_j(0) (e^{r_j t} - 1) / r_j e^{theta D(0) t},
        #   r_j = 2i + theta (D(2e_j) - D(0)),
        # c_j(0) = -(j + 1/2)/2 and D the diagonal of K in H1 = iK.  The next
        # correction is third order in theta (no two-hop path ends on
        # |2e_j>), so the relative deviation falls about 4x per halving;
        # dropping the damping difference from r_j leaves it first order.
        def damping(n1, n2, n3):
            if mode == "paper":
                return -(1.5 + 2 * n1 + n2)
            return -(3 + 3 * n1 + 2 * n2 + n3)

        targets = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
        errors = []
        for theta in (0.01, 0.005, 0.0025):
            h = build_h_eff(12, theta, mode)
            _, psi0 = ground(12)
            traj = propagate(h, psi0, T=5.0, dt=1e-3, track=targets)
            t = traj.times
            assert not traj.edge_aborted
            deviation = prediction = 0.0
            for j, target in enumerate(targets, start=1):
                c = -(j + 0.5) / 2
                r = 2j + theta * (damping(*target) - damping(0, 0, 0))
                a = (theta * np.sqrt(2) * c * np.expm1(r * t) / r
                     * np.exp(theta * damping(0, 0, 0) * t))
                law = np.abs(a) ** 2
                deviation = max(deviation, np.max(np.abs(traj.tracked[target] - law)))
                prediction = max(prediction, np.max(law))
            errors.append(deviation / prediction)
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.0 <= coarse / fine <= 4.5

    def test_gain_loss_map_ground_state(self):
        h = build_h_eff(6, 0.01, "paper")
        _, psi0 = ground(6)
        tracked = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 0, 0)]
        traj = propagate(h, psi0, T=0.1, dt=1e-3, track=tracked)
        gmap = gain_loss_map(traj)
        net = gmap["net_change"]
        assert net["0,0,0"] < 0.0
        for target in ("2,0,0", "0,2,0", "0,0,2"):
            assert net[target] > 0.0
        assert net["1,0,0"] == 0.0
        assert [0, 0, 0] in gmap["losing"]
        assert [2, 0, 0] in gmap["gaining"]

    def test_gain_loss_map_lists_the_tracked_states_in_order(self):
        h = build_h_eff(4, 0.01, "paper")
        _, psi0 = ground(4)
        tracked = [(0, 0, 2), (1, 0, 0), (0, 0, 0), (2, 0, 0)]
        traj = propagate(h, psi0, T=0.05, dt=1e-2, track=tracked)
        assert list(gain_loss_map(traj)["net_change"]) == ["0,0,2", "1,0,0",
                                                           "0,0,0", "2,0,0"]
        untracked = propagate(h, psi0, T=0.05, dt=1e-2)
        assert gain_loss_map(untracked) == {"net_change": {}, "gaining": [],
                                            "losing": []}

    def test_gain_loss_map_flat_when_undeformed(self):
        h = build_h_eff(3, 0.0, "paper")
        _, psi0 = ground(3)
        tracked = [(0, 0, 0), (2, 0, 0)]
        traj = propagate(h, psi0, T=1.0, dt=1e-2, track=tracked)
        gmap = gain_loss_map(traj)
        net = gmap["net_change"]
        assert net["0,0,0"] == pytest.approx(0.0, abs=1e-12)
        # no state gains or loses more than 1e-12
        assert all(abs(d) <= 1e-12 for d in net.values())

    def test_gain_loss_map_lists_nothing_when_undeformed(self):
        # 100,000 steps of the ground state at theta = 0 leave a net
        # change of round-off size, which is neither a gain nor a loss
        h = build_h_eff(4, 0.0, "paper")
        _, psi0 = ground(4)
        tracked = [(0, 0, 0), (2, 0, 0)]
        traj = propagate(h, psi0, T=10.0, dt=1e-4, track=tracked)
        gmap = gain_loss_map(traj)
        assert 0 < abs(gmap["net_change"]["0,0,0"]) <= 1e-12
        assert gmap["gaining"] == [] and gmap["losing"] == []


class TestGuardRails:
    def test_edge_abort_flags_and_truncates(self):
        # at n_max=2 the ground state couples straight into the cutoff edge
        h = build_h_eff(2, 0.5, "paper")
        _, psi0 = ground(2)
        edge_states = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
        with pytest.warns(RuntimeWarning, match="edge occupation"):
            traj = propagate(h, psi0, T=1.0, dt=1e-3, track=edge_states)
        assert traj.edge_aborted
        assert len(traj.times) < 1001
        assert len(traj.norms) == len(traj.h_i) == len(traj.times)
        assert all(len(traj.tracked[s]) == len(traj.times) for s in edge_states)
        assert traj.states.shape == (1, h.basis.dim)
        edge_final = max(traj.tracked[s][-1] for s in edge_states)
        assert edge_final > EDGE_OCCUPATION_LIMIT

    def test_edge_abort_on_initial_state(self):
        h = build_h_eff(2, 0.0, "paper")
        basis = FockBasis(2)
        psi0 = basis.vector((2, 2, 2))
        with pytest.warns(RuntimeWarning, match="initial state"):
            traj = propagate(h, psi0, T=1.0, dt=0.1)
        assert traj.edge_aborted
        assert len(traj.times) == 1

    def test_non_finite_amplitudes_raise(self):
        basis = FockBasis(2)
        grow = FockOperator(
            matrix=sp.diags_array(np.full(basis.dim, 1000.0j), format="csr"),
            basis=basis,
        )
        psi0 = basis.vector((0, 0, 0))
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("ignore")
            with pytest.raises(RuntimeError, match="non-finite"):
                propagate(grow, psi0, T=2.0, dt=1.0)

    def test_non_diagonal_h_i_is_refused_before_any_step(self, point_spy):
        # +i in both slots of a pair inside one parity sector: the
        # anti-Hermitian part couples (0,0,0) and (2,0,0)
        basis = FockBasis(4)
        matrix = build_h_eff(4, 0.0, "paper").matrix.tolil()
        ground, raised = basis.index((0, 0, 0)), basis.index((2, 0, 0))
        matrix[raised, ground] = matrix[ground, raised] = 1j
        h = FockOperator(matrix=matrix.tocsr(), basis=basis)
        with pytest.raises(ValueError, match="not diagonal"):
            propagate(h, basis.vector((0, 0, 0)), T=0.1, dt=1e-3)
        assert point_spy == []

    def test_no_renormalization(self):
        h = decay_operator(2, 1.0)
        basis = FockBasis(2)
        traj = propagate(h, basis.vector((0, 0, 0)), T=2.0, dt=1e-2)
        assert traj.norms[-1] < 0.05


class TestAbortSemantics:
    """The windowed checks stop where checking every step stops."""

    @staticmethod
    def check_abort(n_max, theta, mode, dt, T):
        # the reference loop steps with scipy's dense expm; the RK4 loop
        # stops at the same point
        h = build_h_eff(n_max, theta, mode)
        _, psi0 = ground(n_max)
        sectors, states, message = reference_propagate(h, psi0, T, dt)
        assert message is not None
        with pytest.warns(RuntimeWarning) as record:
            traj = propagate(h, psi0, T=T, dt=dt, track=TRACKED)
        assert [str(w.message) for w in record] == [message]
        assert traj.edge_aborted
        assert_streams_match(traj, h, sectors, states)
        _, rk4, _ = reference_propagate(h, psi0, T, dt, "fourth-order-explicit")
        assert len(rk4) == len(traj.times)

    @pytest.mark.parametrize("n_max, theta, mode, dt", [
        (3, 0.5, "paper", 1e-2),
        (4, 0.05, "paper", 1e-3),
        (6, 0.05, "rederived", 1e-3),
    ])
    def test_edge_abort_matches_reference(self, n_max, theta, mode, dt):
        self.check_abort(n_max, theta, mode, dt, 1.0)

    def test_edge_abort_stops_with_the_run_that_holds_it(self, point_spy):
        # dt = 0.25 on the n_max 8 even sector: Saad's estimate holds for
        # 3 points on each basis, so the stop at t = 1 is the first point
        # of the second run, and none of the 197 points after that run is
        # ever stepped
        h = build_h_eff(8, 0.05, "paper", EVEN)
        psi0 = h.basis.vector((0, 0, 0))
        sectors, states, message = reference_propagate(h, psi0, 50.0, 0.25)
        with pytest.warns(RuntimeWarning) as record:
            traj = propagate(h, psi0, T=50.0, dt=0.25, track=TRACKED)
        assert [str(w.message) for w in record] == [message]
        assert traj.edge_aborted and len(traj.times) == 5
        assert_streams_match(traj, h, sectors, states)
        assert fills(point_spy) == [[(200, 3), (197, 3)]]

    @pytest.mark.parametrize("mode", MODES)
    def test_edge_abort_at_n_max_10_matches_reference(self, mode):
        # the whole 216-state even sector reached, stopping near t = 1.1
        self.check_abort(10, 0.05, mode, 1e-3, 2.0)

    def test_edge_abort_steps_at_most_the_run_that_holds_it(self, point_spy):
        h = build_h_eff(6, 0.05, "rederived")
        _, psi0 = ground(6)
        traj = quiet_propagate(h, psi0, T=1.0, dt=1e-3)
        k = len(traj.times) - 1
        assert traj.edge_aborted and 0 < k < 1000
        # the run that holds the stop at point k starts at most at point k
        # and holds at most WINDOW_CAP points
        assert k <= stepped(point_spy[0]) <= k + WINDOW_CAP - 1

    def test_complete_run_steps_once_per_point(self, point_spy):
        h = build_h_eff(4, 0.01, "paper")
        _, psi0 = ground(4)
        traj = propagate(h, psi0, T=0.1, dt=1e-3)
        assert not traj.edge_aborted
        # one run covers the 100 points left: points 1..100 once each
        assert fills(point_spy) == [[(100, 100)]]

    def test_capped_windows_match_reference(self, point_spy, monkeypatch):
        # no run holds more than the cap, so a stop at point k has stepped
        # at most k + cap - 1 points
        cap = 16
        monkeypatch.setattr(dynamics, "WINDOW_CAP", cap)
        h = build_h_eff(6, 0.05, "rederived")
        _, psi0 = ground(6)
        sectors, states, message = reference_propagate(h, psi0, 1.0, 1e-3)
        with pytest.warns(RuntimeWarning) as record:
            traj = propagate(h, psi0, T=1.0, dt=1e-3, track=TRACKED)
        assert [str(w.message) for w in record] == [message]
        assert_streams_match(traj, h, sectors, states)
        k = len(traj.times) - 1
        assert k > 2 * cap
        assert k <= stepped(point_spy[0]) <= k + cap - 1

    def test_overflow_matches_reference(self, point_spy):
        # i dpsi/dt = 100i psi grows by e^100 per unit time and passes the
        # largest double near t = 7.1: at the eighth unit step
        basis = FockBasis(2)
        grow = FockOperator(
            matrix=sp.diags_array(np.full(basis.dim, 100.0j), format="csr"),
            basis=basis,
        )
        psi0 = basis.vector((0, 0, 0))
        with pytest.raises(RuntimeError) as expected:
            reference_propagate(grow, psi0, 20.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError) as raised:
                propagate(grow, psi0, T=20.0, dt=1.0)
        assert str(raised.value) == str(expected.value)
        assert "at t = 8;" in str(raised.value)
        assert stepped(point_spy[0]) <= 8 + WINDOW_CAP - 1

    def test_overflowing_table_is_cut_where_the_estimate_fails(self, point_spy):
        # the same growth on the chain (0,0,0) - (2,0,0) - ... - (16,0,0),
        # coupled by 1e-6: the table overflows at the eighth point, an
        # 8-vector basis misses the estimate at the first and never sees
        # the edge state (16,0,0), the 9-vector one is exact, and the edge
        # passes the limit at t = 2, before any amplitude overflows
        basis = FockBasis(16)
        chain = [basis.index((n, 0, 0)) for n in range(0, 17, 2)]
        hops = sp.coo_array((np.full(8, 1e-6), (chain[:-1], chain[1:])),
                            shape=(basis.dim, basis.dim))
        matrix = sp.diags_array(np.full(basis.dim, 100.0j)) + hops + hops.T
        grow = FockOperator(matrix=sp.csr_array(matrix), basis=basis)
        psi0 = basis.vector((0, 0, 0))
        sectors, states, message = reference_propagate(grow, psi0, 20.0, 1.0)
        assert message.startswith("edge occupation") and len(states) == 3
        with pytest.warns(RuntimeWarning) as record:
            traj = propagate(grow, psi0, T=20.0, dt=1.0)
        assert [str(w.message) for w in record] == [message]
        assert fills(point_spy) == [[(20, 20)]]
        norms = np.sum(np.abs(states) ** 2, axis=1)
        assert np.max(np.abs(traj.norms / norms - 1)) <= 1e-12
        error = np.max(np.abs(traj.states[0, sectors] - states[-1]))
        assert error <= 1e-12 * np.max(np.abs(states[-1]))

    def test_overflowing_norm_alone_does_not_raise(self):
        # the same growth to t = 7: P overflows from t = 4 (e^800 past the
        # largest double), while the amplitude, e^700 at t = 7, stays finite
        # where its bound passes 1e300 and the state is formed to check it
        basis = FockBasis(2)
        grow = FockOperator(
            matrix=sp.diags_array(np.full(basis.dim, 100.0j), format="csr"),
            basis=basis,
        )
        psi0 = basis.vector((0, 0, 0))
        _, states, message = reference_propagate(grow, psi0, 7.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = propagate(grow, psi0, T=7.0, dt=1.0)
        assert message is None and not traj.edge_aborted
        assert np.all(np.isfinite(traj.norms[:4])) and np.all(traj.norms[4:] == np.inf)
        assert abs(traj.states[0, 0] / states[-1, 0] - 1) <= 1e-12


class TestBlockSteps:
    """Krylov steps of the sector's sparse operator against scipy's dense
    exponential of the whole operator."""

    @pytest.mark.parametrize("mode", MODES)
    def test_points_match_dense_exponential(self, mode):
        # the evolve defaults at theta = +-0.01: each point is the final
        # state of a run that ends there, at t = 1, 3, 5 and on both sides
        # of the first WINDOW_CAP boundary
        dt = 1e-3
        for theta in (0.01, -0.01):
            h = build_h_eff(10, theta, mode, EVEN)
            psi0 = h.basis.vector((0, 0, 0))
            dense = h.matrix.toarray()
            for k in (1, 2, 3, 511, 512, 513, 1000, 3000, 5000):
                traj = propagate(h, psi0, T=k * dt, dt=dt)
                assert len(traj.times) == k + 1 and not traj.edge_aborted
                exact = expm(-1j * (k * dt) * dense) @ psi0
                error = np.max(np.abs(traj.states[0] - exact))
                assert error <= 2e-13, (theta, k, error)
                # P moves by about 2|psi| times the state's error
                p = np.vdot(exact, exact).real
                assert abs(traj.norms[-1] - p) <= 2 * np.sqrt(p) * 2e-13

    @staticmethod
    def hessenberg_blocks():
        """The blocks propagate exponentiates on the evolve defaults' even
        sector and on the large-step run, where the estimate cuts runs."""
        blocks = []
        original = dynamics.expm

        def spy(a):
            blocks.append(np.array(a))
            return original(a)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "expm", spy)
            for n_max, dt, T in ((10, 1e-3, 2.0), (6, 0.5, 20.0)):
                h = build_h_eff(n_max, 0.01, "paper", EVEN)
                propagate(h, h.basis.vector((0, 0, 0)), T=T, dt=dt)
        return blocks

    def test_expm_matches_dense_expm(self):
        # projected Hessenberg blocks, then random complex blocks with
        # 1-norms from 1e-3 to 400 (7 squarings), and the overflow test's
        # 1x1 step
        blocks = self.hessenberg_blocks()
        assert {len(a) for a in blocks} >= {8, 16, 30}
        rng = np.random.default_rng(3)
        for norm in (1e-3, 0.1, 0.5, 1.5, 4.0, 40.0, 400.0):
            for size in (2, 8, 30):
                # -i times a Hermitian matrix plus a small damping, as -i H
                g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
                a = -1j * (g + g.conj().T) - 0.01 * np.diag(rng.random(size))
                blocks.append(a * (norm / np.abs(a).sum(axis=0).max()))
        blocks.append(np.array([[100.0 + 0j]]))
        for a in blocks:
            exact = expm(a)
            error = np.max(np.abs(block_expm(a) - exact)) / np.max(np.abs(exact))
            assert error <= 1e-13, (len(a), np.abs(a).sum(axis=0).max(), error)

    def test_expm_refuses_what_a_double_cannot_hold(self):
        with pytest.raises(ValueError, match="dt\\*H is not finite"):
            block_expm(np.diag([np.inf, 1.0]))
        # e^-1e4 is below the smallest double
        for a in (np.diag([-1e4, -1e4]), np.array([[-1e4]])):
            with pytest.raises(ValueError, match="underflows to zero"):
                block_expm(a)

    def test_undeformed_norm_flow_stays_flat(self):
        # theta = 0: P is 1 and dP/dt is 0, so the centred difference over
        # 2 dt = 2e-8 reads how far apart neighbouring points' norms have
        # rounded.  Every Arnoldi basis stops at the ground state's line, an
        # invariant one, where each point is its own scalar exponential, so
        # after 300,000 steps neighbours are still a few ulps apart.
        h = build_h_eff(4, 0.0, "paper")
        _, psi0 = ground(4)
        traj = propagate(h, psi0, T=3e-3, dt=1e-8)
        assert len(traj.times) == 300_001 and not traj.edge_aborted
        assert norm_flow_check(traj) <= 3e-7

    @staticmethod
    def saad_estimate(matrix, start, dt, m, count):
        """Saad's estimate h_(m+1,m) |e_m^T F^j e_1| at points j = 1 ..
        count of the m-vector Arnoldi basis of -i dt H grown from start
        (Gram-Schmidt run twice, F from scipy's dense expm), as a running
        maximum."""
        a = -1j * dt * matrix
        v = np.zeros((m + 1, len(start)), dtype=complex)
        hess = np.zeros((m + 1, m), dtype=complex)
        v[0] = start / np.linalg.norm(start)
        for j in range(m):
            w = a @ v[j]
            for _ in range(2):
                c = v[:j + 1].conj() @ w
                w -= c @ v[:j + 1]
                hess[:j + 1, j] += c
            hess[j + 1, j] = np.linalg.norm(w)
            v[j + 1] = w / hess[j + 1, j]
        f = expm(hess[:m, :m])
        e, estimate = f[:, 0], []
        for _ in range(count):
            estimate.append(abs(hess[m, m - 1] * e[m - 1]))
            e = f @ e
        return np.maximum.accumulate(estimate)

    def test_estimate_cuts_each_run(self, point_spy):
        # dt = 0.5 on the n_max = 6 even sector (compare_outputs'
        # evolve-large-step): even a 30-vector basis misses the tolerance
        # a few points on, so each run is the prefix of its table where
        # Saad's estimate, computed here from the run's start state,
        # holds, and the points still match the dense exponential
        h = build_h_eff(6, 0.01, "paper", EVEN)
        psi0 = h.basis.vector((0, 0, 0))
        traj = propagate(h, psi0, T=50.0, dt=0.5)
        assert len(traj.times) == 101 and not traj.edge_aborted
        dense = h.matrix.toarray()
        start = 0
        for left, filled, _ in point_spy[0]:
            state = expm(-0.5j * start * dense) @ psi0
            estimate = self.saad_estimate(dense, state, 0.5, 30, left)
            assert filled == np.count_nonzero(estimate <= dynamics.KRYLOV_TOL)
            start += filled
        assert start == 100 and fills(point_spy)[0][0] == (100, 4)
        exact = expm(-50j * dense) @ psi0
        assert np.max(np.abs(traj.states[0] - exact)) <= 1e-12
        _, states, message = reference_propagate(h, psi0, 50.0, 0.5)
        assert message is None
        assert np.max(np.abs(traj.norms - np.sum(np.abs(states) ** 2, axis=1))) <= 1e-12


class TestGlobalRandomState:
    """The Krylov steps draw nothing from numpy's global random state."""

    def test_caller_stream_is_untouched(self):
        # no seed is set: whatever state the caller left is still there
        before = np.random.get_state()
        for n_max, dt in ((10, 0.1), (20, 1e-3)):
            h = build_h_eff(n_max, 0.01, "paper", EVEN)
            traj = propagate(h, h.basis.vector((0, 0, 0)), T=100 * dt, dt=dt)
            assert len(traj.times) == 101 and not traj.edge_aborted
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        assert np.array_equal(before[1], after[1])

    def test_step_propagator_independent_of_prior_seed(self):
        h = build_h_eff(10, 0.01, "paper", EVEN)
        runs = []
        for seed in (0, 1, 12345):
            np.random.seed(seed)
            runs.append(propagate(h, h.basis.vector((0, 0, 0)), T=10.0, dt=0.1))
        for run in runs[1:]:
            assert np.array_equal(run.states, runs[0].states)
            assert np.array_equal(run.norms, runs[0].norms)


class TestReachableSet:
    """Every state of the operator's basis is stepped, and each amplitude
    psi0 cannot reach through the nonzeros of H stays exactly zero."""

    @given(
        n_max=st.integers(2, 12),
        mode=st.sampled_from(MODES),
        theta=st.one_of(st.floats(-0.1, -1e-3), st.floats(1e-3, 0.1)),
    )
    @settings(max_examples=25)
    def test_ground_state_reaches_its_parity_sector(self, n_max, mode, theta):
        # H never joins two parity sectors: on the box build the ground
        # state spreads through the even sector and nowhere else
        h = build_h_eff(n_max, theta, mode)
        _, psi0 = ground(n_max)
        traj = quiet_propagate(h, psi0, T=1e-5, dt=1e-5)
        even = parity_labels(h.basis) == 0
        assert not traj.states[0, ~even].any()
        assert np.count_nonzero(traj.states[0, even]) > 1

    @given(n_max=st.integers(2, 12), mode=st.sampled_from(MODES), data=st.data())
    @settings(max_examples=25)
    def test_diagonal_operators_keep_the_support(self, n_max, mode, data):
        basis = FockBasis(n_max)
        support = data.draw(st.lists(st.integers(0, basis.dim - 1),
                                     min_size=1, max_size=8, unique=True))
        psi0 = np.zeros(basis.dim, dtype=complex)
        psi0[support] = 1.0 / np.sqrt(len(support))
        off = np.ones(basis.dim, dtype=bool)
        off[support] = False
        for h in (decay_operator(n_max, 0.5), build_h_eff(n_max, 0.0, mode)):
            traj = quiet_propagate(h, psi0, T=0.1, dt=0.1)
            assert np.all(traj.states[0, support])
            assert not traj.states[0, off].any()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", ["deformed", "undeformed", "decay"])
    def test_final_state_matches_full_basis_exponential(self, mode, kind):
        # the stored state after 200 steps against one full-basis
        # exponential over T; both are exactly zero off the states psi0
        # reaches
        n_max, T = 6, 0.2
        h = {"deformed": lambda: build_h_eff(n_max, 0.01, mode),
             "undeformed": lambda: build_h_eff(n_max, 0.0, mode),
             "decay": lambda: decay_operator(n_max, 0.5)}[kind]()
        basis = FockBasis(n_max)
        kets = [basis.index((0, 0, 0)), basis.index((1, 1, 0))]
        psi0 = np.zeros(basis.dim, dtype=complex)
        psi0[kets] = 1 / np.sqrt(2)
        traj = propagate(h, psi0, T=T, dt=1e-3)
        assert not traj.edge_aborted
        oracle = expm(-1j * T * h.matrix.toarray()) @ psi0
        assert np.max(np.abs(traj.states[0] - oracle)) <= 1e-12
        assert abs(traj.norms[-1] - np.vdot(oracle, oracle).real) <= 1e-12
        if kind == "deformed":
            reached = np.isin(parity_labels(basis), (0, 6))
        else:
            reached = np.isin(np.arange(basis.dim), kets)
        assert not oracle[~reached].any() and not traj.states[0, ~reached].any()


class TestSectors:
    @pytest.mark.parametrize("kets", [((0, 0, 0),), ((0, 0, 0), (1, 1, 0))])
    def test_sector_propagation_matches_full_basis(self, kets):
        # 200 steps of the box build against the dense propagator of the
        # whole basis
        h = build_h_eff(6, 0.01, "paper")
        basis = FockBasis(6)
        psi0 = sum(basis.vector(k) for k in kets) / np.sqrt(len(kets))
        traj = propagate(h, psi0, T=0.2, dt=1e-3)
        u = expm(-1j * 1e-3 * h.matrix.toarray())
        full = [psi0]
        for _ in range(200):
            full.append(u @ full[-1])
        full = np.array(full)
        parity = parity_labels(basis)
        inside = np.isin(parity, [parity[basis.index(k)] for k in kets])
        assert np.max(np.abs(traj.states[0] - full[-1])) <= 1e-12
        # every amplitude outside the sectors psi0 occupies stays zero:
        # exactly in propagate, to rounding in the full propagator
        assert not traj.states[0, ~inside].any()
        assert np.max(np.abs(full[:, ~inside])) <= 1e-12
        norms = np.sum(np.abs(full) ** 2, axis=1)
        assert np.max(np.abs(traj.norms - norms)) <= 1e-12
        gen = antihermitian_part(h).toarray()
        h_i = np.sum(full.conj() * (full @ gen.T), axis=1).real
        assert np.max(np.abs(traj.h_i - h_i)) <= 1e-12

    @pytest.mark.parametrize("n_max, theta, mode, T", [
        (6, 0.01, "paper", 1.0),
        (6, 0.05, "rederived", 1.0),  # stops at the edge
        (6, 0.0, "paper", 1.0),
        (20, 0.01, "paper", 0.01),  # 1,331 of 9,261 states
        (6, "decay", "paper", 1.0),
    ])
    def test_even_sector_run_is_the_box_run(self, n_max, theta, mode, T):
        # the even sector's build is the box build's block, and the box run
        # leaves every odd amplitude exactly zero.  On a diagonal H (theta
        # = 0, decay) both runs step the ground state's line through the
        # same numbers, bit for bit.  Otherwise the box's products sum the
        # same terms between exact zeros, which BLAS groups differently, so
        # the series (P, <H_I> and the occupations, none above 1) agree to
        # 4 ulps of 1 and the final amplitudes to 1e-16
        def build(sector):
            if theta == "decay":
                return decay_operator(n_max, 0.5, sector)
            return build_h_eff(n_max, theta, mode, sector)

        box, even = [quiet_propagate(h, h.basis.vector((0, 0, 0)), T=T, dt=1e-3,
                                     track=TRACKED)
                     for h in (build(None), build(EVEN))]
        inside = np.flatnonzero(parity_labels(FockBasis(n_max)) == 0)
        assert np.array_equal(FockBasis(n_max).occupations[inside],
                              FockBasis(n_max, EVEN).occupations)
        assert not np.delete(box.states, inside, axis=1).any()
        assert np.array_equal(box.times, even.times)
        assert box.edge_aborted == even.edge_aborted == (theta == 0.05)
        final = box.states[:, inside]
        if theta in (0.0, "decay"):
            assert np.array_equal(box.series, even.series)
            assert np.array_equal(final, even.states)
        else:
            assert np.max(np.abs(box.series - even.series)) <= 4 * np.finfo(float).eps
            assert np.max(np.abs(final - even.states)) <= 1e-16


class TestStreaming:
    def test_peak_memory_flat_in_steps(self):
        # doubling T at fixed dt adds 2,000 points of series (P and <H_I>,
        # 16 bytes each), never stored states, and neither run holds one
        # window of states (WINDOW_CAP rows over the 216-state sector): only
        # the basis, the forms and the short vectors e_k of one run
        h = build_h_eff(10, 0.01, "paper", EVEN)
        psi0 = h.basis.vector((0, 0, 0))
        propagate(h, psi0, T=0.01, dt=1e-3)
        peaks = []
        for T in (2.0, 4.0):
            tracemalloc.start()
            try:
                traj = propagate(h, psi0, T=T, dt=1e-3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert not traj.edge_aborted
        window = WINDOW_CAP * h.basis.dim * 16
        assert max(peaks) < window, peaks
        assert peaks[1] - peaks[0] < 2_000 * 24, peaks


class TestEdgeScreen:
    """A run is cleared by its summed edge weight, and edge rows are
    formed only for a run that weight does not clear."""

    @staticmethod
    def spy_on_edge_rows(monkeypatch):
        """The largest edge occupations of each run whose edge rows are
        formed, one array per run."""
        formed = []
        occupations = dynamics._edge_occupations

        def spy(e, v, beta, edge):
            formed.append(occupations(e, v, beta, edge))
            return formed[-1]

        monkeypatch.setattr(dynamics, "_edge_occupations", spy)
        return formed

    def test_rows_formed_where_the_edge_weight_does_not_clear(self, monkeypatch):
        # n_max 6, theta 0.05 rederived to T = 0.44: the run's edge weight
        # passes half the limit while no edge state reaches even that, so
        # the run forms its edge rows and goes on
        formed = self.spy_on_edge_rows(monkeypatch)
        h = build_h_eff(6, 0.05, "rederived", EVEN)
        psi0 = h.basis.vector((0, 0, 0))
        sectors, states, message = reference_propagate(h, psi0, 0.44, 1e-3)
        assert message is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = propagate(h, psi0, T=0.44, dt=1e-3, track=TRACKED)
        assert not traj.edge_aborted and len(traj.times) == 441
        assert_streams_match(traj, h, sectors, states)
        # the grid's one run holds points 1 .. 440
        assert [len(occ) for occ in formed] == [440]
        edge = (h.basis.occupations > 4).any(axis=1)
        largest = np.max(np.abs(states[1:, edge]) ** 2, axis=1)
        assert np.max(np.abs(formed[0] - largest)) <= 1e-12
        assert np.max(largest) < EDGE_OCCUPATION_LIMIT / 2

    def test_evolve_defaults_form_no_edge_rows(self, monkeypatch, tmp_path):
        formed = self.spy_on_edge_rows(monkeypatch)
        assert cli.main(["evolve", "--out", str(tmp_path)]) == 0
        assert formed == []

    def test_edge_abort_forms_the_rows_it_reads(self, monkeypatch):
        # the stop at t = 0.513 (n_max 6, theta 0.05 rederived) is found in
        # the edge rows of the two runs the weight does not clear, the
        # second the 488 points from 513 to the end of the grid
        formed = self.spy_on_edge_rows(monkeypatch)
        h = build_h_eff(6, 0.05, "rederived", EVEN)
        traj = quiet_propagate(h, h.basis.vector((0, 0, 0)), T=1.0, dt=1e-3)
        assert traj.edge_aborted and len(traj.times) == 514
        assert [len(occ) for occ in formed] == [512, 488]
        assert np.flatnonzero(formed[1] > EDGE_OCCUPATION_LIMIT)[0] == 513 - 513


class TestKrylovStep:
    @pytest.mark.parametrize("n_max", [20, 30])
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_expm_multiply(self, n_max, mode):
        # scipy's expm_multiply on the sparse sector, once per checked t:
        # 1,331 and 4,096 states, past what a dense oracle would hold
        h = build_h_eff(n_max, 0.01, mode, EVEN)
        psi0 = h.basis.vector((0, 0, 0))
        traj = propagate(h, psi0, T=0.5, dt=1e-3, track=TRACKED)
        assert not traj.edge_aborted
        for k in (1, 100, 250, 500):
            exact = expm_multiply(-1j * (k * 1e-3) * h.matrix, psi0)
            assert abs(traj.norms[k] - np.vdot(exact, exact).real) <= 1e-13, k
            for state in TRACKED:
                occupation = abs(exact[h.basis.index(state)]) ** 2
                assert abs(traj.tracked[state][k] - occupation) <= 1e-13
        assert np.max(np.abs(traj.states[0] - exact)) <= 1e-12

    def test_krylov_step_margin(self, point_spy):
        # one step of dt = 1 at n_max 20 needs more than the largest basis:
        # refused, where a smaller dt runs
        h = build_h_eff(20, 0.01, "paper", EVEN)
        psi0 = h.basis.vector((0, 0, 0))
        with pytest.raises(ValueError, match="needs a Krylov basis of more than 30"):
            propagate(h, psi0, T=2.0, dt=1.0)
        # the largest basis covers 1 of the 2 points left, and none of the
        # last one, which is refused
        assert fills(point_spy) == [[(2, 1), (1, None)]]
        assert not propagate(h, psi0, T=2.0, dt=0.1).edge_aborted

    def test_krylov_step_margin_is_a_config_error(self, tmp_path, capsys):
        assert cli.main(["evolve", "--nmax", "20", "--dt", "1", "--T", "2",
                         "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("; shrink dt")
        assert not list(tmp_path.iterdir())

    def test_degenerate_level_steps_on_one_vector(self, point_spy):
        # (|100> + |010>)/sqrt(2) is an eigenvector of H0 at 2.5: the first
        # Arnoldi remainder is rounding, so every run is stepped on that
        # one vector, as its own scalar exponential
        h = build_h_eff(4, 0.0, "paper")
        basis = h.basis
        psi0 = (basis.vector((1, 0, 0)) + basis.vector((0, 1, 0))) / np.sqrt(2)
        T = 5.0
        traj = propagate(h, psi0, T=T, dt=1e-3)
        assert not traj.edge_aborted
        assert [m for _, _, m in point_spy[0]] == [1] * 10
        assert np.max(np.abs(traj.states[0] - np.exp(-2.5j * T) * psi0)) <= 1e-12
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-12

    def test_zero_state_spans_the_zero_line(self, monkeypatch):
        # H_eff - 800i damps every amplitude by e^-8 a step of 0.01: P is
        # exactly 0 from point 47 on, and the state at point 512, where
        # the first basis's run ends, is exactly zero.  The second basis
        # is grown on it with beta = 1, stops at its one (zero) vector, and
        # keeps every later point and the final state at zero.
        norms, norm = [], dynamics._norm

        def spied(x):
            norms.append(norm(x))
            return norms[-1]

        monkeypatch.setattr(dynamics, "_norm", spied)
        h = build_h_eff(8, 0.01, "paper", EVEN)
        damp = 800j * sp.eye_array(h.basis.dim)
        damped = FockOperator(matrix=sp.csr_array(h.matrix - damp), basis=h.basis)
        psi0 = h.basis.vector((0, 0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = propagate(damped, psi0, T=6.0, dt=0.01)
        assert len(traj.times) == 601 and not traj.edge_aborted
        assert traj.norms[46] > 0 and not traj.norms[47:].any()
        assert norms == [1.0, 0.0]
        assert not traj.states.any()
        # P(t) = e^(-1600 t) P_undamped(t) wherever that factor is a
        # normal double (t <= 0.44), to 5e-12 relative: the rounding of
        # the exponent grows with t and reads 8.3e-13 at t = 0.44
        undamped = propagate(h, psi0, T=6.0, dt=0.01)
        factor = np.exp(-1600 * traj.times)
        normal = factor >= np.finfo(float).tiny
        ratio = traj.norms[normal] / (factor[normal] * undamped.norms[normal])
        assert np.count_nonzero(normal) == 45
        assert np.max(np.abs(ratio - 1)) <= 5e-12

    @staticmethod
    def spy_on_bases(monkeypatch):
        """The Arnoldi steps of each basis grown, one count per basis, and
        the number of _forms calls."""
        grown, forms = [], []
        arnoldi_step, summed = dynamics._arnoldi_step, dynamics._forms

        def step(a, basis, hess, j, floor):
            if j == 0:
                grown.append(0)
            grown[-1] += 1
            return arnoldi_step(a, basis, hess, j, floor)

        def counted(v, weights):
            forms.append(len(v))
            return summed(v, weights)

        monkeypatch.setattr(dynamics, "_arnoldi_step", step)
        monkeypatch.setattr(dynamics, "_forms", counted)
        return grown, forms

    @pytest.mark.parametrize("theta", ["decay", 0.0])
    def test_invariant_basis_serves_the_whole_grid(self, theta, monkeypatch):
        # a diagonal H keeps the ground state's line: one basis of one
        # Arnoldi step serves all 10 runs, and its forms are summed once
        # after point 0's
        grown, forms = self.spy_on_bases(monkeypatch)
        if theta == "decay":
            h = decay_operator(10, 0.5, EVEN)
        else:
            h = build_h_eff(10, theta, "paper", EVEN)
        psi0 = h.basis.vector((0, 0, 0))
        traj = propagate(h, psi0, T=5.0, dt=1e-3, track=TRACKED)
        assert len(traj.times) == 5_001 and not traj.edge_aborted
        assert grown == [1] and forms == [1, 1]
        exact = np.exp(-1j * 5.0 * h.matrix.diagonal()[0])
        assert abs(traj.states[0, 0] - exact) <= 1e-14

    def test_bases_serve_successive_runs(self, monkeypatch, point_spy):
        # the evolve-long benchmark's run: each basis covers WINDOW_CAP
        # points in one run, so the 5,000 points take 10 runs on 10 bases
        grown, forms = self.spy_on_bases(monkeypatch)
        h = build_h_eff(10, 0.01, "paper", EVEN)
        traj = propagate(h, h.basis.vector((0, 0, 0)), T=5.0, dt=1e-3, track=TRACKED)
        assert len(traj.times) == 5_001 and not traj.edge_aborted
        assert len(point_spy[0]) == len(grown) == 10
        assert len(forms) == len(grown) + 1

    @pytest.mark.parametrize("theta", [0.01, 0.0])
    def test_tables_are_sized_by_the_points_left(self, theta, monkeypatch,
                                                 point_spy):
        # an 11-point grid at n_max 30: no table of a run's vectors e_k
        # holds more than the 10 points left, neither the powers F^k e_1
        # (counted where they are formed) nor, on the ground state's
        # invariant line at theta = 0, the scalar exponentials, each of
        # which is a run's e whole
        rows, powers = [], dynamics._powers

        def counted(f, row, count):
            rows.append(count)
            return powers(f, row, count)

        monkeypatch.setattr(dynamics, "_powers", counted)
        h = build_h_eff(30, theta, "paper", EVEN)
        traj = propagate(h, h.basis.vector((0, 0, 0)), T=0.01, dt=1e-3)
        assert len(traj.times) == 11 and not traj.edge_aborted
        filled = [filled for _, filled, _ in point_spy[0]]
        assert bool(rows) == bool(theta) and filled
        assert max(rows + filled) <= min(10, WINDOW_CAP)

    @pytest.mark.parametrize("flags", [[], ["--theta", "0"], ["--decay-oracle"]])
    def test_evolve_imports_no_scipy_linalg(self, flags, tmp_path):
        # neither scipy.linalg nor scipy.sparse.linalg is loaded by a run
        code = ("import runpy, sys; sys.argv = ['qweyl', *sys.argv[1:]]\n"
                "try:\n    runpy.run_module('qweyl', run_name='__main__')\n"
                "except SystemExit as done:\n    assert done.code == 0, done.code\n"
                "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg')"
                " if m in sys.modules))")
        done = subprocess.run(
            [sys.executable, "-c", code, "evolve", *flags, "--out", str(tmp_path)],
            capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[]"

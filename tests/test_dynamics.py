"""Evolution tests: closed-form decay oracle, unitarity in the
undeformed limit, integrator cross-validation, the norm-flow identity
dP/dt = 2<H_I> and its dt^2 order, the reachable set, and the
truncation guard rails against a step-by-step reference loop."""

import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from qweyl import dynamics
from qweyl.dynamics import (
    BLOCK,
    EDGE_OCCUPATION_LIMIT,
    EXPM_NORM_BOUND,
    KRYLOV_THRESHOLD,
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
    EDGE_OCCUPATION_LIMIT stops the run.  Returns (keep, states,
    warning text or None).
    """
    parity = parity_labels(h.basis)
    keep = np.flatnonzero(np.isin(parity, parity[psi0 != 0]))
    matrix = h.matrix[keep][:, keep]
    if method == "fourth-order-explicit":
        def step(v):
            k1 = -1j * (matrix @ v)
            k2 = -1j * (matrix @ (v + 0.5 * dt * k1))
            k3 = -1j * (matrix @ (v + 0.5 * dt * k2))
            k4 = -1j * (matrix @ (v + dt * k3))
            return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:
        # the step propagate takes, built the same way
        u = block_expm(-1j * dt * matrix)

        def step(v):
            return u @ v
    edge = (h.basis.occupations[keep] > h.basis.n_max - 2).any(axis=1)
    n_steps = int(round(T / dt))
    states = [psi0[keep]]
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
            return keep, np.array(states), (
                f"edge occupation {occ:.3g} {where} exceeds "
                f"{EDGE_OCCUPATION_LIMIT}; stopping early"
            )
    return keep, np.array(states), None


TRACKED = ((0, 0, 0), (2, 0, 0))


def assert_streams_match(traj, h, states):
    """The streamed series and final state of traj equal, bit for bit,
    the ones computed row by row from the reference loop's states; <H_I>
    is also held to round-off of the full expectation <psi|H_I|psi>."""
    keep = traj.keep
    weights = np.abs(states) ** 2
    assert np.array_equal(traj.times, np.arange(len(states)) * traj.dt)
    assert np.array_equal(traj.norms, np.sum(weights, axis=1))
    assert np.array_equal(traj.h_i, np.sum(weights * h.h_i_diagonal[keep], axis=1))
    generator = antihermitian_part(h)[keep][:, keep]
    full = np.vecdot(states, states @ generator.T).real
    assert np.max(np.abs(traj.h_i - full)) <= 1e-14 * np.max(np.abs(full))
    assert np.array_equal(traj.states, states[-1:])
    for state in TRACKED:
        column = np.searchsorted(traj.keep, h.basis.index(state))
        assert np.array_equal(traj.tracked[state], np.abs(states[:, column]) ** 2)


class CountingPropagator:
    """Wraps a step propagator and counts the steps taken with it."""

    def __init__(self, u):
        self.u = u
        self.calls = 0

    def __matmul__(self, v):
        self.calls += 1
        return self.u @ v


@pytest.fixture
def step_spy(monkeypatch):
    """Counting wrappers around every propagator dynamics.expm returns,
    with every point stepped by the dt propagator (BLOCK at the window
    cap), so the count is the number of steps."""
    spies = []

    def counting_expm(a):
        spies.append(CountingPropagator(block_expm(a)))
        return spies[-1]

    monkeypatch.setattr(dynamics, "expm", counting_expm)
    monkeypatch.setattr(dynamics, "BLOCK", WINDOW_CAP)
    return spies


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
        assert traj.states.shape == (1, len(traj.keep))
        assert np.max(np.abs(traj.states[0] - psi0[traj.keep])) > 0.1


    def test_unitarity_over_the_full_basis(self):
        # theta = 0 from a state on every basis index, so every parity
        # sector is occupied, keep is the whole basis and the dense step
        # runs at full width; edge amplitudes stay under the edge limit
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
        assert np.array_equal(traj.keep, np.arange(basis.dim))
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-10


def rk4_series(h, psi0, T, dt):
    """Norms, <H_I> and final state of the RK4 reference loop."""
    keep, states, message = reference_propagate(h, psi0, T, dt,
                                                "fourth-order-explicit")
    assert message is None
    generator = antihermitian_part(h)[keep][:, keep]
    norms = np.sum(np.abs(states) ** 2, axis=1)
    h_i = np.vecdot(states, states @ generator.T).real
    return keep, norms, h_i, states[-1]


class TestIntegrators:
    def test_methods_agree(self):
        # the step propagator against the independent RK4 loop
        h = build_h_eff(4, 0.01, "paper")
        _, psi0 = ground(4)
        traj = propagate(h, psi0, T=1.0, dt=1e-3)
        keep, norms, h_i, final = rk4_series(h, psi0, 1.0, 1e-3)
        assert np.array_equal(traj.keep, keep)
        assert np.max(np.abs(traj.norms - norms)) <= 1e-9
        assert np.max(np.abs(traj.h_i - h_i)) <= 1e-9
        assert np.max(np.abs(traj.states[0] - final)) <= 1e-9

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
        # exp(2 min(H_I) t) and exp(2 max(H_I) t) over the reach set, for
        # either sign of theta
        h_i = h.h_i_diagonal[traj.keep]
        assert not traj.edge_aborted
        assert np.all(traj.norms >= np.exp(2.0 * h_i.min() * traj.times) * (1 - 1e-12))
        assert np.all(traj.norms <= np.exp(2.0 * h_i.max() * traj.times) * (1 + 1e-12))

    @pytest.mark.parametrize("theta", [0.01, -0.01])
    @pytest.mark.parametrize("mode", MODES)
    def test_norm_within_h_i_bounds_dense(self, mode, theta):
        h = build_h_eff(10, theta, mode)
        _, psi0 = ground(10)
        traj = propagate(h, psi0, T=1.0, dt=1e-3)
        assert len(traj.keep) <= KRYLOV_THRESHOLD
        self.assert_norm_within_h_i_bounds(h, traj)

    @pytest.mark.parametrize("theta", [0.01, -0.01])
    @pytest.mark.parametrize("mode", MODES)
    def test_norm_within_h_i_bounds_krylov(self, mode, theta):
        # a reach set too large for a dense propagator: the bounds are
        # its oracle, with no dense run to compare against
        h = build_h_eff(20, theta, mode)
        _, psi0 = ground(20)
        traj = propagate(h, psi0, T=0.2, dt=1e-3)
        assert len(traj.keep) > KRYLOV_THRESHOLD
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
        assert traj.states.shape == (1, len(traj.keep))
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

    def test_non_diagonal_h_i_is_refused_before_any_step(self, step_spy):
        # +i in both slots of a pair inside one parity sector: the
        # anti-Hermitian part couples (0,0,0) and (2,0,0)
        basis = FockBasis(4)
        matrix = build_h_eff(4, 0.0, "paper").matrix.tolil()
        ground, raised = basis.index((0, 0, 0)), basis.index((2, 0, 0))
        matrix[raised, ground] = matrix[ground, raised] = 1j
        h = FockOperator(matrix=matrix.tocsr(), basis=basis)
        with pytest.raises(ValueError, match="not diagonal"):
            propagate(h, basis.vector((0, 0, 0)), T=0.1, dt=1e-3)
        assert step_spy == []

    def test_no_renormalization(self):
        h = decay_operator(2, 1.0)
        basis = FockBasis(2)
        traj = propagate(h, basis.vector((0, 0, 0)), T=2.0, dt=1e-2)
        assert traj.norms[-1] < 0.05


class TestAbortSemantics:
    """The windowed checks stop where checking every step stops."""

    @pytest.fixture(autouse=True)
    def one_chain_per_window(self, monkeypatch):
        # every point one dt step from the last, as the reference loop
        # steps, so the streams match bit for bit
        monkeypatch.setattr(dynamics, "BLOCK", WINDOW_CAP)

    @pytest.mark.parametrize("n_max, theta, mode, dt", [
        (3, 0.5, "paper", 1e-2),
        (4, 0.05, "paper", 1e-3),
        (6, 0.05, "rederived", 1e-3),
    ])
    def test_edge_abort_matches_reference(self, n_max, theta, mode, dt):
        h = build_h_eff(n_max, theta, mode)
        _, psi0 = ground(n_max)
        keep, states, message = reference_propagate(h, psi0, 1.0, dt)
        assert message is not None
        with pytest.warns(RuntimeWarning) as record:
            traj = propagate(h, psi0, T=1.0, dt=dt, track=TRACKED)
        assert [str(w.message) for w in record] == [message]
        assert traj.edge_aborted
        assert np.array_equal(traj.keep, keep)
        assert_streams_match(traj, h, states)

    def test_edge_abort_computes_at_most_twice_the_stop(self, step_spy):
        h = build_h_eff(6, 0.05, "rederived")
        _, psi0 = ground(6)
        traj = quiet_propagate(h, psi0, T=1.0, dt=1e-3)
        k = len(traj.times) - 1
        assert traj.edge_aborted and 0 < k < 1000
        # point 0 is psi0 and every later point is one step, so at most
        # 2k+1 points means at most 2k steps
        assert k <= step_spy[0].calls <= 2 * k

    def test_complete_run_steps_once_per_point(self, step_spy):
        h = build_h_eff(4, 0.01, "paper")
        _, psi0 = ground(4)
        traj = propagate(h, psi0, T=0.1, dt=1e-3)
        assert not traj.edge_aborted
        assert step_spy[0].calls == 100

    def test_capped_windows_match_reference(self, step_spy, monkeypatch):
        # windows stop doubling at the cap, so a stop at point k has taken
        # at most max(2k, k + cap - 1) steps
        cap = 16
        monkeypatch.setattr(dynamics, "WINDOW_CAP", cap)
        h = build_h_eff(6, 0.05, "rederived")
        _, psi0 = ground(6)
        _, states, message = reference_propagate(h, psi0, 1.0, 1e-3)
        with pytest.warns(RuntimeWarning) as record:
            traj = propagate(h, psi0, T=1.0, dt=1e-3, track=TRACKED)
        assert [str(w.message) for w in record] == [message]
        assert_streams_match(traj, h, states)
        k = len(traj.times) - 1
        assert k > 2 * cap
        assert k <= step_spy[0].calls <= k + cap - 1

    def test_overflow_matches_reference(self, step_spy):
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
        assert step_spy[0].calls <= 2 * 8


class TestBlockSteps:
    """The dense path fills BLOCK rows per matrix product with u^BLOCK;
    every point stays on the exact exponential."""

    @pytest.mark.parametrize("mode", MODES)
    def test_points_match_dense_exponential(self, mode):
        # the evolve defaults; each point is the final state of a run that
        # ends there, on both sides of the BLOCK and window boundaries
        dt = 1e-3
        h = build_h_eff(10, 0.01, mode, EVEN)
        psi0 = h.basis.vector((0, 0, 0))
        dense = h.matrix.toarray()
        assert BLOCK == 32 and WINDOW_CAP == 512
        for k in (1, 31, 32, 33, 63, 64, 95, 511, 512, 1023, 5000):
            traj = propagate(h, psi0, T=k * dt, dt=dt)
            assert len(traj.times) == k + 1 and not traj.edge_aborted
            assert np.array_equal(traj.keep, np.arange(h.basis.dim))
            exact = expm(-1j * (k * dt) * dense) @ psi0
            rel = np.linalg.norm(traj.states[0] - exact) / np.linalg.norm(exact)
            assert rel <= 1e-12, (k, rel)

    def test_block_power_waits_for_a_long_window(self, monkeypatch):
        # u^BLOCK is formed at the first window of at least 2*BLOCK rows:
        # 101 points end on a 38-row window and form none, 128 points
        # reach a 64-row window and form one
        powers = []
        original = np.linalg.matrix_power

        def spy(a, n):
            powers.append(n)
            return original(a, n)

        monkeypatch.setattr(np.linalg, "matrix_power", spy)
        dt = 1e-3
        h = build_h_eff(10, 0.01, "paper", EVEN)
        psi0 = h.basis.vector((0, 0, 0))
        dense = h.matrix.toarray()
        for points, formed in ((101, []), (128, [BLOCK])):
            powers.clear()
            traj = propagate(h, psi0, T=(points - 1) * dt, dt=dt)
            assert len(traj.times) == points and not traj.edge_aborted
            assert powers == formed
            exact = expm(-1j * ((points - 1) * dt) * dense) @ psi0
            rel = np.linalg.norm(traj.states[0] - exact) / np.linalg.norm(exact)
            assert rel <= 1e-12, (points, rel)

    def test_expm_matches_dense_expm(self, monkeypatch):
        # dt*|H|_1 from 0.04 to 400 on the evolve defaults' even block, and
        # the overflow test's 100i; expm_multiply never sees a block whose
        # 1-norm is above EXPM_NORM_BOUND
        seen = []
        original = scipy.sparse.linalg.expm_multiply

        def spy(a, b, **kwargs):
            seen.append(abs(a).sum(axis=0).max())
            return original(a, b, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", spy)
        block = build_h_eff(10, 0.01, "paper", EVEN).matrix
        norm = abs(block).sum(axis=0).max()
        blocks = [-1j * (scale / norm) * block for scale in (0.04, 0.4, 4, 40, 400)]
        blocks.append(-1j * sp.diags_array(np.full(8, 100.0j), format="csr"))
        for a in blocks:
            exact = expm(a.toarray())
            error = np.max(np.abs(block_expm(a) - exact)) / np.max(np.abs(exact))
            assert error <= 1e-13, (abs(a).sum(axis=0).max(), error)
        assert len(seen) == len(blocks) and max(seen) <= EXPM_NORM_BOUND
        # the 400 block is halved down to the bound, not below half of it
        assert seen[4] > EXPM_NORM_BOUND / 2

    def test_expm_refuses_what_a_double_cannot_hold(self):
        with pytest.raises(ValueError, match="dt\\*H is not finite"):
            block_expm(sp.diags_array([np.inf, 1.0], format="csr"))
        # e^-1e4 is below the smallest double
        with pytest.raises(ValueError, match="underflows to zero"):
            block_expm(sp.diags_array([-1e4, -1e4], format="csr"))

    def test_undeformed_norm_flow_stays_flat(self):
        # theta = 0: P is 1 and dP/dt is 0, so the centred difference over
        # 2 dt = 2e-8 reads how far apart neighbouring points' norms have
        # rounded.  Neighbours sit on different chains, and each window
        # restarts every chain from its first rows, so after 300,000 steps
        # they are a few ulps apart (1.1e-7 here, 4.4e-8 with one chain).
        # Chains carried across windows take about 9,400 long steps each
        # and drift 7.6e-7 apart.
        h = build_h_eff(4, 0.0, "paper")
        _, psi0 = ground(4)
        traj = propagate(h, psi0, T=3e-3, dt=1e-8)
        assert len(traj.times) == 300_001 and not traj.edge_aborted
        assert norm_flow_check(traj) <= 3e-7


class TestGlobalRandomState:
    """expm_multiply's norm estimates draw from numpy's global random
    state; dynamics seeds it around each call and restores it."""

    @staticmethod
    def next_draw(seed, run):
        np.random.seed(seed)
        run()
        return np.random.random()

    def test_caller_stream_is_untouched(self, monkeypatch):
        # dt 0.1 on the evolve defaults' even block is past the norm at
        # which expm_multiply estimates powers of its argument
        h = build_h_eff(10, 0.01, "paper", EVEN)
        psi0 = h.basis.vector((0, 0, 0))
        block = h.matrix
        undisturbed = self.next_draw(5, lambda: None)
        assert self.next_draw(5, lambda: block_expm(-1j * 0.1 * block)) == undisturbed
        # the Krylov step on the same block, 101 points of dt 0.1
        monkeypatch.setattr(dynamics, "KRYLOV_THRESHOLD", 0)
        runs = []

        def krylov():
            runs.append(propagate(h, psi0, T=10.0, dt=0.1))

        assert self.next_draw(5, krylov) == undisturbed
        assert len(runs[0].times) == 101 and not runs[0].edge_aborted

    def test_step_propagator_independent_of_prior_seed(self):
        block = build_h_eff(10, 0.01, "paper", EVEN).matrix
        steps = []
        for seed in (0, 1, 12345):
            np.random.seed(seed)
            steps.append(block_expm(-1j * 0.1 * block))
        assert all(np.array_equal(steps[0], u) for u in steps[1:])


class TestReachableSet:
    @given(
        n_max=st.integers(2, 12),
        mode=st.sampled_from(MODES),
        theta=st.one_of(st.floats(-0.1, -1e-3), st.floats(1e-3, 0.1)),
    )
    @settings(max_examples=25)
    def test_ground_state_reaches_its_parity_sector(self, n_max, mode, theta):
        # in the box, keep holds the even sector's states in its order; on
        # the even sector's own build, every state
        even = FockBasis(n_max, EVEN)
        h = build_h_eff(n_max, theta, mode)
        _, psi0 = ground(n_max)
        traj = quiet_propagate(h, psi0, T=1e-5, dt=1e-5)
        assert np.array_equal(h.basis.occupations[traj.keep], even.occupations)
        h = build_h_eff(n_max, theta, mode, EVEN)
        traj = quiet_propagate(h, even.vector((0, 0, 0)), T=1e-5, dt=1e-5)
        assert np.array_equal(traj.keep, np.arange(even.dim))

    @given(n_max=st.integers(2, 12), mode=st.sampled_from(MODES), data=st.data())
    @settings(max_examples=25)
    def test_diagonal_operators_keep_the_support(self, n_max, mode, data):
        basis = FockBasis(n_max)
        support = data.draw(st.lists(st.integers(0, basis.dim - 1),
                                     min_size=1, max_size=8, unique=True))
        psi0 = np.zeros(basis.dim, dtype=complex)
        psi0[support] = 1.0 / np.sqrt(len(support))
        for h in (decay_operator(n_max, 0.5), build_h_eff(n_max, 0.0, mode)):
            traj = quiet_propagate(h, psi0, T=0.1, dt=0.1)
            assert np.array_equal(traj.keep, sorted(support))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", ["deformed", "undeformed", "decay"])
    def test_final_state_matches_full_basis_exponential(self, mode, kind):
        # the stored state after 200 steps against one full-basis
        # exponential over T; the oracle is exactly zero off keep
        n_max, T = 6, 0.2
        h = {"deformed": lambda: build_h_eff(n_max, 0.01, mode),
             "undeformed": lambda: build_h_eff(n_max, 0.0, mode),
             "decay": lambda: decay_operator(n_max, 0.5)}[kind]()
        basis = FockBasis(n_max)
        psi0 = (basis.vector((0, 0, 0)) + basis.vector((1, 1, 0))) / np.sqrt(2)
        traj = propagate(h, psi0, T=T, dt=1e-3)
        assert not traj.edge_aborted
        oracle = expm(-1j * T * h.matrix.toarray()) @ psi0
        assert np.max(np.abs(traj.states[0] - oracle[traj.keep])) <= 1e-12
        assert abs(traj.norms[-1] - np.vdot(oracle, oracle).real) <= 1e-12
        off = np.ones(basis.dim, dtype=bool)
        off[traj.keep] = False
        assert np.all(oracle[off] == 0)
        if kind == "deformed":
            kept = np.isin(parity_labels(basis), (0, 6))
            assert np.array_equal(traj.keep, np.flatnonzero(kept))
        else:
            assert np.array_equal(traj.keep, [basis.index((0, 0, 0)), basis.index((1, 1, 0))])


class TestSectors:
    @pytest.mark.parametrize("kets", [((0, 0, 0),), ((0, 0, 0), (1, 1, 0))])
    def test_sector_propagation_matches_full_basis(self, kets):
        # 200 steps in the sectors psi0 occupies against the dense
        # propagator of the whole basis
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
        kept = [parity[basis.index(k)] for k in kets]
        assert np.array_equal(traj.keep, np.flatnonzero(np.isin(parity, kept)))
        assert np.max(np.abs(traj.states[0] - full[-1, traj.keep])) <= 1e-12
        norms = np.sum(np.abs(full) ** 2, axis=1)
        assert np.max(np.abs(traj.norms - norms)) <= 1e-12
        # the full propagator leaves no amplitude outside the kept sectors
        off = np.ones(basis.dim, dtype=bool)
        off[traj.keep] = False
        assert np.max(np.abs(full[:, off])) <= 1e-12
        gen = antihermitian_part(h).toarray()
        h_i = np.sum(full.conj() * (full @ gen.T), axis=1).real
        assert np.max(np.abs(traj.h_i - h_i)) <= 1e-12


    @pytest.mark.parametrize("n_max, theta, mode, T", [
        (6, 0.01, "paper", 1.0),
        (6, 0.05, "rederived", 1.0),  # stops at the edge
        (6, 0.0, "paper", 1.0),
        (20, 0.01, "paper", 0.01),  # above KRYLOV_THRESHOLD
        (6, "decay", "paper", 1.0),
    ])
    def test_even_sector_run_is_the_box_run(self, n_max, theta, mode, T):
        # the even sector's build is the box build's block, so the ground
        # state steps through the same numbers on either, bit for bit
        def build(sector):
            if theta == "decay":
                return decay_operator(n_max, 0.5, sector)
            return build_h_eff(n_max, theta, mode, sector)

        runs = [quiet_propagate(h, h.basis.vector((0, 0, 0)), T=T, dt=1e-3,
                                track=TRACKED)
                for h in (build(None), build(EVEN))]
        box, even = runs
        assert np.array_equal(FockBasis(n_max).occupations[box.keep],
                              FockBasis(n_max, EVEN).occupations[even.keep])
        for name in ("times", "norms", "h_i", "states"):
            assert np.array_equal(getattr(box, name), getattr(even, name)), name
        for state in TRACKED:
            assert np.array_equal(box.tracked[state], even.tracked[state])
        assert box.edge_aborted == even.edge_aborted == (theta == 0.05)


class TestStreaming:
    def test_peak_memory_flat_in_steps(self):
        # doubling T at fixed dt adds 2,000 points of series (24 bytes
        # each), never stored states: the traced peak grows by less than
        # one window of states
        h = build_h_eff(10, 0.01, "paper")
        _, psi0 = ground(10)
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
        window = WINDOW_CAP * len(traj.keep) * 16
        assert peaks[1] - peaks[0] < window, peaks


class TestKrylovStep:
    @pytest.mark.parametrize("n_max", [10, 20])
    def test_krylov_matches_dense(self, n_max, monkeypatch):
        # n_max 10 (216 states) steps with the dense propagator and
        # n_max 20 (1,331 states) with expm_multiply; each is also run
        # the other way by moving the threshold
        h = build_h_eff(n_max, 0.05, "paper")
        _, psi0 = ground(n_max)
        tracked = ((0, 0, 0), (2, 0, 0))
        natural = propagate(h, psi0, T=0.1, dt=1e-3, track=tracked)
        krylov = len(natural.keep) > KRYLOV_THRESHOLD
        assert krylov == (n_max == 20)
        monkeypatch.setattr(dynamics, "KRYLOV_THRESHOLD",
                            10 ** 9 if krylov else 0)
        other = propagate(h, psi0, T=0.1, dt=1e-3, track=tracked)
        assert not natural.edge_aborted and not other.edge_aborted
        assert np.max(np.abs(natural.norms - other.norms)) <= 1e-10
        assert np.max(np.abs(natural.h_i - other.h_i)) <= 1e-10
        assert np.max(np.abs(natural.states - other.states)) <= 1e-10
        for s in tracked:
            assert np.max(np.abs(natural.tracked[s] - other.tracked[s])) <= 1e-10
        if not krylov:
            # the RK4 loop at a tenth of the step, read on the common grid
            # points
            _, norms, h_i, final = rk4_series(h, psi0, 0.1, 1e-4)
            for traj in (natural, other):
                assert np.max(np.abs(norms[::10] - traj.norms)) <= 1e-10
                assert np.max(np.abs(h_i[::10] - traj.h_i)) <= 1e-10
                assert np.max(np.abs(final - traj.states[0])) <= 1e-10

    def test_krylov_step_margin(self, step_spy):
        # the Krylov cost grows with dt*|H|, so a huge one is refused
        # instead of stepped; no dense propagator is formed either way
        h = build_h_eff(20, 1e6, "paper")
        _, psi0 = ground(20)
        with pytest.raises(ValueError, match="Krylov step margin"):
            propagate(h, psi0, T=0.01, dt=1e-3)
        assert step_spy == []

    def test_sparse_solver_is_imported_lazily(self):
        code = ("import sys, qweyl.cli; "
                "print('scipy.sparse.linalg' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "False"

"""Non-Hermitian time evolution over the truncated basis.

Solves i dpsi/dt = H psi without renormalizing: the squared norm P(t)
is the observable, and its flow obeys dP/dt = 2<H_I> with H_I the
Hermitian generator of the anti-Hermitian part.  Probability pumped
into the cutoff edge is an artifact of truncation, so evolution stops
with a warning as soon as any edge state (some n_j > n_max - 2, so its
same-parity neighbour along axis j is cut off) holds more than a
threshold occupation; non-finite amplitudes abort outright.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from .fock import FockBasis, FockOperator, h0_diagonal, write_csv_table

METHODS = ("matrix-exponential", "fourth-order-explicit")
EDGE_OCCUPATION_LIMIT = 1e-6
EXPLICIT_STEP_LIMIT = 0.1


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid evolution record.  states holds one row per time
    point and one column per basis index in keep, the states the initial
    state reaches through the nonzeros of H; every other amplitude is
    exactly zero.  h_i is <H_I>(t) on the same grid."""

    times: np.ndarray
    keep: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    h_i: np.ndarray
    method: str
    dt: float
    n_max: int
    theta: float
    mode: str
    edge_aborted: bool = False

    def occupation(self, state) -> np.ndarray:
        i = FockBasis(self.n_max).index(state)
        column = np.searchsorted(self.keep, i)
        if column == len(self.keep) or self.keep[column] != i:
            return np.zeros(len(self.times))
        return np.abs(self.states[:, column]) ** 2


def step_count(T: float, dt: float) -> int:
    """Number of dt steps spanning T; T must be a positive integer
    multiple of dt."""
    if not 0 < T < math.inf or not 0 < dt < math.inf:
        raise ValueError("T and dt must be positive and finite")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError("T must be a positive integer multiple of dt")
    return n_steps


def propagate(
    h: FockOperator,
    psi0,
    T: float,
    dt: float,
    method: str = "matrix-exponential",
) -> Trajectory:
    """Evolve psi0 under i dpsi/dt = H psi on a uniform grid.

    Only the states psi0 reaches through the nonzeros of H (keep) are
    evolved and stored, as one dense block; every other amplitude stays
    exactly zero.  The matrix-exponential method computes the block's
    step propagator once by scaling and squaring and reapplies it; the
    explicit method is classical four-stage Runge-Kutta and requires
    dt*|H| on the block below the stability margin.  The grid is stepped
    in windows of 1, 2, 4, ... points and each window is checked as a
    whole, so a stop at point k has computed at most 2k+1 points.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    T = float(T)
    dt = float(dt)
    n_steps = step_count(T, dt)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h.matrix.shape[0],):
        raise ValueError("psi0 dimension does not match the operator")
    if not abs(np.linalg.norm(psi0) - 1.0) <= 1e-6:
        raise ValueError("psi0 must be unit-normalized")
    # grow the support of psi0 along the nonzeros of H until it is closed
    pattern = h.matrix != 0
    reach = psi0 != 0
    while not np.array_equal(grown := reach | (pattern @ reach), reach):
        reach = grown
    keep = np.flatnonzero(reach)
    matrix = h.block(keep)

    if method == "fourth-order-explicit":
        scale = dt * np.linalg.norm(matrix, np.inf)
        if scale > EXPLICIT_STEP_LIMIT:
            raise ValueError(
                f"dt*|H| = {scale:.3g} exceeds the explicit stability margin "
                f"{EXPLICIT_STEP_LIMIT}; shrink dt"
            )

        def step(v):
            k1 = -1j * (matrix @ v)
            k2 = -1j * (matrix @ (v + 0.5 * dt * k1))
            k3 = -1j * (matrix @ (v + 0.5 * dt * k2))
            k4 = -1j * (matrix @ (v + dt * k3))
            return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    else:
        u = expm(-1j * dt * matrix)

        def step(v):
            return u @ v

    edge = (h.basis.occupations[keep] > h.n_max - 2).any(axis=1)
    states = np.empty((n_steps + 1, len(keep)), dtype=complex)
    states[0] = psi0[keep]
    start, end, aborted = 0, n_steps + 1, False
    with np.errstate(over="ignore", invalid="ignore"):
        while start < end:
            stop = min(2 * start + 1, end)
            for k in range(max(start, 1), stop):
                states[k] = step(states[k - 1])
            window = states[start:stop]
            bad = ~np.isfinite(window).all(axis=1)
            occ = np.max(np.abs(window[:, edge]) ** 2, axis=1, initial=0.0)
            hits = np.flatnonzero(bad | (occ > EDGE_OCCUPATION_LIMIT))
            if hits.size:
                i = hits[0]
                k = start + i
                if bad[i]:
                    raise RuntimeError(
                        f"non-finite amplitudes at t = {k * dt:.6g}; "
                        "growth overflowed the truncated basis"
                    )
                where = f"at t = {k * dt:.6g}" if k else "in the initial state"
                warnings.warn(
                    f"edge occupation {float(occ[i]):.3g} {where} exceeds "
                    f"{EDGE_OCCUPATION_LIMIT}; stopping early",
                    RuntimeWarning,
                )
                end, aborted = k + 1, True
            start = stop

    states = states[:end]
    # psi is zero off keep, so the keep block of H_I gives <psi|H_I|psi>
    generator = h.antihermitian_generator()[keep][:, keep]
    return Trajectory(
        times=np.arange(len(states)) * dt,
        keep=keep,
        states=states,
        norms=np.sum(np.abs(states) ** 2, axis=1),
        h_i=np.vecdot(states, states @ generator.T).real,
        method=method,
        dt=dt,
        n_max=h.n_max,
        theta=h.theta,
        mode=h.mode,
        edge_aborted=aborted,
    )


def norm_flow_check(traj: Trajectory) -> float:
    """Max over interior grid points of |dP/dt - 2<H_I>|.

    dP/dt is estimated by centered differences, so the returned
    deviation carries an O(dt^2) discretization floor.
    """
    if len(traj.times) < 3:
        raise ValueError("need at least three time points")
    dp = (traj.norms[2:] - traj.norms[:-2]) / (2.0 * traj.dt)
    return float(np.max(np.abs(dp - 2.0 * traj.h_i[1:-1])))


def initial_norm_rate(traj: Trajectory) -> float:
    """Second-order one-sided estimate of dP/dt at t = 0."""
    if len(traj.norms) < 3:
        raise ValueError("need at least three time points")
    p = traj.norms
    return float((-3.0 * p[0] + 4.0 * p[1] - p[2]) / (2.0 * traj.dt))


def decay_operator(n_max: int, alpha: float, mode: str = "paper") -> FockOperator:
    """Constant-sink case: the diagonal oscillator minus i*alpha.

    Its squared norm obeys P(t) = exp(-2*alpha*t) exactly, which makes
    it the closed-form oracle for the integrator.
    """
    diag = h0_diagonal(n_max).astype(complex) - 1j * float(alpha)
    return FockOperator(
        matrix=sp.diags_array(diag, format="csr"), n_max=n_max, theta=0.0, mode=mode
    )


@dataclass(frozen=True)
class GainLossMap:
    """Net occupation change of selected states over a trajectory."""

    net_change: dict

    def gaining(self, tol: float = 0.0):
        return sorted(s for s, d in self.net_change.items() if d > tol)

    def losing(self, tol: float = 0.0):
        return sorted(s for s, d in self.net_change.items() if d < -tol)

    def to_json(self):
        return {
            "net_change": {
                ",".join(map(str, s)): v for s, v in self.net_change.items()
            },
            "gaining": [list(s) for s in self.gaining()],
            "losing": [list(s) for s in self.losing()],
        }


def gain_loss_map(traj: Trajectory, states) -> GainLossMap:
    net = {}
    for state in states:
        state = tuple(int(v) for v in state)
        occ = traj.occupation(state)
        net[state] = float(occ[-1] - occ[0])
    return GainLossMap(net_change=net)


def export_trajectory_csv(traj: Trajectory, path, states=()):
    """CSV of t, P, <H_I> and selected occupations; timestamp-free, with
    provenance columns."""
    states = [tuple(int(v) for v in s) for s in states]
    columns = [traj.times, traj.norms, traj.h_i]
    columns += [traj.occupation(s) for s in states]
    rows = ([repr(x) for x in row] for row in zip(*(c.tolist() for c in columns)))
    write_csv_table(
        path,
        ["t", "p", "re_h_i"] + ["occ_" + "_".join(map(str, s)) for s in states],
        rows, traj.mode, traj.theta, traj.n_max,
    )

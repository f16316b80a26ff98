"""Non-Hermitian time evolution over a truncated basis or parity sector.

Solves i dpsi/dt = H psi without renormalizing: the squared norm P(t)
is the observable, and its flow obeys dP/dt = 2<H_I> with H_I the
Hermitian generator of the anti-Hermitian part, which FockOperator
checks is diagonal, so P, <H_I> and the occupations all come from the
squared amplitudes |psi_n|^2.  The states the initial one reaches are
stepped by a dense propagator over dt, built from their sparse block by
expm, and by its BLOCK-th power, BLOCK grid points per matrix product;
or with expm_multiply on the sparse block when there are more than
KRYLOV_THRESHOLD of them.  expm_multiply runs under a fixed seed of
numpy's global random state, which it restores.  Probability pumped
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

from .fock import FockBasis, FockOperator, h0_diagonal

EDGE_OCCUPATION_LIMIT = 1e-6
# Reach sets with more states than this step each window with
# expm_multiply instead of the dense propagators: on a 2-vCPU VM,
# 5,000 steps of the even sector took 1.4 s dense against 2.6 s Krylov
# at 1,000 states, and 2.8 s against 2.9 s at 1,331.
KRYLOV_THRESHOLD = 1000
# The Krylov cost grows with dt*|H| where the dense step's grows with its
# logarithm, so a larger one is refused instead of stepped for hours; past
# 709, the log of the largest double, a single step can already overflow.
KRYLOV_STEP_LIMIT = 700.0
# A net occupation change no larger than this is round-off: gain_loss_map
# lists the state as neither gaining nor losing.
GAIN_LOSS_FLOOR = 1e-12
# Most grid points one window holds; the windows double up to it.
WINDOW_CAP = 512
# Grid points the dense path fills per matrix product: each row past the
# first BLOCK of a window is the BLOCK-step propagator applied to the row
# BLOCK points earlier in the same window.
BLOCK = 32
# expm halves a block whose 1-norm is above this before expm_multiply and
# squares the result back.  Each squaring doubles the rounding error of a
# near-unitary step: at this bound a 1-norm of 400 takes 7 squarings and
# stays within 7e-14 of scipy.linalg.expm.
EXPM_NORM_BOUND = 4.0


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid evolution record.  keep lists the indices into h.basis
    (the box, or the sector H is built on) that the initial state reaches
    through the nonzeros of H; every other amplitude is exactly zero.
    norms is P(t) and h_i is <H_I>(t) on the grid, tracked maps each
    state passed as track to its occupation on the grid, and states holds
    only the final point, one row over keep."""

    times: np.ndarray
    keep: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    h_i: np.ndarray
    tracked: dict
    dt: float
    edge_aborted: bool = False


def step_count(T: float, dt: float) -> int:
    """Number of dt steps spanning T; T must be a positive integer
    multiple of dt."""
    if not 0 < T < math.inf or not 0 < dt < math.inf:
        raise ValueError("T and dt must be positive and finite")
    ratio = T / dt
    if ratio == math.inf:
        raise ValueError("T/dt overflows a double; raise dt or lower T")
    n_steps = int(round(ratio))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError("T must be a positive integer multiple of dt")
    return n_steps


def held_bytes(dim: int, n_steps: int, tracked: int = 0) -> int:
    """Lower bound on what propagate holds for a dim-state reach set over
    n_steps steps with tracked track states: the dense propagators u and
    u^BLOCK at or below KRYLOV_THRESHOLD states and one window of states,
    all complex, and per grid point the time, P, <H_I> and each tracked
    occupation."""
    dense = 2 * dim * dim if dim <= KRYLOV_THRESHOLD else 0
    points = n_steps + 1
    return 16 * (dense + min(points, WINDOW_CAP) * dim) + 8 * (3 + tracked) * points


def _expm_multiply(a, b, **kwargs):
    """scipy's expm_multiply with numpy's global random state seeded
    and restored around it.  Its norm estimates (onenormest) draw from
    that state, so a fixed seed makes the result independent of earlier
    draws and leaves the caller's stream where it was."""
    # imported here: at module level it costs every command RSS
    from scipy.sparse.linalg import expm_multiply

    saved = np.random.get_state()
    np.random.seed(0)
    try:
        return expm_multiply(a, b, **kwargs)
    finally:
        np.random.set_state(saved)


def expm(a) -> np.ndarray:
    """Dense exponential of the sparse square block a.

    Runs expm_multiply (Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2),
    2011) on the identity, so it forms only sparse-dense products.  A
    block whose 1-norm exceeds EXPM_NORM_BOUND is halved first and the
    result squared back, so the cost grows with log2 of the norm.  A
    non-finite block is refused, and so is a result that underflows to
    zero: every point stepped by it would be exactly zero.
    """
    norm = float(abs(a).sum(axis=0).max())
    if not math.isfinite(norm):
        raise ValueError("dt*H is not finite; shrink dt")
    halvings = 0
    if norm > EXPM_NORM_BOUND:
        halvings = math.ceil(math.log2(norm / EXPM_NORM_BOUND))
    u = _expm_multiply(a * 0.5 ** halvings, np.eye(a.shape[0], dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(halvings):
            u = u @ u
    if not u.any():
        # an exponential is invertible: a zero one is float underflow
        raise ValueError("the step propagator underflows to zero; shrink dt")
    return u


def propagate(h: FockOperator, psi0, T: float, dt: float, track=()) -> Trajectory:
    """Evolve psi0 under i dpsi/dt = H psi on a uniform grid.

    Only the states of h.basis that psi0 reaches through the nonzeros of
    H (keep) are evolved; every other amplitude stays exactly zero.  In a
    sector that is all of it, unless H is diagonal.  A reach set of at
    most KRYLOV_THRESHOLD states has its dense step propagator u built
    once by expm.  Each window's first BLOCK rows are stepped from the
    last point by u; each later row is u^BLOCK applied to the row BLOCK
    points earlier, a whole BLOCK of rows per matrix product.  u^BLOCK is
    formed once by squaring, at the first window of at least 2*BLOCK
    rows; a shorter window before it is stepped by u alone.  Every
    window restarts the BLOCK interleaved chains from its own first rows,
    so no point is more than WINDOW_CAP/BLOCK - 1 long steps from them.
    A larger reach set fills each window with expm_multiply on the
    sparse block.

    The grid is stepped in windows of 1, 2, 4, ... points, at most
    WINDOW_CAP each, and each window is checked as a whole, so a stop at
    point k has computed at most max(2k+1, k+WINDOW_CAP) points.  The
    squared amplitudes of each window are formed once, and the edge
    check, P(t), <H_I>(t) = sum_n |psi_n|^2 H_I[n] and the occupations of
    the track states are read from them before the window is dropped;
    only those series and the final state are kept.  H_I is read from
    h.h_i_diagonal before any step, so an operator whose anti-Hermitian
    part is not diagonal raises ValueError there.
    """
    T = float(T)
    dt = float(dt)
    n_steps = step_count(T, dt)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h.matrix.shape[0],):
        raise ValueError("psi0 dimension does not match the operator")
    if not abs(np.linalg.norm(psi0) - 1.0) <= 1e-6:
        raise ValueError("psi0 must be unit-normalized")
    track = [tuple(int(v) for v in s) for s in track]
    tracked_index = [h.basis.index(s) for s in track]
    # grow the support of psi0 along the nonzeros of H until it is closed
    pattern = h.matrix != 0
    reach = psi0 != 0
    while not np.array_equal(grown := reach | (pattern @ reach), reach):
        reach = grown
    keep = np.flatnonzero(reach)
    h_i_keep = h.h_i_diagonal[keep]

    matrix = h.matrix[keep][:, keep]
    if len(keep) > KRYLOV_THRESHOLD:
        scale = dt * abs(matrix).sum(axis=1).max()
        if scale > KRYLOV_STEP_LIMIT:
            raise ValueError(
                f"dt*|H| = {scale:.3g} exceeds the Krylov step margin "
                f"{KRYLOV_STEP_LIMIT}; shrink dt"
            )
        minus_ih = -1j * matrix

        def advance(last, window):
            window[:] = _expm_multiply(
                minus_ih, last, start=0.0, stop=len(window) * dt,
                num=len(window) + 1, endpoint=True,
            )[1:]
    else:
        u = expm(-1j * dt * matrix)
        u_block = None

        def advance(last, window):
            nonlocal u_block
            if u_block is None and len(window) >= 2 * BLOCK:
                # squaring u is expm's own halve-and-square step, without
                # the sparse products and norm estimates of a second call
                u_block = np.linalg.matrix_power(u, BLOCK)
            # until u_block exists, a shorter window is one chain of u
            chained = BLOCK if u_block is not None else len(window)
            for i in range(min(len(window), chained)):
                window[i] = u @ (window[i - 1] if i else last)
            # BLOCK rows per product: row k is u_block @ row k - BLOCK
            for k in range(chained, len(window), BLOCK):
                rows = window[k:k + BLOCK]
                np.matmul(window[k - BLOCK:k - BLOCK + len(rows)], u_block.T,
                          out=rows)

    edge = (h.basis.occupations[keep] > h.basis.n_max - 2).any(axis=1)
    column = np.full(h.matrix.shape[0], -1)
    column[keep] = np.arange(len(keep))
    columns = column[tracked_index]
    inside = np.flatnonzero(columns >= 0)
    norms = np.empty(n_steps + 1)
    h_i = np.empty(n_steps + 1)
    occupations = np.zeros((n_steps + 1, len(track)))
    buffer = np.empty((min(n_steps + 1, WINDOW_CAP), len(keep)), dtype=complex)
    last = psi0[keep]
    start, end, aborted = 0, n_steps + 1, False
    with np.errstate(over="ignore", invalid="ignore"):
        while start < end:
            stop = min(2 * start + 1, start + WINDOW_CAP, end)
            window = buffer[:stop - start]
            if start:
                advance(last, window)
            else:
                window[0] = last
            weights = np.abs(window) ** 2
            bad = ~np.isfinite(window).all(axis=1)
            occ = np.max(weights[:, edge], axis=1, initial=0.0)
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
                window, weights = window[:i + 1], weights[:i + 1]
            rows = slice(start, start + len(window))
            norms[rows] = np.sum(weights, axis=1)
            h_i[rows] = np.sum(weights * h_i_keep, axis=1)
            occupations[rows, inside] = weights[:, columns[inside]]
            last = window[-1].copy()
            start = stop

    return Trajectory(
        times=np.arange(end) * dt,
        keep=keep,
        states=last[np.newaxis],
        norms=norms[:end],
        h_i=h_i[:end],
        tracked=dict(zip(track, occupations[:end].T)),
        dt=dt,
        edge_aborted=aborted,
    )


def norm_flow_check(traj: Trajectory) -> float:
    """Max over interior grid points of |dP/dt - 2<H_I>|.

    dP/dt is estimated by centered differences, so the returned
    deviation carries an O(dt^2) discretization floor.
    """
    if len(traj.times) < 3:
        raise ValueError("need at least three time points")
    dev = traj.norms[2:] - traj.norms[:-2]
    dev /= 2.0 * traj.dt
    dev -= 2.0 * traj.h_i[1:-1]
    return float(np.max(np.abs(dev, out=dev)))


def initial_norm_rate(traj: Trajectory) -> float:
    """Second-order one-sided estimate of dP/dt at t = 0."""
    if len(traj.norms) < 3:
        raise ValueError("need at least three time points")
    p = traj.norms
    return float((-3.0 * p[0] + 4.0 * p[1] - p[2]) / (2.0 * traj.dt))


def decay_operator(n_max: int, alpha: float, sector=None) -> FockOperator:
    """Constant-sink case: the diagonal oscillator minus i*alpha, over
    FockBasis(n_max, sector).

    Its squared norm obeys P(t) = exp(-2*alpha*t) exactly, which makes
    it the closed-form oracle for the integrator.
    """
    diag = h0_diagonal(n_max, sector).astype(complex) - 1j * float(alpha)
    return FockOperator(matrix=sp.diags_array(diag, format="csr"),
                        basis=FockBasis(n_max, sector))


def gain_loss_map(traj: Trajectory) -> dict:
    """Net occupation change over the trajectory of each state it tracks,
    and the sorted states that gained and lost more than GAIN_LOSS_FLOOR,
    as JSON."""
    net = {s: float(occ[-1] - occ[0]) for s, occ in traj.tracked.items()}
    return {
        "net_change": {",".join(map(str, s)): d for s, d in net.items()},
        "gaining": [list(s) for s in sorted(net) if net[s] > GAIN_LOSS_FLOOR],
        "losing": [list(s) for s in sorted(net) if net[s] < -GAIN_LOSS_FLOOR],
    }

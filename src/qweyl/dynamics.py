"""Non-Hermitian time evolution over a truncated basis or parity sector.

Solves i dpsi/dt = H psi without renormalizing: the squared norm P(t)
is the observable, and its flow obeys dP/dt = 2<H_I> with H_I the
Hermitian generator of the anti-Hermitian part, which FockOperator
checks is diagonal, so P, <H_I> and the occupations all come from the
squared amplitudes |psi_n|^2.  The states the initial one reaches are
stepped by one Krylov method (Saad, SIAM J. Numer. Anal. 29(1), 1992;
Hochbruck & Lubich, SIAM J. Numer. Anal. 34(5), 1997): an Arnoldi
basis of their sparse block, grown from the state before a run of grid
points, reduces -i dt H to a small Hessenberg matrix; expm exponentiates
that, its powers step the run as short vectors, and one product with the
basis turns them all into states.  Probability pumped into the cutoff
edge is an artifact of truncation, so evolution stops with a warning as
soon as any edge state (some n_j > n_max - 2, so its same-parity
neighbour along axis j is cut off) holds more than a threshold
occupation; non-finite amplitudes abort outright.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fock import FockBasis, FockOperator, h0_diagonal

EDGE_OCCUPATION_LIMIT = 1e-6
# A net occupation change no larger than this is round-off: gain_loss_map
# lists the state as neither gaining nor losing.
GAIN_LOSS_FLOOR = 1e-12
# Most grid points one run holds; the windows offered double up to it.
WINDOW_CAP = 512
# Krylov dimensions tried in turn on each basis; the last is the largest
# basis ever held.
KRYLOV_SIZES = (8, 16, 30)
# Saad's estimate of a run's error, relative to the norm of the state the
# run starts from, must not exceed this.
KRYLOV_TOL = 1e-14
# expm's degree-13 diagonal Pade approximant: the largest 1-norm at which
# it stays within double rounding (Higham, SIAM J. Matrix Anal. Appl.
# 26(4), 2005, Table 2.3), and its coefficients b_0 .. b_13.
_PADE_BOUND = 5.371920351148152
_PADE_COEFFS = (64764752532480000, 32382376266240000, 7771770303897600,
                1187353796428800, 129060195264000, 10559470521600,
                670442572800, 33522128640, 1323241920, 40840800, 960960,
                16380, 182, 1)


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
    """What propagate holds for a dim-state reach set over n_steps steps
    with tracked track states: the Krylov basis (at most
    KRYLOV_SIZES[-1] + 1 vectors) and a window of states, all complex,
    its squared amplitudes and one temporary as reals, and per grid
    point the time, P, <H_I> and each tracked occupation."""
    points = n_steps + 1
    rows = min(KRYLOV_SIZES[-1], dim) + 1 + 2 * min(points, WINDOW_CAP)
    return 16 * rows * dim + 8 * (3 + tracked) * points


def expm(a) -> np.ndarray:
    """Exponential of the small dense square matrix a.

    Scaling and squaring (Higham 2005): the degree-13 diagonal Pade
    approximant r(a / 2^s), squared s times, with s the fewest halvings
    that bring the 1-norm within _PADE_BOUND; a 1x1 matrix is its scalar
    exponential.  No eigenvectors are formed, which for the non-normal
    Hessenberg blocks of propagate could be ill-conditioned.  A
    non-finite a is refused, and so is a result that underflows to zero:
    every point stepped by it would be exactly zero.
    """
    a = np.asarray(a, dtype=complex)
    norm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(norm):
        raise ValueError("dt*H is not finite; shrink dt")
    with np.errstate(over="ignore", invalid="ignore"):
        if a.shape == (1, 1):
            u = np.exp(a)
        else:
            u = _pade(a, norm)
    if not u.any():
        # an exponential is invertible: a zero one is float underflow
        raise ValueError("the step propagator underflows to zero; shrink dt")
    return u


def _pade(a, norm):
    """expm past its 1x1 case: p(a)/p(-a) for the Pade numerator p, its
    even and odd powers summed apart, on a scaled into the bound."""
    b = _PADE_COEFFS
    squarings = max(0, math.ceil(math.log2(norm / _PADE_BOUND)))
    a = a * 0.5 ** squarings
    even = [np.eye(len(a), dtype=complex), a @ a]
    while len(even) < 7:
        even.append(even[-1] @ even[1])
    odd = a @ sum(b[2 * k + 1] * power for k, power in enumerate(even))
    rest = sum(b[2 * k] * power for k, power in enumerate(even))
    # (rest + odd) / (rest - odd) as the identity plus a small correction,
    # so the correction's rounding is relative to its own size
    u = np.linalg.solve(rest - odd, 2 * odd)
    u[np.diag_indices_from(u)] += 1.0
    for _ in range(squarings):
        u = u @ u
    return u


def _arnoldi_step(a, basis, hess, j):
    """Column j of the Hessenberg matrix and basis row j + 1: a @ basis[j]
    orthogonalized against basis[:j + 1] by classical Gram-Schmidt, run
    twice so the basis stays orthonormal to working precision.  A zero
    remainder (the basis spans an invariant subspace) leaves row j + 1."""
    w = a @ basis[j]
    prior = basis[:j + 1]
    # <v, w> as the conjugate of prior @ conj(w), with no conjugated copy
    # of the basis
    first = (prior @ w.conj()).conj()
    w -= first @ prior
    second = (prior @ w.conj()).conj()
    w -= second @ prior
    hess[:j + 1, j] = first + second
    hess[j + 1, j] = norm = np.linalg.norm(w)
    if norm:
        basis[j + 1] = w / norm


def _powers(f, count):
    """Rows k = 0 .. count-1 hold column 0 of f^(k+1): each doubling of
    the rows applies f^n, formed by squaring, to the n rows before it."""
    rows = np.empty((count, len(f)), dtype=complex)
    rows[0] = f[:, 0]
    done, power = 1, f
    while done < count:
        block = rows[done:2 * done]
        np.matmul(rows[:len(block)], power.T, out=block)
        done += len(block)
        if done < count:
            power = power @ power
    return rows


def _krylov_stepper(matrix, dt):
    """The advance(last, window) that propagate calls: it fills a run,
    a prefix of window whose row k is exp(-i (k+1) dt H) last for the
    sparse block H = matrix, and returns the run's length.

    The run gets one Arnoldi basis V_m, grown from last, and the
    Hessenberg H_m of -i dt H on it.  Row k of the run is
    beta V_m^T F^(k+1) e_1, with beta the norm of last and F = expm(H_m),
    so the whole run is one product with V_m.  m is the first of
    KRYLOV_SIZES (up to the reach set's size) at which Saad's estimate
    h_(m+1,m) |e_m^T F^(k+1) e_1| stays within KRYLOV_TOL at every point.
    Past the largest the run is cut to the longest halving of it that
    meets the estimate, and a single step that cannot is refused.  Later
    runs start from the last m, no longer than the last run cut.  A basis
    that spans the reach set, or an invariant subspace of it, is exact.
    On an invariant line (m = 1) each point is its own scalar
    exponential, so no rounding compounds.  A zero last fills the window.
    """
    dim = matrix.shape[0]
    norm = dt * float(abs(matrix).sum(axis=0).max())
    # the basis is grown on -i dt H over a power of two at its 1-norm, so
    # no vector norm overflows; the Hessenberg matrix is scaled back
    # exactly, and expm refuses it if dt*H is not finite
    shift = max(0, math.frexp(norm)[1])
    scale = np.ldexp(1.0, shift)
    a = matrix * (-1j * math.ldexp(dt, -shift))
    sizes = sorted({min(m, dim) for m in KRYLOV_SIZES})
    basis = np.empty((sizes[-1] + 1, dim), dtype=complex)
    hess = np.zeros((sizes[-1] + 1, sizes[-1]), dtype=complex)
    span, first = WINDOW_CAP, 0

    def advance(last, window):
        nonlocal span, first
        count = min(span, len(window))
        peak = np.abs(last).max()
        if not peak:
            # underflowed to zero, and zero it stays
            window[:] = 0.0
            return len(window)
        # the norm of last / peak, whose squares cannot overflow
        beta = peak * np.linalg.norm(last / peak)
        basis[0] = last / beta
        built = 0
        for index in range(first, len(sizes)):
            m = sizes[index]
            # a zero remainder stops the basis short: it is exact
            while built < m and (not built or hess[built, built - 1]):
                _arnoldi_step(a, basis, hess, built)
                built += 1
            m = built
            h_m = hess[:m, :m] * scale
            f = expm(h_m)
            if m == 1:
                e = np.exp(np.arange(1.0, count + 1) * h_m[0, 0])[:, np.newaxis]
            else:
                e = _powers(f, count)
            # exact, or overflowing, where propagate's check stops it
            if m == dim or not hess[m, m - 1] or not np.isfinite(e).all():
                break
            error = np.maximum.accumulate(
                abs(hess[m, m - 1]) * scale * np.abs(e[:, m - 1]))
            if error[-1] <= KRYLOV_TOL:
                break
        else:
            while count and error[count - 1] > KRYLOV_TOL:
                count //= 2
            if not count:
                raise ValueError(
                    f"one step of dt = {dt:g} needs a Krylov basis of more "
                    f"than {m} vectors (error estimate {error[0]:.3g} "
                    f"against {KRYLOV_TOL:g}); shrink dt"
                )
            span = count
        first = index
        rows = window[:count]
        np.matmul(e[:count], basis[:m], out=rows)
        rows *= beta
        return count

    return advance


def propagate(h: FockOperator, psi0, T: float, dt: float, track=()) -> Trajectory:
    """Evolve psi0 under i dpsi/dt = H psi on a uniform grid.

    Only the states of h.basis that psi0 reaches through the nonzeros of
    H (keep) are evolved; every other amplitude stays exactly zero.  In a
    sector that is all of it, unless H is diagonal.  From grid point s,
    _krylov_stepper is offered a window of min(s + 1, WINDOW_CAP) points
    (fewer at the end of the grid) and fills a run of it from one Arnoldi
    basis.  Each run is checked as soon as it is stepped, so a stop at
    point k computes at most the run that holds the stop: no more than
    min(2k+1, k+WINDOW_CAP) points.  The squared amplitudes of each run
    are formed once, and the edge check, P(t),
    <H_I>(t) = sum_n |psi_n|^2 H_I[n] and the occupations of the track
    states are read from them; only those series and the final state
    are kept.  H_I is read from h.h_i_diagonal before any step, so an
    operator whose anti-Hermitian part is not diagonal raises ValueError
    there.  A step the largest Krylov basis cannot take, a non-finite
    dt*H and a step that underflows to zero raise ValueError.
    """
    T = float(T)
    dt = float(dt)
    n_steps = step_count(T, dt)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h.matrix.shape[0],):
        raise ValueError("psi0 dimension does not match the operator")
    if not abs(np.linalg.norm(psi0) - 1.0) <= 1e-6:
        raise ValueError("psi0 must be unit-normalized")
    track = [tuple(map(operator.index, s)) for s in track]
    tracked_index = [h.basis.index(s) for s in track]
    # grow the support of psi0 along the nonzeros of H until it is closed
    pattern = h.matrix != 0
    reach = psi0 != 0
    while not np.array_equal(grown := reach | (pattern @ reach), reach):
        reach = grown
    keep = np.flatnonzero(reach)
    h_i_keep = h.h_i_diagonal[keep]

    edge = (h.basis.occupations[keep] > h.basis.n_max - 2).any(axis=1)
    column = np.full(h.matrix.shape[0], -1)
    column[keep] = np.arange(len(keep))
    columns = column[tracked_index]
    inside = np.flatnonzero(columns >= 0)
    norms = np.empty(n_steps + 1)
    h_i = np.empty(n_steps + 1)
    occupations = np.zeros((n_steps + 1, len(track)))
    buffer = np.empty((min(n_steps + 1, WINDOW_CAP), len(keep)), dtype=complex)
    squares = np.empty(buffer.shape)
    last = psi0[keep]
    start, end, aborted = 0, n_steps + 1, False
    with np.errstate(over="ignore", invalid="ignore"):
        advance = _krylov_stepper(h.matrix[keep][:, keep], dt)
        while start < end:
            window = buffer[:min(start + 1, WINDOW_CAP, end - start)]
            if start:
                window = window[:advance(last, window)]
            else:
                window[0] = last
            weights = np.abs(window, out=squares[:len(window)])
            weights **= 2
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
            occupations[rows, inside] = weights[:, columns[inside]]
            weights *= h_i_keep
            h_i[rows] = np.sum(weights, axis=1)
            last = window[-1].copy()
            start += len(window)

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

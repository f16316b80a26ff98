"""Non-Hermitian time evolution over a truncated basis or parity sector.

Solves i dpsi/dt = H psi without renormalizing: the squared norm P(t)
is the observable, and its flow obeys dP/dt = 2<H_I> with H_I the
Hermitian generator of the anti-Hermitian part, which FockOperator
checks is diagonal, so P, <H_I> and the occupations are all weighted
sums of the squared amplitudes |psi_n|^2.  The states of the
operator's basis are stepped by one Krylov method (Saad, SIAM J. Numer.
Anal. 29(1), 1992; Hochbruck & Lubich, SIAM J. Numer. Anal. 34(5),
1997): an Arnoldi basis V_m, grown from one state, reduces -i dt H to a
small Hessenberg matrix and stops short at an invariant subspace, so a
diagonal H steps one basis state on one vector; expm exponentiates
that, and its powers step the points that follow as short vectors e_k,
psi_k = beta V_m^T e_k.  One basis serves one run of grid points, as
many as Saad's error estimate covers (an invariant one every run to the
end of the grid), and one generator yields the runs in order, point 0
first.  Every weighted sum of |psi_n|^2 is a small quadratic form in
e_k, its m x m matrix summed once per basis, so no state is formed but
the one each basis grows from and the final one.  Probability pumped
into the cutoff edge is an artifact of truncation, so evolution stops
with a warning as soon as any edge state (some n_j > n_max - 2, so its
same-parity neighbour along axis j is cut off) holds more than a
threshold occupation; the edge amplitudes are formed only for a run
whose summed edge weight does not clear it.  Non-finite amplitudes
abort outright.
"""

from __future__ import annotations

import itertools
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
# Most grid points one run holds: the table of one Arnoldi basis, or of
# one refill of an invariant one.
WINDOW_CAP = 512
# Basis columns summed into a run's quadratic forms at a time.
FORM_CHUNK = 4096
# A point whose amplitude bound beta |e_k| |V_m|_F is at most this has
# finite amplitudes: every partial sum of e_k^T V_m is at most
# |e_k| |V_m|_F, so forming it cannot pass the largest double.
_FINITE_BOUND = 1e300
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
    """Uniform-grid evolution record.  series holds one row per grid
    point: P(t), <H_I>(t) and the occupation of each state passed as
    track.  norms, h_i and the values of tracked (keyed by those states)
    are views of its columns, and states holds only the final point, one
    row over h.basis (the box, or the sector H is built on)."""

    times: np.ndarray
    states: np.ndarray
    series: np.ndarray
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


def held_bytes(basis: FockBasis, n_steps: int, tracked: int = 0) -> int:
    """What propagate holds for an operator on basis over n_steps steps
    with tracked track states, complex unless said: the Krylov basis (at
    most KRYLOV_SIZES[-1] + 1 vectors) and the state formed from it; one
    chunk of the basis's columns weighed three ways for the forms, and
    the forms' products with each point of a run, twice; the edge columns
    of the basis, and one run of edge rows with their squares as reals;
    and per grid point, as reals, the time and one row of the series
    array: P, <H_I> and each tracked occupation.  The edge states are
    those with some n_j > n_max - 2: every state but the interior ones,
    counted along each axis from the first occupation p_j in steps of
    basis.step."""
    dim = basis.dim
    edge = dim - math.prod(max(0, (basis.n_max - 2 - p) // basis.step + 1)
                           for p in basis.first)
    points = n_steps + 1
    vectors = min(KRYLOV_SIZES[-1], dim) + 1
    run = min(points, WINDOW_CAP)
    return (16 * ((vectors + 1) * dim
                  + 3 * vectors * (min(dim, FORM_CHUNK) + 2 * run)
                  + vectors * edge)
            + 24 * run * edge + 8 * (3 + tracked) * points)


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


def _arnoldi_step(a, basis, hess, j, floor):
    """Column j of the Hessenberg matrix and basis row j + 1: a @ basis[j]
    orthogonalized against basis[:j + 1] by classical Gram-Schmidt, run
    twice so the basis stays orthonormal to working precision.  A
    remainder whose norm is at most floor is rounding: it counts as zero
    (the basis spans an invariant subspace) and leaves row j + 1."""
    w = a @ basis[j]
    prior = basis[:j + 1]
    # <v, w> as the conjugate of prior @ conj(w), with no conjugated copy
    # of the basis
    first = (prior @ w.conj()).conj()
    w -= first @ prior
    second = (prior @ w.conj()).conj()
    w -= second @ prior
    hess[:j + 1, j] = first + second
    norm = np.linalg.norm(w)
    if norm <= floor:
        norm = 0.0
    hess[j + 1, j] = norm
    if norm:
        basis[j + 1] = w / norm


def _norm(x):
    """The 2-norm of x: the squares of x / max|x|, which cannot overflow,
    summed exactly (math.fsum) FORM_CHUNK entries at a time, so that how
    a sum is grouped cannot round it."""
    peak = np.abs(x).max()
    if not peak:
        return 0.0
    parts = (x[lo:lo + FORM_CHUNK] / peak for lo in range(0, len(x), FORM_CHUNK))
    squares = itertools.chain.from_iterable(
        np.square(part.view(float)).tolist() for part in parts)
    return peak * math.sqrt(math.fsum(squares))


def _powers(f, row, count):
    """Rows k = 0 .. count-1 hold F^k row: each doubling of the rows
    applies F^n, formed by squaring, to the n rows before it."""
    rows = np.empty((count, len(f)), dtype=complex)
    rows[0] = row
    done, power = 1, f
    while done < count:
        block = rows[done:2 * done]
        np.matmul(rows[:len(block)], power.T, out=block)
        done += len(block)
        if done < count:
            power = power @ power
    return rows


def _krylov_runs(matrix, dt, psi0, end):
    """Every run (e, v, beta) of the grid points 0 .. end - 1 of psi0
    under the sparse block H = matrix, in order: the state at point k of
    a run is beta e[k] @ v.  Point 0 is a run of its own, psi0 itself.

    Every later run is one table of the points an Arnoldi basis V_m (the
    rows of v) covers, for at most min(left, WINDOW_CAP) of the points
    left.  The basis is grown from the last state of the run before, of
    norm beta, with the Hessenberg H_m of -i dt H on it, and its table
    holds F^j e_1 for its j-th point, F = expm(H_m), so no other state is
    formed here.  m is the first of KRYLOV_SIZES (up to the basis's size)
    at which Saad's estimate h_(m+1,m) |e_m^T F^j e_1| stays within
    KRYLOV_TOL over the whole table, else the largest, and the run is the
    prefix of the table where it does; a single step that none covers
    raises ValueError ("shrink dt") from the iteration.  A table that
    overflows before the estimate fails is the run whole, for the caller
    to stop at the overflow.  Later bases start from the last m.  An
    Arnoldi remainder within eps of the bound on the scaled |a|_1 counts
    as zero, so the basis stops at an invariant subspace (Saad's happy
    breakdown) and is exact: it is never regrown, and refills its table
    for every later run, so a diagonal H steps one basis state on one
    vector.  On an invariant line (m = 1) each point is its own scalar
    exponential, counted from the basis start, so no rounding compounds.
    A zero last state spans the zero line, and stays zero.

    Every run of one basis yields the same v, a view of the generator's
    basis that the next basis overwrites, so the caller spots a new basis
    by v's identity.  The caller stops the runs by leaving the loop.
    """
    e, v, beta = np.ones((1, 1), dtype=complex), psi0[np.newaxis], 1.0
    yield e, v, beta
    dim = len(psi0)
    norm = dt * float(abs(matrix).sum(axis=0).max())
    # the basis is grown on -i dt H over a power of two at its 1-norm, so
    # no vector norm overflows; the Hessenberg matrix is scaled back
    # exactly, and expm refuses it if dt*H is not finite
    shift = max(0, math.frexp(norm)[1])
    scale = np.ldexp(1.0, shift)
    a = matrix * (-1j * math.ldexp(dt, -shift))
    # a remainder within one ulp of the bound on |a|_1 is rounding
    floor = np.finfo(float).eps * math.ldexp(norm, -shift)
    sizes = sorted({min(m, dim) for m in KRYLOV_SIZES})
    basis = np.empty((sizes[-1] + 1, dim), dtype=complex)
    hess = np.zeros((sizes[-1] + 1, sizes[-1]), dtype=complex)
    # the size the next basis starts from, and whether the basis at hand
    # is invariant
    first, invariant, start = 0, False, 1
    while start < end:
        count = min(end - start, WINDOW_CAP)
        if not invariant:
            last = e[-1] @ v
            last *= beta
            # a zero last spans the zero line
            beta = _norm(last) or 1.0
            basis[0] = last / beta
            built = served = 0
            for index in range(first, len(sizes)):
                m = sizes[index]
                # a zero remainder stops the basis short: it is exact
                while built < m and (not built or hess[built, built - 1]):
                    _arnoldi_step(a, basis, hess, built, floor)
                    built += 1
                m = built
                h_m = hess[:m, :m] * scale
                f = expm(h_m)
                invariant = m == dim or not hess[m, m - 1]
                if invariant:
                    break
                e = _powers(f, f[:, 0], count)
                error = np.maximum.accumulate(
                    abs(hess[m, m - 1]) * scale * np.abs(e[:, m - 1]))
                held = np.count_nonzero(error <= KRYLOV_TOL)
                # a table that overflows before the estimate fails is kept
                # whole: the caller's check stops it at the overflow
                if held == count or not np.isfinite(e[:held + 1]).all():
                    break
                e = e[:held]
            if not invariant and not len(e):
                raise ValueError(
                    f"one step of dt = {dt:g} needs a Krylov basis of more "
                    f"than {m} vectors (error estimate {error[0]:.3g} "
                    f"against {KRYLOV_TOL:g}); shrink dt"
                )
            first, v = index, basis[:m]
        if invariant:
            # the table of the count points after the served ones
            if m == 1:
                steps = np.arange(served + 1.0, served + count + 1)
                e = np.exp(steps * h_m[0, 0])[:, np.newaxis]
            else:
                e = _powers(f, f @ e[-1] if served else f[:, 0], count)
        served += len(e)
        start += len(e)
        yield e, v, beta


def _forms(v, weights):
    """[G | W_1 | W_2 ...] for the rows v of a run's basis: G = v v^H and
    W_j = v diag(weights[j]) v^H, each m x m.  They are summed over
    FORM_CHUNK columns of v at a time, so no weighted copy of v is held
    whole."""
    m, dim = v.shape
    forms = np.zeros((m, m * (1 + len(weights))), dtype=complex)
    stack = np.empty((forms.shape[1], min(dim, FORM_CHUNK)), dtype=complex)
    for lo in range(0, dim, FORM_CHUNK):
        part = v[:, lo:lo + FORM_CHUNK]
        chunk = stack[:, :part.shape[1]]
        np.conjugate(part, out=chunk[:m])
        for j, weight in enumerate(weights, start=1):
            np.multiply(chunk[:m], weight[lo:lo + FORM_CHUNK],
                        out=chunk[j * m:(j + 1) * m])
        forms += part @ chunk.T
    return forms


def _run_series(e, forms, beta):
    """At each point beta e[k] @ v of a run on the basis rows v whose
    _forms are forms: the quadratic forms beta^2 e[k]^T W conj(e[k]) of G
    and of each weighted W, and a bound on every amplitude,
    beta |e[k]| |v|_F."""
    m = e.shape[1]
    products = (e @ forms).reshape(len(e), -1, m)
    sums = np.vecdot(e[:, np.newaxis], products).real.T * beta * beta
    bound = np.sqrt(np.vecdot(e, e).real * np.trace(forms[:, :m]).real) * beta
    return (*sums, bound)


def _edge_occupations(e, v, beta, edge):
    """The largest occupation among the edge states (the columns edge of
    the basis rows v) at each point beta e[k] @ v of a run."""
    rows = e @ v[:, edge]
    rows *= beta
    squares = np.abs(rows)
    squares **= 2
    return np.max(squares, axis=1, initial=0.0)


def propagate(h: FockOperator, psi0, T: float, dt: float, track=()) -> Trajectory:
    """Evolve psi0 under i dpsi/dt = H psi on a uniform grid.

    Every state of h.basis is stepped.  A state psi0 cannot reach
    through the nonzeros of H stays exactly zero: no Arnoldi vector has
    weight there, and the basis stops at an invariant subspace, one
    vector for the whole grid for a diagonal H and a basis state psi0.
    The grid comes from _krylov_runs as runs: point 0, psi0 itself, then
    runs of at most WINDOW_CAP of the points left, each on an Arnoldi
    basis V_m, a new one or the invariant one at hand: the state at point
    k of a run is psi_k = beta e_k^T V_m.  Each run is checked as soon as
    it is stepped, and an edge stop leaves the loop, so a stop at point k
    steps at most the run that holds the stop: no more than
    k + WINDOW_CAP - 1 points.

    No state is formed but the one each new basis grows from and the
    final one, once after the last run.  Per basis the m x m forms
    G = V_m V_m^H, M = V_m diag(H_I) V_m^H and G_E (G summed over the edge
    states alone) are summed once, and its tracked columns taken; for
    each run one product of the points' e_k with the forms gives
    P(t) = beta^2 e_k^T G conj(e_k),
    <H_I>(t) = sum_n |psi_n|^2 H_I[n] = beta^2 e_k^T M conj(e_k) and the
    edge weight, beta^2 e_k^T G_E conj(e_k), which bounds every edge
    occupation.  A run whose edge weight, rounding included, stays within
    half of EDGE_OCCUPATION_LIMIT is cleared with no row formed; for any
    other run the edge amplitudes alone are formed and checked against
    the limit.  Every amplitude at point k is at most
    beta |e_k| |V_m|_F, so a point is formed whole, and checked for
    non-finite amplitudes, only where that bound nears the largest
    double; P may overflow alone.  The tracked occupations come from
    their own columns of V_m.  Only those series, the columns of one
    array, and the final state are kept.

    H_I is read from h.h_i_diagonal before any step, so an operator whose
    anti-Hermitian part is not diagonal raises ValueError there.  A step
    the largest Krylov basis cannot take, a non-finite dt*H and a step
    that underflows to zero raise ValueError.
    """
    T = float(T)
    dt = float(dt)
    n_steps = step_count(T, dt)
    psi0 = np.array(psi0, dtype=complex)
    if psi0.shape != (h.matrix.shape[0],):
        raise ValueError("psi0 dimension does not match the operator")
    if not abs(np.linalg.norm(psi0) - 1.0) <= 1e-6:
        raise ValueError("psi0 must be unit-normalized")
    track = [tuple(map(operator.index, s)) for s in track]
    columns = [h.basis.index(s) for s in track]
    on_edge = (h.basis.occupations > h.basis.n_max - 2).any(axis=1)
    # the diagonals that weigh M and G_E
    weights = (h.h_i_diagonal, on_edge.astype(float))
    edge = np.flatnonzero(on_edge)
    series = np.zeros((n_steps + 1, 2 + len(track)))
    start, end, aborted, v = 0, n_steps + 1, False, None
    with np.errstate(over="ignore", invalid="ignore"):
        for e, run_v, beta in _krylov_runs(h.matrix, dt, psi0, end):
            if run_v is not v:
                # a new basis: its forms and tracked columns
                v = run_v
                forms = _forms(v, weights)
                v_track = v[:, columns]
            p, h_i_run, edge_weight, bound = _run_series(e, forms, beta)
            # the forms round by at most (dim + 2m) ulps of bound^2
            count, m = e.shape
            slack = (len(psi0) + 2 * m) * np.finfo(float).eps * bound ** 2
            stop = count
            if not np.all(edge_weight + slack <= EDGE_OCCUPATION_LIMIT / 2):
                occ = _edge_occupations(e, v, beta, edge)
                hits = np.flatnonzero(occ > EDGE_OCCUPATION_LIMIT)
                if hits.size:
                    stop = hits[0]
            for i in np.flatnonzero(~(bound[:stop + 1] <= _FINITE_BOUND)):
                row = e[i] @ v
                row *= beta
                if not np.isfinite(row).all():
                    raise RuntimeError(
                        f"non-finite amplitudes at t = {(start + i) * dt:.6g}; "
                        "growth overflowed the truncated basis"
                    )
            if stop < count:
                k = start + stop
                where = f"at t = {k * dt:.6g}" if k else "in the initial state"
                warnings.warn(
                    f"edge occupation {float(occ[stop]):.3g} {where} exceeds "
                    f"{EDGE_OCCUPATION_LIMIT}; stopping early",
                    RuntimeWarning,
                )
                end, aborted = k + 1, True
                count = stop + 1
            rows = slice(start, start + count)
            series[rows, 0] = p[:count]
            series[rows, 1] = h_i_run[:count]
            amplitudes = e[:count] @ v_track
            amplitudes *= beta
            series[rows, 2:] = np.abs(amplitudes) ** 2
            start += count
            if aborted:
                break
        last = e[count - 1] @ v
        last *= beta

    series = series[:end]
    return Trajectory(
        times=np.arange(end) * dt,
        states=last[np.newaxis],
        series=series,
        norms=series[:, 0],
        h_i=series[:, 1],
        tracked=dict(zip(track, series[:, 2:].T)),
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

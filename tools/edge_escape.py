"""Tabulate when the first-order dynamics reaches the cutoff edge.

Usage: python tools/edge_escape.py [n_max ...]

For every cutoff (default 8, 10, ..., 40), both theta values in THETAS and
both modes, evolves the ground state of the working tree's truncated H_eff
with `dynamics.propagate` at dt = DT until the edge guard stops it (an
edge state's occupation |psi_n|^2 passes EDGE_OCCUPATION_LIMIT, an
absolute occupation rather than a share of the norm P), and prints
a markdown table of the stop time t_edge and the squared norm P(t_edge)
there; a run that reaches T_MAX without stopping shows `>T_MAX` and P at
T_MAX.  Then, for each theta and mode that stopped at three cutoffs or
more, it fits the growth of t_edge between successive stopping cutoffs,
taken per unit of n_max at their midpoint, to a power law
c * n_max^(-p) by least squares in log-log, and prints c and p.  Each run
builds and evolves the even parity sector, which holds the ground state,
as `evolve` does.  The runs go one at a time; on a 2-vCPU VM the longest,
a run at n_max = 40 that does not stop, took 15 s and peaked near 210 MB,
and the whole table about 2.5 minutes.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qweyl.dynamics import propagate  # noqa: E402
from qweyl.fock import EVEN, FockBasis, build_h_eff  # noqa: E402
from qweyl.realization import MODES  # noqa: E402

THETAS = (0.05, 0.1)
DT = 1e-3
T_MAX = 20.0
CUTOFFS = tuple(range(8, 41, 2))


def edge_escape(n_max: int, theta: float, mode: str):
    """(stopped, last time, P there) for the ground state."""
    h = build_h_eff(n_max, theta, mode, EVEN)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        traj = propagate(h, FockBasis(n_max, EVEN).vector((0, 0, 0)), T_MAX, DT)
    return traj.edge_aborted, float(traj.times[-1]), float(traj.norms[-1])


def power_law(cutoffs, times):
    """c, p of dt_edge/dn_max = c * n_max^(-p), fitted in log-log on the
    slopes between successive cutoffs at their midpoints."""
    n = np.asarray(cutoffs, dtype=float)
    slopes = np.diff(times) / np.diff(n)
    p, log_c = np.polyfit(np.log((n[1:] + n[:-1]) / 2), np.log(slopes), 1)
    return float(np.exp(log_c)), float(-p)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cutoffs = tuple(int(a) for a in argv) or CUTOFFS
    except ValueError:
        print("usage: python tools/edge_escape.py [n_max ...]", file=sys.stderr)
        return 2
    runs = [(theta, mode) for theta in THETAS for mode in MODES]
    head = [f"θ={theta} {mode}" for theta, mode in runs]
    print("| n_max | " + " | ".join(f"{h} t_edge | P" for h in head) + " |")
    print("|---:|" + "---:|---:|" * len(runs))
    table = {run: [] for run in runs}
    for n_max in cutoffs:
        cells = []
        for run in runs:
            stopped, t, p = edge_escape(n_max, *run)
            table[run].append((stopped, t))
            cells += [f"{t:.3f}" if stopped else f">{t:g}", f"{p:.6f}"]
        print(f"| {n_max} | " + " | ".join(cells) + " |", flush=True)
    print()
    for (theta, mode), results in table.items():
        stops = [(n, t) for n, (stopped, t) in zip(cutoffs, results) if stopped]
        fit = "no fit"
        if len(stops) >= 3:
            c, p = power_law(*zip(*stops))
            fit = f"dt_edge/dn_max = {c:.3g} * n_max^{-p:.3f}"
        print(f"θ={theta} {mode}: stopped at {len(stops)} of {len(cutoffs)} "
              f"cutoffs; {fit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

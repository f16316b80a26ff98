"""Workloads of the qweyl benchmark: inputs from a seed, jobs, oracles.

A workload is a list of jobs that one client runs one after another
(a closed loop).  A job calls algebra.normalize on one generated word,
CLI commands through qweyl.cli.main with a generated config file, or
the quadrature cross-check.  Its check runs after the timed pass and
returns the ways its output is wrong.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from qweyl import algebra, cli, effective, fock, quadrature, realization

from tracing import dense_operator_bytes

# symbolic
WORD_COUNT = 1000
WORD_LENGTHS = (4, 10)
TAIL_PAIRS = 5
REFERENCE_SEED = 0
ORACLE_THETA = 0.3
ORACLE_MONOMIALS = ((0, 0, 0), (1, 2, 3), (3, 1, 2))
ACTION_RTOL = 1e-12
VERIFY_DEGREE = 8

# spectrum-sweep
SWEEP_N_MAX = (6, 8, 10, 12)
SWEEP_THETA = 0.01
QUADRATURE_N_MAX = 10
QUADRATURE_QUANTA = 3
QUADRATURE_PAIRS = 200
QUADRATURE_TOL = 1e-10
TRACE_RTOL = 1e-9
CONJECTURED_OFFSETS = {(0, 0, 0)} | {
    tuple(s * 2 if k == j else 0 for k in range(3))
    for j in range(3) for s in (1, -1)
}

# evolve-long: the CLI defaults
EVOLVE_N_MAX = 10
EVOLVE_THETA = 0.01
EVOLVE_T = 5.0
EVOLVE_DT = 1e-3
NORM_FLOW_LIMIT = 1e-6
RATE_TOL = 1e-4

# peak copies of a dense operator while one is built and diagonalized
# or exponentiated, and of the state array while observables are formed
DENSE_COPIES = 8
STATE_COPIES = 5


class RefusedSize(Exception):
    """A job would need more memory than the machine has free."""


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    word: bool = False
    commands: tuple = ()  # CLI jobs: (arguments before --out, output dir)


@dataclass
class Workload:
    jobs: list
    control: Callable[[list], bool]  # True when a wrong expectation is caught
    rerun: int  # index of the CLI job rerun for byte-identical output
    sizes: dict = field(default_factory=dict)  # traffic dimensions
    pure_python: bool = False  # job times are scaled by the worker's probe


def available_bytes() -> int:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def ensure_fits(n_max: int, steps: int = 0) -> None:
    """Refuse a dense job whose computed bytes exceed free memory."""
    dim = (n_max + 1) ** 3
    need = (DENSE_COPIES * dense_operator_bytes(n_max)
            + STATE_COPIES * (steps + 1) * dim * 16)
    free = available_bytes()
    if need > free:
        raise RefusedSize(f"n_max={n_max} needs about {need / 2**20:.0f} MiB, "
                          f"{free / 2**20:.0f} MiB free")


def write_config(path, **values) -> str:
    with open(path, "w") as fh:
        fh.writelines(f"{key}={value}\n" for key, value in values.items())
    return path


def read_report(out, command) -> dict:
    with open(os.path.join(out, command.replace("-", "_") + ".json")) as fh:
        return json.load(fh)


def csv_rows(path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def cli_job(name, *commands) -> Job:
    """CLI commands (argv, out, check) run in turn; each must exit 0 and
    its report, read back from out, must pass check(report, out)."""

    def run():
        return [cli.main([*argv, "--out", out]) for argv, out, _ in commands]

    def check_job(codes):
        msgs = []
        for code, (argv, out, check) in zip(codes, commands):
            if code != 0:
                msgs.append(f"{argv[0]} exited {code}, expected 0")
            else:
                msgs += check(read_report(out, argv[0]), out)
        return [f"{name}: {msg}" for msg in msgs]

    return Job(name, run, check_job,
               commands=tuple((argv, out) for argv, out, _ in commands))


def _outputs(out, command):
    report = read_report(out, command)
    report.pop("timestamp")
    tables = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), "rb") as fh:
                tables[name] = fh.read()
    return report, tables


def rerun_identical(job: Job) -> bool:
    """Rerun a CLI job's commands into fresh directories; compare each
    report without its timestamp, and the CSV files byte for byte."""
    for argv, out in job.commands:
        again = out + "-rerun"
        if cli.main([*argv, "--out", again]) != 0:
            return False
        if _outputs(out, argv[0]) != _outputs(again, argv[0]):
            return False
    return True


# ------------------------------------------------------------- symbolic


def diagonal_pairs(word) -> int:
    """Pairs d_a ... X_a in that order: each one rewrites to several words."""
    return sum(1 for p, a in enumerate(word) if a >= 3
               for b in word[p + 1:] if b == a - 3)


def symbolic_words(seed: int) -> list:
    """Words over X1..d3 with length uniform in WORD_LENGTHS.

    A fixed reference draw sets each word's letters; the seed shuffles
    them into a new word with as many diagonal pairs.  Words with
    TAIL_PAIRS or more diagonal pairs, under a tenth of all, carry most
    of the time and are kept as drawn, so that whether a seed happens to
    draw a few of them more or fewer cannot decide total_s and job_p99_s.
    """
    reference = random.Random(REFERENCE_SEED)
    rng = random.Random(seed)
    words = []
    for _ in range(WORD_COUNT):
        length = reference.randint(*WORD_LENGTHS)
        word = tuple(reference.randrange(algebra.N_GEN) for _ in range(length))
        pairs = diagonal_pairs(word)
        while pairs < TAIL_PAIRS:
            candidate = tuple(rng.sample(word, length))
            if diagonal_pairs(candidate) == pairs:
                word = candidate
                break
        words.append(word)
    return words


def action_failures(word, normal_form) -> list:
    """The word and its normal form must act alike on oracle monomials."""
    out = []
    for mono in ORACLE_MONOMIALS:
        vec = realization.MonomialVec.basis(mono)
        direct = realization.apply_word(word, vec, ORACLE_THETA)
        rewritten = realization.apply_poly(normal_form, vec, ORACLE_THETA)
        scale = max(direct.norm(), rewritten.norm())
        if scale and direct.diff_max(rewritten) > ACTION_RTOL * scale:
            out.append(f"{algebra.word_to_str(word)} acts differently from "
                       f"its normal form on {mono}")
    return out


def _word_job(word) -> Job:
    return Job(
        name=f"normalize {algebra.word_to_str(word)}",
        run=lambda: algebra.normalize({word: 1}),
        check=lambda nf: action_failures(word, nf),
        word=True,
    )


def _check_verify(report, out):
    msgs = []
    if not all(r["holds"] for r in report["relations"]):
        msgs.append("a defining relation does not hold")
    if report["numeric"]["max_residual"] > cli.NUMERIC_RESIDUAL_LIMIT:
        msgs.append("numeric relation residual above its limit")
    return msgs


def _check_ok(report, out):
    return [] if report["ok"] is True else ["report is not ok"]


def symbolic(seed: int, out: str) -> Workload:
    words = symbolic_words(seed)
    config = write_config(os.path.join(out, "symbolic.cfg"),
                          degree=VERIFY_DEGREE, mode="paper")
    jobs = [_word_job(word) for word in words]
    for command, check in (("verify-algebra", _check_verify),
                           ("expand-scan", _check_ok),
                           ("effective", _check_ok)):
        jobs.append(cli_job(command, ([command, "--config", config],
                                      os.path.join(out, command), check)))

    def control(outcomes):
        # a normal form scaled by 2 must fail on the first word that
        # does not annihilate every oracle monomial
        for word, nf in zip(words, outcomes):
            if any(realization.apply_word(word, realization.MonomialVec.basis(m),
                                          ORACLE_THETA).norm()
                   for m in ORACLE_MONOMIALS):
                return bool(action_failures(word, nf.scale(2)))
        return False

    return Workload(jobs, control, rerun=len(jobs) - 1,
                    sizes={"words": len(words),
                           "word_length": list(WORD_LENGTHS)},
                    pure_python=True)


# ------------------------------------------------------- spectrum-sweep


def h_trace(n_max: int, theta: float, mode: str) -> complex:
    """tr(H0 + theta*H1) from closed forms and Gauss-Hermite diagonals,
    independent of the ladder-matrix build."""
    side = n_max + 1
    trace_h0 = side ** 3 * 1.5 + 3 * side ** 2 * (n_max * side // 2)
    op = effective.hamiltonian_operator(mode).theta_slice(1)
    trace_h1 = 0j
    for (dx, dy, dz), poly in op.terms.items():
        for (a, b, c, _), coeff in poly.terms.items():
            term = complex(coeff)
            for power, deriv in ((a, dx), (b, dy), (c, dz)):
                term *= sum(quadrature.element_1d(n, power, deriv, n)
                            for n in range(side))
            trace_h1 += term
    return trace_h0 + theta * trace_h1


def trace_failures(report, expected: complex) -> list:
    eig = np.array(report["eigenvalues"])
    total = complex(eig[:, 0].sum(), eig[:, 1].sum())
    scale = float(np.abs(eig[:, 0] + 1j * eig[:, 1]).sum())
    if abs(total - expected) > TRACE_RTOL * scale:
        return [f"eigenvalue sum {total} differs from the trace {expected}"]
    return []


def _check_spectrum(n_max):
    def check(report, out):
        dim = (n_max + 1) ** 3
        msgs = []
        if report["dimension"] != dim or len(report["eigenvalues"]) != dim:
            msgs.append(f"expected {dim} eigenvalues")
        if csv_rows(os.path.join(out, "spectrum.csv")) != dim:
            msgs.append(f"spectrum.csv does not hold {dim} rows")
        return msgs + trace_failures(report, h_trace(n_max, SWEEP_THETA, "paper"))

    return check


def _check_mixing(report, out):
    offsets = {tuple(o) for o in report["sparsity"]["offsets"]}
    msgs = []
    if offsets != CONJECTURED_OFFSETS:
        msgs.append(f"offset set {sorted(offsets)} is not {{0, +-2 e_j}}")
    if csv_rows(os.path.join(out, "mixing.csv")) != len(offsets):
        msgs.append("mixing.csv does not hold one row per offset")
    return msgs


def quadrature_pairs(seed: int) -> list:
    states = [s for s in fock.FockBasis(QUADRATURE_N_MAX).states()
              if sum(s) <= QUADRATURE_QUANTA]
    pairs = [(bra, ket) for bra in states for ket in states]
    return random.Random(seed).sample(pairs, QUADRATURE_PAIRS)


def _with_quadrature(job: Job, pairs) -> Job:
    """job, then the H1 elements of pairs from the ladder build checked
    against Gauss-Hermite quadrature."""

    def run():
        h1 = fock.build_h1_matrix(QUADRATURE_N_MAX, "paper")
        op = effective.hamiltonian_operator("paper").theta_slice(1)
        basis = fock.FockBasis(QUADRATURE_N_MAX)
        ladder = [complex(h1[basis.index(b), basis.index(k)]) for b, k in pairs]
        quad = [quadrature.element_3d(op, b, k) for b, k in pairs]
        return ladder, quad

    def check(outcome):
        first, elements = outcome
        msgs = job.check(first)
        worst = max(abs(a - b) for a, b in zip(*elements))
        if worst > QUADRATURE_TOL:
            msgs.append(f"{job.name}: ladder and quadrature H1 elements "
                        f"differ by {worst:.3g}")
        return msgs

    return Job(f"{job.name} + quadrature", lambda: (job.run(), run()), check,
               commands=job.commands)


def spectrum_sweep(seed: int, out: str) -> Workload:
    jobs = []
    for n_max in SWEEP_N_MAX:
        ensure_fits(n_max)
        config = write_config(os.path.join(out, f"n{n_max}.cfg"),
                              theta=SWEEP_THETA, nmax=n_max, mode="paper",
                              format="csv")
        # one job per cutoff, so that job latencies differ enough that
        # the same two jobs straddle the median in every pass; the
        # quadrature check of the n_max 10 elements is part of that
        # cutoff's job, which keeps the median off the noisy sub-second
        # jobs
        job = cli_job(
            f"n_max={n_max}",
            (["spectrum", "--config", config],
             os.path.join(out, f"spectrum-n{n_max}"), _check_spectrum(n_max)),
            (["mixing", "--config", config],
             os.path.join(out, f"mixing-n{n_max}"), _check_mixing))
        if n_max == QUADRATURE_N_MAX:
            job = _with_quadrature(job, quadrature_pairs(seed))
        jobs.append(job)

    def control(outcomes):
        report = read_report(jobs[0].commands[0][1], "spectrum")
        return bool(trace_failures(report, h_trace(SWEEP_N_MAX[0], SWEEP_THETA,
                                                   "paper") + 1.0))

    return Workload(jobs, control, rerun=0,
                    sizes={"n_max": list(SWEEP_N_MAX),
                           "quadrature_pairs": QUADRATURE_PAIRS})


# ---------------------------------------------------------- evolve-long


def rate_failures(report, expected: float) -> list:
    rate = report["initial_rate"]
    if abs(rate - expected) > RATE_TOL:
        return [f"initial norm rate {rate} is not {expected}"]
    return []


def _check_evolve(report, out):
    steps = int(round(EVOLVE_T / EVOLVE_DT))
    msgs = rate_failures(report, -3.0 * EVOLVE_THETA)
    if report["norm_flow_deviation"] > NORM_FLOW_LIMIT:
        msgs.append("norm-flow deviation above its limit")
    if report["edge_aborted"] or report["points"] != steps + 1:
        msgs.append(f"evolution stopped before {steps} steps")
    if csv_rows(os.path.join(out, "trajectory.csv")) != steps + 1:
        msgs.append("trajectory.csv does not hold one row per point")
    return msgs


def _check_decay(alphas):
    def check(report, out):
        rows = report["decay_table"]
        if sorted(r["alpha"] for r in rows) != alphas:
            return [f"decay table does not cover alphas {alphas}"]
        return [] if all(r["ok"] for r in rows) else ["decay table is not ok"]

    return check


def evolve_long(seed: int, out: str) -> Workload:
    steps = int(round(EVOLVE_T / EVOLVE_DT))
    ensure_fits(EVOLVE_N_MAX, steps)
    # the seed sets the extra sink strength the decay oracle checks
    alpha = round(random.Random(seed).uniform(0.2, 0.9), 3)
    config = write_config(os.path.join(out, "evolve.cfg"),
                          theta=EVOLVE_THETA, nmax=EVOLVE_N_MAX, mode="paper",
                          T=EVOLVE_T, dt=EVOLVE_DT, alpha=alpha)
    jobs = [
        cli_job("evolve", (["evolve", "--config", config],
                           os.path.join(out, "evolve"), _check_evolve)),
        cli_job("evolve --decay-oracle",
                (["evolve", "--config", config, "--decay-oracle"],
                 os.path.join(out, "decay"),
                 _check_decay(sorted({0.1, 0.5, 1.0, alpha})))),
    ]

    def control(outcomes):
        report = read_report(jobs[0].commands[0][1], "evolve")
        return bool(rate_failures(report, 3.0 * EVOLVE_THETA))

    return Workload(jobs, control, rerun=1,
                    sizes={"n_max": EVOLVE_N_MAX, "steps": steps})


WORKLOADS = {
    "symbolic": symbolic,
    "spectrum-sweep": spectrum_sweep,
    "evolve-long": evolve_long,
}

"""Command-line front end orchestrating the verification pipeline.

Every run is driven by a RunConfig assembled from defaults, an optional
key=value config file, and flag overrides, in that order.  Outputs land
in the configured directory as JSON reports (byte-identical across
reruns except for a single timestamp field) plus plot-ready CSV tables.
Each check returns the dict its report section is written from; exact
symbolic values in it become JSON only in the writer, via their to_json.
Numeric tables always carry provenance columns (mode, theta, n_max) so
results from the two first-order conventions can never be confused.

Exit codes: 0 all checks pass, 1 check failure, 2 usage/config error,
including a cutoff that cannot fit in available memory, a theta that
overflows the operators or their step propagator, and a dt too large for
one Krylov step.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .algebra import (
    ALTERNATIVE_OFFSET,
    LITERAL_OFFSET,
    check_reduced_symplectic,
    check_relation,
    defining_relations,
)
from .dynamics import (
    decay_operator,
    gain_loss_map,
    held_bytes,
    initial_norm_rate,
    norm_flow_check,
    propagate,
    step_count,
)
from .effective import assemble_effective, compare_to_reference
from .fock import (
    EVEN,
    FockBasis,
    INTERIOR_MARGIN,
    SECTORS,
    build_h1_matrix,
    build_h_eff,
    mixing_amplitudes,
    sparsity_pattern,
)
from .realization import MODES, expansion_order_scan, relation_residual_numeric

NUMERIC_RESIDUAL_LIMIT = 1e-12
DECAY_LIMIT = 1e-8
NORM_FLOW_LIMIT = 1e-6
SLOPE_WINDOW = (1.9, 2.1)
SCAN_MONOMIALS = ((2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 3))
TRACKED_STATES = ((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2))
# The offsets H1 couples a state by: none, or two quanta along one axis.
COUPLING_OFFSETS = frozenset({(0, 0, 0), (2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0),
                              (0, 0, 2), (0, 0, -2)})
# What a command's first run grows by whatever it holds: the state scipy's
# sparse routines, BLAS and LAPACK build on first use.  In fresh
# processes it was 1.6 to 2.9 MiB of peak RSS, for every command.
FIXED_BYTES = 4 * 2 ** 20
# Where available_memory reads the host's free memory, the process's
# cgroups and the cgroup file system.
MEMINFO = "/proc/meminfo"
CGROUP = "/proc/self/cgroup"
CGROUP_ROOT = "/sys/fs/cgroup"
# Rows of trajectory.csv that _write_csv formats at a time.
CSV_BLOCK = 256


class ConfigError(Exception):
    """Invalid configuration or parameters; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    theta: float = 0.01
    n_max: int = 10
    degree: int = 6
    mode: str = "paper"
    t_final: float = 5.0
    dt: float = 1e-3
    alpha: float = 0.5
    out: str = ""
    fmt: str = "json"


# config key, dataclass field, parser for the value
_CONFIG_TABLE = (
    ("theta", "theta", float),
    ("nmax", "n_max", int),
    ("degree", "degree", int),
    ("mode", "mode", str),
    ("T", "t_final", float),
    ("dt", "dt", float),
    ("alpha", "alpha", float),
    ("out", "out", str),
    ("format", "fmt", str),
)

# config key -> the values it may take
_CHOICES = {"mode": MODES, "format": ("json", "csv")}


def default_out() -> str:
    return os.environ.get("QWEYL_OUT", "qweyl_out")


def load_config(path) -> dict:
    """Parse a key=value config file into dataclass field overrides."""
    keys = {key: (field, kind) for key, field, kind in _CONFIG_TABLE}
    overrides = {}
    try:
        with open(path) as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        field, kind = keys[key]
        try:
            overrides[field] = kind(text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {text!r}") from exc
    return overrides


def validate_config(config: RunConfig) -> None:
    for key, field, kind in _CONFIG_TABLE:
        value = getattr(config, field)
        if kind is float and not np.isfinite(value):
            raise ConfigError(f"{key} must be a finite real number")
        if key in _CHOICES and value not in _CHOICES[key]:
            raise ConfigError(f"{key} must be one of {_CHOICES[key]}, got {value!r}")
    if config.n_max < 1:
        raise ConfigError("nmax must be at least 1")
    if config.degree < 2:
        raise ConfigError("degree must be at least 2")
    try:
        step_count(config.t_final, config.dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if config.alpha < 0:
        raise ConfigError("alpha must be nonnegative")


def assemble_config(args) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(load_config(args.config))
    for _, field, _ in _CONFIG_TABLE:
        flag = getattr(args, field, None)
        if flag is not None:
            values[field] = flag
    config = replace(RunConfig(), **values)
    if not config.out:
        config = replace(config, out=default_out())
    validate_config(config)
    return config


def _json_default(obj):
    """Symbolic values (NCPoly, CPoly3, DiffOp3) through their to_json;
    the reports hold every number as a plain float or an [re, im] list."""
    if hasattr(obj, "to_json"):
        return obj.to_json()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_report(config: RunConfig, name: str, payload: dict) -> str:
    data = {
        "command": name,
        "provenance": {
            "mode": config.mode,
            "theta": config.theta,
            "n_max": config.n_max,
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    data.update(payload)
    path = os.path.join(config.out, name.replace("-", "_") + ".json")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


def available_memory() -> int:
    """The least of MemAvailable from MEMINFO (all physical memory where
    it is missing) and what each memory cgroup the process is in (listed
    in CGROUP, mounted under CGROUP_ROOT), and each of its ancestors up
    to the hierarchy's root, has left: under cgroup v2 memory.max less
    memory.current, no limit where max is "max"; under v1
    memory.limit_in_bytes less memory.usage_in_bytes.  A cgroup whose
    files cannot be read sets no limit."""
    free = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    try:
        with open(MEMINFO) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    free = int(line.split()[1]) * 1024
                    break
    except OSError:
        pass
    return min([free, *_cgroup_free()])


def _cgroup_free() -> list:
    """Limit less usage of each memory cgroup in CGROUP, or ancestor of
    one, that has a limit."""
    try:
        with open(CGROUP) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    free = []
    for line in lines:
        # hierarchy-ID:controllers:path, with no controllers under v2
        _, _, rest = line.partition(":")
        controllers, _, path = rest.partition(":")
        if not controllers:
            root, files = Path(CGROUP_ROOT), ("memory.max", "memory.current")
        elif "memory" in controllers.split(","):
            root = Path(CGROUP_ROOT, "memory")
            files = ("memory.limit_in_bytes", "memory.usage_in_bytes")
        else:
            continue
        # the cgroup and every ancestor up to the root: each limit binds
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts) + 1):
            directory = root.joinpath(*parts[:depth])
            try:
                limit, usage = ((directory / name).read_text().strip()
                                for name in files)
                if limit != "max":
                    free.append(int(limit) - int(usage))
            except (OSError, ValueError):
                pass
    return free


def interior_scan_bytes(n_max: int) -> int:
    """What the sparsity scan holds beside the operator: at most 7
    entries per interior column, 120 bytes each.  On a new basis its
    tracemalloc peak is 108 bytes per entry at n_max 16 and 112 at 30."""
    interior = (n_max - INTERIOR_MARGIN + 1) ** 3
    return 7 * interior * 120


def run_bytes(dim: int, held: int) -> int:
    """Lower bound on a run: FIXED_BYTES, the build of the sparse
    operator over dim states, at 7 entries per column of 56 bytes each,
    plus the held bytes of what is built from it.  The build's
    tracemalloc peak, the kept operator included, is at most 344 bytes
    per column for the even sector's build_h_eff (n_max 8 to 60) and 282
    for the box's build_h1_matrix (n_max 16 to 40)."""
    return FIXED_BYTES + 7 * dim * 56 + held


def _ensure_fits(basis: FockBasis, held: int) -> None:
    need = run_bytes(basis.dim, held)
    free = available_memory()
    if need > free:
        try:
            need_mib = f"{need / 2**20:.1f}"
        except OverflowError:  # more MiB than a double holds
            need_mib = "inf"
        raise ConfigError(
            f"nmax={basis.n_max} needs at least {need_mib} MiB, "
            f"{free / 2**20:.1f} MiB available"
        )


def cmd_verify_algebra(config: RunConfig, args) -> dict:
    """run the symbolic relation suite and the numeric residual check"""
    reports = [
        check_relation(lhs, rhs, name)
        for name, lhs, rhs in defining_relations()
    ]
    symbolic_ok = all(r["holds"] for r in reports)
    try:
        numeric = relation_residual_numeric(config.theta, config.degree)
    except ValueError:  # theta times an exponent overflows a phase or sine
        raise ConfigError(f"theta={config.theta!r} overflows the operators") from None
    numeric_ok = numeric["max_residual"] <= NUMERIC_RESIDUAL_LIMIT
    # the paper's identity fails under both pairings, so it is reported
    # and does not enter ok
    reduced = {
        f"partner_{offset}": check_reduced_symplectic(offset, 1)
        for offset in (LITERAL_OFFSET, ALTERNATIVE_OFFSET)
    }
    return {
        "relations": reports,
        "numeric": numeric,
        "numeric_threshold": NUMERIC_RESIDUAL_LIMIT,
        "reduced_symplectic": reduced,
        "ok": symbolic_ok and numeric_ok,
    }


def cmd_expand_scan(config: RunConfig, args) -> dict:
    """measure first-order residual slopes across theta for both modes"""
    thetas = np.geomspace(1e-4, 1e-1, 13)
    lo, hi = SLOPE_WINDOW
    rows = {"interior": [], "origin": []}
    gate_ok = True
    for block, monomials in (("interior", SCAN_MONOMIALS), ("origin", ((0, 0, 0),))):
        for code in range(6):
            scans = expansion_order_scan(code, monomials, thetas)
            for mono, reports in zip(monomials, scans):
                for res in reports:
                    rows[block].append({**res, "monomial": list(mono)})
                    # the gate reads only the rederived interior slopes
                    if (block == "interior" and res["mode"] == "rederived"
                            and res["slope"] is not None
                            and not lo <= res["slope"] <= hi):
                        gate_ok = False
    return {
        **rows,
        "rederived_gate": {"window": list(SLOPE_WINDOW), "holds": gate_ok},
        "ok": gate_ok,
    }


def cmd_effective(config: RunConfig, args) -> dict:
    """emit the effective-Hamiltonian decomposition and discrepancy report"""
    effs = {mode: assemble_effective(mode) for mode in MODES}
    paper, rederived = effs["paper"], effs["rederived"]
    return {
        "modes": effs,
        "reference_comparison": compare_to_reference(paper),
        "mode_shift": {"a": [rederived["a"][j] - paper["a"][j] for j in range(3)],
                       "v_i": rederived["v_i"] - paper["v_i"]},
        "ok": True,
    }


def _write_csv(config: RunConfig, name: str, header, blocks) -> str:
    """Write a timestamp-free table into the output directory and return
    its name.  blocks yields the rows in lists, and each list is written
    with one % operation: the row format, one %s per header column and
    the provenance columns mode, theta, n_max, repeated over the block and
    fed its cells.  The bytes are csv.writer's: each field is its str (a
    float's is its repr), and lines end in CRLF.  No field needs quoting,
    as each is a number, true/false, a mode name or theta's repr; a None
    field, which csv.writer would write empty, and a row whose width is
    not the header's raise ValueError.  Only one block's text is held at
    a time."""
    width = len(header)
    row = ",".join(["%s"] * width) + (
        f",{config.mode},{float(config.theta)!r},{config.n_max}\r\n")
    with open(os.path.join(config.out, name), "w", newline="") as fh:
        fh.write(",".join([*header, "mode", "theta", "n_max"]) + "\r\n")
        for block in blocks:
            if set(map(len, block)) - {width}:
                raise ValueError(f"{name}: a row is not {width} fields wide")
            cells = tuple(itertools.chain.from_iterable(block))
            if None in cells:
                raise ValueError(f"{name}: a table field is None")
            fh.write(row * len(block) % cells)
    return name


def cmd_spectrum(config: RunConfig, args) -> dict:
    """diagonalize the truncated Hamiltonian"""
    # a sector at a time as a dense complex block, the even one largest, its
    # LAPACK copy, and 512 complex values a column for LAPACK and BLAS buffers
    even = FockBasis(config.n_max, EVEN)
    _ensure_fits(even, 16 * even.dim * (2 * even.dim + 512))
    eigs = []
    for sector in SECTORS:
        try:
            h = build_h_eff(config.n_max, config.theta, config.mode, sector)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        eigs.append(np.linalg.eigvals(h.matrix.toarray()))
    eigs = np.sort_complex(np.concatenate(eigs))
    eigenvalues = [[v.real, v.imag] for v in eigs.tolist()]
    payload = {
        "dimension": len(eigenvalues),
        "eigenvalues": eigenvalues,
        "ground": eigenvalues[0],
        "files": [],
        "ok": True,
    }
    if config.fmt == "csv":
        payload["files"] = [
            _write_csv(config, "spectrum.csv", ["re", "im"], [eigenvalues])]
    return payload


def cmd_mixing(config: RunConfig, args) -> dict:
    """scan coupling sparsity and compare against the conjectured offsets"""
    if config.n_max <= INTERIOR_MARGIN:
        raise ConfigError(
            f"mixing runs need nmax > {INTERIOR_MARGIN} so the scan has interior states"
        )
    basis = FockBasis(config.n_max)
    _ensure_fits(basis, interior_scan_bytes(config.n_max))
    h1 = build_h1_matrix(config.n_max, config.mode)
    report = sparsity_pattern(h1, basis)
    couplings = mixing_amplitudes(h1, basis, (0, 0, 0))
    payload = {
        "sparsity": report,
        "ground_couplings": {
            ",".join(map(str, state)): [value.real, value.imag]
            for state, value in sorted(couplings.items())
        },
        "files": [],
        "ok": COUPLING_OFFSETS.issuperset(report["offsets"]),  # nmax 5 scans only 0
    }
    if config.fmt == "csv":
        rows = [
            [*offset, str(offset in report["inside_conjecture"]).lower()]
            for offset in report["offsets"]
        ]
        payload["files"] = [_write_csv(
            config, "mixing.csv", ["dx", "dy", "dz", "in_conjectured_set"], [rows])]
    return payload


def cmd_evolve(config: RunConfig, args) -> dict:
    """propagate the ground state and check norm-flow identities"""
    n_steps = step_count(config.t_final, config.dt)
    decay = args.decay_oracle
    tracked = [] if decay else [s for s in TRACKED_STATES if max(s) <= config.n_max]
    even = FockBasis(config.n_max, EVEN)
    # beyond what propagate holds, the checks hold at most two reals per
    # point: the norm-flow difference and its temporary (the decay law is
    # worked in one array); trajectory.csv is written from the series a
    # block at a time, at 96 bytes a cell and two cells more a row (the
    # rows' lists and floats, the cells' tuple, the format, the text and
    # its encoding; under tracemalloc, 79 bytes a cell and 144 a row)
    checks = 16 * (n_steps + 1)
    if not decay:
        checks += 96 * CSV_BLOCK * (5 + len(tracked))
    _ensure_fits(even, held_bytes(even, n_steps, len(tracked)) + checks)
    psi0 = even.vector((0, 0, 0))
    if decay:
        alphas = sorted({0.1, 0.5, 1.0, config.alpha})
        rows = []
        ok = True
        for alpha in alphas:
            h = decay_operator(config.n_max, alpha, EVEN)
            try:
                traj = propagate(h, psi0, config.t_final, config.dt)
            except ValueError as exc:
                # a huge alpha*dt underflows the step propagator
                raise ConfigError(str(exc)) from None
            dev = traj.times * (-2.0 * alpha)
            np.exp(dev, out=dev)
            dev -= traj.norms
            deviation = float(np.max(np.abs(dev, out=dev)))
            # an edge abort leaves the law checked on too few points
            row_ok = deviation <= DECAY_LIMIT and not traj.edge_aborted
            # neither outlives its alpha: the next one is propagated alone
            del traj, dev
            ok = ok and row_ok
            rows.append({"alpha": alpha, "max_abs_deviation": deviation, "ok": row_ok})
        return {"decay_table": rows, "threshold": DECAY_LIMIT, "ok": ok}

    if n_steps < 2:
        raise ConfigError("the norm-flow check needs T >= 2*dt")
    try:
        h = build_h_eff(config.n_max, config.theta, config.mode, EVEN)
        traj = propagate(h, psi0, config.t_final, config.dt, track=tracked)
    except (ValueError, RuntimeError) as exc:
        # a huge theta overflows the operator, or its step propagator
        # over- or underflows; a huge dt needs too large a Krylov basis
        raise ConfigError(str(exc)) from None
    # an edge abort can leave too few points for the difference stencils
    flow = rate = None
    if len(traj.times) >= 3:
        flow = norm_flow_check(traj)
        rate = initial_norm_rate(traj)
    header = ["t", "p", "re_h_i"] + [
        "occ_" + "_".join(map(str, s)) for s in traj.tracked]
    blocks = (np.column_stack((traj.times[lo:lo + CSV_BLOCK],
                               traj.series[lo:lo + CSV_BLOCK])).tolist()
              for lo in range(0, len(traj.times), CSV_BLOCK))
    return {
        "method": "matrix-exponential",
        "points": int(len(traj.times)),
        "final_norm": float(traj.norms[-1]),
        "norm_flow_deviation": flow,
        "norm_flow_threshold": NORM_FLOW_LIMIT,
        "initial_rate": rate,
        "generator_expectation_rate": float(2.0 * traj.h_i[0]),
        "edge_aborted": traj.edge_aborted,
        "gain_loss": gain_loss_map(traj),
        "files": [_write_csv(config, "trajectory.csv", header, blocks)],
        "ok": flow is not None and flow <= NORM_FLOW_LIMIT,
    }


_COMMANDS = {
    "verify-algebra": cmd_verify_algebra,
    "expand-scan": cmd_expand_scan,
    "effective": cmd_effective,
    "spectrum": cmd_spectrum,
    "mixing": cmd_mixing,
    "evolve": cmd_evolve,
}


# built once per process; main looks each command up in _COMMANDS when it
# dispatches, so a wrapper put there after the build still runs
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qweyl",
        description="Symbolic and numeric checks for the deformed oscillator pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.__doc__)
        sp.add_argument("--config", help="key=value config file; flags override it")
        for key, field, kind in _CONFIG_TABLE:
            sp.add_argument(f"--{key}", type=kind, choices=_CHOICES.get(key), dest=field)
        if name == "evolve":
            sp.add_argument("--decay-oracle", action="store_true",
                            help="check the constant-sink closed-form decay law instead")
    return parser


_FLOAT_FLAGS = frozenset(f"--{key}" for key, _, kind in _CONFIG_TABLE if kind is float)


def _join_negative_values(argv) -> list:
    """Write a float flag followed by a negative number as one
    "--flag=value" token: argparse takes only plain negative decimals
    after a space as values, and reads "--theta -1e-2" as two options."""
    out = []
    for token in argv:
        if (out and _names_float_flag(out[-1]) and token.startswith("-")
                and _is_float(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _names_float_flag(token: str) -> bool:
    # argparse also reads a prefix of a flag as the flag ("--thet")
    return len(token) > 2 and any(flag.startswith(token) for flag in _FLOAT_FLAGS)


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_join_negative_values(argv))
    try:
        config = assemble_config(args)
        try:
            os.makedirs(config.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
        payload = _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = write_report(config, args.command, payload)
    print(f"{args.command}: {'ok' if payload['ok'] else 'FAIL'} -> {path}")
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Spans and counters for the traced benchmark pass.

The traced pass replaces qweyl's public functions, at every name a
caller looks them up by, with wrappers from this module.  A timed
wrapper records a span (name, start, end, parent span, job id); a
counting wrapper only counts calls.  Spans stay in memory until the
pass ends, when they are turned into per-layer metrics and written out.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

N_MAX_BUILT = (6, 8, 10, 12)
N_MAX_SIZED = tuple(range(6, 31, 2))
CLI_COMMANDS = ("verify-algebra", "expand-scan", "effective", "spectrum",
                "mixing", "evolve")


def dense_operator_bytes(n_max: int) -> int:
    """Bytes of one dense complex operator over the (n_max+1)^3 basis."""
    dim = (n_max + 1) ** 3
    return dim * dim * 16


def n_max_of_dim(dim: int) -> int:
    return round(dim ** (1.0 / 3.0)) - 1


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, job id]
        self.counts = Counter()  # calls of count-only wrappers
        self.sizes = Counter()  # summed sizes recorded from results
        self.job = None
        self._open = []
        self._patched = []

    def timed(self, name, fn, record=None):
        """Wrap fn in a span.  name is a string or a function of fn's
        arguments; record(tracer, result, *args) notes result sizes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            parent = self._open[-1] if self._open else None
            span = [label, 0.0, 0.0, parent, self.job]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if record is not None:
                record(self, result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr, wrapper):
        """Install wrapper as attr of a module, class or dict."""
        if isinstance(owner, dict):
            self._patched.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            self._patched.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, old in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patched.clear()

    # ------------------------------------------------------------ metrics

    def busy(self, name) -> float:
        return sum(end - start for label, start, end, _, _ in self.spans
                   if label == name)

    def calls(self, name) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_time(self, name) -> float:
        """Span durations minus the time their direct children cover;
        the pass is single-threaded, so children never overlap."""
        child = Counter()
        for label, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return sum(end - start - child[i]
                   for i, (label, start, end, _, _) in enumerate(self.spans)
                   if label == name)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "job")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": dict(self.counts),
                       "sizes": dict(self.sizes)}, fh)


class _View:
    """Attribute view of a module with a few names replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _record_normalize(tracer, result, *args, **kwargs):
    tracer.sizes["algebra.normalize.terms_out"] += len(result.terms)


def _array_bytes(a) -> int:
    if hasattr(a, "nbytes"):
        return int(a.nbytes)
    return sum(int(getattr(a, k).nbytes)  # scipy.sparse storage arrays
               for k in ("data", "indices", "indptr", "row", "col", "offsets")
               if hasattr(a, k))


def _record_operator(tracer, matrix, n_max):
    key = f"fock.operator_bytes.n{n_max}"
    tracer.sizes[key] = max(tracer.sizes[key], _array_bytes(matrix))


def _record_h1(tracer, result, n_max, *args, **kwargs):
    import numpy as np

    nnz = result.nnz if hasattr(result, "nnz") else np.count_nonzero(result)
    tracer.sizes[f"fock.nnz.n{n_max}"] = int(nnz)
    _record_operator(tracer, result, n_max)


def _record_h_eff(tracer, result, n_max, *args, **kwargs):
    _record_operator(tracer, result.matrix, n_max)


def _record_trajectory(tracer, traj, *args, **kwargs):
    tracer.sizes["dynamics.propagate.steps"] += len(traj.times) - 1
    tracer.sizes["dynamics.trajectory_bytes"] += int(traj.states.nbytes)
    tracer.sizes["dynamics.edge_aborts"] += int(traj.edge_aborted)


def _record_report(tracer, path, *args, **kwargs):
    tracer.sizes["cli.report_bytes"] += os.path.getsize(path)


def install(tracer: Tracer) -> None:
    """Wrap qweyl's public functions wherever their callers find them."""
    import numpy as np
    from qweyl import (algebra, cli, dynamics, effective, fock, gaussian,
                       quadrature, realization, scalars)

    t = tracer

    def wrap(owners, attr, make):
        """Replace attr on each owner by make(attr), one wrapper per
        distinct object.  An owner without attr is skipped, so a name a
        later qweyl drops only leaves its metrics at 0."""
        made = {}
        for owner in owners:
            table = owner if isinstance(owner, dict) else owner.__dict__
            if attr in table:
                fn = table[attr]
                if id(fn) not in made:
                    made[id(fn)] = make(fn)
                t.patch(owner, attr, made[id(fn)])

    # the reflected operators are aliases; each must be wrapped itself
    for owner, attrs, name in (
        (scalars.QScalar, ("__mul__", "__rmul__"), "scalars.qscalar_mul.calls"),
        (scalars.QScalar, ("__add__", "__radd__"), "scalars.qscalar_add.calls"),
        (scalars.GaussRat, ("__mul__", "__rmul__"), "scalars.gaussrat_mul.calls"),
    ):
        for attr in attrs:
            wrap([owner], attr, lambda fn, name=name: t.counted(name, fn))

    def timed(owners, attr, name, record=None):
        wrap(owners, attr, lambda fn: t.timed(name, fn, record))

    timed([algebra], "normalize", "algebra.normalize", _record_normalize)
    wrap([algebra], "rewrite_at",
         lambda fn: t.counted("algebra.rewrite_at.calls", fn))
    timed([algebra, cli], "check_relation", "algebra.check_relation")
    timed([realization, cli], "relation_residual_numeric",
          "realization.relation_residual_numeric")
    timed([realization, cli], "expansion_order_scan",
          "realization.expansion_order_scan")
    wrap([realization], "apply_exact",
         lambda fn: t.counted("realization.apply_exact.calls", fn))
    timed([gaussian.DiffOp3], "compose", "gaussian.DiffOp3.compose")
    timed([effective, fock], "hamiltonian_operator",
          "effective.hamiltonian_operator")
    timed([effective, cli], "assemble_effective", "effective.assemble_effective")
    timed([fock, cli], "build_h_eff",
          lambda n_max, *a, **k: f"fock.build_h_eff.n{n_max}", _record_h_eff)
    timed([fock, cli], "build_h1_matrix",
          lambda n_max, *a, **k: f"fock.build_h1_matrix.n{n_max}", _record_h1)
    timed([fock, cli], "sparsity_pattern", "fock.sparsity_pattern")
    timed([fock, cli], "mixing_amplitudes", "fock.mixing_amplitudes")
    for command in CLI_COMMANDS:
        timed([cli._COMMANDS], command, f"cli.{command}")
    timed([cli], "write_report", "cli.write_report", _record_report)
    eigvals = t.timed(
        lambda a, *r, **k: f"cli.eigvals.n{n_max_of_dim(a.shape[0])}",
        np.linalg.eigvals)
    wrap([cli], "np", lambda module: _View(
        module, linalg=_View(module.linalg, eigvals=eigvals)))
    timed([quadrature], "element_3d", "quadrature.element_3d")
    timed([dynamics], "expm", "dynamics.expm")
    timed([dynamics, cli], "propagate", "dynamics.propagate", _record_trajectory)
    for name in ("norm_flow_check", "gain_loss_map", "export_trajectory_csv"):
        timed([dynamics, cli], name, f"dynamics.{name}")


def _hit_ratio(cached) -> float:
    if not hasattr(cached, "cache_info"):
        return 0.0
    info = cached.cache_info()
    attempts = info.hits + info.misses
    return info.hits / attempts if attempts else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as name -> (value, unit); layers a workload
    leaves idle read 0."""
    from qweyl import fock, quadrature

    t = tracer
    out = {}
    for name in ("scalars.qscalar_mul.calls", "scalars.qscalar_add.calls",
                 "scalars.gaussrat_mul.calls"):
        out[name] = (t.counts[name], "count")
    out["algebra.normalize.calls"] = (t.calls("algebra.normalize"), "count")
    out["algebra.normalize.busy_s"] = (t.busy("algebra.normalize"), "s")
    out["algebra.normalize.terms_out"] = (
        t.sizes["algebra.normalize.terms_out"], "count")
    out["algebra.rewrite_at.calls"] = (t.counts["algebra.rewrite_at.calls"],
                                       "count")
    out["algebra.check_relation.busy_s"] = (t.busy("algebra.check_relation"),
                                            "s")
    for name in ("realization.relation_residual_numeric",
                 "realization.expansion_order_scan"):
        out[name + ".busy_s"] = (t.busy(name), "s")
    out["realization.apply_exact.calls"] = (
        t.counts["realization.apply_exact.calls"], "count")
    for name in ("gaussian.DiffOp3.compose", "effective.hamiltonian_operator"):
        out[name + ".calls"] = (t.calls(name), "count")
        out[name + ".busy_s"] = (t.busy(name), "s")
    out["effective.assemble_effective.busy_s"] = (
        t.busy("effective.assemble_effective"), "s")
    for n in N_MAX_BUILT:
        out[f"fock.build_h_eff.n{n}.busy_s"] = (t.busy(f"fock.build_h_eff.n{n}"),
                                                "s")
        out[f"fock.build_h1_matrix.n{n}.busy_s"] = (
            t.busy(f"fock.build_h1_matrix.n{n}"), "s")
        out[f"fock.nnz.n{n}"] = (t.sizes[f"fock.nnz.n{n}"], "count")
    for n in N_MAX_SIZED:
        # operators the pass built, else the dense size, never allocated
        built = t.sizes[f"fock.operator_bytes.n{n}"]
        out[f"fock.operator_bytes.n{n}"] = (built or dense_operator_bytes(n), "B")
    for name in ("fock.sparsity_pattern", "fock.mixing_amplitudes"):
        out[name + ".busy_s"] = (t.busy(name), "s")
    out["fock.axis_term_cache.hit_ratio"] = (
        _hit_ratio(getattr(fock, "_axis_term_matrix", None)), "ratio")
    for n in N_MAX_BUILT:
        out[f"cli.eigvals.n{n}.busy_s"] = (t.busy(f"cli.eigvals.n{n}"), "s")
    for command in CLI_COMMANDS:
        out[f"cli.{command}.self_s"] = (t.self_time(f"cli.{command}"), "s")
    out["cli.write_report.busy_s"] = (t.busy("cli.write_report"), "s")
    out["cli.report_bytes"] = (t.sizes["cli.report_bytes"], "B")
    out["quadrature.element_3d.calls"] = (t.calls("quadrature.element_3d"),
                                          "count")
    out["quadrature.element_3d.busy_s"] = (t.busy("quadrature.element_3d"), "s")
    out["quadrature.element_1d.hit_ratio"] = (
        _hit_ratio(getattr(quadrature, "element_1d", None)), "ratio")
    out["dynamics.expm.busy_s"] = (t.busy("dynamics.expm"), "s")
    propagate_s = t.busy("dynamics.propagate")
    steps = t.sizes["dynamics.propagate.steps"]
    out["dynamics.propagate.busy_s"] = (propagate_s, "s")
    out["dynamics.propagate.steps"] = (steps, "count")
    out["dynamics.propagate.steps_per_s"] = (
        steps / propagate_s if propagate_s else 0.0, "1/s")
    out["dynamics.trajectory_bytes"] = (t.sizes["dynamics.trajectory_bytes"],
                                        "B")
    for name in ("norm_flow_check", "gain_loss_map", "export_trajectory_csv"):
        out[f"dynamics.{name}.busy_s"] = (t.busy(f"dynamics.{name}"), "s")
    out["dynamics.edge_aborts"] = (t.sizes["dynamics.edge_aborts"], "count")
    return out

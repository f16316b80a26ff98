"""Check that the CLI at the working tree writes what it wrote at a parent revision.

Usage: python tools/compare_outputs.py <parent-rev>

Exports <parent-rev> into a temporary directory with `git archive`, runs
one fixed list of commands from both source trees with
`PYTHONPATH=<tree>/src python -m qweyl`, each into its own output
directory (named by `--out`, or for one run by `QWEYL_OUT`), and compares
every report with its top-level `timestamp` value blanked, every CSV byte
for byte, every `--help` text byte for byte, and every exit code.  Exits 0 when all of
them match, 1 otherwise, and 2 when <parent-rev> cannot be exported.
The temporary directory is removed on the way out.

Each differing output is named on one line.  A report or CSV whose
structure matches on both sides (the same keys, lengths and non-numeric
values) and whose numbers alone moved prints

    moved: <name> abs <largest |a - b|> at <path>, rel <largest
           |a - b| / max(|a|, |b|)> at <path>

and every other difference prints `differs: <name>`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COMMANDS = ("verify-algebra", "expand-scan", "effective", "spectrum", "mixing",
            "evolve")
# the config criterion 10 reruns
CRITERION_10 = ("theta=0.01\nnmax=6\ndegree=3\nmode=paper\nT=1.0\ndt=0.01\n"
                "alpha=0.5\nformat=csv\n")
# the one run given its output directory by QWEYL_OUT instead of --out
QWEYL_OUT_RUN = "qweyl-out-env"
# the value only, so that the report stays valid JSON
TIMESTAMP = re.compile(rb'^(  "timestamp": )"[^"]*"', re.MULTILINE)


def runs(config: str) -> list:
    """(label, argv) pairs; a label names the output directory of its run."""
    out = [(f"c10-{c}", [c, "--config", config]) for c in COMMANDS]
    out.append(("c10-decay", ["evolve", "--config", config, "--decay-oracle"]))
    for n in (6, 8, 10, 12):
        for c in ("spectrum", "mixing"):
            out.append((f"{c}-n{n}", [c, "--theta", "0.01", "--nmax", str(n),
                                      "--format", "csv"]))
    # the other first-order convention
    for c in ("spectrum", "mixing"):
        out.append((f"{c}-rederived-n8", [c, "--mode", "rederived", "--nmax", "8",
                                          "--format", "csv"]))
    # the default JSON format, whose reports list no files
    for c in ("spectrum", "mixing"):
        out.append((f"{c}-json-n6", [c, "--nmax", "6"]))
    # the sparsity scan at its edges: the smallest cutoff with an interior
    # (8 states), and a cutoff past the benchmark's
    out.append(("mixing-n5", ["mixing", "--nmax", "5", "--format", "csv"]))
    out.append(("mixing-rederived-n16", ["mixing", "--mode", "rederived",
                                         "--nmax", "16", "--format", "csv"]))
    # theta < 0, where the norm grows; in the "=" form, which every revision
    # reads: a revision whose cli.main does not join a flag to a following
    # negative number takes an exponent-form -1e-2 after a space for an option
    for c in ("spectrum", "mixing"):
        out.append((f"{c}-negative-theta-n8", [c, "--theta=-0.01", "--nmax", "8",
                                               "--format", "csv"]))
    out.append(("evolve-negative-theta", ["evolve", "--theta=-0.01", "--nmax", "6",
                                          "--T", "1", "--dt", "0.01"]))
    # and after a space, which cli.main joins into the "=" form
    out.append(("spectrum-negative-theta-space", ["spectrum", "--theta", "-1e-2",
                                                  "--nmax", "6", "--format", "csv"]))
    # no --out: the run writes into the QWEYL_OUT directory
    out.append((QWEYL_OUT_RUN, ["spectrum", "--nmax", "4", "--format", "csv"]))
    for n in (4, 8):
        out.append((f"spectrum-theta0-n{n}", ["spectrum", "--theta", "0",
                                              "--nmax", str(n), "--format", "csv"]))
    out.append(("evolve-edge-abort", ["evolve", "--mode", "rederived", "--theta",
                                      "0.05", "--nmax", "6", "--T", "1", "--dt",
                                      "0.001"]))
    out.append(("evolve-edge-abort-odd-nmax", ["evolve", "--theta", "0.5", "--nmax",
                                               "3", "--T", "1", "--dt", "0.01"]))
    # the smallest cutoffs, where odd sectors have a single layer along an
    # axis (every axis at nmax=1); at nmax=1 evolve aborts at t = 0 on the edge
    for n in (1, 2):
        out.append((f"spectrum-n{n}", ["spectrum", "--nmax", str(n),
                                       "--format", "csv"]))
        out.append((f"evolve-n{n}", ["evolve", "--nmax", str(n)]))
        out.append((f"evolve-decay-n{n}", ["evolve", "--decay-oracle",
                                           "--nmax", str(n)]))
    # 1,331 even-sector states: above dynamics.KRYLOV_THRESHOLD, so this
    # run steps with expm_multiply
    out.append(("evolve-krylov-n20", ["evolve", "--nmax", "20", "--T", "0.05"]))
    # dt*|H| above dynamics.EXPM_NORM_BOUND, so the step propagator is
    # built by halving and squaring
    out.append(("evolve-large-step", ["evolve", "--nmax", "6", "--dt", "0.5",
                                      "--T", "50"]))
    # a 100,001-row CSV through the streamed rows, with a one-amplitude
    # reach set, and the decay oracle at the largest routine cutoff
    out.append(("evolve-theta0-long", ["evolve", "--theta", "0", "--nmax", "4",
                                       "--T", "10", "--dt", "1e-4"]))
    out.append(("evolve-decay-n30", ["evolve", "--decay-oracle", "--nmax", "30"]))
    # the symbolic benchmark's degree; every verify-algebra report carries
    # non-zero normal forms as the reduced symplectic residuals
    out.append(("verify-algebra-degree8", ["verify-algebra", "--degree", "8"]))
    # the removable point q^2 = 1, where beta is its limit 1, and a cutoff
    # past the benchmark's
    out.append(("verify-algebra-theta-pi", ["verify-algebra", "--theta",
                                            "3.141592653589793"]))
    out.append(("verify-algebra-theta0", ["verify-algebra", "--theta", "0"]))
    out.append(("verify-algebra-degree10", ["verify-algebra", "--theta", "0.3",
                                            "--degree", "10"]))
    for c in ("verify-algebra", "expand-scan", "effective", "evolve"):
        out.append((f"default-{c}", [c]))
    out.append(("default-decay", ["evolve", "--decay-oracle"]))
    return out


def collect(tree: Path, work: Path, config: str) -> dict:
    """Map 'label/file' (and 'label/exit') to bytes for one source tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), COLUMNS="80")
    outputs = {}

    def qweyl(argv, **extra_env):
        return subprocess.run([sys.executable, "-m", "qweyl", *argv],
                              env={**env, **extra_env}, cwd=work,
                              capture_output=True)

    for label, argv in runs(config):
        out = work / label
        if label == QWEYL_OUT_RUN:
            done = qweyl(argv, QWEYL_OUT=str(out))
        else:
            done = qweyl([*argv, "--out", str(out)])
        outputs[f"{label}/exit"] = str(done.returncode).encode()
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            data = path.read_bytes()
            if path.suffix == ".json":
                data = TIMESTAMP.sub(rb"\1null", data, count=1)
            outputs[f"{label}/{path.name}"] = data
    for argv in [[]] + [[c] for c in COMMANDS]:
        done = qweyl([*argv, "--help"])
        outputs[f"help {' '.join(argv)}".strip()] = done.stdout + done.stderr
    return outputs


class StructureDiffers(Exception):
    pass


def _number(value):
    """value as a float if it is a JSON number or a numeric CSV cell."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _numeric_pairs(a, b, path=""):
    """(path, a, b) for every numeric leaf of two documents; raises
    StructureDiffers where anything but a number differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise StructureDiffers(path)
        for key in a:
            yield from _numeric_pairs(a[key], b[key], f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise StructureDiffers(path)
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _numeric_pairs(x, y, f"{path}[{i}]")
    elif a != b:
        x, y = _number(a), _number(b)
        if x is None or y is None:
            raise StructureDiffers(path)
        yield path, x, y


def numeric_moves(name: str, before: bytes, after: bytes):
    """(abs, abs path, rel, rel path) of the largest moves between two
    reports or CSV tables that differ only in their numbers, else None."""
    try:
        if name.endswith(".json"):
            a, b = json.loads(before), json.loads(after)
        elif name.endswith(".csv"):
            a, b = (list(csv.reader(io.StringIO(x.decode()))) for x in (before, after))
        else:
            return None
    except ValueError:  # not JSON or not text on one side
        return None
    worst_abs = worst_rel = None
    try:
        for path, x, y in _numeric_pairs(a, b):
            if math.isnan(x) and math.isnan(y):
                continue
            gap = abs(x - y)
            if math.isfinite(gap):
                rel = gap / max(abs(x), abs(y))
            else:  # a non-finite value moved
                gap = rel = math.inf
            if worst_abs is None or gap > worst_abs[0]:
                worst_abs = (gap, path)
            if worst_rel is None or rel > worst_rel[0]:
                worst_rel = (rel, path)
    except StructureDiffers:
        return None
    if worst_abs is None:  # the bytes differ, but no number moved
        return None
    return (*worst_abs, *worst_rel)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/compare_outputs.py <parent-rev>", file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "-C", str(REPO), "archive", argv[0]],
                             capture_output=True)
    if archive.returncode:
        sys.stderr.write(archive.stderr.decode())
        return 2
    with tempfile.TemporaryDirectory(prefix="qweyl-compare-") as tmp:
        tmp = Path(tmp)
        parent = tmp / "parent"
        parent.mkdir()
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout,
                       check=True)
        config = tmp / "criterion10.cfg"
        config.write_text(CRITERION_10)
        sides = []
        for name, tree in (("parent", parent), ("change", REPO)):
            work = tmp / f"out-{name}"
            work.mkdir()
            sides.append(collect(tree, work, str(config)))
    before, after = sides
    differ = sorted(k for k in before.keys() | after.keys()
                    if before.get(k) != after.get(k))
    for key in differ:
        moves = (numeric_moves(key, before[key], after[key])
                 if key in before and key in after else None)
        if moves is None:
            print(f"differs: {key}")
        else:
            print("moved: {} abs {:.2g} at {}, rel {:.2g} at {}".format(key, *moves))
    print(f"{len(before.keys() | after.keys())} outputs compared, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())

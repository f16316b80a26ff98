"""Check that the CLI at the working tree writes what it wrote at a parent revision.

Usage: python tools/compare_outputs.py <parent-rev>

Exports <parent-rev> into a temporary directory with `git archive`, runs
one fixed list of commands from both source trees with
`PYTHONPATH=<tree>/src python -m qweyl`, and compares every report with
its top-level `timestamp` line dropped, every CSV byte for byte, every
`--help` text byte for byte, and every exit code.  Exits 0 when all of
them match, 1 otherwise, naming each output that differs, and 2 when
<parent-rev> cannot be exported.  The temporary directory is removed on
the way out.
"""

from __future__ import annotations

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
TIMESTAMP = re.compile(rb'^  "timestamp": .*\n', re.MULTILINE)


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
    for n in (4, 8):
        out.append((f"spectrum-theta0-n{n}", ["spectrum", "--theta", "0",
                                              "--nmax", str(n), "--format", "csv"]))
    out.append(("evolve-edge-abort", ["evolve", "--mode", "rederived", "--theta",
                                      "0.05", "--nmax", "6", "--T", "1", "--dt",
                                      "0.001"]))
    out.append(("evolve-edge-abort-odd-nmax", ["evolve", "--theta", "0.5", "--nmax",
                                               "3", "--T", "1", "--dt", "0.01"]))
    # 1,331 even-sector states: above dynamics.KRYLOV_THRESHOLD, so this
    # run steps with expm_multiply
    out.append(("evolve-krylov-n20", ["evolve", "--nmax", "20", "--T", "0.05"]))
    # a 100,001-row CSV through the streamed rows, with a one-amplitude
    # reach set, and the decay oracle at the largest routine cutoff
    out.append(("evolve-theta0-long", ["evolve", "--theta", "0", "--nmax", "4",
                                       "--T", "10", "--dt", "1e-4"]))
    out.append(("evolve-decay-n30", ["evolve", "--decay-oracle", "--nmax", "30"]))
    # the symbolic benchmark's degree, and the one report whose residual
    # is a non-zero normal form
    out.append(("verify-algebra-degree8", ["verify-algebra", "--degree", "8"]))
    out.append(("verify-algebra-corrupt", ["verify-algebra", "--corrupt-relation"]))
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

    def qweyl(argv):
        return subprocess.run([sys.executable, "-m", "qweyl", *argv], env=env,
                              cwd=work, capture_output=True)

    for label, argv in runs(config):
        out = work / label
        done = qweyl([*argv, "--out", str(out)])
        outputs[f"{label}/exit"] = str(done.returncode).encode()
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            data = path.read_bytes()
            if path.suffix == ".json":
                data = TIMESTAMP.sub(b"", data, count=1)
            outputs[f"{label}/{path.name}"] = data
    for argv in [[]] + [[c] for c in COMMANDS]:
        done = qweyl([*argv, "--help"])
        outputs[f"help {' '.join(argv)}".strip()] = done.stdout + done.stderr
    return outputs


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
        print(f"differs: {key}")
    print(f"{len(before.keys() | after.keys())} outputs compared, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())

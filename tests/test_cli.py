"""Command-line front end tests: config round-trip, flag precedence,
exit codes, per-command payloads, the table and report writers against
csv.writer and json.dump, and rerun determinism."""

import csv
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qweyl import cli
from qweyl.algebra import defining_relations
from qweyl.cli import (
    CSV_BLOCK,
    FIXED_BYTES,
    ConfigError,
    RunConfig,
    default_out,
    interior_scan_bytes,
    load_config,
    main,
    run_bytes,
    validate_config,
)
from qweyl.dynamics import FORM_CHUNK, KRYLOV_SIZES, WINDOW_CAP, held_bytes
from qweyl.fock import (
    EVEN,
    SECTORS,
    FockBasis,
    build_h1_matrix,
    build_h_eff,
    sparsity_pattern,
)


def read_report(out_dir, command):
    path = out_dir / (command.replace("-", "_") + ".json")
    return json.loads(path.read_text())


class TestConfig:
    def test_roundtrip_lossless(self, tmp_path):
        config = RunConfig(
            theta=0.1, n_max=6, degree=4, mode="rederived",
            t_final=2.5, dt=1e-3, alpha=2.0 / 3.0, out="somewhere", fmt="csv",
        )
        path = tmp_path / "run.cfg"
        # the floats as their repr, which a lossless reader must invert
        path.write_text(
            f"theta={config.theta!r}\nnmax=6\ndegree=4\nmode=rederived\n"
            f"T={config.t_final!r}\ndt={config.dt!r}\nalpha={config.alpha!r}\n"
            "out=somewhere\nformat=csv\n"
        )
        back = replace(RunConfig(), **load_config(path))
        assert back == config

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\ntheta=0.25\n  nmax = 5\n")
        assert load_config(path) == {"theta": 0.25, "n_max": 5}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("thetta=0.1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta=abc\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")

    def test_validation(self):
        with pytest.raises(ConfigError, match="mode"):
            validate_config(replace(RunConfig(), mode="wild", out="x"))
        with pytest.raises(ConfigError, match="dt"):
            validate_config(replace(RunConfig(), dt=0.0, out="x"))
        with pytest.raises(ConfigError, match="nmax"):
            validate_config(replace(RunConfig(), n_max=0, out="x"))
        with pytest.raises(ConfigError, match="format"):
            validate_config(replace(RunConfig(), fmt="xml", out="x"))
        with pytest.raises(ConfigError, match="theta"):
            validate_config(replace(RunConfig(), theta=float("nan"), out="x"))

    # one value per config key, each different from its default
    FLAG_VALUES = {
        "theta": "0.25", "nmax": "5", "degree": "4", "mode": "rederived",
        "T": "2.0", "dt": "0.01", "alpha": "0.75", "out": "somewhere",
        "format": "csv",
    }

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_key_is_a_flag(self, command, tmp_path):
        assert set(self.FLAG_VALUES) == {key for key, _, _ in cli._CONFIG_TABLE}
        parser = cli.build_parser()

        def config(*flags):
            return cli.assemble_config(parser.parse_args([command, *flags]))

        for key, value in self.FLAG_VALUES.items():
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key}={value}\n")
            assert config(f"--{key}", value) == config("--config", str(cfg)) != config()

    def test_env_var_sets_default_out(self, monkeypatch):
        monkeypatch.setenv("QWEYL_OUT", "/tmp/somewhere-else")
        assert default_out() == "/tmp/somewhere-else"
        monkeypatch.delenv("QWEYL_OUT")
        assert default_out() == "qweyl_out"

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta=0.5\nnmax=4\nmode=rederived\n")
        out = tmp_path / "out"
        rc = main([
            "spectrum", "--config", str(cfg), "--theta", "0.25",
            "--out", str(out),
        ])
        assert rc == 0
        report = read_report(out, "spectrum")
        assert report["provenance"] == {
            "mode": "rederived", "theta": 0.25, "n_max": 4,
        }

    def test_negative_exponent_form_value_after_a_space(self, tmp_path, capsys):
        out = tmp_path / "out"
        for theta in ("--theta", "--thet"):
            assert main(["spectrum", theta, "-1e-2", "--nmax", "4",
                         "--out", str(out)]) == 0
            assert read_report(out, "spectrum")["provenance"]["theta"] == -0.01

    @pytest.mark.parametrize("flag, message", [
        ("--alpha", "alpha must be nonnegative"),
        ("--T", "T and dt must be positive"),
        ("--dt", "T and dt must be positive"),
    ])
    def test_negative_value_reaches_validation(self, flag, message, tmp_path,
                                               capsys):
        argv = ["evolve", "--decay-oracle", flag, "-1e-2", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, joined", [
        (["--theta", "-1e-2"], ["--theta=-1e-2"]),
        (["--T", "-inf", "--dt", "-1"], ["--T=-inf", "--dt=-1"]),
        # a prefix argparse reads as the flag
        (["--thet", "-1e-2"], ["--thet=-1e-2"]),
        # not a float flag, not a number, or already joined
        (["--nmax", "-1"], ["--nmax", "-1"]),
        (["--out", "-1e-2"], ["--out", "-1e-2"]),
        (["--theta", "--nmax", "4"], ["--theta", "--nmax", "4"]),
        (["--theta=-1e-2", "-2"], ["--theta=-1e-2", "-2"]),
        (["--", "-1e-2"], ["--", "-1e-2"]),
    ])
    def test_join_negative_values(self, argv, joined):
        assert cli._join_negative_values(argv) == joined

    def test_parser_is_built_once_and_survives_a_failed_parse(
            self, tmp_path, monkeypatch, capsys):
        assert cli.build_parser() is cli.build_parser()
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--theta"])
        assert exc.value.code == 2
        # a command wrapped after the build is the one main dispatches to
        calls = []
        command = cli._COMMANDS["spectrum"]
        monkeypatch.setitem(cli._COMMANDS, "spectrum",
                            lambda *a: calls.append(a) or command(*a))
        assert main(["spectrum", "--nmax", "4", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1


class TestExitCodes:
    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--bogus"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_config_error_is_two(self, tmp_path, capsys):
        assert main(["spectrum", "--nmax", "0", "--out", str(tmp_path)]) == 2
        assert main(["evolve", "--dt", "-1", "--out", str(tmp_path)]) == 2
        assert main(["mixing", "--nmax", "4", "--out", str(tmp_path)]) == 2
        assert main(["evolve", "--T", "1", "--dt", "0.3", "--out", str(tmp_path)]) == 2
        assert main(["evolve", "--T", "nan", "--out", str(tmp_path)]) == 2
        assert main(["evolve", "--dt", "inf", "--out", str(tmp_path)]) == 2
        assert main(["evolve", "--alpha", "inf", "--out", str(tmp_path)]) == 2
        assert main(["verify-algebra", "--degree", "1", "--out", str(tmp_path)]) == 2
        assert main(["evolve", "--T", "0.01", "--dt", "0.01",
                     "--out", str(tmp_path)]) == 2
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["effective", "--out", str(blocker / "x")]) == 2
        undecodable = tmp_path / "bytes.cfg"
        undecodable.write_bytes(b"\xff\xfe")
        assert main(["effective", "--config", str(undecodable),
                     "--out", str(tmp_path)]) == 2
        # a theta that overflows the operator, or only underflows its step
        # propagator
        assert main(["spectrum", "--nmax", "4", "--theta", "1e308",
                     "--out", str(tmp_path)]) == 2
        for theta in ("1e308", "1e300"):
            assert main(["evolve", "--nmax", "2", "--theta", theta, "--T", "0.2",
                         "--dt", "0.1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 14 and all(line.startswith("error: ") for line in err)
        assert not list(tmp_path.glob("*.json"))

    # theta times an exponent overflows a relation's q-power (5e307 and
    # past) or, at 2e307, a phase of the degree 8 scan
    @pytest.mark.parametrize("theta, degree", [
        ("5e307", "6"), ("1e308", "6"), ("-1e308", "6"), ("2e307", "8")])
    def test_relation_scan_overflow_is_two(self, theta, degree, tmp_path, capsys):
        assert main(["verify-algebra", f"--theta={theta}", "--degree", degree,
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: theta={float(theta)!r} overflows the operators"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args, message", [
        (["--theta", "1e308"], "theta=1e+308 overflows the operator"),
        # one step's decay underflows the step propagator to zero
        (["--theta", "1e300"], "the step propagator underflows to zero; shrink dt"),
        (["--decay-oracle", "--alpha", "1e7"],
         "the step propagator underflows to zero; shrink dt"),
    ])
    def test_unrepresentable_step_is_two_without_warnings(self, args, message,
                                                          tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", "--nmax", "2", *args, "--T", "0.2",
                         "--dt", "0.1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not list(tmp_path.iterdir())

    def test_oversized_cutoff_estimate(self, tmp_path, monkeypatch, capsys):
        # arithmetic only: 4 MiB of fixed costs, the build of the operator
        # the command builds at 7 entries per column of 56 bytes, plus what
        # it holds.  spectrum builds one parity sector at a time and is
        # charged the largest, the even one ((n_max//2 + 1)^3 states), as
        # its sparse build, as a dense complex block and LAPACK's copy of
        # it, and as 512 complex values per column for LAPACK's workspace
        # and BLAS's buffers
        assert FIXED_BYTES == 4_194_304
        assert FockBasis(6, EVEN).dim == 64 and FockBasis(30, EVEN).dim == 4_096
        assert run_bytes(64, 16 * 64 * (2 * 64 + 512)) == 4_874_752 == (
            FIXED_BYTES + 7 * 64 * 56 + 16 * 64 * 640)
        assert run_bytes(4_096, 16 * 4_096 * (2 * 4_096 + 512)) == 576_225_280
        # evolve: the Krylov basis (one more vector than its largest size,
        # never more than the basis's states) and the state formed from
        # it; one chunk of at most FORM_CHUNK basis columns weighed three
        # ways for the quadratic forms, and the forms' products with each
        # point of a run (never more points than the run has), twice; the
        # basis's edge columns, and one run of edge rows beside their
        # squares as reals; and per point the time, P, <H_I> and each
        # tracked occupation.  No window of states is charged.
        assert KRYLOV_SIZES[-1] == 30 and 11 < WINDOW_CAP < 5_001
        assert 64 < FORM_CHUNK <= 4_096
        # the even sector at n_max 6 has 64 states, 37 of them on the edge
        six = FockBasis(6, EVEN)
        assert held_bytes(six, 10) == (
            16 * (32 * 64 + 3 * 31 * (64 + 2 * 11) + 31 * 37)
            + 24 * 11 * 37 + 8 * 3 * 11)
        assert held_bytes(six, 5_000) == (
            16 * (32 * 64 + 3 * 31 * (64 + 2 * WINDOW_CAP) + 31 * 37)
            + 24 * WINDOW_CAP * 37 + 8 * 3 * 5_001)
        # the even sector's edge at n_max 30: the states with some n_j = 30
        assert FockBasis(30, EVEN).dim - FockBasis(28, EVEN).dim == 721
        thirty = held_bytes(FockBasis(30, EVEN), 5_000, 4)
        assert thirty == (
            16 * (32 * 4_096 + 3 * 31 * (FORM_CHUNK + 2 * WINDOW_CAP) + 31 * 721)
            + 24 * WINDOW_CAP * 721 + 8 * 7 * 5_001)
        # evolve builds the even sector, and every run is charged for all of
        # it: a decay run at n_max=30, whose Arnoldi bases stop at the
        # ground state's line, about 23.7 MiB with the fixed costs
        decay = run_bytes(4_096, held_bytes(FockBasis(30, EVEN), 5_000))
        assert decay == FIXED_BYTES + 7 * 4_096 * 56 + thirty - 8 * 4 * 5_001
        assert f"{decay / 2 ** 20:.1f}" == "23.7"
        # the commands charge these at n_max 30 (evolve's checks two reals
        # per point beside what propagate holds, and one block of
        # trajectory.csv's 7 columns at 96 bytes a cell, two cells more a row)
        monkeypatch.setattr(cli, "available_memory", lambda: 0)
        block = 96 * CSV_BLOCK * (7 + 2)
        for argv, need in ((["spectrum"], 576_225_280),
                           (["evolve"], FIXED_BYTES + 1_605_632 + thirty + 16 * 5_001
                            + block),
                           (["evolve", "--decay-oracle"], decay + 16 * 5_001)):
            assert main([*argv, "--nmax", "30", "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert f"needs at least {need / 2 ** 20:.1f} MiB" in err

    def test_edge_count_of_every_basis(self):
        # held_bytes counts the edge states (some n_j > n_max - 2) from the
        # basis's shape: for the box and each sector at n_max 1-12 its charge
        # is the one with no edge states plus theirs, counted from the table
        for n_max in range(1, 13):
            for sector in (None, *SECTORS):
                basis = FockBasis(n_max, sector)
                edge = int((basis.occupations > n_max - 2).any(axis=1).sum())
                vectors = min(KRYLOV_SIZES[-1], basis.dim) + 1
                assert held_bytes(basis, 10) == (
                    16 * ((vectors + 1) * basis.dim
                          + 3 * vectors * (basis.dim + 2 * 11) + vectors * edge)
                    + 24 * 11 * edge + 8 * 3 * 11), (n_max, sector)

    def test_mixing_is_charged_its_interior_scan(self, tmp_path, monkeypatch):
        # 7 entries per interior column at 120 bytes: (30 - 4 + 1)^3 = 19,683
        # interior states, not a dense 4,096-state sector block (256 MiB)
        assert interior_scan_bytes(30) == 7 * 19_683 * 120 == 16_533_720
        # mixing builds H1 over the whole box of 31^3 states
        need = run_bytes(31 ** 3, interior_scan_bytes(30))
        monkeypatch.setattr(cli, "available_memory", lambda: need + 1)
        assert main(["mixing", "--nmax", "30", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("n_max", [16, 30])
    def test_build_peaks_within_its_charge(self, n_max):
        # the builds the commands are charged for, temporaries and kept
        # operator together: the even sector's H_eff (spectrum, evolve;
        # theta = 0 builds no H1) and the box's H1 (mixing), within the
        # charge less the fixed costs
        builds = [(EVEN, lambda t=theta: build_h_eff(n_max, t, "paper", EVEN))
                  for theta in (0.0, 0.01)]
        builds.append((None, lambda: build_h1_matrix(n_max, "paper")))
        for sector, build in builds:
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 0 < peak <= run_bytes(FockBasis(n_max, sector).dim, 0) - FIXED_BYTES, sector

    def test_interior_scan_holds_no_more_than_its_charge(self):
        # as cmd_mixing runs it: on a new basis, whose occupation table
        # the scan builds
        h1 = build_h1_matrix(16, "paper")
        basis = FockBasis(16)
        tracemalloc.start()
        try:
            sparsity_pattern(h1, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < peak <= interior_scan_bytes(16)

    def test_decay_run_is_charged_one_amplitude(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "available_memory", lambda: 32 * 2 ** 20)
        assert main(["spectrum", "--nmax", "30", "--out", str(tmp_path)]) == 2
        assert main(["evolve", "--decay-oracle", "--nmax", "30", "--T", "0.01",
                     "--out", str(tmp_path)]) == 0

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the resident sizes from /proc/self/status")
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--nmax", "20"],
        ["evolve", "--nmax", "20"],
        ["evolve", "--decay-oracle", "--nmax", "4", "--T", "30", "--dt", "1e-4"],
        ["evolve", "--theta", "0", "--nmax", "4", "--T", "30", "--dt", "1e-4"],
    ], ids=["spectrum", "evolve", "evolve-decay-long", "evolve-theta0-long"])
    def test_run_grows_no_more_than_its_charge(self, argv, tmp_path):
        # a fresh process at n_max 20, the smallest cutoff at which the
        # charge outgrows the few MiB of fixed costs (caches, LAPACK's
        # setup), or over 300,001 points, where the per-point series
        # dominate: its peak RSS after main (VmHWM, which unlike ru_maxrss
        # does not carry over the parent's peak), less its RSS before
        # (VmRSS), is at most what _ensure_fits charged
        code = (
            "import sys\n"
            "from qweyl import cli\n"
            "def kib(field):\n"
            "    with open('/proc/self/status') as fh:\n"
            "        line = next(l for l in fh if l.startswith(field + ':'))\n"
            "    return int(line.split()[1]) * 1024\n"
            "charges, fits = [], cli._ensure_fits\n"
            "def charge(basis, held):\n"
            "    charges.append(cli.run_bytes(basis.dim, held))\n"
            "    fits(basis, held)\n"
            "cli._ensure_fits = charge\n"
            "before = kib('VmRSS')\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(kib('VmHWM') - before, *charges)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, *argv, "--out", str(tmp_path)],
            capture_output=True, text=True, check=True)
        growth, charged = map(int, done.stdout.split()[-2:])
        assert 0 < growth <= charged, (growth / 2 ** 20, charged / 2 ** 20)

    @pytest.mark.parametrize("argv, series", [
        (["evolve", "--theta", "0"], 7), (["evolve", "--decay-oracle"], 3),
    ])
    def test_evolve_is_charged_its_series(self, argv, series, tmp_path,
                                          monkeypatch, capsys):
        # 100,001 points at n_max 4: propagate's series (the time, P, <H_I>
        # and each tracked occupation, held once) and the checks' two reals
        # per point dwarf the 4 MiB available, which the operator, the
        # Krylov basis over the 27-state sector, one run and one block
        # of trajectory.csv fit into: 12.7 MiB charged with --theta 0, 9.4
        # MiB with --decay-oracle, which writes no table
        monkeypatch.setattr(cli, "available_memory", lambda: 4 * 2 ** 20)
        assert main([*argv, "--nmax", "4", "--T", "10", "--dt", "1e-4",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: nmax=4 needs at least ")
        need = err[0].split("needs at least ")[1].split(" MiB")[0]
        even = FockBasis(4, EVEN)
        block = 96 * CSV_BLOCK * (series + 2) if series == 7 else 0
        charged = run_bytes(even.dim, held_bytes(even, 100_000, series - 3)
                            + 16 * 100_001 + block)
        assert need == f"{charged / 2 ** 20:.1f}" == {7: "12.7", 3: "9.4"}[series]
        assert float(need) >= (8 * series + 16) * 100_001 / 2 ** 20
        assert not list(tmp_path.iterdir())

    def test_evolve_too_many_points_is_two(self, tmp_path, capsys):
        # 10^15 points cannot be held anywhere: refused, not a MemoryError
        assert main(["evolve", "--nmax", "4", "--T", "1e12", "--dt", "1e-3",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: nmax=4 needs at least ")

    @pytest.mark.parametrize("command", ["evolve", "spectrum"])
    def test_overflowing_step_count_is_two(self, command, tmp_path, capsys):
        # T/dt is inf: every command validates the step count
        assert main([command, "--T", "1e300", "--dt", "1e-300",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: T/dt overflows a double; raise dt or lower T"]

    @pytest.mark.parametrize("argv", [
        ["spectrum"], ["mixing"], ["evolve"], ["evolve", "--decay-oracle"],
    ])
    def test_refuses_what_cannot_fit(self, argv, tmp_path, monkeypatch, capsys):
        # the even sector's build alone: every command builds at least
        # that, and holds more
        monkeypatch.setattr(cli, "available_memory",
                            lambda: run_bytes(FockBasis(6, EVEN).dim, 0))
        assert main([*argv, "--nmax", "6", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: nmax=6 needs")
        assert not list(tmp_path.iterdir())

    @staticmethod
    def memory_fixture(root, monkeypatch, cgroup, files):
        """Point available_memory at a meminfo of 8 GiB available, a
        /proc/self/cgroup reading cgroup, and a cgroup file system under
        root holding files (path under the mount -> text)."""
        (root / "meminfo").write_text(
            "MemTotal:       16777216 kB\nMemAvailable:    8388608 kB\n")
        (root / "cgroup").write_text(cgroup)
        for name, text in files.items():
            path = root / "fs" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        monkeypatch.setattr(cli, "MEMINFO", str(root / "meminfo"))
        monkeypatch.setattr(cli, "CGROUP", str(root / "cgroup"))
        monkeypatch.setattr(cli, "CGROUP_ROOT", str(root / "fs"))

    @pytest.mark.parametrize("cgroup, files, free", [
        # cgroup v2: max less current, or no limit
        ("0::/user.slice/run\n", {"user.slice/run/memory.max": "1073741824\n",
                                  "user.slice/run/memory.current": "104857600\n"},
         2 ** 30 - 100 * 2 ** 20),
        ("0::/user.slice/run\n", {"user.slice/run/memory.max": "max\n",
                                  "user.slice/run/memory.current": "104857600\n"},
         8 * 2 ** 30),
        # v1: limit_in_bytes less usage_in_bytes; an unlimited one is the
        # largest multiple of the page size below 2^63
        ("5:cpu,cpuacct:/\n4:memory:/jobs/a\n0::/\n",
         {"memory/jobs/a/memory.limit_in_bytes": "536870912\n",
          "memory/jobs/a/memory.usage_in_bytes": "1000\n"},
         2 ** 29 - 1000),
        ("4:memory:/jobs/a\n0::/\n",
         {"memory/jobs/a/memory.limit_in_bytes": "9223372036854771712\n",
          "memory/jobs/a/memory.usage_in_bytes": "1000\n"},
         8 * 2 ** 30),
        # a cgroup without memory files, or no cgroup file, sets no limit
        ("0::/\n", {}, 8 * 2 ** 30),
        (None, {}, 8 * 2 ** 30),
    ], ids=["v2", "v2-max", "v1", "v1-unlimited", "no-files", "no-cgroup"])
    def test_available_memory_is_the_cgroups_if_less(self, cgroup, files, free,
                                                     tmp_path, monkeypatch):
        self.memory_fixture(tmp_path, monkeypatch, cgroup or "", files)
        if cgroup is None:
            (tmp_path / "cgroup").unlink()
        assert cli.available_memory() == free

    def test_refuses_what_its_cgroup_cannot_hold(self, tmp_path, monkeypatch, capsys):
        # evolve at n_max 30 needs about 24 MiB: refused under a 16 MiB
        # cgroup limit though the host has 8 GiB available
        self.memory_fixture(tmp_path, monkeypatch, "0::/job\n",
                            {"job/memory.max": "16777216\n",
                             "job/memory.current": "0\n"})
        out = tmp_path / "out"
        assert main(["evolve", "--nmax", "30", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("MiB, 16.0 MiB available")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("cgroup, mount, files, unlimited", [
        ("0::/jobs/a\n", "", ("memory.max", "memory.current"), "max"),
        ("4:memory:/jobs/a\n0::/\n", "memory/",
         ("memory.limit_in_bytes", "memory.usage_in_bytes"), "9223372036854771712"),
    ], ids=["v2", "v1"])
    def test_refuses_what_a_parent_cgroup_cannot_hold(self, cgroup, mount, files,
                                                       unlimited, tmp_path,
                                                       monkeypatch, capsys):
        # the process's own cgroup sets no limit, and its parent's 16 MiB,
        # 1 MiB of it in use, binds
        limit, usage = files
        self.memory_fixture(tmp_path, monkeypatch, cgroup, {
            f"{mount}jobs/a/{limit}": unlimited + "\n",
            f"{mount}jobs/a/{usage}": "0\n",
            f"{mount}jobs/{limit}": "16777216\n",
            f"{mount}jobs/{usage}": "1048576\n",
        })
        assert cli.available_memory() == 15 * 2 ** 20
        out = tmp_path / "out"
        assert main(["evolve", "--nmax", "30", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("MiB, 15.0 MiB available")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("argv", [
        ["spectrum"], ["mixing"], ["evolve"], ["evolve", "--decay-oracle"],
    ])
    def test_refuses_a_need_beyond_a_float(self, argv, tmp_path, capsys):
        # 10^120 states per axis: the bytes needed exceed a double's range
        n_max = str(10 ** 120)
        assert main([*argv, "--nmax", n_max, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: nmax={n_max} needs")
        assert not list(tmp_path.iterdir())

    def test_corrupt_relation_is_one(self, tmp_path, monkeypatch, capsys):
        # negative control: doubling one side must break the relation
        relations = cli.defining_relations()
        name, lhs, rhs = relations[0]
        relations[0] = (name + " (corrupted control)", lhs, rhs.scale(2))
        monkeypatch.setattr(cli, "defining_relations", lambda: relations)
        out = tmp_path / "out"
        rc = main(["verify-algebra", "--degree", "2", "--out", str(out)])
        assert rc == 1
        report = read_report(out, "verify-algebra")
        assert report["ok"] is False
        failing = [r for r in report["relations"] if not r["holds"]]
        assert len(failing) == 1
        assert "corrupted control" in failing[0]["name"]
        assert failing[0]["residual"]


class TestCommands:
    def test_verify_algebra_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["verify-algebra", "--degree", "2", "--out", str(out)])
        assert rc == 0
        report = read_report(out, "verify-algebra")
        assert report["ok"] is True
        assert len(report["relations"]) == 15
        assert all(r["holds"] for r in report["relations"])
        assert report["numeric"]["max_residual"] <= 1e-12

    def test_verify_algebra_reports_reduced_symplectic(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["verify-algebra", "--degree", "2", "--out", str(out)])
        assert rc == 0
        report = read_report(out, "verify-algebra")
        reduced = report["reduced_symplectic"]
        # partner 4 - j lies in 1..6 for j = 1..3, partner 7 - j for all six
        assert sorted(reduced) == ["partner_4", "partner_7"]
        assert len(reduced["partner_4"]) == 3
        assert len(reduced["partner_7"]) == 6
        # the identity fails under both pairings and does not enter ok
        assert not any(r["holds"] for rows in reduced.values() for r in rows)
        assert report["ok"] is True
        # j=1 under 4 - j leaves alpha^2 (q^4 - q^3) d1 d3, at alpha = 1
        assert reduced["partner_4"][0]["residual"] == [
            {"word": "d1 d3", "coeff": [[3, -1, 1, 0, 1], [4, 1, 1, 0, 1]]}
        ]

    def test_verify_algebra_classical_limit(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "verify-algebra", "--degree", "2", "--theta", "0",
            "--out", str(out),
        ])
        assert rc == 0

    def test_expand_scan_gate(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["expand-scan", "--out", str(out)])
        assert rc == 0
        report = read_report(out, "expand-scan")
        assert report["rederived_gate"]["holds"] is True
        rows = report["interior"]
        assert len(rows) == 60
        for row in rows:
            if row["mode"] == "rederived" and row["slope"] is not None:
                assert 1.9 <= row["slope"] <= 2.1
        origin_x1 = [
            r for r in report["origin"]
            if r["generator"] == "X1" and r["mode"] == "paper"
        ]
        assert origin_x1[0]["slope"] == pytest.approx(1.0, abs=0.1)
        origin_red = [
            r for r in report["origin"]
            if r["generator"] == "X1" and r["mode"] == "rederived"
        ]
        assert origin_red[0]["exact_match"] is True

    def test_effective_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["effective", "--out", str(out)])
        assert rc == 0
        report = read_report(out, "effective")
        comparison = report["reference_comparison"]
        assert comparison["a_matches"] is True
        assert comparison["v_i_matches"] is False
        assert comparison["b_flagged_slots"] == [2]
        assert comparison["div_b_zero"] is True
        assert set(report["modes"]) == {"paper", "rederived"}
        assert report["modes"]["paper"]["mismatch_zero"] is True

    def test_spectrum_classical_exact(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "spectrum", "--nmax", "4", "--theta", "0", "--format", "csv",
            "--out", str(out),
        ])
        assert rc == 0
        report = read_report(out, "spectrum")
        assert report["dimension"] == 125
        assert report["ground"] == [1.5, 0.0]
        for re, im in report["eigenvalues"]:
            assert im == 0.0
            assert (re - 1.5) == int(re - 1.5)
        csv_lines = (out / "spectrum.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "re,im,mode,theta,n_max"
        assert csv_lines[1].split(",")[2:] == ["paper", "0.0", "4"]

    @pytest.mark.parametrize("n_max", [6, 8])
    @pytest.mark.parametrize("mode", ["paper", "rederived"])
    def test_sector_spectrum_matches_dense(self, n_max, mode, tmp_path):
        config = RunConfig(theta=0.01, n_max=n_max, mode=mode, out=str(tmp_path))
        payload = cli.cmd_spectrum(config, None)
        sectors = np.sort_complex([complex(*v) for v in payload["eigenvalues"]])
        h = build_h_eff(n_max, 0.01, mode)
        dense = np.sort_complex(np.linalg.eigvals(h.matrix.toarray()))
        assert np.max(np.abs(sectors - dense)) <= 1e-10
        trace = complex(h.matrix.diagonal().sum())
        for eigs in (sectors, dense):
            assert abs(eigs.sum() - trace) <= 1e-12 * np.abs(eigs).sum()

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["paper", "rederived"])
    def test_spectrum_below_the_interior_margin(self, n_max, mode, tmp_path,
                                                capsys):
        # spectrum needs no interior states: its trace is the closed form
        # sum(N + 3/2) + i theta sum(D(n)), D the diagonal of K in H1 = iK
        out = tmp_path / "out"
        rc = main(["spectrum", "--nmax", str(n_max), "--theta", "0.01",
                   "--mode", mode, "--out", str(out)])
        assert rc == 0
        report = read_report(out, "spectrum")
        assert report["dimension"] == (n_max + 1) ** 3
        trace = 0j
        for n1, n2, n3 in itertools.product(range(n_max + 1), repeat=3):
            if mode == "paper":
                d = -(1.5 + 2 * n1 + n2)
            else:
                d = -(3 + 3 * n1 + 2 * n2 + n3)
            trace += n1 + n2 + n3 + 1.5 + 0.01j * d
        total = sum(complex(re, im) for re, im in report["eigenvalues"])
        assert abs(total - trace) <= 1e-12 * abs(trace)

    def test_mixing_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "mixing", "--nmax", "6", "--format", "csv", "--out", str(out),
        ])
        assert rc == 0
        report = read_report(out, "mixing")
        sparsity = report["sparsity"]
        assert sparsity["contained_in_conjecture"] is False
        assert [0, 0, 0] in sparsity["offsets"]
        assert [2, 0, 0] in sparsity["offsets"]
        assert 0.0 < sparsity["outside_weight_fraction"] < 1.0
        couplings = report["ground_couplings"]
        assert couplings["0,0,0"] == [0.0, -1.5]
        csv_lines = (out / "mixing.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "dx,dy,dz,in_conjectured_set,mode,theta,n_max"
        assert len(csv_lines) == len(sparsity["offsets"]) + 1

    def test_mixing_fails_on_an_offset_outside_the_coupling_set(
            self, tmp_path, monkeypatch, capsys):
        # one (1,0,0) coupling between interior states, as a broken build
        # of H1 would hold it
        def build(n_max, mode, *rest):
            h1 = build_h1_matrix(n_max, mode, *rest).tolil()
            basis = FockBasis(n_max)
            h1[basis.index((2, 1, 1)), basis.index((1, 1, 1))] = 0.5
            return h1.tocsr()

        monkeypatch.setattr(cli, "build_h1_matrix", build)
        assert main(["mixing", "--nmax", "6", "--out", str(tmp_path)]) == 1
        report = read_report(tmp_path, "mixing")
        assert [1, 0, 0] in report["sparsity"]["offsets"]
        assert report["ok"] is False

    def test_evolve_report_and_trajectory(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "evolve", "--nmax", "6", "--T", "1", "--dt", "0.01",
            "--out", str(out),
        ])
        assert rc == 0
        report = read_report(out, "evolve")
        assert report["ok"] is True
        assert report["norm_flow_deviation"] <= report["norm_flow_threshold"]
        assert report["initial_rate"] == pytest.approx(
            report["generator_expectation_rate"], abs=1e-4
        )
        assert report["edge_aborted"] is False
        assert report["points"] == 101
        assert "0,0,0" in report["gain_loss"]["net_change"]
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert len(lines) == 102
        assert lines[0].startswith("t,p,re_h_i,occ_0_0_0")

    def test_trajectory_csv_deterministic(self, tmp_path, capsys):
        argv = ["evolve", "--nmax", "4", "--T", "0.1", "--dt", "0.01"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        path_a = tmp_path / "a" / "trajectory.csv"
        assert path_a.read_bytes() == (tmp_path / "b" / "trajectory.csv").read_bytes()
        lines = path_a.read_text().strip().splitlines()
        assert lines[0] == ("t,p,re_h_i,occ_0_0_0,occ_2_0_0,occ_0_2_0,occ_0_0_2,"
                            "mode,theta,n_max")
        assert len(lines) == read_report(tmp_path / "a", "evolve")["points"] + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        assert float(first[3]) == 1.0
        assert first[7:] == ["paper", "0.01", "4"]

    def test_evolve_edge_abort_before_three_points(self, tmp_path, capsys):
        # at n_max=2 the ground state reaches the cutoff edge in one step
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="edge occupation"):
            rc = main([
                "evolve", "--nmax", "2", "--theta", "0.5", "--T", "1",
                "--dt", "0.1", "--out", str(out),
            ])
        assert rc == 1
        report = read_report(out, "evolve")
        assert report["edge_aborted"] is True
        assert report["points"] < 3
        assert report["norm_flow_deviation"] is None
        assert report["initial_rate"] is None
        assert report["ok"] is False
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert len(lines) == report["points"] + 1

    def test_evolve_edge_abort_at_odd_nmax(self, tmp_path, capsys):
        # at odd n_max no even state has n_j = n_max; (2,0,0) is still on
        # the edge because (4,0,0), the next state it couples to, is cut off
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="edge occupation"):
            rc = main([
                "evolve", "--nmax", "3", "--theta", "0.5", "--T", "1",
                "--dt", "0.01", "--out", str(out),
            ])
        assert rc == 1
        report = read_report(out, "evolve")
        assert report["edge_aborted"] is True
        assert report["points"] < 101
        assert report["ok"] is False

    def test_evolve_decay_oracle(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "evolve", "--nmax", "4", "--T", "1", "--dt", "0.001",
            "--alpha", "0.25", "--decay-oracle", "--out", str(out),
        ])
        assert rc == 0
        report = read_report(out, "evolve")
        table = report["decay_table"]
        assert [row["alpha"] for row in table] == [0.1, 0.25, 0.5, 1.0]
        for row in table:
            assert row["ok"] is True
            assert row["max_abs_deviation"] <= 1e-8

    def test_evolve_decay_oracle_fails_on_edge_abort(self, tmp_path, capsys):
        # at n_max=1 the ground state is itself an edge state, so every
        # run stops at its first point and checks no decay
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="initial state"):
            rc = main(["evolve", "--nmax", "1", "--decay-oracle", "--out", str(out)])
        assert rc == 1
        report = read_report(out, "evolve")
        assert not any(row["ok"] for row in report["decay_table"])


def csv_writer_bytes(config, header, rows) -> bytes:
    """What csv.writer writes for a table with its provenance columns."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([*header, "mode", "theta", "n_max"])
    for row in rows:
        writer.writerow([*row, config.mode, repr(float(config.theta)),
                         str(config.n_max)])
    return buf.getvalue().encode()


class TestWriters:
    CONFIG = RunConfig(theta=-1e-05, n_max=7, mode="rederived")
    EDGE_ROWS = [
        [1e-05, 1e16, -0.0, 5e-324],
        [float("nan"), float("inf"), -float("inf"), 0.1 + 0.2],
        [np.float64(1e-05), np.float64(0.1) + 0.2, np.float64(-0.0), 1.5],
        [0, -3, np.int64(7), 10**20],
        [2, 0, -2, "true"],
        [-2, 2, 0, "false"],
    ]

    def write(self, tmp_path, rows, header=("a", "b", "c", "d")):
        # in blocks of CSV_BLOCK rows, as evolve writes trajectory.csv
        config = replace(self.CONFIG, out=str(tmp_path))
        blocks = (rows[lo:lo + CSV_BLOCK] for lo in range(0, len(rows), CSV_BLOCK))
        name = cli._write_csv(config, "table.csv", header, blocks)
        return (tmp_path / name).read_bytes(), config

    def test_csv_matches_csv_writer_on_edge_values(self, tmp_path):
        data, config = self.write(tmp_path, self.EDGE_ROWS)
        assert data == csv_writer_bytes(config, ("a", "b", "c", "d"), self.EDGE_ROWS)

    @given(st.lists(st.lists(st.one_of(st.floats(), st.integers(), st.booleans()),
                             min_size=4, max_size=4), max_size=20))
    def test_csv_matches_csv_writer(self, tmp_path_factory, rows):
        data, config = self.write(tmp_path_factory.mktemp("t"), rows)
        assert data == csv_writer_bytes(config, ("a", "b", "c", "d"), rows)

    @pytest.mark.parametrize("count", [CSV_BLOCK, CSV_BLOCK + 1, 2 * CSV_BLOCK + 3])
    def test_csv_matches_csv_writer_across_blocks(self, tmp_path, count):
        rows = [[k * 1e-3, 1.0 / (k + 1), -k, k % 3 == 0] for k in range(count)]
        data, config = self.write(tmp_path, rows)
        assert data == csv_writer_bytes(config, ("a", "b", "c", "d"), rows)

    def test_csv_refuses_a_none_field(self, tmp_path):
        # csv.writer would write it as an empty field
        with pytest.raises(ValueError, match="None"):
            self.write(tmp_path, [[1.0, None, 2.0, 3.0]])

    @pytest.mark.parametrize("short", [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0]])
    def test_csv_refuses_a_ragged_row(self, tmp_path, short):
        # a short row beside a long one fills the block's cells exactly
        with pytest.raises(ValueError, match="4 fields wide"):
            self.write(tmp_path, [[1.0, 2.0, 3.0, 4.0], short, [1.0] * (8 - len(short))])

    @pytest.mark.parametrize("width", [3, 7])
    def test_block_holds_no_more_than_its_charge(self, tmp_path, width):
        # evolve's charge for one formatted block of trajectory.csv, its
        # floats the longest reprs a double has; twenty blocks hold no more
        series = np.full((20 * CSV_BLOCK, width), -2.2250738585072014e-308)
        config = replace(self.CONFIG, out=str(tmp_path))
        blocks = (series[lo:lo + CSV_BLOCK].tolist()
                  for lo in range(0, len(series), CSV_BLOCK))
        tracemalloc.start()
        try:
            cli._write_csv(config, "table.csv", ["x"] * width, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < peak <= 96 * CSV_BLOCK * (width + 2), peak

    def test_report_matches_json_dump(self, tmp_path):
        config = replace(self.CONFIG, out=str(tmp_path))
        name, lhs, rhs = defining_relations()[0]
        payload = {
            **cli.cmd_effective(config, None),  # CPoly3 and DiffOp3 values
            "relation": {"name": name, "lhs": lhs, "rhs": rhs},  # NCPoly values
            "edge": [1e-05, -0.0, 5e-324, 1e16, None, True],
        }
        path = cli.write_report(config, "effective", payload)
        with open(path, "rb") as fh:
            data = fh.read()
        expected = {
            "command": "effective",
            "provenance": {"mode": "rederived", "theta": -1e-05, "n_max": 7},
            "timestamp": json.loads(data)["timestamp"],
            **payload,
        }
        buf = io.StringIO()
        json.dump(expected, buf, indent=2, sort_keys=True, default=cli._json_default)
        buf.write("\n")
        assert data == buf.getvalue().encode()

    # every CSV the CLI writes, trajectory.csv from a full run and from an
    # edge-abort run
    @pytest.mark.parametrize("argv, name, aborted", [
        (["spectrum", "--nmax", "4", "--theta", "-1e-2", "--format", "csv"],
         "spectrum.csv", None),
        (["mixing", "--nmax", "6", "--mode", "rederived", "--format", "csv"],
         "mixing.csv", None),
        (["evolve", "--nmax", "4", "--T", "0.1", "--dt", "0.01"],
         "trajectory.csv", False),
        (["evolve", "--nmax", "2", "--theta", "0.5", "--T", "1", "--dt", "0.1"],
         "trajectory.csv", True),
    ])
    def test_every_table_parses_to_header_width(self, argv, name, aborted,
                                                 tmp_path, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the edge abort
            main([*argv, "--out", str(out)])
        report = read_report(out, argv[0])
        assert report["files"] == [name]
        assert report.get("edge_aborted") is aborted
        provenance = report["provenance"]
        triple = [provenance["mode"], repr(float(provenance["theta"])),
                  str(provenance["n_max"])]
        with open(out / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header[-3:] == ["mode", "theta", "n_max"]
        assert rows
        for row in rows:
            assert len(row) == len(header)
            assert row[-3:] == triple


class TestDeterminism:
    def test_rerun_identical_modulo_timestamp(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        argv = ["evolve", "--nmax", "6", "--T", "1", "--dt", "0.01"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        rep_a = read_report(out_a, "evolve")
        rep_b = read_report(out_b, "evolve")
        assert "timestamp" in rep_a
        rep_a.pop("timestamp")
        rep_b.pop("timestamp")
        assert rep_a == rep_b
        assert (out_a / "trajectory.csv").read_bytes() == (
            out_b / "trajectory.csv"
        ).read_bytes()


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "qweyl", "verify-algebra",
             "--degree", "2", "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "verify-algebra: ok" in result.stdout

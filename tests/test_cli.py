"""Command-line front end tests: config round-trip, flag precedence,
exit codes, per-command payloads, the table and report writers against
csv.writer and json.dump, and rerun determinism."""

import csv
import io
import itertools
import json
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
    ConfigError,
    RunConfig,
    default_out,
    interior_scan_bytes,
    load_config,
    main,
    run_bytes,
    validate_config,
)
from qweyl.dynamics import KRYLOV_SIZES, WINDOW_CAP, held_bytes
from qweyl.fock import EVEN, FockBasis, build_h1_matrix, build_h_eff, sparsity_pattern


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

    def test_oversized_cutoff_estimate(self):
        # arithmetic only: the build of the operator the command builds at
        # 7 entries per column of 56 bytes, plus what it holds.  spectrum
        # builds one parity sector at a time and is charged the largest,
        # the even one ((n_max//2 + 1)^3 states), as its sparse build and
        # as a dense complex block
        assert FockBasis(6, EVEN).dim == 64 and FockBasis(30, EVEN).dim == 4_096
        assert run_bytes(64, 16 * 64 ** 2) == 7 * 64 * 56 + 64 ** 2 * 16 == 90_624
        assert run_bytes(4_096, 16 * 4_096 ** 2) == 270_041_088
        # evolve: the Krylov basis (one more vector than its largest size,
        # never more than the reach set's states), one window of states,
        # never more points than the run has, and per point the time, P,
        # <H_I> and each tracked occupation
        assert KRYLOV_SIZES[-1] == 30 and 11 < WINDOW_CAP < 5_001
        assert held_bytes(64, 10) == 16 * (31 * 64 + 11 * 64) + 8 * 3 * 11
        assert held_bytes(64, 5_000) == (
            16 * (31 * 64 + WINDOW_CAP * 64) + 8 * 3 * 5_001)
        assert held_bytes(4_096, 5_000, 4) == (
            16 * (31 + WINDOW_CAP) * 4_096 + 8 * 7 * 5_001)
        # evolve builds the even sector too; a decay run at n_max=30 evolves
        # one amplitude of it, on a two-vector basis: about 1.7 MiB, where
        # (steps + 1) even-sector states made it 573 MiB
        assert run_bytes(4_096, held_bytes(1, 5_000)) == (
            7 * 4_096 * 56 + 16 * (2 + WINDOW_CAP) + 8 * 3 * 5_001)

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
        # theta = 0 peaks highest) and the box's H1 (mixing)
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
            assert 0 < peak <= run_bytes(FockBasis(n_max, sector).dim, 0), sector

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

    @pytest.mark.parametrize("argv, series", [
        (["evolve", "--theta", "0"], 7), (["evolve", "--decay-oracle"], 3),
    ])
    def test_evolve_is_charged_its_series(self, argv, series, tmp_path,
                                          monkeypatch, capsys):
        # 100,001 points of one evolved amplitude: propagate's series and
        # the CSV table (or the decay law and its deviations) dwarf the
        # 4 MiB available, which the operator, the two-vector basis and one
        # window fit into
        monkeypatch.setattr(cli, "available_memory", lambda: 4 * 2 ** 20)
        assert main([*argv, "--nmax", "4", "--T", "10", "--dt", "1e-4",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: nmax=4 needs at least ")
        need = err[0].split("needs at least ")[1].split(" MiB")[0]
        charged = run_bytes(FockBasis(4, EVEN).dim, held_bytes(1, 100_000, series - 3)
                            + 8 * series * 100_001)
        assert need == f"{charged / 2 ** 20:.1f}"
        assert float(need) >= 2 * 8 * series * 100_001 / 2 ** 20
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
        config = replace(self.CONFIG, out=str(tmp_path))
        name = cli._write_csv(config, "table.csv", header, iter(rows))
        return (tmp_path / name).read_bytes(), config

    def test_csv_matches_csv_writer_on_edge_values(self, tmp_path):
        data, config = self.write(tmp_path, self.EDGE_ROWS)
        assert data == csv_writer_bytes(config, ("a", "b", "c", "d"), self.EDGE_ROWS)

    @given(st.lists(st.lists(st.one_of(st.floats(), st.integers(), st.booleans()),
                             min_size=4, max_size=4), max_size=20))
    def test_csv_matches_csv_writer(self, tmp_path_factory, rows):
        data, config = self.write(tmp_path_factory.mktemp("t"), rows)
        assert data == csv_writer_bytes(config, ("a", "b", "c", "d"), rows)

    def test_csv_refuses_a_none_field(self, tmp_path):
        # csv.writer would write it as an empty field
        with pytest.raises(ValueError, match="None"):
            self.write(tmp_path, [[1.0, None, 2.0, 3.0]])

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

"""End-to-end tests of the command-line interface."""

import hashlib
import json
import math
import subprocess
import sys
import tracemalloc

import pytest

from gegwalk import cli
from gegwalk.cli import main
from gegwalk.errors import ConsistencyError
from gegwalk.gegenbauer import HypergroupIndex
from gegwalk.hypergroup import SparseMeasure
from gegwalk.walk_sim import WalkConfig, local_time_counts

from _oracles import j_half


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestKernel:
    def test_reflected_two_steps(self, capsys):
        rc, out, _ = run(capsys, "kernel", "--alpha", "-0.5", "--mu", "1:1",
                         "--x", "0", "--n", "2")
        assert rc == 0
        assert out.splitlines() == ["state,mass", "0,0.5", "2,0.5"]

    def test_zero_steps(self, capsys):
        rc, out, _ = run(capsys, "kernel", "--alpha", "-0.5", "--mu", "1:1",
                         "--x", "0", "--n", "0")
        assert rc == 0
        assert out.splitlines() == ["state,mass", "0,1"]

    def test_json_round_trip(self, capsys):
        rc, out, _ = run(capsys, "kernel", "--alpha", "-0.25",
                         "--mu", "1:0.5,2:0.5", "--x", "0", "--n", "3",
                         "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["alpha"] == -0.25
        assert abs(math.fsum(doc["entries"].values()) - 1.0) < 1e-12

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "law.csv"
        rc, out, _ = run(capsys, "kernel", "--alpha", "-0.5", "--mu", "1:1",
                         "--x", "0", "--n", "2", "--output", str(path))
        assert rc == 0 and out == ""
        assert path.read_text().splitlines()[1] == "0,0.5"

    def test_full_precision(self, capsys):
        _, ten, _ = run(capsys, "kernel", "--alpha", "-0.25",
                        "--mu", "1:0.5,2:0.5", "--x", "0", "--n", "2")
        _, seventeen, _ = run(capsys, "kernel", "--alpha", "-0.25",
                              "--mu", "1:0.5,2:0.5", "--x", "0", "--n", "2",
                              "--full-precision")
        mass10 = ten.splitlines()[1].split(",")[1]
        mass17 = seventeen.splitlines()[1].split(",")[1]
        assert len(mass17) >= len(mass10)
        assert float(mass17) == pytest.approx(float(mass10), rel=1e-9)


class TestMuSpec:
    def test_mass_sum_off_is_exit_2(self, capsys):
        rc, _, err = run(capsys, "kernel", "--alpha", "-0.5", "--mu", "1:0.4",
                         "--x", "0", "--n", "2")
        assert rc == 2
        assert "sum" in err

    def test_nan_mass_is_exit_2(self, capsys):
        rc, out, _ = run(capsys, "kernel", "--alpha", "-0.5", "--mu", "1:nan",
                         "--x", "0", "--n", "2")
        assert rc == 2 and out == ""

    def test_small_roundoff_renormalized(self, capsys):
        rc, out, _ = run(capsys, "kernel", "--alpha", "-0.5",
                         "--mu", "1:0.33333333334,2:0.66666666667",
                         "--x", "0", "--n", "1")
        assert rc == 0
        masses = [float(ln.split(",")[1]) for ln in out.splitlines()[1:]]
        assert sum(masses) == pytest.approx(1.0, abs=1e-12)

    def test_bad_entry_grammar(self, capsys):
        rc, _, err = run(capsys, "kernel", "--alpha", "-0.5", "--mu", "1=1",
                         "--x", "0", "--n", "2")
        assert rc == 2 and "state:mass" in err

    def test_negative_mass(self, capsys):
        rc, _, _ = run(capsys, "kernel", "--alpha", "-0.5",
                       "--mu", "1:1.5,2:-0.5", "--x", "0", "--n", "2")
        assert rc == 2

    def test_csv_file_measure(self, capsys, tmp_path):
        path = tmp_path / "mu.csv"
        path.write_text("state,mass\n1,0.5\n2,0.5\n")
        rc, out, _ = run(capsys, "kernel", "--alpha", "-0.25", "--mu",
                         str(path), "--x", "0", "--n", "1")
        assert rc == 0
        assert out.splitlines()[1:] == ["1,0.5", "2,0.5"]

    def test_json_file_measure(self, capsys, tmp_path):
        path = tmp_path / "mu.json"
        path.write_text(SparseMeasure({1: 1.0}).to_json(alpha=-0.5))
        rc, out, _ = run(capsys, "kernel", "--alpha", "-0.5", "--mu",
                         str(path), "--x", "0", "--n", "2")
        assert rc == 0
        assert out.splitlines()[1:] == ["0,0.5", "2,0.5"]

    def test_file_cancelling_pair_is_exit_2(self, capsys, tmp_path):
        # the same masses inline are refused; a file must be refused too
        path = tmp_path / "mu.csv"
        path.write_text("state,mass\n1,1.0\n3,0.5\n3,-0.5\n")
        rc, _, err = run(capsys, "kernel", "--alpha", "-0.25", "--mu",
                         str(path), "--x", "0", "--n", "1")
        assert rc == 2 and "negative mass" in err

    def test_file_missing_header(self, capsys, tmp_path):
        path = tmp_path / "mu.csv"
        path.write_text("1,0.5\n2,0.5\n")
        rc, _, err = run(capsys, "kernel", "--alpha", "-0.25", "--mu",
                         str(path), "--x", "0", "--n", "1")
        assert rc == 2 and "header" in err


class TestSimulate:
    def test_terminal_csv(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--alpha", "-0.25",
                         "--mu", "1:0.5,2:0.5", "--n", "30",
                         "--replicas", "8", "--seed", "3")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "replica,terminal"
        assert len(lines) == 9
        cfg = WalkConfig(HypergroupIndex(-0.25), SparseMeasure({1: 0.5, 2: 0.5}),
                         0, 30, 8, (0,), 3)
        want = local_time_counts(cfg).terminal
        got = [int(ln.split(",")[1]) for ln in lines[1:]]
        assert got == list(want)

    def test_seed_is_mandatory(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--alpha", "-0.5", "--mu", "1:1",
                  "--n", "10", "--replicas", "4"])
        assert exc.value.code == 2

    def test_json_document(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--alpha", "-0.5", "--mu", "1:1",
                         "--n", "10", "--replicas", "4", "--seed", "1",
                         "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["seed"] == 1 and len(doc["terminal"]) == 4

    def test_walk_that_stays_put(self, capsys):
        # mu = delta_0: every replica ends where it started
        rc, out, _ = run(capsys, "simulate", "--alpha", "0.3", "--mu", "0:1",
                         "--x", "2", "--n", "5", "--replicas", "3", "--seed", "1")
        assert rc == 0 and out == "replica,terminal\n0,2\n1,2\n2,2\n"


class TestLocaltime:
    ARGS = ["localtime", "--alpha", "-0.5", "--mu", "1:1", "--y", "0,2",
            "--n", "200", "--replicas", "64", "--seed", "5"]

    def test_csv_matches_library(self, capsys):
        rc, out, _ = run(capsys, *self.ARGS)
        assert rc == 0
        cfg = WalkConfig(HypergroupIndex(-0.5), SparseMeasure({1: 1.0}),
                         0, 200, 64, (0, 2), 5)
        assert out == local_time_counts(cfg).to_csv()

    def test_thread_count_invisible_in_output(self, capsys, tmp_path):
        p1, p3 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *self.ARGS, "--threads", "1", "--output", str(p1))[0] == 0
        assert run(capsys, *self.ARGS, "--threads", "3", "--output", str(p3))[0] == 0
        assert p1.read_bytes() == p3.read_bytes()

    def test_zero_threads_is_exit_2(self, capsys):
        rc, out, err = run(capsys, *self.ARGS, "--threads", "0")
        assert rc == 2 and out == "" and "threads must be >= 1" in err

    def test_json_summary_default_scale(self, capsys):
        rc, out, _ = run(capsys, *self.ARGS, "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["scale"] == pytest.approx(200**0.5)
        assert set(doc["targets"]) == {"0", "2"}

    def test_json_summary_scale_override(self, capsys):
        rc, out, _ = run(capsys, *self.ARGS, "--format", "json",
                         "--scale", "10")
        assert json.loads(out)["scale"] == 10.0 and rc == 0

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_bad_scale_is_exit_2(self, capsys, scale):
        rc, out, err = run(capsys, *self.ARGS, "--format", "json",
                           "--scale", scale)
        assert rc == 2 and out == "" and "scale" in err


class TestStateCap:
    # each size is refused before any iteration, so these run at once
    @pytest.mark.parametrize(
        "argv",
        [
            ["kernel", "--alpha", "-0.5", "--mu", "1:1", "--x", "0",
             "--n", "2000000"],
            ["kernel", "--alpha", "-0.25", "--mu", "1:0.5,200:0.5", "--x", "0",
             "--n", "10"],
            ["verify-llt", "--alpha", "-0.25", "--mu", "1:0.5,2:0.5",
             "--x", "0", "--y", "0", "--n", "64,2000000"],
            ["verify-lt", "--alpha", "-0.25", "--mu", "1:0.5,2:0.5",
             "--x", "999990", "--y", "0", "--n", "10", "--replicas", "100",
             "--seed", "1"],
            ["localtime", "--alpha", "-0.5", "--mu", "1:1", "--x", "999990",
             "--y", "0", "--n", "10", "--replicas", "100", "--seed", "1"],
        ],
        ids=["kernel", "kernel-wide-step", "verify-llt", "verify-lt", "localtime"],
    )
    def test_state_cap_is_exit_2(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.startswith("gegwalk: ") and "state cap" in err

    def test_state_cap_in_a_worker_is_exit_2(self, capsys):
        # 8193 replicas are three blocks, so two forked workers raise it
        rc, out, err = run(capsys, "localtime", "--alpha", "-0.5", "--mu", "1:1",
                           "--x", "999990", "--y", "0", "--n", "10",
                           "--replicas", "8193", "--seed", "1", "--threads", "2")
        assert rc == 2 and out == ""
        assert err == ("gegwalk: sampling-row table exceeds the state cap 1000000 "
                       "(would need 1000002 states)\n")


class TestConsistencyError:
    def test_consistency_error_is_exit_2(self, capsys, monkeypatch):
        # a ConsistencyError is a library error like StateCapError: one line
        # on stderr and exit 2, not a traceback and the exit code of a failed
        # verification
        def drifting(*args):
            raise ConsistencyError("n_step: the law at n=4 has total mass 1+4e-09")

        monkeypatch.setattr(cli, "n_step", drifting)
        rc, out, err = run(capsys, "kernel", "--alpha", "-0.25",
                           "--mu", "1:0.5,2:0.5", "--x", "0", "--n", "4")
        assert rc == 2 and out == ""
        assert err == "gegwalk: n_step: the law at n=4 has total mass 1+4e-09\n"


class TestVerifyLlt:
    def test_aperiodic_route(self, capsys):
        rc, out, err = run(capsys, "verify-llt", "--alpha", "-0.25",
                           "--mu", "1:0.5,2:0.5", "--x", "0", "--y", "0",
                           "--n", "64,256,1024,4096")
        assert rc == 0
        assert out.splitlines()[0] == "n,value,prediction,ratio"
        assert len(out.splitlines()) == 5
        assert "aperiodic-llt: pass" in err

    def test_unit_step_route(self, capsys):
        rc, out, _ = run(capsys, "verify-llt", "--alpha", "-0.5",
                         "--mu", "1:1", "--x", "0", "--y", "0",
                         "--n", "100,1000,10000", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["theorem"] == "unit-step-llt"
        assert doc["verdict"] == "pass"

    def test_invalid_step_support(self, capsys):
        rc, _, err = run(capsys, "verify-llt", "--alpha", "-0.25",
                         "--mu", "2:1", "--x", "0", "--y", "0", "--n", "8,16")
        assert rc == 2 and "even" in err
        assert "both an odd and an even state" in err and "--mu 1:1" in err

    def test_odd_horizons_only_is_exit_2(self, capsys):
        rc, out, err = run(capsys, "verify-llt", "--alpha", "-0.5", "--mu", "1:1",
                           "--x", "0", "--y", "0", "--n", "9,99")
        assert rc == 2 and out == "" and "n + x + y even" in err

    def test_bad_n_list(self, capsys):
        rc, _, _ = run(capsys, "verify-llt", "--alpha", "-0.25",
                       "--mu", "1:0.5,2:0.5", "--x", "0", "--y", "0",
                       "--n", "64;256")
        assert rc == 2


class TestVerifyLltBytes:
    """SHA-256 of the report bytes on both LLT routes, so a refactor of
    the checker or the command layer cannot move a digit unnoticed."""

    MIXED = ["verify-llt", "--alpha", "-0.25", "--mu", "1:0.5,2:0.5",
             "--x", "0", "--y", "0", "--n", "64,128,256,512,1024"]
    UNIT = ["verify-llt", "--alpha", "-0.5", "--mu", "1:1",
            "--x", "0", "--y", "1", "--n", "9,99,100,999,1000"]
    # x != y: two half sweeps sharing one band
    MIXED_OFF = ["verify-llt", "--alpha", "-0.25", "--mu", "1:0.5,2:0.5",
                 "--x", "2", "--y", "1", "--n", "64,128,256,512,1024"]

    @pytest.mark.parametrize("argv,fmt,digest,stderr", [
        (MIXED, "csv",
         "d75f7f387dd6f784ce184962ead716d6b8d9d3a1a96d58515b21f985410891d0",
         "aperiodic-llt: pass\n"),
        (MIXED, "json",
         "fc2808bdae95f4cc742b64d3a94ac27ba987682a04d395ccca4bdd0d864a6ae5",
         "aperiodic-llt: pass\n"),
        (UNIT, "csv",
         "8ff61a8d4a1d4e42d9ac1f275abc240c7377963a284effa85e794d5c4addc35d",
         "unit-step-llt: pass\n"),
        (UNIT, "json",
         "2c9d678dc1a08823f720bc64a897596221ee593bfc4dcd31f26d852962250d9d",
         "unit-step-llt: pass\n"),
        (MIXED_OFF, "csv",
         "918e6551989b61c73e12f8b5be5dc427b68b21091254e9867555cb2e095b3472",
         "aperiodic-llt: pass\n"),
        (MIXED_OFF, "json",
         "439b7713d43ceedab0b095dd27223fc622a1959090771f2726d326fb696d257f",
         "aperiodic-llt: pass\n"),
    ], ids=["mixed-csv", "mixed-json", "unit-csv", "unit-json", "mixed-off-csv",
            "mixed-off-json"])
    def test_report_digest(self, capsys, argv, fmt, digest, stderr):
        rc, out, err = run(capsys, *argv, "--format", fmt)
        assert rc == 0 and err == stderr
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_one_parity_refusal_bytes(self, capsys):
        rc, out, err = run(capsys, "verify-llt", "--alpha", "-0.25",
                           "--mu", "2:1", "--x", "0", "--y", "0", "--n", "8,16")
        assert rc == 2 and out == ""
        assert err == (
            "gegwalk: step measure is supported on even states only, so the "
            "n-step laws vanish on a parity class and the plain asymptote "
            "does not apply: give mu both an odd and an even state; the unit "
            "step mu = delta_1 (--mu 1:1) has parity-refined checks in "
            "verify-llt and verify-lt\n"
        )


class TestVerifyLt:
    def test_passing_run(self, capsys):
        rc, out, err = run(capsys, "verify-lt", "--alpha", "-0.5",
                           "--mu", "1:1", "--y", "0", "--n", "2000",
                           "--replicas", "5000", "--seed", "7")
        assert rc == 0
        doc = json.loads(out)
        assert doc["theorem"] == "local-time-limit"
        assert doc["params"]["seed"] == 7
        assert "pass" in err

    def test_failing_run_exits_1(self, capsys):
        # far too few replicas for the KS gate; seeded, so stable
        rc, out, err = run(capsys, "verify-lt", "--alpha", "-0.5",
                           "--mu", "1:1", "--y", "0", "--n", "500",
                           "--replicas", "150", "--seed", "3")
        assert rc == 1
        assert json.loads(out)["verdict"] == "fail"
        assert "fail" in err

    def test_transient_alpha_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "verify-lt", "--alpha", "0.5", "--mu", "1:1",
                         "--y", "0", "--n", "100", "--replicas", "200",
                         "--seed", "1")
        assert rc == 2 and "transient" in err

    def test_one_parity_step_is_exit_2(self, capsys):
        # refused before any simulation, with the remedy in command-line terms
        rc, out, err = run(capsys, "verify-lt", "--alpha", "-0.25",
                           "--mu", "1:0.5,3:0.5", "--y", "0", "--n", "100",
                           "--replicas", "200", "--seed", "1")
        assert rc == 2 and out == "" and "odd" in err
        assert "both an odd and an even state" in err and "--mu 1:1" in err

    def test_target_past_the_state_cap_in_little_memory(self, capsys):
        # never visited, so the verdict is fail; its weight takes no array of y entries
        tracemalloc.start()
        try:
            rc, out, _ = run(capsys, "verify-lt", "--alpha", "-0.5", "--mu", "1:1",
                             "--y", "10000000", "--n", "100", "--replicas", "200",
                             "--seed", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1 and json.loads(out)["params"]["y"] == 10**7
        assert peak < 2**25

    def test_gate_flags_forwarded(self, capsys):
        rc, out, _ = run(capsys, "verify-lt", "--alpha", "-0.5", "--mu", "1:1",
                         "--y", "0", "--n", "1000", "--replicas", "500",
                         "--seed", "4", "--moments", "1",
                         "--moment-floor", "0.1", "--ks-threshold", "0.08")
        doc = json.loads(out)
        assert [r["label"] for r in doc["rows"]] == ["m1", "ks"]
        assert doc["params"]["moment_floor"] == 0.1
        assert doc["params"]["ks_threshold"] == 0.08
        assert rc in (0, 1)

    # each value is refused before any simulation, so these run at once
    @pytest.mark.parametrize("flag,value", [
        ("--ks-threshold", "nan"), ("--ks-threshold", "inf"),
        ("--ks-threshold", "0"), ("--ks-threshold", "-1"),
        ("--moment-floor", "nan"), ("--moment-floor", "-0.1"),
        ("--moments", "-1"),
    ])
    def test_bad_gate_flag_is_exit_2(self, capsys, flag, value):
        rc, out, err = run(capsys, "verify-lt", "--alpha", "-0.5", "--mu", "1:1",
                           "--y", "0", "--n", "100", "--replicas", "200",
                           "--seed", "1", flag, value)
        assert rc == 2 and out == "" and err.startswith("gegwalk: ")


class TestSpecfun:
    def test_ml_moment_ten_digits(self, capsys):
        rc, out, _ = run(capsys, "specfun", "ml-moment", "--order", "0.5",
                         "--p", "1")
        assert rc == 0 and out == "1.128379167\n"

    def test_ml_moment_full_precision(self, capsys):
        rc, out, _ = run(capsys, "specfun", "ml-moment", "--order", "0.5",
                         "--p", "1", "--full-precision")
        assert out.strip() == repr(2.0 / 3.141592653589793**0.5)

    def test_missing_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["specfun", "ml-moment", "--order", "0.5"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--p" in err

    def test_every_op_refuses_a_missing_or_unread_flag(self, capsys):
        values = {"order": "0.5", "p": "1", "x": "1", "size": "2", "seed": "1"}
        for op, (_, flags) in cli._SPECFUN.items():
            given = [t for f in flags for t in (f"--{f}", values[f])]
            unread = next(f for f in values if f not in flags)
            for argv, why in ((given[:-2], "required"),
                              (given + [f"--{unread}", "1"], "unrecognized arguments")):
                with pytest.raises(SystemExit) as exc:
                    main(["specfun", op, *argv])
                assert exc.value.code == 2
                out, err = capsys.readouterr()
                assert out == "" and why in err

    def test_domain_error_is_exit_2(self, capsys):
        rc, _, _ = run(capsys, "specfun", "ml-moment", "--order", "2.0",
                       "--p", "1")
        assert rc == 2

    def test_ml_density_nan_x_is_exit_2(self, capsys):
        rc, out, err = run(capsys, "specfun", "ml-density", "--order", "0.25",
                           "--x", "nan")
        assert rc == 2 and out == "" and "finite" in err

    def test_ml_function_nan_x_is_exit_2(self, capsys):
        rc, out, err = run(capsys, "specfun", "ml-function", "--order", "0.5",
                           "--x", "nan")
        assert rc == 2 and out == "" and "finite" in err

    @pytest.mark.parametrize("argv", [
        ["ml-density", "--order", "nan", "--x", "1"],
        ["ml-function", "--order", "0.5", "--x", "inf"],
        ["ml-moment", "--order", "nan", "--p", "1"],
        ["gamma", "--x", "nan"],
        ["gamma", "--x", "inf"],
        ["ml-sample", "--order", "0.5", "--size", "2", "--seed", "-1"],
        ["ml-sample", "--order", "0.5", "--size", "2", "--seed", str(2**64)],
        ["ml-sample", "--order", "0.5", "--size", "0", "--seed", "1"],
    ], ids=["density-nan-order", "function-inf-x", "moment-nan-order", "gamma-nan",
            "gamma-inf", "sample-negative-seed", "sample-seed-past-64-bits",
            "sample-no-draws"])
    def test_non_finite_argument_is_exit_2(self, capsys, argv):
        rc, out, err = run(capsys, "specfun", *argv)
        assert rc == 2 and out == "" and err.startswith("gegwalk: ")

    def test_bessel_j_at_400(self, capsys):
        rc, out, _ = run(capsys, "specfun", "bessel-j", "--order", "0.5",
                         "--x", "400", "--full-precision")
        assert rc == 0 and float(out) == pytest.approx(j_half(400.0), abs=1e-12)

    def test_ml_moment_past_factorial_float_range(self, capsys):
        rc, out, _ = run(capsys, "specfun", "ml-moment", "--order", "1",
                         "--p", "171")
        assert rc == 0 and out == "1\n"

    def test_ml_function_nonconvergence_is_exit_2(self, capsys):
        rc, out, err = run(capsys, "specfun", "ml-function", "--order", "0.1",
                           "--x", "3")
        assert rc == 2 and out == "" and "did not converge" in err

    def test_ml_sample_deterministic(self, capsys):
        args = ("specfun", "ml-sample", "--order", "0.5", "--size", "4",
                "--seed", "11")
        rc, first, _ = run(capsys, *args)
        rc2, second, _ = run(capsys, *args)
        assert rc == rc2 == 0
        assert first == second
        assert len(first.splitlines()) == 4

    def test_bessel_and_gamma(self, capsys):
        rc, out, _ = run(capsys, "specfun", "gamma", "--x", "0.5")
        assert rc == 0
        assert float(out) == pytest.approx(3.141592653589793**0.5, rel=1e-9)
        rc, out, _ = run(capsys, "specfun", "bessel-j", "--order", "0.0",
                         "--x", "0.0")
        assert float(out) == 1.0


class TestRefusedFlags:
    # flags a command would not read are refused by argparse, not ignored
    @pytest.mark.parametrize("argv", [
        ["simulate", "--alpha", "-0.5", "--mu", "1:1", "--n", "10",
         "--replicas", "4", "--seed", "1", "--full-precision"],
        ["localtime", "--alpha", "-0.5", "--mu", "1:1", "--y", "0",
         "--n", "10", "--replicas", "4", "--seed", "1", "--full-precision"],
        ["verify-llt", "--alpha", "-0.25", "--mu", "1:0.5,2:0.5", "--x", "0",
         "--y", "0", "--n", "64", "--full-precision"],
        ["verify-lt", "--alpha", "-0.5", "--mu", "1:1", "--y", "0",
         "--n", "100", "--replicas", "200", "--seed", "1", "--full-precision"],
        ["specfun", "gamma", "--x", "3", "--format", "json"],
        ["specfun", "gamma", "--x", "2", "--order", "7", "--p", "3"],
    ], ids=["simulate", "localtime", "verify-llt", "verify-lt", "specfun",
            "specfun-unread-flags"])
    def test_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments" in err

    # output flags that the chosen format would not read
    @pytest.mark.parametrize("argv", [
        ["localtime", "--alpha", "-0.5", "--mu", "1:1", "--y", "0",
         "--n", "10", "--replicas", "4", "--seed", "1", "--scale", "3"],
        ["kernel", "--alpha", "-0.5", "--mu", "1:1", "--x", "0", "--n", "2",
         "--format", "json", "--full-precision"],
    ], ids=["localtime-csv-scale", "kernel-json-full-precision"])
    def test_output_flag_for_another_format_is_exit_2(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "" and err.startswith("gegwalk: ")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gegwalk.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("gegwalk ")

    def test_help_names_the_limit_laws(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-lt", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "Mittag-Leffler" in out and "exponential" in out

    def test_llt_help_shows_the_asymptote(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify-llt", "--help"])
        out = capsys.readouterr().out
        assert "Gamma(a+1)" in out

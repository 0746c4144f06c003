import contextlib
import importlib.util
import io
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snsflow import assembly, checks, cli, solvers, uq

from snsflow.cli import EXIT_NOT_CONVERGED, EXIT_OK, EXIT_USAGE, main


def run_cli(*argv):
    return main(list(argv))


def test_solve_deterministic_happy_path(tmp_path, capsys):
    code = run_cli("solve", "--method", "deterministic", "--nu", "0.02",
                   "--mesh-n", "6", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert (tmp_path / "field_deterministic.csv").exists()
    assert (tmp_path / "samples.csv").exists()
    out = capsys.readouterr().out
    assert "converged=1" in out and "method=deterministic" in out


def test_solve_split_writes_field(tmp_path):
    code = run_cli("solve", "--method", "split", "--mesh-n", "4", "--sigma", "1.0",
                   "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    header = (tmp_path / "field_split.csv").read_text().splitlines()[0]
    assert header == "x,y,u1,u2,umag"


def test_usage_error_names_offending_flag(capsys):
    assert run_cli("solve", "--method", "deterministic", "--mesh-n", "0") == EXIT_USAGE
    assert "--mesh-n" in capsys.readouterr().err
    assert run_cli("solve", "--method", "deterministic", "--mesh-n", "4",
                   "--noise-n", "3") == EXIT_USAGE
    assert "--noise-n" in capsys.readouterr().err
    assert run_cli("mc", "--methods", "nope") == EXIT_USAGE
    assert "--methods" in capsys.readouterr().err
    assert run_cli("mc", "--samples", "two") == EXIT_USAGE
    assert "--samples" in capsys.readouterr().err


def test_unknown_method_flag_value(capsys):
    assert run_cli("solve", "--method", "warp") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--method" in err and err.count("\n") == 1


def test_monolithic_nonconvergence_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 3)
    code = run_cli("solve", "--method", "monolithic", "--sigma", "80", "--init", "zero",
                   "--mesh-n", "4", "--out-dir", str(tmp_path))
    assert code == EXIT_NOT_CONVERGED
    rows = (tmp_path / "samples.csv").read_text().strip().splitlines()
    assert rows[-1].startswith("monolithic,0,0,")  # recorded, not crashed


def test_mc_defaults_shrunk(tmp_path, capsys):
    code = run_cli("mc", "--mesh-n", "4", "--samples", "2,3", "--sigma", "1.0",
                   "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("eps_sh=") == 2  # one summary line per sample count
    stats_lines = (tmp_path / "stats.csv").read_text().strip().splitlines()
    assert len(stats_lines) == 1 + 2 * 3
    for name in ("samples.csv", "field_monolithic.csv", "field_split.csv",
                 "field_modified.csv", "field_deterministic.csv"):
        assert (tmp_path / name).exists()


def test_sweep_produces_row_per_amplitude(tmp_path, capsys):
    code = run_cli("mc", "--mesh-n", "4", "--samples", "2",
                   "--sigma-sweep", "0.5,1.0,2.0", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    stats_lines = (tmp_path / "stats.csv").read_text().strip().splitlines()
    assert len(stats_lines) == 1 + 3 * 3  # one row per method and amplitude
    sigmas = [line.split(",")[1] for line in stats_lines[1:]]
    assert sigmas == ["0.5"] * 3 + ["1"] * 3 + ["2"] * 3


def test_mc_sigma_sweep_flag(tmp_path, capsys):
    code = run_cli("mc", "--mesh-n", "4", "--samples", "2",
                   "--sigma-sweep", "0.5,1.0", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "sigma=0.5" in out and "sigma=1" in out


@pytest.mark.parametrize("method", ["monolithic", "split", "modified"])
def test_solve_sample_matches_mc_sample(tmp_path, method):
    common = ("--mesh-n", "4", "--noise-n", "2", "--sigma", "1.0", "--seed", "5")
    assert run_cli("solve", "--method", method, "--sample-index", "0", *common,
                   "--out-dir", str(tmp_path / "solve")) == EXIT_OK
    assert run_cli("mc", "--samples", "1", "--methods", method, *common,
                   "--out-dir", str(tmp_path / "mc")) == EXIT_OK
    name = f"field_{method}.csv"
    solved = np.loadtxt(tmp_path / "solve" / name, delimiter=",", skiprows=1)
    mean = np.loadtxt(tmp_path / "mc" / name, delimiter=",", skiprows=1)
    assert np.array_equal(solved, mean)


def test_mc_paper_scale_defaults(tmp_path, capsys):
    # the built-in defaults reproduce the headline statistics: the splitting
    # error sits at the arithmetic floor and the linearized error near 1e-3
    code = run_cli("mc", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    out = capsys.readouterr().out
    values = dict(part.split("=") for part in out.split())
    assert float(values["eps_sh"]) <= 1e-10
    assert 1e-4 <= float(values["eps_mh"]) <= 1e-2


def test_mc_without_monolithic_prints_no_errors(tmp_path, capsys):
    # no monolithic mean to compare with, so no eps keys and empty eps columns
    assert run_cli("mc", "--mesh-n", "4", "--noise-n", "2", "--samples", "2,3",
                   "--methods", "split,modified", "--seed", "2",
                   "--out-dir", str(tmp_path)) == EXIT_OK
    assert capsys.readouterr().out == (
        "sigma=1.5 M=2 kappa_mean=0.3168 failures_split=0 failures_modified=0\n"
        "sigma=1.5 M=3 kappa_mean=0.3236 failures_split=0 failures_modified=0\n")
    assert (tmp_path / "stats.csv").read_text() == (
        "method,sigma,M,epsilon,epsilon_rel,kappa_mean,failures\n"
        "split,1.5,2,,,3.167828e-01,0\n"
        "modified,1.5,2,,,3.167828e-01,0\n"
        "split,1.5,3,,,3.236156e-01,0\n"
        "modified,1.5,3,,,3.236156e-01,0\n")


def test_mc_prints_the_errors_of_stats_csv(tmp_path, capsys):
    assert run_cli("mc", "--mesh-n", "4", "--noise-n", "2", "--samples", "2",
                   "--seed", "2", "--out-dir", str(tmp_path)) == EXIT_OK
    values = dict(part.split("=") for part in capsys.readouterr().out.split())
    assert list(values) == ["sigma", "M", "kappa_mean", "eps_sh", "eps_sh_rel", "eps_mh",
                            "eps_mh_rel", "failures_monolithic", "failures_split",
                            "failures_modified"]
    rows = {row.split(",")[0]: row.split(",")
            for row in (tmp_path / "stats.csv").read_text().splitlines()[1:]}
    for method, key in (("split", "eps_sh"), ("modified", "eps_mh")):
        assert [values[key], values[f"{key}_rel"]] == rows[method][3:5]


def test_config_file_merge_flags_win(tmp_path, capsys):
    cfg = {"sigma": 0.25, "mesh_n": 4, "samples": "2"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli("mc", "--config", str(cfg_path), "--sigma", "0.5",
                   "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert "sigma=0.5" in capsys.readouterr().out  # flag beat the file


def test_config_file_unknown_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    assert run_cli("mc", "--config", str(cfg_path)) == EXIT_USAGE
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe{", b'{"nu": 1' + b"0" * 5000 + b"}"],
                         ids=["bad-utf8", "int-of-5001-digits"])
def test_an_unreadable_config_is_one_line_usage_error(tmp_path, capsys, content):
    # both raise ValueErrors that are not JSONDecodeErrors
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(content)
    assert run_cli("mc", "--mesh-n", "2", "--config", str(cfg_path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: --config: cannot read {cfg_path}")


def test_jobs_flag_changes_nothing(tmp_path, capsys):
    args = ("mc", "--mesh-n", "4", "--samples", "3", "--sigma", "1.0")
    assert run_cli(*args, "--jobs", "1", "--out-dir", str(tmp_path / "a")) == EXIT_OK
    line_a = capsys.readouterr().out
    assert run_cli(*args, "--jobs", "4", "--out-dir", str(tmp_path / "b")) == EXIT_OK
    line_b = capsys.readouterr().out
    assert line_a == line_b
    assert (tmp_path / "a" / "stats.csv").read_text() == \
        (tmp_path / "b" / "stats.csv").read_text()


def test_verify_battery_passes(capsys):
    assert run_cli("verify") == EXIT_OK
    out = capsys.readouterr().out
    assert "status=pass" in out and "status=FAIL" not in out
    assert "indicator=" in out  # smallness diagnostics line


def test_verify_detects_injected_sign_error(capsys):
    assert run_cli("verify", "--mutate", "convection-sign") == EXIT_USAGE
    out = capsys.readouterr().out
    assert "status=FAIL" in out


def test_convection_sign_mutation_fails_exactly_the_assembly_checks():
    # Jacobian and residual flip together in the one kernel, so the solves
    # stay consistent and only the checks that pin the sign fail; the
    # convergence study runs under the mutation too, and solves another problem
    kernel = assembly._convection_blocks
    results = checks.run_verification(include_convergence=True, mutate="convection-sign")
    failed = {r.name for r in results if not r.passed}
    assert failed == {"trilinear_value", "dense_assembly_oracle", "manufactured_convergence"}
    assert assembly._convection_blocks is kernel


@pytest.mark.parametrize("level", [4, 16])
def test_verify_convergence_reports_a_failed_level(monkeypatch, capsys, level):
    # a level whose deterministic solve fails ends in one FAIL line naming
    # the level and the reason, not in a traceback
    real = solvers.solve_deterministic_ns

    def solve(ops, f_load, initial_guess=None):
        if ops.dofs.mesh.n == level:
            return (solvers.FEField.zeros(ops.dofs),
                    solvers.SolveReport(False, 1, float("inf"), failure="planted failure"))
        return real(ops, f_load, initial_guess)

    monkeypatch.setattr(solvers, "solve_deterministic_ns", solve)
    assert run_cli("verify", "--convergence") == EXIT_USAGE
    failed = [line for line in capsys.readouterr().out.splitlines() if "status=FAIL" in line]
    assert failed == ["check=manufactured_convergence status=FAIL "
                      f"deterministic solve failed at n={level}: planted failure"]


def test_verify_convergence_prints_observed_orders(capsys):
    assert run_cli("verify", "--convergence") == EXIT_OK
    out = capsys.readouterr().out
    assert "manufactured_convergence" in out
    assert "velocity_orders" in out and "pressure_orders" in out


SOLVE = ["solve", "--method", "split"]
DETERMINISTIC = ["solve", "--method", "deterministic"]


@pytest.mark.parametrize("argv, config, named", [
    ([*SOLVE, "--sigma", "nan"], None, "--sigma"),
    ([*SOLVE, "--sigma", "inf"], None, "--sigma"),
    ([*SOLVE, "--nu", "inf"], None, "--nu"),
    ([*SOLVE, "--newton-tol", "inf"], None, "--newton-tol"),
    ([*SOLVE, "--seed", "99999999999999999999999"], None, "--seed"),
    ([*SOLVE, "--seed", str(2 ** 64)], None, "--seed"),
    ([*SOLVE, "--sample-index", "-1"], None, "--sample-index"),
    ([*SOLVE, "--sample-index", str(2 ** 64)], None, "--sample-index"),
    ([*SOLVE, "--mesh-n", "1"], None, "--mesh-n"),
    (["mc", "--sigma-sweep", "0.5,nan"], None, "--sigma-sweep"),
    (["mc", "--sigma-sweep=-1"], None, "--sigma-sweep"),
    (SOLVE, {"mesh_n": "4"}, "--config"),
    (SOLVE, {"nu": None}, "--config"),
    (SOLVE, 5, "--config"),
    (["mc", "--samples", "2,3", "--sigma-sweep", "0.5,1"], None, "--samples"),
    (["mc", "--samples", "1", "--mesh-n", "1"], None, "--mesh-n"),
    ([*SOLVE, "--damping", "0.5"], None, "--damping"),
    (SOLVE, {"damping": 0.5}, "--config"),
    ([*SOLVE, "--nu", "5e-324"], None, "--nu"),
    ([*SOLVE, "--jobs", "2"], None, "--jobs"),
    (["verify", "--seed", "3"], None, "--seed"),
    (SOLVE, {"jobs": 2}, "--config"),
    ([*SOLVE, "--newton-max-iter", "3"], None, "--newton-max-iter"),
    (SOLVE, {"newton_tol": 1e-8}, "--config"),
    (["mc", "--samples", "1", "--mesh-n", "100000", "--noise-n", "2"], None, "--mesh-n"),
    ([*DETERMINISTIC, "--mesh-n", "3000000000", "--noise-n", "1"], None, "--mesh-n"),
    ([*DETERMINISTIC, "--mesh-n", str(10 ** 20), "--noise-n", "1"], None, "--mesh-n"),
    (DETERMINISTIC, {"nu": 10 ** 400}, "--config: nu"),
    (DETERMINISTIC, {"sigma": 10 ** 400}, "--config: sigma"),
    (["mc", "--samples", str(2 ** 60)], None, "--samples"),
    (["mc", "--samples", f"1,{10 ** 23}"], None, "--samples"),
    (["mc"], {"samples": 2 ** 60}, "--samples"),
    (["mc", "--samples", str(2 ** 60), "--sigma-sweep", "0.5,1"], None, "--samples"),
    (["mc", "--samples", "1", "--sigma-sweep", ""], None, "--sigma-sweep"),
    (["mc", "--samples", "1"], {"init": "abc"}, "--init"),
    (["verify", "--nu", "1e308"], None, "--nu"),
    (["mc", "--samples", "1", "--nu", "3e152"], None, "--nu"),
    ([*DETERMINISTIC, "--nu", "1e300"], None, "--nu"),
    (["mc", "--samples", "1", "--sigma", "9", "--sigma-sweep", "0.5"], None,
     "--sigma and --sigma-sweep"),
    (["mc", "--samples", "1", "--sigma-sweep", "0.5"], {"sigma": 9.0},
     "--sigma and --sigma-sweep"),
    (["mc", "--noise-n", "2", "--samples", "2", "--methods", "split,split,monolithic"],
     None, "--methods"),
    (["mc", "--samples", "2"], {"methods": "modified,split,modified"}, "--methods"),
    (SOLVE, {"mesh_n": 0}, "--config: mesh_n"),
    (["mc", "--samples", "1", "--init", "zero"], {"init": "abc"}, "--config: init"),
    ([*DETERMINISTIC, "--mesh-n", "0", "--mesh-n", "4"], None, "--mesh-n"),
])
def test_hostile_input_is_one_line_usage_error(tmp_path, capsys, argv, config, named):
    out_dir = [] if argv[0] == "verify" else ["--out-dir", str(tmp_path)]
    argv = [argv[0], "--mesh-n", "2", *argv[1:], *out_dir]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    assert run_cli(*argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert named in err
    assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else ["cfg.json"])


@pytest.mark.parametrize("argv", [["solve", "--method", "deterministic"],
                                  ["mc", "--samples", "1"]])
def test_an_out_dir_that_is_a_file_fails_before_any_solve(tmp_path, monkeypatch, capsys,
                                                          argv):
    monkeypatch.setattr(uq, "prepare", lambda *a: pytest.fail("solved"))
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert run_cli(*argv, "--mesh-n", "2", "--out-dir", str(not_a_dir)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: --out-dir {not_a_dir}: ")
    assert "Traceback" not in err


def test_an_unwritable_output_is_one_line_usage_error(tmp_path, monkeypatch, capsys):
    def denied(path, *a):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(uq, "write_samples_csv", denied)
    assert run_cli("mc", "--samples", "1", "--mesh-n", "2",
                   "--out-dir", str(tmp_path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: --out-dir {tmp_path}: ")
    assert "Permission denied" in err


def test_running_out_of_memory_is_one_line_usage_error(tmp_path, monkeypatch, capsys):
    def exhausted(n):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli, "build_structured_mesh", exhausted)
    assert run_cli("mc", "--samples", "1", "--mesh-n", "2",
                   "--out-dir", str(tmp_path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: out of memory")
    assert "74.5 GiB" in err and "Traceback" not in err


def test_singular_k_xi_fails_modified_samples_and_exits_2(tmp_path, monkeypatch, capsys):
    # K(xi) is the converged Newton Jacobian, so only a stub can make it
    # singular; it fails wherever K(xi) is factorized, and the monolithic
    # samples, which start from that factor, must survive on their own
    real_k_xi, real_splu = solvers.linearized_operator, spla.splu
    made, inside = [], []

    def k_xi(*args):
        inside.append(True)
        try:
            made.append(real_k_xi(*args))
        finally:
            inside.clear()
        return made[-1]

    def splu(matrix, *args, **kwargs):
        if inside:
            raise RuntimeError("Factor is exactly singular")
        return real_splu(matrix, *args, **kwargs)

    monkeypatch.setattr(solvers, "linearized_operator", k_xi)
    monkeypatch.setattr(spla, "splu", splu)
    code = run_cli("mc", "--mesh-n", "4", "--samples", "3", "--sigma", "1.0",
                   "--methods", "monolithic,modified", "--out-dir", str(tmp_path))
    assert code == EXIT_NOT_CONVERGED
    assert capsys.readouterr().err == ""
    assert len(made) == 1 and made[0].lu is None and "singular" in made[0].failure
    stats = (tmp_path / "stats.csv").read_text().splitlines()
    assert stats[1].startswith("monolithic,") and stats[1].endswith(",0")
    assert stats[2].startswith("modified,") and stats[2].endswith(",3")


# the ids name argv and samples only; the first case cuts the Newton budget to 2
@pytest.mark.parametrize("argv, samples, max_iter", [
    pytest.param(["--mesh-n", "12", "--samples", "3", "--methods", "modified"], 3, 2,
                 id="argv0-3"),
    pytest.param(["--mesh-n", "2", "--noise-n", "2", "--samples", "2", "--nu", "1e10"], 2,
                 solvers.NEWTON_MAX_ITER, id="argv1-2"),
])
def test_failed_deterministic_solve_fails_every_splitting_sample(tmp_path, monkeypatch, capsys,
                                                                 argv, samples, max_iter):
    monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", max_iter)
    assert run_cli("mc", *argv, "--out-dir", str(tmp_path)) == EXIT_NOT_CONVERGED
    out = capsys.readouterr().out
    for method in ("split", "modified"):
        if method in out:
            assert f"failures_{method}={samples}" in out
    rows = (tmp_path / "samples.csv").read_text().splitlines()[1:]
    assert rows[0].startswith("deterministic,-1,0,")
    assert all(",0,0," in row for row in rows if row.startswith(("split", "modified")))


@pytest.mark.parametrize("method", ["split", "modified"])
def test_solve_splitting_sample_fails_on_a_failed_deterministic_solve(tmp_path, monkeypatch,
                                                                      capsys, method):
    monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 2)
    code = run_cli("solve", "--method", method, "--mesh-n", "4", "--out-dir", str(tmp_path))
    assert code == EXIT_NOT_CONVERGED
    assert f"method={method} converged=0 iterations=0" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--nu", "1e150"], ["--nu", "1e-300"],
                                  ["--sigma", "1e300"], ["--sigma", "1e300", "--jobs", "2"]])
def test_extreme_physics_fails_every_sample_without_warnings(tmp_path, capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("mc", "--mesh-n", "4", "--samples", "2", *argv,
                       "--out-dir", str(tmp_path))
    assert code == EXIT_NOT_CONVERGED
    assert not caught and capsys.readouterr().err == ""
    stats = (tmp_path / "stats.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in stats] == ["2", "2", "2"]


def test_exception_in_a_solve_is_a_failed_report(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise FloatingPointError("boom")

    real_solve, results = uq.solve_sample, []

    def recorded(setup, methods, loads, first, map=map):
        out = real_solve(setup, methods, loads, first, map=map)
        results.extend(out["split"])
        return out

    monkeypatch.setattr(solvers, "solve_stochastic_full", broken)
    monkeypatch.setattr(uq, "solve_sample", recorded)
    code = run_cli("solve", "--method", "split", "--mesh-n", "4", "--sample-index", "2",
                   "--out-dir", str(tmp_path))
    assert code == EXIT_NOT_CONVERGED
    assert capsys.readouterr().err == ""
    [(_, rep)] = results
    assert not rep.converged and rep.failure == "FloatingPointError: boom"
    rows = (tmp_path / "samples.csv").read_text().splitlines()
    assert rows[-1] == "split,2,0,0,inf"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_start_solve_that_raises_fails_its_samples_and_the_run_goes_on(tmp_path, monkeypatch,
                                                                        capsys, jobs):
    # the chunk's modified block starts split and monolithic, so its error
    # fails both methods' rows; it is solved once per chunk, not again for
    # the next method or sample
    calls = []

    def broken(*args, **kwargs):
        calls.append(args)
        raise FloatingPointError("boom")

    real_solve, reports = uq.solve_sample, []

    def recorded(setup, methods, loads, first, map=map):
        out = real_solve(setup, methods, loads, first, map=map)
        reports.extend(rep for results in out.values() for _, rep in results)
        return out

    monkeypatch.setattr(solvers, "solve_stochastic_modified", broken)
    monkeypatch.setattr(uq, "solve_sample", recorded)
    assert run_cli("solve", "--method", "split", "--mesh-n", "4",
                   "--out-dir", str(tmp_path / "solve")) == EXIT_NOT_CONVERGED
    assert (tmp_path / "solve" / "samples.csv").read_text().splitlines()[-1] == "split,0,0,0,inf"
    calls.clear()
    assert run_cli("mc", "--mesh-n", "4", "--samples", "2", "--methods", "monolithic,split",
                   "--jobs", jobs, "--out-dir", str(tmp_path / "mc")) == EXIT_NOT_CONVERGED
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "mc" / "samples.csv").read_text().splitlines()[2:]
    assert rows == [f"{m},{k},0,0,inf" for k in range(2) for m in ("monolithic", "split")]
    assert len(reports) == 5 and all(r.failure == "FloatingPointError: boom" for r in reports)
    assert len(calls) == 1   # the run's one chunk


@pytest.mark.parametrize("argv, setups, factors", [
    (["mc", "--samples", "3,2"], 1, 1),
    (["mc", "--samples", "2", "--sigma-sweep", "0.5,1"], 1, 1),
    (["solve", "--method", "deterministic"], 1, 0),
    (["mc", "--samples", "2", "--methods", "monolithic", "--init", "zero"], 1, 0),
])
def test_a_command_builds_one_set_up_and_k_xi_only_for_a_method_on_it(tmp_path, monkeypatch,
                                                                      argv, setups, factors):
    # n=16 is grid-sequenced from n=8: the coarse level is prepared too, and
    # factorizes no K(xi)
    levels, made = [], []
    real_prepare, real_k_xi = uq.prepare, solvers.linearized_operator

    def prepare(dofs, *args):
        levels.append(dofs.mesh.n)
        return real_prepare(dofs, *args)

    def k_xi(ops, xi):
        made.append(ops.dofs.mesh.n)
        return real_k_xi(ops, xi)

    monkeypatch.setattr(uq, "prepare", prepare)
    monkeypatch.setattr(solvers, "linearized_operator", k_xi)
    code = run_cli(*argv, "--mesh-n", "16", "--noise-n", "8", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert levels.count(16) == setups and levels.count(8) == setups
    assert made == [16] * factors


def _mc_outputs(tmp_path, name, *argv):
    out = tmp_path / name
    assert run_cli("mc", "--mesh-n", "4", "--noise-n", "2", "--seed", "5", *argv,
                   "--out-dir", str(out)) == EXIT_OK
    return {p.name: p.read_text().splitlines() for p in out.iterdir()}


@pytest.mark.parametrize("joined, alone", [
    (["--samples", "3,2,3"], [["--samples", "3"], ["--samples", "2"], ["--samples", "3"]]),
    (["--samples", "3", "--sigma-sweep", "0.5,1"],
     [["--samples", "3", "--sigma", "0.5"], ["--samples", "3", "--sigma", "1"]]),
])
def test_a_multi_run_command_equals_its_single_runs(tmp_path, capsys, joined, alone):
    # every run of one mc command shares its set-up; none may leave state in
    # it that changes the next run
    got = _mc_outputs(tmp_path, "joined", *joined)
    stdout = capsys.readouterr().out.splitlines()
    singles = []
    for j, argv in enumerate(alone):
        singles.append(_mc_outputs(tmp_path, f"alone{j}", *argv))
        singles[-1]["stdout"] = capsys.readouterr().out.splitlines()
    assert stdout == [line for single in singles for line in single["stdout"]]
    for name in ("stats.csv", "samples.csv"):
        assert got[name] == [singles[0][name][0]] + [
            row for single in singles for row in single[name][1:]]
    # the fields are those of the last run
    assert {name: rows for name, rows in got.items() if name.startswith("field_")} == {
        name: rows for name, rows in singles[-1].items() if name.startswith("field_")}


@pytest.mark.parametrize("negative_zero", [["--sigma", "-0.0"], ["--sigma-sweep=-0"]])
def test_negative_zero_sigma_writes_the_bytes_of_zero(tmp_path, capsys, negative_zero):
    args = ("mc", "--mesh-n", "4", "--samples", "2", "--seed", "3")
    assert run_cli(*args, "--sigma", "0", "--out-dir", str(tmp_path / "zero")) == EXIT_OK
    zero = capsys.readouterr().out
    assert run_cli(*args, *negative_zero, "--out-dir", str(tmp_path / "neg")) == EXIT_OK
    assert capsys.readouterr().out == zero and "sigma=0 " in zero
    names = sorted(p.name for p in (tmp_path / "zero").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "neg").iterdir())
    for name in names:
        assert (tmp_path / "neg" / name).read_bytes() == (tmp_path / "zero" / name).read_bytes()


def test_each_command_takes_only_the_flags_it_reads(capsys):
    flags = {}
    for command in ("solve", "mc", "verify"):
        assert run_cli(command, "--help") == EXIT_OK
        flags[command] = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
    common = {"--config", "--nu", "--sigma", "--mesh-n", "--noise-n"}
    solving = common | {"--seed", "--out-dir", "--init"}
    assert flags["verify"] == common | {"--convergence", "--mutate"}
    assert flags["solve"] == solving | {"--method", "--sample-index"}
    assert flags["mc"] == solving | {"--jobs", "--methods", "--samples", "--sigma-sweep"}


def test_huge_kappa_prints_a_short_stats_line(tmp_path, capsys):
    assert run_cli("mc", "--mesh-n", "4", "--samples", "2", "--sigma", "1e300",
                   "--out-dir", str(tmp_path)) == EXIT_NOT_CONVERGED
    [line] = capsys.readouterr().out.splitlines()
    kappa = dict(part.split("=") for part in line.split())["kappa_mean"]
    assert len(kappa) <= 10 and float(kappa) > 1e298


@pytest.mark.parametrize("argv", [["solve", "--method", "modified"], ["mc", "--samples", "3"]])
def test_a_subnormal_sigma_solves_every_modified_sample(tmp_path, capsys, argv):
    # the residual bound of a subnormal load underflowed to 0 and failed the
    # modified solves that split and monolithic passed on the same draws
    assert run_cli(*argv, "--mesh-n", "4", "--sigma", "1e-320",
                   "--out-dir", str(tmp_path)) == EXIT_OK
    out = capsys.readouterr().out
    assert "failures_modified=0" in out or "method=modified converged=1" in out


def test_perfbench_traced_names_exist(monkeypatch):
    # the benchmark's tracer patches these module attributes by name
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    for owner, attr, _ in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


# -- property test: no argv of the declared flags ends in a traceback ------------

HOSTILE = ["nan", "-inf", "inf", "0.0", "-0.0", "5e-324", "1e308", "1" + "0" * 400, "-3",
           "abc", ""]
HOSTILE_JSON = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, 1e308,
                10 ** 400, -3, "abc", "", None, True]
# the accepted values of each flag; every one keeps a run at --mesh-n <= 4, --samples <= 3
ACCEPTED = {
    "--nu": ["0.02", "1"], "--sigma": ["1.6", "0"], "--mesh-n": ["1", "2", "3", "4"],
    "--noise-n": ["1", "2"], "--seed": ["0", "7"], "--init": ["deterministic", "zero"],
    "--method": ["deterministic", "monolithic", "split", "modified"],
    "--sample-index": ["0", "5"], "--jobs": ["1", "2"],
    "--methods": ["monolithic,split,modified", "modified", "split,monolithic"],
    "--samples": ["1", "2", "3", "1,2"], "--sigma-sweep": ["0.5,1", "0"],
    "--mutate": ["convection-sign"],
}
COMMON = ["--nu", "--sigma", "--mesh-n", "--noise-n"]
FLAGS = {
    "verify": [*COMMON, "--mutate"],
    "solve": [*COMMON, "--seed", "--init", "--method", "--sample-index"],
    "mc": [*COMMON, "--seed", "--init", "--jobs", "--methods", "--samples", "--sigma-sweep"],
}


def _as_json(value: str):
    """An accepted flag value as its config value: numbers as JSON numbers."""
    return json.loads(value) if value[0].isdigit() and "," not in value else value


@st.composite
def cli_calls(draw):
    """(argv without --out-dir, config dict or None) of one command: accepted
    values for a few of its flags and config keys, one or two of them hostile."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = draw(st.lists(st.sampled_from(FLAGS[command]), unique=True, max_size=4))
    if command == "solve" and "--method" not in flags:
        flags.append("--method")   # required
    keys = [flag[2:].replace("-", "_") for flag in FLAGS[command]]
    keys = draw(st.none() | st.lists(st.sampled_from([k for k in keys if k in cli.DEFAULTS]),
                                     unique=True, max_size=3))
    names = flags + [f"--config:{key}" for key in keys or []]
    hostile = draw(st.lists(st.sampled_from(names), unique=True, min_size=1, max_size=2)
                   if names else st.just([]))
    argv = [command]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(HOSTILE if flag in hostile else ACCEPTED[flag]))]
    if command == "verify" and draw(st.booleans()):
        argv.append("--convergence")
    config = None if keys is None else {
        key: draw(st.sampled_from(HOSTILE_JSON if f"--config:{key}" in hostile else
                                  [_as_json(v) for v in ACCEPTED["--" + key.replace("_", "-")]]))
        for key in keys}
    return argv, config


@given(call=cli_calls())
@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_drawn_argv_exits_0_1_or_2_without_a_traceback(monkeypatch, call):
    # the battery has its own tests; verify here runs its diagnostics line only
    monkeypatch.setattr(checks, "run_verification", lambda **kwargs: [])
    argv, config = [*call[0]], call[1]
    given_keys = {a[2:].replace("-", "_") for a in argv if a.startswith("--")} | set(config or {})
    if "mesh_n" not in given_keys:
        argv += ["--mesh-n", "2"]
    if argv[0] == "mc" and "samples" not in given_keys:
        argv += ["--samples", "2"]
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        if argv[0] != "verify":
            argv += ["--out-dir", str(out_dir)]
        if config is not None:
            (Path(tmp) / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(Path(tmp) / "cfg.json")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        written = [out.getvalue()] + [p.read_text() for p in sorted(out_dir.glob("*"))]
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_NOT_CONVERGED), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == EXIT_USAGE:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: "), argv
    if code == EXIT_OK:
        assert not any("nan" in text.lower() for text in written), argv


# -- parity test: a flag and its config key pass the same check -----------------

NUMERIC_JSON = [value for value in HOSTILE_JSON if type(value) in (int, float)]


class _Solving(Exception):
    """Raised by the stubbed solves: the arguments passed every check."""


def _solving(*args, **kwargs):
    raise _Solving


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_a_flag_and_its_config_key_take_one_check(tmp_path, monkeypatch, capsys, command):
    # each numeric hostile value goes once as a flag and once as a config value;
    # the --mesh-n 2 of argv overrides a config mesh_n, whose value is checked still.
    # FLAGS leaves out --out-dir: "-3" names a directory, but a config out_dir of
    # -3 is not a JSON string, so the two routes differ there by design
    monkeypatch.setattr(checks, "run_verification", lambda **kwargs: [])
    monkeypatch.setattr(uq, "prepare", _solving)
    monkeypatch.setattr(uq, "run_experiment", _solving)
    argv = [command, "--mesh-n", "2"]
    if command != "verify":
        argv += ["--out-dir", str(tmp_path / "out")]
    if command == "solve":
        argv += ["--method", "split"]
    cfg_path = tmp_path / "cfg.json"

    def outcome(*extra):
        try:
            code = main([*argv, *extra])
        except _Solving:
            code = "solving"
        return code, capsys.readouterr().err

    keys = [flag[2:].replace("-", "_") for flag in FLAGS[command]]
    for key in [key for key in keys if key in cli.DEFAULTS]:
        flag = "--" + key.replace("_", "-")
        for value in NUMERIC_JSON:
            code, err = outcome(f"{flag}={value}")
            cfg_path.write_text(json.dumps({key: value}))
            config_code, config_err = outcome("--config", str(cfg_path))
            assert code == config_code, (key, value, err, config_err)
            if code == EXIT_USAGE:
                assert flag in err, (key, value, err)
                assert config_err.startswith(f"error: --config: {key}: "), (key, value)
                assert flag in config_err, (key, value, config_err)

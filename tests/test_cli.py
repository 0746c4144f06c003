import importlib.util
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from snsflow import assembly, checks, solvers

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


def test_monolithic_nonconvergence_exits_2(tmp_path, capsys):
    code = run_cli("solve", "--method", "monolithic", "--sigma", "80", "--init", "zero",
                   "--mesh-n", "4", "--newton-max-iter", "3", "--out-dir", str(tmp_path))
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
    # matrices and residual vector flip together, so the solves stay
    # consistent and only the checks that pin the sign fail
    kernels = (assembly.assemble_convection_linearized, assembly.assemble_convection_load)
    results = checks.run_verification(mutate="convection-sign")
    failed = {r.name for r in results if not r.passed}
    assert failed == {"trilinear_value", "dense_assembly_oracle"}
    assert (assembly.assemble_convection_linearized, assembly.assemble_convection_load) \
        == kernels


def test_verify_convergence_prints_observed_orders(capsys):
    assert run_cli("verify", "--convergence") == EXIT_OK
    out = capsys.readouterr().out
    assert "manufactured_convergence" in out
    assert "velocity_orders" in out and "pressure_orders" in out


SOLVE = ["solve", "--method", "split"]


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
])
def test_hostile_input_is_one_line_usage_error(tmp_path, capsys, argv, config, named):
    argv = [argv[0], "--mesh-n", "2", *argv[1:], "--out-dir", str(tmp_path)]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    assert run_cli(*argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert named in err


def test_singular_k_xi_fails_modified_samples_and_exits_2(tmp_path, monkeypatch, capsys):
    # K(xi) is the converged Newton Jacobian, so only a stub can make it
    # singular; it fails wherever K(xi) is factorized, and the monolithic
    # samples, which start from that factor, must survive on their own
    real_init, real_splu = solvers.LinearizedOperator.__init__, spla.splu
    made, inside = [], []

    def init(self, *args):
        made.append(self)
        inside.append(True)
        try:
            real_init(self, *args)
        finally:
            inside.clear()

    def splu(matrix, *args, **kwargs):
        if inside:
            raise RuntimeError("Factor is exactly singular")
        return real_splu(matrix, *args, **kwargs)

    monkeypatch.setattr(solvers.LinearizedOperator, "__init__", init)
    monkeypatch.setattr(spla, "splu", splu)
    code = run_cli("mc", "--mesh-n", "4", "--samples", "3", "--sigma", "1.0",
                   "--methods", "monolithic,modified", "--out-dir", str(tmp_path))
    assert code == EXIT_NOT_CONVERGED
    assert capsys.readouterr().err == ""
    assert len(made) == 1 and made[0].factor is None and "singular" in made[0].failure
    stats = (tmp_path / "stats.csv").read_text().splitlines()
    assert stats[1].startswith("monolithic,") and stats[1].endswith(",0")
    assert stats[2].startswith("modified,") and stats[2].endswith(",3")


@pytest.mark.parametrize("argv, samples", [
    (["--mesh-n", "12", "--samples", "3", "--newton-max-iter", "2",
      "--methods", "modified"], 3),
    (["--mesh-n", "2", "--noise-n", "2", "--samples", "2", "--nu", "1e10"], 2),
])
def test_failed_deterministic_solve_fails_every_splitting_sample(tmp_path, capsys, argv,
                                                                 samples):
    assert run_cli("mc", *argv, "--out-dir", str(tmp_path)) == EXIT_NOT_CONVERGED
    out = capsys.readouterr().out
    for method in ("split", "modified"):
        if method in out:
            assert f"failures_{method}={samples}" in out
    rows = (tmp_path / "samples.csv").read_text().splitlines()[1:]
    assert rows[0].startswith("deterministic,-1,0,")
    assert all(",0,0," in row for row in rows if row.startswith(("split", "modified")))


@pytest.mark.parametrize("method", ["split", "modified"])
def test_solve_splitting_sample_fails_on_a_failed_deterministic_solve(tmp_path, capsys,
                                                                      method):
    code = run_cli("solve", "--method", method, "--mesh-n", "4", "--newton-max-iter", "2",
                   "--out-dir", str(tmp_path))
    assert code == EXIT_NOT_CONVERGED
    assert f"method={method} converged=0 iterations=0" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--nu", "1e300"], ["--nu", "1e-300"],
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
    from snsflow import uq

    def broken(*args, **kwargs):
        raise FloatingPointError("boom")

    real_solve, results = uq.solve_sample, []

    def recorded(*args, **kwargs):
        results.extend(real_solve(*args, **kwargs))
        return results

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


def test_huge_kappa_prints_a_short_stats_line(tmp_path, capsys):
    assert run_cli("mc", "--mesh-n", "4", "--samples", "2", "--sigma", "1e300",
                   "--out-dir", str(tmp_path)) == EXIT_NOT_CONVERGED
    [line] = capsys.readouterr().out.splitlines()
    kappa = dict(part.split("=") for part in line.split())["kappa_mean"]
    assert len(kappa) <= 10 and float(kappa) > 1e298


def test_perfbench_traced_names_exist(monkeypatch):
    # the benchmark's tracer patches these module attributes by name
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    for owner, attr, _ in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"

"""Command-line front end: single solves, Monte Carlo runs (over sample counts
or noise amplitudes), and the verification battery.

Flags may be combined with a JSON config file (``--config``); explicit flags
win over file values, file values win over built-in defaults. All randomness
flows from ``--seed`` (a fixed constant when omitted, never the wall clock),
standard output is line-oriented ``key=value`` pairs, and every output file is
written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import isfinite

import numpy as np

from . import checks, solvers, uq
from .mesh import build_dof_map, build_structured_mesh
from .solvers import NewtonConfig
from .uq import McConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2

_MC = McConfig()
DEFAULTS = {
    "nu": _MC.nu,
    "sigma": _MC.sigma,
    "samples": str(_MC.M),
    "mesh_n": _MC.mesh_n,
    "noise_n": None,   # resolved to --mesh-n when not given

    "seed": _MC.base_seed,
    "jobs": 1,
    "methods": ",".join(_MC.methods),
    "newton_tol": _MC.newton.abs_tol,   # --newton-tol sets both tolerances
    "newton_max_iter": _MC.newton.max_iter,
    "damping": _MC.newton.damping,
    "out_dir": ".",
    "init": _MC.mono_init,
    "sample_index": 0,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line diagnostics, exit code 1
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with flag defaults")
    p.add_argument("--nu", type=float, help="kinematic viscosity")
    p.add_argument("--sigma", type=float,
                   help="noise amplitude (per-cell standard deviation)")
    p.add_argument("--mesh-n", dest="mesh_n", type=int, help="FE grid resolution")
    p.add_argument("--noise-n", dest="noise_n", type=int,
                   help="noise cells per axis (must divide --mesh-n)")
    p.add_argument("--seed", type=int, help="base seed for all randomness")
    p.add_argument("--jobs", type=int, help="concurrent samples")
    p.add_argument("--methods", help="comma list from monolithic,split,modified")
    p.add_argument("--newton-tol", dest="newton_tol", type=float,
                   help="absolute and relative Newton tolerance")
    p.add_argument("--newton-max-iter", dest="newton_max_iter", type=int)
    p.add_argument("--damping", type=float, help="Newton damping factor in (0,1]")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="snsflow",
                     description="Steady stochastic flow solver and experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[], help="one solve, one sample")
    _add_common(p_solve)
    p_solve.add_argument("--method", required=True,
                         choices=["deterministic", "monolithic", "split", "modified"])
    p_solve.add_argument("--init", choices=["deterministic", "zero"],
                         help="monolithic initial guess")
    p_solve.add_argument("--sample-index", dest="sample_index", type=int,
                         help="noise substream index")

    p_mc = sub.add_parser("mc", help="Monte Carlo experiment over sample counts")
    _add_common(p_mc)
    p_mc.add_argument("--samples", help="sample count or comma list, e.g. 50,100,200")
    p_mc.add_argument("--sigma-sweep", dest="sigma_sweep",
                      help="comma list of amplitudes; one run per value at fixed M")
    p_mc.add_argument("--init", choices=["deterministic", "zero"],
                      help="monolithic initial guess")

    p_verify = sub.add_parser("verify", help="run the verification battery")
    _add_common(p_verify)
    p_verify.add_argument("--convergence", action="store_true",
                          help="include the refinement study")
    p_verify.add_argument("--mutate", choices=["convection-sign"],
                          help="inject a deliberate defect (sensitivity demo)")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    merged = dict(DEFAULTS)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            with open(cfg_path) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"--config: cannot read {cfg_path}: {exc}")
        if not isinstance(file_values, dict):
            raise UsageError(f"--config: {cfg_path} must hold a JSON object")
        unknown = set(file_values) - set(DEFAULTS)
        if unknown:
            raise UsageError(f"--config: unknown keys {sorted(unknown)}")
        for key, value in file_values.items():
            if not _config_type_ok(key, value):
                raise UsageError(f"--config: {key} has the wrong type ({value!r})")
        merged.update(file_values)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _config_type_ok(key: str, value) -> bool:
    """Config values take the type of their default; lists may be bare numbers."""
    default = DEFAULTS[key]
    if isinstance(value, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if default is None:
        return value is None or isinstance(value, int)
    if isinstance(default, int):
        return isinstance(value, int)
    return isinstance(value, str) or (key == "samples"
                                      and isinstance(value, (int, float)))


class UsageError(Exception):
    pass


def _validate(merged: dict) -> dict:
    out = dict(merged)
    if out["mesh_n"] < 1:
        raise UsageError("--mesh-n must be a positive integer")
    if out["noise_n"] is None:
        out["noise_n"] = out["mesh_n"]
    if out["noise_n"] < 1:
        raise UsageError("--noise-n must be a positive integer")
    if out["mesh_n"] % out["noise_n"] != 0:
        raise UsageError("--noise-n must divide --mesh-n (nested grids)")
    if not (isfinite(out["nu"]) and out["nu"] > 0):
        raise UsageError("--nu must be positive and finite")
    if not (isfinite(out["sigma"]) and out["sigma"] >= 0):
        raise UsageError("--sigma must be finite and non-negative")
    if out["jobs"] < 1:
        raise UsageError("--jobs must be >= 1")
    for key in ("seed", "sample_index"):
        if not 0 <= out[key] < 2 ** 64:
            raise UsageError(f"--{key.replace('_', '-')} must lie in [0, 2**64)")
    try:
        out["samples_list"] = [int(s) for s in str(out["samples"]).split(",") if s]
    except ValueError:
        raise UsageError("--samples must be an integer or comma list of integers")
    if not out["samples_list"] or min(out["samples_list"]) < 1:
        raise UsageError("--samples must contain positive integers")
    methods = tuple(m.strip() for m in str(out["methods"]).split(",") if m.strip())
    bad = set(methods) - set(uq.METHODS)
    if bad or not methods:
        raise UsageError("--methods must be a non-empty comma list from "
                         "monolithic,split,modified")
    out["methods_tuple"] = methods
    if not (isfinite(out["newton_tol"]) and out["newton_tol"] > 0):
        raise UsageError("--newton-tol must be positive and finite")
    if out["newton_max_iter"] < 1:
        raise UsageError("--newton-max-iter must be >= 1")
    if not (0 < out["damping"] <= 1):
        raise UsageError("--damping must lie in (0, 1]")
    return out


def _amplitudes(text) -> list[float]:
    try:
        values = [float(s) for s in str(text).split(",") if s]
    except ValueError:
        values = []
    if not values or not all(isfinite(s) and s >= 0 for s in values):
        raise UsageError("--sigma-sweep must be a comma list of finite non-negative numbers")
    return values


def _mc_config(v: dict, m: int, sigma: float | None = None) -> McConfig:
    return McConfig(
        M=m,
        base_seed=v["seed"],
        sigma=v["sigma"] if sigma is None else sigma,
        nu=v["nu"],
        mesh_n=v["mesh_n"],
        noise_n=v["noise_n"],
        methods=v["methods_tuple"],
        newton=NewtonConfig(abs_tol=v["newton_tol"], rel_tol=v["newton_tol"],
                            max_iter=v["newton_max_iter"], damping=v["damping"]),
        mono_init=v["init"],
    )


def _print_stats(st: uq.McStats) -> None:
    cfg = st.config
    parts = [f"sigma={cfg.sigma:g}", f"M={cfg.M}",
             f"kappa_mean={st.kappa_mean:.4g}"]
    if st.eps_sh is not None:
        parts += [f"eps_sh={st.eps_sh:.6e}", f"eps_sh_rel={st.eps_sh_rel:.6e}"]
    if st.eps_mh is not None:
        parts += [f"eps_mh={st.eps_mh:.6e}", f"eps_mh_rel={st.eps_mh_rel:.6e}"]
    parts += [f"failures_{m}={st.failed_counts[m]}" for m in cfg.methods]
    print(" ".join(parts))


def cmd_solve(v: dict) -> int:
    cfg = _mc_config(v, 1)
    method = v["method"]
    dofs = build_dof_map(build_structured_mesh(cfg.mesh_n))
    ops, f_load, xi, xi_report = uq.prepare(dofs, cfg.nu, cfg.newton)
    reports = [xi_report]
    if method == "deterministic":
        fld = xi
    else:
        loads, _ = uq.noise_loads(cfg, ops, [v["sample_index"]])
        [(fld, rep)] = uq.solve_sample(method, ops, xi, f_load, loads, v["sample_index"],
                                       cfg.newton, xi_report, cfg.mono_init)
        reports.append(rep)

    out = v["out_dir"]
    os.makedirs(out, exist_ok=True)
    uq.write_field_csv(os.path.join(out, f"field_{method}.csv"), fld)
    uq.write_samples_csv(os.path.join(out, "samples.csv"), reports)

    final = reports[-1]
    print(f"method={method} converged={int(final.converged)} "
          f"iterations={final.iterations} final_residual={final.final_residual:.3e}")
    return EXIT_OK if final.converged else EXIT_NOT_CONVERGED


def cmd_mc(v: dict) -> int:
    if v.get("sigma_sweep"):
        sweep_sigmas = _amplitudes(v["sigma_sweep"])
        if len(v["samples_list"]) != 1:
            raise UsageError("--samples must be a single count with --sigma-sweep")
        runs = [_mc_config(v, v["samples_list"][0], sigma=s) for s in sweep_sigmas]
    else:
        runs = [_mc_config(v, m) for m in v["samples_list"]]
    out = v["out_dir"]
    os.makedirs(out, exist_ok=True)
    all_stats = []
    any_failures = False
    for cfg in runs:
        st = uq.run_experiment(cfg, jobs=v["jobs"])
        all_stats.append(st)
        _print_stats(st)
        any_failures = any_failures or any(st.failed_counts[m] for m in cfg.methods)
    uq.write_stats_csv(os.path.join(out, "stats.csv"), all_stats)
    uq.write_samples_csv(os.path.join(out, "samples.csv"),
                         [rep for st in all_stats for rep in st.reports])
    last = all_stats[-1]
    for method, fld in last.mean_fields.items():
        uq.write_field_csv(os.path.join(out, f"field_{method}.csv"), fld)
    uq.write_field_csv(os.path.join(out, "field_deterministic.csv"),
                       last.deterministic_field)
    return EXIT_NOT_CONVERGED if any_failures else EXIT_OK


def cmd_verify(v: dict, include_convergence: bool, mutate: str | None) -> int:
    results = checks.run_verification(include_convergence=include_convergence,
                                      mutate=mutate)
    for res in results:
        print(res.line())
    print(checks.diagnostics_line(_mc_config(v, 1)))
    return EXIT_OK if all(r.passed for r in results) else EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        merged = _merge_config(args)
        merged.setdefault("init", DEFAULTS["init"])
        v = _validate(merged)
        # extreme physics overflows into inf and NaN; those fail their reports,
        # with a reason, instead of printing numpy warnings
        with np.errstate(all="ignore"):
            if args.command == "solve":
                v["method"] = args.method
                return cmd_solve(v)
            if args.command == "mc":
                v["sigma_sweep"] = getattr(args, "sigma_sweep", None)
                return cmd_mc(v)
            return cmd_verify(v, getattr(args, "convergence", False),
                              getattr(args, "mutate", None))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except solvers.SingularSystemError as exc:
        print(f"error: the discrete problem is singular (is --mesh-n too small?): {exc}",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

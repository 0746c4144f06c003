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
from contextlib import contextmanager
from math import isfinite

import numpy as np

from . import checks, manufactured, solvers, uq
from .mesh import build_dof_map, build_structured_mesh
from .uq import McConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
# A fresh ``mc --mesh-n 48 --noise-n 12 --samples 1`` on one BLAS thread
# peaks at 210 MB in 4.2 s, and at n=96 at 1.43 GB in 64 s: about 6.8x the
# memory per doubling of n. n=128 then needs about 3.2 GB and n=192 about
# 10 GB, more than a machine with 8 GB of RAM and a 4 GB commit limit holds,
# so a larger --mesh-n is a usage error before anything is allocated.
MAX_MESH_N = 128
# np.empty(M) in uq.run_experiment raises ValueError, not MemoryError, from
# M = 2**60 upward, where its 8*M bytes exceed the largest array size; so a
# larger --samples is a usage error, and a smaller one that does not fit in
# memory ends in the out-of-memory line.
MAX_SAMPLES = 2 ** 60 - 1

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
    "out_dir": ".",
    "init": _MC.mono_init,
    "sample_index": 0,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line diagnostics, exit code 1
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(p: argparse.ArgumentParser) -> None:
    """The flags of every command."""
    p.add_argument("--config", help="JSON file with flag defaults")
    p.add_argument("--nu", type=float, help="kinematic viscosity")
    p.add_argument("--sigma", type=float,
                   help="noise amplitude (per-cell standard deviation)")
    p.add_argument("--mesh-n", dest="mesh_n", type=int, help="FE grid resolution")
    p.add_argument("--noise-n", dest="noise_n", type=int,
                   help="noise cells per axis (must divide --mesh-n)")


def _add_solving(p: argparse.ArgumentParser) -> None:
    """The flags of the commands that solve and write files, solve and mc."""
    _add_common(p)
    p.add_argument("--seed", type=int, help="base seed for all randomness")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.add_argument("--init", choices=uq.INITS,
                   help="monolithic initial guess")


def build_parser() -> _Parser:
    parser = _Parser(prog="snsflow",
                     description="Steady stochastic flow solver and experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="one solve, one sample")
    _add_solving(p_solve)
    p_solve.add_argument("--method", required=True,
                         choices=["deterministic", *uq.METHODS])
    p_solve.add_argument("--sample-index", dest="sample_index", type=int,
                         help="noise substream index")

    p_mc = sub.add_parser("mc", help="Monte Carlo experiment over sample counts")
    _add_solving(p_mc)
    p_mc.add_argument("--jobs", type=int, help="concurrent samples")
    p_mc.add_argument("--methods", help=f"comma list from {','.join(uq.METHODS)}")
    p_mc.add_argument("--samples", help="sample count or comma list, e.g. 50,100,200")
    p_mc.add_argument("--sigma-sweep", dest="sigma_sweep",
                      help="comma list of amplitudes; one run per value at fixed M")

    p_verify = sub.add_parser("verify", help="run the verification battery")
    _add_common(p_verify)
    p_verify.add_argument("--convergence", action="store_true",
                          help="include the refinement study")
    p_verify.add_argument("--mutate", choices=["convection-sign"],
                          help="inject a deliberate defect (sensitivity demo)")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """DEFAULTS, then the ``--config`` keys of the command's flags, then its
    flags; ``given`` is the set of keys that the file or a flag set."""
    merged = dict(DEFAULTS)
    taken = set(DEFAULTS) & set(vars(args))
    given = set()
    cfg_path = args.config
    if cfg_path:
        try:
            with open(cfg_path) as fh:
                file_values = json.load(fh)
        # ValueError covers bad JSON, bad UTF-8 and an int of over 4300 digits
        except (OSError, ValueError) as exc:
            raise UsageError(f"--config: cannot read {cfg_path}: {exc}")
        if not isinstance(file_values, dict):
            raise UsageError(f"--config: {cfg_path} must hold a JSON object")
        unknown = set(file_values) - taken
        if unknown:
            raise UsageError(f"--config: unknown keys for {args.command}: {sorted(unknown)}")
        for key, value in file_values.items():
            if not _config_type_ok(key, value):
                raise UsageError(f"--config: {key} has the wrong type ({value!r})")
            if isinstance(DEFAULTS[key], float):
                try:
                    file_values[key] = float(value)
                except OverflowError:
                    raise UsageError(f"--config: {key} is too large for a float")
        merged.update(file_values)
        given.update(file_values)
    for key in taken:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
            given.add(key)
    merged["given"] = given
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
    if not 1 <= out["mesh_n"] <= MAX_MESH_N:
        raise UsageError(f"--mesh-n must be a positive integer of at most {MAX_MESH_N}")
    if out["noise_n"] is None:
        out["noise_n"] = out["mesh_n"]
    if out["noise_n"] < 1:
        raise UsageError("--noise-n must be a positive integer")
    if out["mesh_n"] % out["noise_n"] != 0:
        raise UsageError("--noise-n must divide --mesh-n (nested grids)")
    if not (isfinite(out["nu"]) and out["nu"] > 0):
        raise UsageError("--nu must be positive and finite")
    # the body force's norm squares the pointwise force, so it overflows from
    # about nu = 2e152; kappa and the diagnostics line divide by it
    if not isfinite(manufactured.forcing_l2_norm(out["nu"])):
        raise UsageError("--nu is too large: the norm of the body force overflows")
    if not (isfinite(out["sigma"]) and out["sigma"] >= 0):
        raise UsageError("--sigma must be finite and non-negative")
    out["sigma"] = abs(out["sigma"])   # -0.0 passes >= 0; written as sigma=0
    if out["jobs"] < 1:
        raise UsageError("--jobs must be >= 1")
    for key in ("seed", "sample_index"):
        if not 0 <= out[key] < 2 ** 64:
            raise UsageError(f"--{key.replace('_', '-')} must lie in [0, 2**64)")
    try:
        out["samples_list"] = [int(s) for s in str(out["samples"]).split(",") if s]
    except ValueError:
        raise UsageError("--samples must be an integer or comma list of integers")
    if not out["samples_list"] or not all(1 <= m <= MAX_SAMPLES for m in out["samples_list"]):
        raise UsageError("--samples must contain positive integers of at most 2**60 - 1")
    if out["init"] not in uq.INITS:   # a --config value skips the parser's choices
        raise UsageError("--init must be deterministic or zero")
    methods = tuple(m.strip() for m in str(out["methods"]).split(",") if m.strip())
    if set(methods) - set(uq.METHODS) or not methods:
        raise UsageError(f"--methods must be a non-empty comma list from {','.join(uq.METHODS)}")
    if len(set(methods)) != len(methods):
        raise UsageError("--methods must not name a method twice")
    out["methods_tuple"] = methods
    return out


def _amplitudes(text) -> list[float]:
    try:
        values = [float(s) for s in str(text).split(",") if s]
    except ValueError:
        values = []
    if not values or not all(isfinite(s) and s >= 0 for s in values):
        raise UsageError("--sigma-sweep must be a comma list of finite non-negative numbers")
    return [abs(s) for s in values]   # -0.0 passes >= 0; written as sigma=0


def _mc_config(v: dict, m: int, sigma: float | None = None) -> McConfig:
    return McConfig(
        M=m,
        base_seed=v["seed"],
        sigma=v["sigma"] if sigma is None else sigma,
        nu=v["nu"],
        mesh_n=v["mesh_n"],
        noise_n=v["noise_n"],
        methods=v["methods_tuple"],
        mono_init=v["init"],
    )


def _print_stats(st: uq.McStats) -> None:
    cfg = st.config
    parts = [f"sigma={cfg.sigma:g}", f"M={cfg.M}",
             f"kappa_mean={st.kappa_mean:.4g}"]
    for method, (eps, rel) in st.errors.items():
        key = {"split": "eps_sh", "modified": "eps_mh"}[method]
        parts += [f"{key}={eps:.6e}", f"{key}_rel={rel:.6e}"]
    parts += [f"failures_{m}={st.failed_counts[m]}" for m in cfg.methods]
    print(" ".join(parts))


@contextmanager
def _out_dir_errors(out: str):
    """Turn an OSError of creating or writing into ``out`` into a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"--out-dir {out}: {exc}") from exc


def _make_out_dir(out: str) -> None:
    with _out_dir_errors(out):
        os.makedirs(out, exist_ok=True)


def cmd_solve(v: dict) -> int:
    cfg = _mc_config(v, 1)
    method = v["method"]
    out = v["out_dir"]
    _make_out_dir(out)
    dofs = build_dof_map(build_structured_mesh(cfg.mesh_n))
    ops, f_load, xi, xi_report = uq.prepare(dofs, cfg.nu)
    reports = [xi_report]
    if method == "deterministic":
        fld = xi
    else:
        loads, _ = uq.noise_loads(cfg, ops, [v["sample_index"]])
        [(fld, rep)] = uq.solve_sample(method, ops, xi, f_load, loads, v["sample_index"],
                                       cfg, xi_report)
        reports.append(rep)

    with _out_dir_errors(out):
        uq.write_field_csv(os.path.join(out, f"field_{method}.csv"), fld)
        uq.write_samples_csv(os.path.join(out, "samples.csv"), reports)

    final = reports[-1]
    print(f"method={method} converged={int(final.converged)} "
          f"iterations={final.iterations} final_residual={final.final_residual:.3e}")
    return EXIT_OK if final.converged else EXIT_NOT_CONVERGED


def cmd_mc(v: dict) -> int:
    if v["sigma_sweep"] is not None:
        if "sigma" in v["given"]:
            raise UsageError("--sigma and --sigma-sweep cannot be combined")
        sweep_sigmas = _amplitudes(v["sigma_sweep"])
        if len(v["samples_list"]) != 1:
            raise UsageError("--samples must be a single count with --sigma-sweep")
        runs = [_mc_config(v, v["samples_list"][0], sigma=s) for s in sweep_sigmas]
    else:
        runs = [_mc_config(v, m) for m in v["samples_list"]]
    out = v["out_dir"]
    _make_out_dir(out)
    all_stats = []
    any_failures = False
    for cfg in runs:
        st = uq.run_experiment(cfg, jobs=v["jobs"])
        all_stats.append(st)
        _print_stats(st)
        any_failures = any_failures or any(st.failed_counts[m] for m in cfg.methods)
    last = all_stats[-1]
    with _out_dir_errors(out):
        uq.write_stats_csv(os.path.join(out, "stats.csv"), all_stats)
        uq.write_samples_csv(os.path.join(out, "samples.csv"),
                             [rep for st in all_stats for rep in st.reports])
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
        # extreme physics overflows into inf and NaN; those fail their reports,
        # with a reason, or a usage check, instead of printing numpy warnings
        with np.errstate(all="ignore"):
            v = _validate(_merge_config(args))
            if args.command == "solve":
                v["method"] = args.method
                return cmd_solve(v)
            if args.command == "mc":
                v["sigma_sweep"] = args.sigma_sweep
                return cmd_mc(v)
            return cmd_verify(v, args.convergence, args.mutate)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except solvers.SingularSystemError as exc:
        print(f"error: the discrete problem is singular (is --mesh-n or --nu too small?): {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory (is --mesh-n or --samples too large?): {exc}",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

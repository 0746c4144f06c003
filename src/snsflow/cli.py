"""Command-line front end: single solves, Monte Carlo runs (over sample counts
or noise amplitudes), and the verification battery.

Flags may be combined with a JSON config file (``--config``); explicit flags
win over file values, file values win over built-in defaults. Each flag has one
check, in its ``FLAGS`` row, for both routes: argparse runs it on every
occurrence of the flag (so ``--mesh-n 0 --mesh-n 4`` is a usage error), and
``_merge_config`` on every config value, even one that a flag overrides; a
config message reads ``--config: <key>: `` and the flag's message. All
randomness flows from ``--seed`` (a fixed constant when omitted, never the wall
clock), standard output is line-oriented ``key=value`` pairs, and every output
file is written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from math import isfinite
from typing import Callable

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
ALL, SOLVING = ("solve", "mc", "verify"), ("solve", "mc")
NUMBER, INTEGER, TEXT = (int, float), (int,), (str,)   # JSON types of a config value


@dataclass(frozen=True, eq=False)
class _Flag:
    """A flag of ``commands`` and its one check, the flag's argparse ``type=``: it
    parses the flag's text or a config value of a type in ``json``, tests it with
    ``ok`` and returns it, or raises an ArgumentTypeError, whose reason argparse prints."""
    name: str
    commands: tuple
    default: object
    json: tuple
    help: str
    parse: Callable = str
    ok: Callable = lambda value: True
    must: str = ""

    def __call__(self, value):
        try:
            parsed = self.parse(value)
            if self.ok(parsed):
                return parsed
        except (ValueError, OverflowError):   # OverflowError: an int too large for a float
            pass
        raise argparse.ArgumentTypeError(f"{self.name} must {self.must}")


def _amplitude(text) -> float:
    return float(text) + 0.0   # -0.0 + 0.0 is 0.0, so -0 is written as sigma=0


# the flags that a --config key may also set; a key is its flag's name with _ for -
FLAGS = {flag.name[2:].replace("-", "_"): flag for flag in [
    _Flag("--nu", ALL, _MC.nu, NUMBER, "kinematic viscosity",
          float, lambda x: isfinite(x) and x > 0, "be positive and finite"),
    _Flag("--sigma", ALL, _MC.sigma, NUMBER, "noise amplitude (per-cell standard deviation)",
          _amplitude, lambda x: isfinite(x) and x >= 0, "be finite and non-negative"),
    _Flag("--mesh-n", ALL, _MC.mesh_n, INTEGER, "FE grid resolution", int,
          lambda n: 1 <= n <= MAX_MESH_N, f"be a positive integer of at most {MAX_MESH_N}"),
    # a null config value, like the default None, takes --mesh-n
    _Flag("--noise-n", ALL, None, (int, type(None)),
          "noise cells per axis (must divide --mesh-n)", int, lambda n: n >= 1,
          "be a positive integer"),
    _Flag("--seed", SOLVING, _MC.base_seed, INTEGER, "base seed for all randomness",
          int, lambda n: 0 <= n < 2 ** 64, "lie in [0, 2**64)"),
    _Flag("--out-dir", SOLVING, ".", TEXT, "output directory"),
    _Flag("--init", SOLVING, "deterministic", TEXT,
          "monolithic initial guess: deterministic or zero",
          str, lambda s: s in uq.INITS, "be deterministic or zero"),
    _Flag("--sample-index", ("solve",), 0, INTEGER, "noise substream index",
          int, lambda n: 0 <= n < 2 ** 64, "lie in [0, 2**64)"),
    _Flag("--jobs", ("mc",), 1, INTEGER, "concurrent samples", int, lambda n: n >= 1, "be >= 1"),
    _Flag("--methods", ("mc",), _MC.methods, TEXT, f"comma list from {','.join(uq.METHODS)}",
          lambda s: tuple(m.strip() for m in s.split(",") if m.strip()),
          lambda ms: ms and set(ms) <= set(uq.METHODS) and len(set(ms)) == len(ms),
          f"be a comma list of distinct methods from {','.join(uq.METHODS)}"),
    _Flag("--samples", ("mc",), [_MC.M], (str, int),
          "sample count or comma list, e.g. 50,100,200",
          lambda s: [int(m) for m in str(s).split(",") if m],
          lambda ms: ms and all(1 <= m <= MAX_SAMPLES for m in ms),
          "be a comma list of positive integers of at most 2**60 - 1"),
]}
DEFAULTS = {key: flag.default for key, flag in FLAGS.items()}
_SIGMA_SWEEP = _Flag("--sigma-sweep", ("mc",), None, (),
                     "comma list of amplitudes; one run per value at fixed M",
                     lambda s: [_amplitude(a) for a in s.split(",") if a],
                     lambda xs: xs and all(isfinite(x) and x >= 0 for x in xs),
                     "be a comma list of finite non-negative numbers")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line diagnostics, exit code 1
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="snsflow",
                     description="Steady stochastic flow solver and experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, text in (("solve", "one solve, one sample"),
                          ("mc", "Monte Carlo experiment over sample counts"),
                          ("verify", "run the verification battery")):
        p = commands[command] = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON file with flag defaults")
        for flag in [*FLAGS.values(), _SIGMA_SWEEP]:
            if command in flag.commands:
                p.add_argument(flag.name, type=flag, help=flag.help)
    commands["solve"].add_argument("--method", required=True,
                                   choices=["deterministic", *uq.METHODS])
    commands["verify"].add_argument("--convergence", action="store_true",
                                    help="include the refinement study")
    commands["verify"].add_argument("--mutate", choices=["convection-sign"],
                                    help="inject a deliberate defect (sensitivity demo)")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """The command's parsed arguments, with DEFAULTS for its flags' keys, then
    the ``--config`` values of those keys, then the flags that were given.
    Each config value passes its flag's check, even one that a flag overrides.
    ``origin`` maps each key that the file or a flag set to the prefix of a
    message about its value: ``--config: <key>: `` or nothing."""
    merged = {**vars(args), **DEFAULTS}
    taken = set(DEFAULTS) & set(vars(args))
    origin = {}
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
            flag, origin[key] = FLAGS[key], f"--config: {key}: "
            try:
                if type(value) not in flag.json:   # so neither a bool nor "4" is an int
                    raise argparse.ArgumentTypeError(
                        f"{flag.name} has the wrong type ({value!r})")
                if value is not None:   # a null --noise-n keeps its default
                    merged[key] = flag(value)
            except argparse.ArgumentTypeError as exc:
                raise UsageError(f"{origin[key]}{exc}")
    for key in taken:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
            origin[key] = ""
    merged["origin"] = origin
    return merged


class UsageError(Exception):
    pass


def _validate(v: dict) -> dict:
    """The checks that join two values, and the one that must run under
    ``main``'s ``np.errstate``; each value passed its flag's check before."""
    origin = v["origin"]
    if v["noise_n"] is None:
        v["noise_n"] = v["mesh_n"]
    if v["mesh_n"] % v["noise_n"] != 0:
        raise UsageError(f"{origin.get('noise_n', '')}--noise-n must divide --mesh-n "
                         "(nested grids)")
    # the body force's norm squares the pointwise force, so it overflows from
    # about nu = 2e152; kappa and the diagnostics line divide by it. Outside
    # np.errstate, as in argparse's type= calls, it would print two warnings.
    if not isfinite(manufactured.forcing_l2_norm(v["nu"])):
        raise UsageError(f"{origin.get('nu', '')}--nu is too large: "
                         "the norm of the body force overflows")
    if v.get("sigma_sweep") is not None:
        if "sigma" in origin:
            raise UsageError(f"{origin['sigma']}--sigma and --sigma-sweep cannot be combined")
        if len(v["samples"]) != 1:
            raise UsageError(f"{origin.get('samples', '')}--samples must be a single count "
                             "with --sigma-sweep")
    return v


def _mc_config(v: dict, m: int, sigma: float | None = None) -> McConfig:
    return McConfig(
        M=m,
        base_seed=v["seed"],
        sigma=v["sigma"] if sigma is None else sigma,
        nu=v["nu"],
        mesh_n=v["mesh_n"],
        noise_n=v["noise_n"],
        methods=v["methods"],
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
    setup = uq.prepare(build_dof_map(build_structured_mesh(v["mesh_n"])), v["nu"], (method,),
                       v["init"])
    reports = [setup.xi_report]
    if method == "deterministic":
        fld = setup.xi
    else:
        loads, _ = uq.noise_loads(cfg, setup.ops, [v["sample_index"]])
        [(fld, rep)] = uq.solve_sample(setup, [method], loads, v["sample_index"])[method]
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
        runs = [_mc_config(v, v["samples"][0], sigma=s) for s in v["sigma_sweep"]]
    else:
        runs = [_mc_config(v, m) for m in v["samples"]]
    out = v["out_dir"]
    _make_out_dir(out)
    # xi and K(xi) depend on neither M nor sigma, so every run shares one set-up
    setup = uq.prepare(build_dof_map(build_structured_mesh(v["mesh_n"])), v["nu"],
                       v["methods"], v["init"])
    all_stats = []
    any_failures = False
    for cfg in runs:
        st = uq.run_experiment(setup, cfg, jobs=v["jobs"])
        all_stats.append(st)
        _print_stats(st)
        any_failures = any_failures or any(st.failed_counts[m] for m in cfg.methods)
    last = all_stats[-1]
    xi, setup = setup.xi, None   # free K(xi): held through the writes, it raised the peak RSS
    with _out_dir_errors(out):
        uq.write_stats_csv(os.path.join(out, "stats.csv"), all_stats)
        uq.write_samples_csv(os.path.join(out, "samples.csv"),
                             [rep for st in all_stats for rep in st.reports])
        for method, fld in last.mean_fields.items():
            uq.write_field_csv(os.path.join(out, f"field_{method}.csv"), fld)
        uq.write_field_csv(os.path.join(out, "field_deterministic.csv"), xi)
    return EXIT_NOT_CONVERGED if any_failures else EXIT_OK


def cmd_verify(v: dict) -> int:
    results = checks.run_verification(include_convergence=v["convergence"],
                                      mutate=v["mutate"])
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
            return {"solve": cmd_solve, "mc": cmd_mc, "verify": cmd_verify}[args.command](v)
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

"""snsflow benchmark: wall time, set-up time and memory of Monte Carlo runs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_n12 --seed 1 --seconds 20 --trace 0

The program is driven through its public entry point, ``snsflow.cli.main``,
in this process, into temporary output directories under ``perfbench/out``.
Imports are not timed. Every call's outputs pass through the correctness gate
in ``gate.py``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count solves, as listed in ``samples.csv``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median time of one ``mc`` call, stats and fields written;
* ``setup_s``: median time of ``solve --method deterministic`` at the
  workload's mesh (mesh, dofs, operators, body load, Newton solve);
* ``peak_rss_mb``: peak resident memory of a fresh process doing one ``mc``
  call of the workload (``fresh_run.py``).

The two times are in seconds at the reference machine speed (see
``CALIBRATION_REF_S``); the wall times as measured are printed on the lines
before the result.

``--trace 1`` alternates untraced and traced ``mc`` calls and reports the
per-layer metrics of ``spans.py`` (medians over the traced calls) together
with ``trace_overhead``, the median ratio of a traced call's wall time to the
untraced call before it, minus 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up is repeated at least SETUP_MIN times, and up to SETUP_MAX times
# while the repeats have taken less than SETUP_SECONDS
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 15, 2.0
MIN_CALLS = 3
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    mesh_n: int
    samples: int
    methods: str
    jobs: int
    nu: float = 0.02
    sigma: float = 1.6
    noise_n: int = 12

    def _common(self, seed: int) -> list[str]:
        return ["--nu", repr(self.nu), "--sigma", repr(self.sigma),
                "--mesh-n", str(self.mesh_n), "--noise-n", str(self.noise_n),
                "--seed", str(seed)]

    def mc_args(self, seed: int, jobs: int | None = None) -> list[str]:
        return ["mc", *self._common(seed), "--samples", str(self.samples),
                "--methods", self.methods, "--jobs", str(jobs or self.jobs)]

    def setup_args(self, seed: int) -> list[str]:
        return ["solve", "--method", "deterministic", *self._common(seed)]

    @property
    def reference_key(self) -> str:
        """Runs that must give the same numbers share a key; jobs is not in it."""
        return f"n{self.mesh_n}-M{self.samples}-{self.methods}"


ALL_METHODS = "monolithic,split,modified"
WORKLOADS = {w.name: w for w in (
    # headline run: factorization, convection assembly and system build share the time
    Workload("mc_n12", mesh_n=12, samples=4, methods=ALL_METHODS, jobs=1),
    # refinement point: factorization and fill dominate; the memory workload
    Workload("mc_n24", mesh_n=24, samples=2, methods=ALL_METHODS, jobs=1),
    # one linear solve per sample on the same operator: noise draws and loads show
    Workload("modified_n12", mesh_n=12, samples=50, methods="modified", jobs=1),
    # the headline run on the thread pool (2 = nproc of the baseline machine)
    Workload("mc_n12_jobs2", mesh_n=12, samples=4, methods=ALL_METHODS, jobs=2),
)}


def metric_units(section: str) -> dict[str, str]:
    """Metric names and units of one section of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _read_outputs(directory: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


# The machine is shared, and its speed changes by up to 2x over spells of
# seconds to minutes, for the program and this kernel alike (NOTES.md, Noise).
# The kernel runs before and after every call, and the call's wall time is
# rescaled by CALIBRATION_REF_S over the mean of the two kernel times.
# CALIBRATION_REF_S is close to the kernel's time between calls on the
# baseline machine at its fastest, so there the rescaled time is about the
# wall time. It is a fixed unit: changing it rescales every recorded time.
CALIBRATION_REF_S = 0.03
CALIBRATION_DOUBLES = 4_000_000


@dataclass
class Timed:
    rc: int
    wall: float        # seconds, as measured
    adjusted: float    # seconds at the reference machine speed
    kernel: float      # mean calibration kernel time around the call
    outputs: dict[str, bytes]


class Runner:
    """Calls ``cli.main`` in this process, timed and bracketed by the kernel."""

    def __init__(self, cli):
        self.cli = cli
        self._kernel_in = np.ones(CALIBRATION_DOUBLES)
        self._kernel_out = np.ones(CALIBRATION_DOUBLES)
        self._kernel_before = min(self.calibration_kernel() for _ in range(3))

    def calibration_kernel(self) -> float:
        """Seconds taken by a fixed interpreter loop plus a memory-bound numpy pass."""
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(200_000):
            acc += i * 0.5
        for _ in range(4):
            np.multiply(self._kernel_in, 1.0000001, out=self._kernel_out)
        return time.perf_counter() - t0

    def call(self, argv: list[str], tracer=None) -> Timed:
        with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
            captured = io.StringIO()
            gc.collect()
            with contextlib.redirect_stdout(captured):
                if tracer is None:
                    t0 = time.perf_counter()
                    rc = self.cli.main(argv + ["--out-dir", out_dir])
                    elapsed = time.perf_counter() - t0
                else:
                    tracer.install()
                    try:
                        t0 = time.perf_counter()
                        with tracer.span("cli.main"):
                            rc = self.cli.main(argv + ["--out-dir", out_dir])
                        elapsed = time.perf_counter() - t0
                    finally:
                        tracer.uninstall()
            outputs = _read_outputs(out_dir)
        kernel_after = self.calibration_kernel()
        kernel = 0.5 * (self._kernel_before + kernel_after)
        self._kernel_before = kernel_after
        return Timed(rc, elapsed, elapsed * CALIBRATION_REF_S / kernel, kernel, outputs)


def fresh_process_run(argv: list[str]) -> tuple[int, float, dict[str, bytes]]:
    """One fresh process running ``argv``: exit code, peak RSS in MB, outputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        proc = subprocess.run(
            [sys.executable, str(HERE / "fresh_run.py"), *argv, "--out-dir", out_dir],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        last = proc.stdout.strip().splitlines()[-1:]
        if not last or not last[0].startswith("VmHWM "):
            raise RuntimeError(f"fresh process exited {proc.returncode}: {proc.stderr[-500:]}")
        return proc.returncode, int(last[0].split()[1]) / 1024.0, _read_outputs(out_dir)


def _keep_going(started: float, seconds: float, durations: list[float]) -> bool:
    """Start another call while the next one is expected to end in time."""
    if len(durations) < MIN_CALLS:
        return True
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten values above it, and its value."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, counts: tuple[int, int]) -> None:
        self.attempted += counts[0]
        self.failed += counts[1]


def _warm_up(wl: Workload, seed: int, runner: Runner, gate, tally: Tally) -> None:
    """One untimed ``mc`` call, at --jobs 1: its values are checked, and every
    timed call, pooled or not, must reproduce its files byte for byte."""
    res = runner.call(wl.mc_args(seed, jobs=1))
    tally.add(gate.check_mc(res.rc, res.outputs))


def _describe(name: str, calls: list[Timed]) -> str:
    walls = [c.wall for c in calls]
    high = high_percentile(walls)
    return (f"{name} runs={len(calls)} median={statistics.median(walls):.4f} "
            + (f"p{high[0]:.0f}={high[1]:.4f} " if high else "(no percentile: < 11 runs) ")
            + f"adjusted median={statistics.median(c.adjusted for c in calls):.4f} "
            + f"kernel median={statistics.median(c.kernel for c in calls):.4f} "
            + "values=" + ",".join(f"{w:.4f}" for w in walls))


def end_to_end(wl: Workload, seed: int, seconds: float, runner: Runner,
               gate, tally: Tally) -> dict[str, float]:
    setup: list[Timed] = []
    while len(setup) < SETUP_MIN or (
            len(setup) < SETUP_MAX and sum(c.wall for c in setup) < SETUP_SECONDS):
        res = runner.call(wl.setup_args(seed))
        tally.add(gate.check_setup(res.rc, res.outputs))
        setup.append(res)

    _warm_up(wl, seed, runner, gate, tally)
    rc, peak_rss_mb, outputs = fresh_process_run(wl.mc_args(seed))
    tally.add(gate.check_mc(rc, outputs))

    calls: list[Timed] = []
    started = time.perf_counter()
    while _keep_going(started, seconds, [c.wall for c in calls]):
        res = runner.call(wl.mc_args(seed))
        tally.add(gate.check_mc(res.rc, res.outputs))
        calls.append(res)

    print(_describe("wall_s", calls))
    print(_describe("setup_s", setup))
    return {"wall_s": statistics.median(c.adjusted for c in calls),
            "setup_s": statistics.median(c.adjusted for c in setup),
            "peak_rss_mb": peak_rss_mb}


def per_layer(wl: Workload, seed: int, seconds: float, runner: Runner,
              gate, tally: Tally) -> dict[str, float]:
    import spans

    res = runner.call(wl.setup_args(seed))  # warm-up
    tally.add(gate.check_setup(res.rc, res.outputs))
    _warm_up(wl, seed, runner, gate, tally)

    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    traces = []
    started = time.perf_counter()
    while _keep_going(started, seconds, [p + t for p, t in zip(plain, traced)]):
        res = runner.call(wl.mc_args(seed))
        tally.add(gate.check_mc(res.rc, res.outputs))
        plain.append(res.wall)

        tracer = spans.Tracer()
        res = runner.call(wl.mc_args(seed), tracer=tracer)
        tally.add(gate.check_mc(res.rc, res.outputs))
        traced.append(res.wall)
        metrics = spans.call_metrics(tracer.spans, wl.samples, wl.jobs)
        metrics["cli.bytes_written"] = sum(len(v) for v in res.outputs.values())
        layers.append(metrics)
        traces.append(tracer.spans)

    for name in spans.COUNT_METRICS:
        values = {m[name] for m in layers}
        if len(values) != 1:
            gate.fail(f"count {name} differs between calls: {sorted(values)}")
    result = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    # each traced call is paired with the untraced call just before it, so that
    # slow spells of the machine cancel out of the ratio
    result["trace_overhead"] = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
    trace_path = OUT / f"trace-{wl.name}-{seed}.jsonl"
    spans.write_spans(str(trace_path), traces)
    print(f"traced runs={len(traced)} untraced runs={len(plain)} "
          f"written to {trace_path.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20240901)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "snsflow" / "cli.py").is_file():
        print(f"error: no snsflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from snsflow import cli

    if Path(cli.__file__).resolve().parent != SRC / "snsflow":
        print(f"error: imported snsflow from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import gate as gate_mod

    wl = WORKLOADS[args.workload]
    seed = args.seed % 2 ** 32   # the program takes seeds below 2**64
    OUT.mkdir(exist_ok=True)
    gate = gate_mod.Gate(wl, seed, gate_mod.load_reference())
    runner = Runner(cli)
    tally = Tally()
    if args.trace:
        values = per_layer(wl, seed, args.seconds, runner, gate, tally)
        units = metric_units("per_layer")
    else:
        values = end_to_end(wl, seed, args.seconds, runner, gate, tally)
        units = metric_units("end_to_end")
    print(f"fail_ratio={tally.failed}/{tally.attempted} solves")
    for message in gate.failures:
        print(f"gate: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": gate.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Correctness gate: every output of every benchmarked call is checked.

Tolerances follow ``tests/test_acceptance.py``: the splitting-equivalence
error ``eps_sh_rel`` must be at most 1e-10. ``eps_mh``, ``kappa_mean``, the
failure counts and a checksum of every mean field must match the values in
``reference.json``, recorded from the unmodified program. For a seed that was
not recorded, ``kappa_mean`` is recomputed from the documented noise
convention, every failure count must be zero (as at every recorded seed) and
``eps_mh`` must lie within a factor of 10 of the recorded range.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
EPS_SH_REL_MAX = 1e-10
# stats.csv prints 7 significant digits; roundoff-level changes to the solvers
# move eps_mh by far less than this
STATS_RTOL = 1e-5
FIELD_RTOL = 1e-9


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _field_sum(data: bytes) -> float:
    values = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
    if not np.all(np.isfinite(values)):
        return math.nan
    return float(values[:, 4].sum())


def summarize(outputs: dict[str, bytes]) -> dict:
    """The checked quantities of one ``mc`` call's output directory."""
    rows = list(csv.DictReader(io.StringIO(outputs["stats.csv"].decode())))
    by_method = {r["method"]: r for r in rows}

    def number(method, key):
        row = by_method.get(method)
        return float(row[key]) if row and row[key] else None

    return {
        "eps_sh_rel": number("split", "epsilon_rel"),
        "eps_mh": number("modified", "epsilon"),
        "kappa_mean": float(rows[0]["kappa_mean"]),
        "failures": {r["method"]: int(r["failures"]) for r in rows},
        "field_sums": {name: _field_sum(data) for name, data in sorted(outputs.items())
                       if name.startswith("field_")},
    }


def solve_counts(outputs: dict[str, bytes]) -> tuple[int, int]:
    """(attempted, non-converged) solves listed in samples.csv."""
    rows = list(csv.DictReader(io.StringIO(outputs["samples.csv"].decode())))
    return len(rows), sum(1 for r in rows if r["converged"] != "1")


def expected_kappa_mean(seed: int, samples: int, sigma: float, noise_n: int,
                        forcing_norm: float) -> float:
    """kappa = ||noise||_L2 / ||F||_L2 from Philox keys (seed << 64) | k."""
    amplitude = sigma / noise_n
    kappas = []
    for k in range(samples):
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) | k))
        zeta = rng.standard_normal((noise_n * noise_n, 2))
        kappas.append(amplitude * math.sqrt(float(np.sum(zeta ** 2))) / forcing_norm)
    return float(np.mean(kappas))


def _close(a, b, rtol) -> bool:
    return a is not None and b is not None and abs(a - b) <= rtol * abs(b)


class Gate:
    """Collects failed checks for one benchmark run of one workload."""

    def __init__(self, workload, seed: int, reference: dict):
        self.workload = workload
        self.reference = reference
        runs = reference["runs"].get(workload.reference_key, {})
        self.recorded = runs.get(str(seed))
        self.eps_mh_range = [s["eps_mh"] for s in runs.values() if s["eps_mh"] is not None]
        self.failures: list[str] = []
        self.first_mc: dict[str, bytes] | None = None
        self.deterministic_field: bytes | None = None
        self.kappa_mean = expected_kappa_mean(
            seed, workload.samples, workload.sigma, workload.noise_n,
            reference["forcing_l2_norm"])

    @property
    def correct(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        if message not in self.failures:
            self.failures.append(message)

    def check_setup(self, rc: int, outputs: dict[str, bytes]) -> tuple[int, int]:
        """``solve --method deterministic``: converged, same field every time."""
        if rc != 0:
            self.fail(f"deterministic solve exited {rc}")
        field = outputs.get("field_deterministic.csv")
        if field is None or "samples.csv" not in outputs:
            self.fail("deterministic solve wrote no field or samples.csv")
            return 1, 1
        if self.deterministic_field is None:
            self.deterministic_field = field
            want = self.reference["deterministic_field_sum"][str(self.workload.mesh_n)]
            if not _close(_field_sum(field), want, FIELD_RTOL):
                self.fail("deterministic field differs from the recorded one")
        elif field != self.deterministic_field:
            self.fail("deterministic field differs between repeated solves")
        return solve_counts(outputs)

    def check_mc(self, rc: int, outputs: dict[str, bytes]) -> tuple[int, int]:
        """One ``mc`` call; returns (attempted, non-converged) solves.

        The first call's values are checked; every later call, at any
        ``--jobs``, must reproduce its files byte for byte.
        """
        wl = self.workload
        expected = {"stats.csv", "samples.csv", "field_deterministic.csv"}
        expected |= {f"field_{m}.csv" for m in wl.methods.split(",")}
        missing = expected - set(outputs)
        if missing:
            self.fail(f"mc wrote no {sorted(missing)}")
            return 1, 1
        attempted, failed = solve_counts(outputs)
        if attempted != 1 + wl.samples * len(wl.methods.split(",")):
            self.fail(f"samples.csv lists {attempted} solves")
        if rc != (2 if failed else 0):
            self.fail(f"mc exited {rc} with {failed} failed solves")

        if self.first_mc is None:
            self.first_mc = outputs
            self._check_values(summarize(outputs))
        elif outputs != self.first_mc:
            changed = sorted(n for n in outputs if outputs[n] != self.first_mc.get(n))
            self.fail(f"outputs differ from the first call at the same seed: {changed}")
        if (self.deterministic_field is not None
                and outputs["field_deterministic.csv"] != self.deterministic_field):
            self.fail("mc deterministic field differs from `solve --method deterministic`")
        return attempted, failed

    def _check_values(self, got: dict) -> None:
        methods = self.workload.methods.split(",")
        if "split" in methods and "monolithic" in methods:
            if got["eps_sh_rel"] is None or not got["eps_sh_rel"] <= EPS_SH_REL_MAX:
                self.fail(f"eps_sh_rel {got['eps_sh_rel']} is not <= {EPS_SH_REL_MAX}")
        if not _close(got["kappa_mean"], self.kappa_mean, STATS_RTOL):
            self.fail(f"kappa_mean {got['kappa_mean']} != recomputed {self.kappa_mean}")
        if any(math.isnan(v) for v in got["field_sums"].values()):
            self.fail("a mean field has non-finite values")
        want = self.recorded
        if want is None:
            if any(got["failures"].values()):
                self.fail(f"failed solves {got['failures']} at an unrecorded seed")
            if self.eps_mh_range and got["eps_mh"] is not None:
                lo, hi = min(self.eps_mh_range) / 10, max(self.eps_mh_range) * 10
                if not lo <= got["eps_mh"] <= hi:
                    self.fail(f"eps_mh {got['eps_mh']} outside [{lo}, {hi}]")
            return
        if got["failures"] != want["failures"]:
            self.fail(f"failures {got['failures']} != recorded {want['failures']}")
        if want["eps_mh"] is not None and not _close(got["eps_mh"], want["eps_mh"], STATS_RTOL):
            self.fail(f"eps_mh {got['eps_mh']} != recorded {want['eps_mh']}")
        if not _close(got["kappa_mean"], want["kappa_mean"], STATS_RTOL):
            self.fail(f"kappa_mean {got['kappa_mean']} != recorded {want['kappa_mean']}")
        if set(got["field_sums"]) != set(want["field_sums"]) or not all(
                _close(got["field_sums"][n], v, FIELD_RTOL)
                for n, v in want["field_sums"].items()):
            self.fail("mean fields differ from the recorded ones")

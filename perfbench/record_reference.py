"""Record the values the correctness gate compares against into reference.json.

Run from the root of a checkout whose results are known to be right:

    python3 perfbench/record_reference.py [--seeds 0-99]

For every distinct workload configuration (``--jobs`` aside) and every seed it
stores the summary ``gate.summarize`` takes from the ``mc`` outputs; it also
stores the deterministic field checksum per mesh and the forcing norm.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

DEFAULT_SEED = 20240901


def _seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-99", help="e.g. 0-99 or 1,5,9")
    args = parser.parse_args()
    seeds = sorted(set(_seed_list(args.seeds)) | {DEFAULT_SEED})

    sys.path.insert(0, str(run.SRC))
    from snsflow import cli, manufactured

    import gate

    run.OUT.mkdir(exist_ok=True)
    runner = run.Runner(cli)
    reference = {"forcing_l2_norm": manufactured.forcing_l2_norm(0.02),
                 "deterministic_field_sum": {}, "runs": {}}
    for wl in run.WORKLOADS.values():
        key = str(wl.mesh_n)
        if key not in reference["deterministic_field_sum"]:
            res = runner.call(wl.setup_args(DEFAULT_SEED))
            if res.rc != 0:
                raise SystemExit(f"deterministic solve at n={wl.mesh_n} exited {res.rc}")
            reference["deterministic_field_sum"][key] = gate._field_sum(
                res.outputs["field_deterministic.csv"])
        if wl.reference_key in reference["runs"]:
            continue
        runs = reference["runs"][wl.reference_key] = {}
        for seed in seeds:
            res = runner.call(wl.mc_args(seed, jobs=1))
            runs[str(seed)] = summary = gate.summarize(res.outputs)
            print(f"{wl.reference_key} seed={seed} rc={res.rc} {res.wall:.2f}s "
                  f"eps_mh={summary['eps_mh']} failures={summary['failures']}", flush=True)
    with open(gate.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Record one checkout's benchmark numbers in BENCH_<label>.json.

    python3 tools/bench_json.py --label LABEL [--root CHECKOUT] [--seconds S] [--workload W ...]

For each workload that the checkout's BENCHMARK.json declares (or each
--workload given), run the checkout's bench/run.py on seed 1 twice: with
--trace 0 for the end-to-end metrics (latency median and p90, throughput,
fail rate, set-up time, peak RSS) and with --trace 1 for the layer
metrics.  Write both, with the Python version and the core count, to
BENCH_<label>.json in the current directory.  The label is by convention
the number of the change the checkout ends with.

Compare two such files only when they were measured in one session on one
machine: the host's speed drifts between sessions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

SEED = 1


def run_bench(root: Path, workload: str, seconds: float, trace: int) -> dict:
    """The last line of bench/run.py: {"correct", "attempted", "failed", "metrics"}."""
    proc = subprocess.run([sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)

    root = args.root.resolve()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    out = {"label": args.label, "python": platform.python_version(),
           "cores": os.cpu_count(), "seed": SEED, "seconds": seconds, "workloads": {}}
    for w in workloads:
        plain, traced = (run_bench(root, w, seconds, trace) for trace in (0, 1))
        out["workloads"][w] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "end_to_end": plain["metrics"],
            "layers": traced["metrics"],
        }
        print(f"{w}: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in plain["metrics"].items()),
              file=sys.stderr)
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

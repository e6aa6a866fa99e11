"""homopot benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the program is imported from the
checkout's src/ by a separate measured process (bench/worker.py), so the
sympy checks here never share its memory or set-up time.  Steps:

1. make the workload's inputs from the seed (bench/inputs.py);
2. time set-up (interpreter start to first operation) in SETUP_PROBES
   fresh processes plus the measured one, and report the median;
3. run whole passes over the inputs for about S seconds, closed loop;
4. check every output independently (bench/oracle.py);
5. print the failures by input and cause, the input shares, and as the
   last line {"correct", "attempted", "failed", "metrics"}: end-to-end
   metrics with --trace 0, the layer profile of a traced run with
   --trace 1.

Details (records, failures, spans) go to .bench_out/ in the checkout.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

WORKLOADS = ("analyze-mix", "analyze-bigcoef", "obstructions", "batch-dir")
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150
UNITS = {"latency_p50_ms": "ms", "latency_p90_ms": "ms", "throughput_per_s": "1/s",
         "fail_rate": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

# Inputs whose failure is a known defect of the program, with its cause.
# Their failures are counted in `failed` and `fail_rate` like any other,
# but do not make the run `correct: false`; any other failure does.
KNOWN_DEFECTS = {
    "named-gaussian-hang": "deadline overrun",
    "named-tiny-lambda": "direction (0, 1): lambda = 0",
}


def worker_cmd(root: Path, workload: str, mode: str, *extra) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--root", str(root),
            "--workload", workload, "--mode", mode, *extra]


# One caller, one thread: OpenBLAS would otherwise start a thread per
# core whose busy-waiting after each small matrix call (orbit and VE
# integration) competes with the caller on a 2-core machine.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def time_setup(root: Path, workload: str) -> float:
    t0 = time.monotonic()
    proc = subprocess.run(worker_cmd(root, workload, "setup"), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S, check=True, env=WORKER_ENV)
    return json.loads(proc.stdout.splitlines()[-1])["ready"] - t0


def measure(root: Path, workload: str, payload: dict, seconds: float, spans) -> tuple:
    extra = ["--seconds", str(seconds)]
    if spans is not None:
        extra += ["--spans", str(spans)]
    t0 = time.monotonic()
    proc = subprocess.run(worker_cmd(root, workload, "run", *extra),
                          input=json.dumps(payload), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, check=True, env=WORKER_ENV)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result, result["ready"] - t0


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(result: dict, workload: str, attempted: int, failed: int, setups) -> dict:
    """Latencies are each operation's median over the run's passes, so a
    transient slowdown of the machine moves them less; throughput is the
    median of the passes' operations per second of timed wall time."""
    if workload == "batch-dir":
        per_op = result["file_latencies"].values()
    else:
        per_op = zip(*result["pass_latencies"])
    latencies = [statistics.median(v) for v in per_op]
    above = sum(1 for v in latencies if v > p90(latencies))
    if above < 10:
        raise RuntimeError(f"only {above} samples above p90; too few operations")
    rates = [n / wall for n, wall in zip(result["pass_ops"], result["pass_walls"])]
    passes = len(rates)
    values = {
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": p90(latencies) * 1000,
        "throughput_per_s": statistics.median(rates),
        # Jeffreys estimate over one pass (outcomes repeat exactly from
        # pass to pass): never 0, so a relative bound applies to it
        "fail_rate": (failed / passes + 0.5) / (attempted / passes + 1),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}


def layer_profile(result: dict) -> dict:
    return {name: {"value": v, "unit": _layer_unit(name)}
            for name, v in result["trace"]["metrics"].items()}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("share", "overlap")):
        return "ratio"
    return "count"


def check_analyze(items, records, deadline, key):
    import oracle
    failures, exact_dir = {}, 0
    for it in items:
        try:
            exp = oracle.Expectation(it) if it["expect"] == "report" else None
            exact_dir += bool(exp and exp.has_exact_direction)
            problems = oracle.check_item(it, records.get(key[it["name"]]), exp, deadline)
        except Exception as exc:  # an input the checks cannot handle fails visibly
            problems = [f"check could not run: {type(exc).__name__}: {exc}"]
        if problems:
            failures[it["name"]] = problems
    return failures, exact_dir / len(items)


def check_tasks(tasks, records):
    import oracle
    failures = {}
    for t in tasks:
        problems = oracle.check_task(t, records.get(t["name"]))
        if problems:
            failures[t["name"]] = problems
    return failures


def write_batch_dir(directory: Path, items: list):
    directory.mkdir(parents=True)
    for it in items:
        if "json" in it:
            it["file"] = it["name"] + ".json"
            (directory / it["file"]).write_text(json.dumps(it["json"]))
        else:
            it["file"] = it["name"] + ".pot"
            (directory / it["file"]).write_text(it["text"] + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    for needed in (root / "src" / "homopot" / "__init__.py",
                   root / "tests" / "data" / "golden_summary.csv"):
        if not needed.exists():
            print(f"error: {needed.relative_to(root)} not found; run from a "
                  "homopot checkout", file=sys.stderr)
            return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    import worker
    if args.workload == "obstructions":
        tasks = inputs.obstruction_tasks(args.seed)
        payload = {"tasks": tasks}
        shares = inputs.shares(tasks, keys=("class",))
        deadline = worker.TASK_DEADLINE_S
    else:
        items = inputs.analyze_inputs(args.workload, args.seed, root)
        payload = {"items": items}
        shares = inputs.shares(items)
        deadline = worker.ANALYZE_DEADLINE_S
    batch_dir = None
    if args.workload == "batch-dir":
        batch_dir = out_dir / f"batch-{args.seed}-{os.getpid()}"
        shutil.rmtree(batch_dir, ignore_errors=True)
        write_batch_dir(batch_dir, items)
        payload["directory"] = str(batch_dir)
        deadline = worker.BATCH_DEADLINE_S

    try:
        setups = [time_setup(root, args.workload) for _ in range(SETUP_PROBES)]
        spans = out_dir / f"{tag}.spans.jsonl" if args.trace else None
        result, setup = measure(root, args.workload, payload, args.seconds, spans)
        setups.append(setup)
    except subprocess.CalledProcessError as exc:
        print(f"error: the measured process failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    finally:
        if batch_dir is not None:
            shutil.rmtree(batch_dir, ignore_errors=True)

    records = result["records"]
    n_ops = sum(result["pass_ops"])
    if args.workload == "obstructions":
        failures = check_tasks(tasks, records)
        fail_ops = sum(records[name]["n"] for name in failures)
    else:
        key = {it["name"]: it.get("file", it["name"]) for it in items}
        failures, shares["exact_direction"] = check_analyze(items, records, deadline, key)
        fail_ops = sum(records.get(key[name], {"n": 1})["n"] for name in failures)
        if "batch-call" in records:
            failures["batch-call"] = [records["batch-call"].get(
                "exception_detail", "batch call failed or overran its deadline")]
    unexpected = {name: probs for name, probs in failures.items()
                  if not (name in KNOWN_DEFECTS
                          and all(KNOWN_DEFECTS[name] in p for p in probs))}

    metrics = (layer_profile(result) if args.trace
               else end_to_end(result, args.workload, n_ops, fail_ops, setups))
    passes = len(result["pass_walls"])
    print(f"# {args.workload} seed {args.seed}: {len(payload.get('items', payload.get('tasks')))} "
          f"inputs, {passes} passes, {n_ops} operations, "
          f"{sum(result['pass_walls']):.3f} s timed")
    print("# shares " + json.dumps(shares, sort_keys=True))
    for name, problems in sorted(failures.items()):
        known = "known defect" if name not in unexpected else "UNEXPECTED"
        for p in problems:
            print(f"# FAIL [{known}] {name}: {p}")
    if args.workload != "batch-dir":
        names = [it["name"] for it in payload.get("items", payload.get("tasks"))]
        per_op = [statistics.median(v) for v in zip(*result["pass_latencies"])]
        named = {n: round(t * 1000, 3) for n, t in zip(names, per_op)
                 if n.startswith(("baseline-", "named-", "ve-radial-"))}
        print("# named inputs, median ms: " + json.dumps(named, sort_keys=True))
    if args.trace:
        tr = result["trace"]
        m = tr["metrics"]
        print("# self time per layer and traced pass (s): "
              + json.dumps({k: round(v, 6) for k, v in tr["self_s"].items()}))
        print(f"# trace: sum of self times {m['trace.self_sum_s']:.4f} s, untraced pass "
              f"{m['trace.untraced_wall_s']:.4f} s, traced pass {m['trace.traced_wall_s']:.4f} s, "
              f"overhead {m['trace.overhead_s']:+.4f} s")
    details = {"workload": args.workload, "seed": args.seed, "shares": shares,
               "failures": failures, "setups_s": setups, "metrics": metrics,
               "records": records, "pass_walls": result["pass_walls"]}
    (out_dir / f"{tag}.json").write_text(json.dumps(details, indent=1, sort_keys=True))
    print(json.dumps({"correct": not unexpected, "attempted": n_ops,
                      "failed": fail_ops, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

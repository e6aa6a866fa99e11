"""The measured process: imports homopot from the checkout and runs one
workload as a closed loop (one caller, each call waiting for the last).

    python3 bench/worker.py --root ROOT --workload W --mode setup
    python3 bench/worker.py --root ROOT --workload W --mode run \
        --seconds S [--spans FILE] < inputs.json

`setup` imports and warms up, then prints the monotonic time at which a
first operation could start.  `run` reads the inputs on stdin, runs whole
passes over them until the time is used, and prints one JSON line with
latencies, per-input outcomes and (with --spans) the layer profile.

This process never imports sympy or the checks, so its peak RSS and
set-up time are the program's own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

ANALYZE_DEADLINE_S = 2.0
TASK_DEADLINE_S = 10.0
BATCH_DEADLINE_S = 120.0


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so no `except Exception` eats it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def call_with_deadline(seconds: float, fn, *args):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def load_homopot(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import homopot
    if Path(homopot.__file__).resolve().parent.parent != src:
        raise ImportError(f"homopot imported from {homopot.__file__}, not {src}")
    return homopot


def warm_up(hp, workload: str):
    hp.analyze("q1^2*q2")
    if workload == "obstructions":
        from homopot import orbit
        orbit.load_scenarios()
        hp.period_quadrature(hp.LoopSpec(1), Fraction(-1, 3))


# -- report summaries (outside the timed region) ----------------------------------


def _scalar(v):
    from homopot.scalars import GaussianRational
    if isinstance(v, GaussianRational):
        return {"re": str(v.re), "im": str(v.im)}
    z = complex(v)
    return [z.real, z.imag]


def summarize(rep) -> dict:
    points = []
    for p, pv in zip(rep.darboux.points, rep.point_verdicts):
        lam = pv.lam
        points.append({
            "c": [_scalar(p.c[0]), _scalar(p.c[1])],
            "exact": p.exact, "multiple": p.multiple,
            "status": pv.status, "reason": pv.reason, "lam_exact": pv.lam_exact,
            "lam": None if lam is None else str(lam) if pv.lam_exact else float(lam),
        })
    return {"verdict": rep.verdict, "kind": rep.potential.kind,
            "degree": rep.potential.degree, "continuum": rep.darboux.continuum,
            "n_points": rep.n_points, "n_multiple": rep.n_multiple, "points": points}


def fingerprint(rep) -> tuple:
    return (rep.verdict, rep.n_points,
            tuple((pv.status, str(pv.lam)) for pv in rep.point_verdicts))


class Record:
    """Outcome counts of one input over all its runs in this process."""

    def __init__(self):
        self.data = {"n": 0, "report": 0, "potential_error": 0, "deadline": 0,
                     "exception": 0, "mismatch": 0}
        self.first = None

    def add(self, kind: str, detail=None):
        self.data["n"] += 1
        self.data[kind] += 1
        if detail is not None and f"{kind}_detail" not in self.data:
            self.data[f"{kind}_detail"] = detail

    def add_report(self, rep):
        """Summarize the first report; count later ones that differ."""
        self.add("report")
        fp = fingerprint(rep)
        if self.first is None:
            self.first = fp
            self.data["summary"] = summarize(rep)
        elif fp != self.first:
            self.data["mismatch"] += 1


# -- workloads ----------------------------------------------------------------------


class AnalyzeWorkload:
    """One op = one hp.analyze call on one input."""

    def __init__(self, hp, items):
        self.hp = hp
        self.items = items
        self.records = {it["name"]: Record() for it in items}
        from homopot.potential import potential_from_json
        self._from_json = potential_from_json

    def ops(self):
        for it in self.items:
            yield it["name"], self._runner(it)

    def _runner(self, it):
        hp, from_json = self.hp, self._from_json
        if "json" in it:
            obj = it["json"]
            return lambda: hp.analyze(from_json(obj))
        text = it["text"]
        return lambda: hp.analyze(text)

    def deadline(self) -> float:
        return ANALYZE_DEADLINE_S

    def observe(self, name, result, error):
        rec = self.records[name]
        if error is not None:
            _record_error(self.hp, rec, error)
            return
        rec.add_report(result)

    def finish(self):
        planted_verdicts(self.hp, self.items, self.records, lambda it: it["name"])

    def results(self) -> dict:
        return {name: rec.data for name, rec in self.records.items()}


def planted_verdicts(hp, items, records, key):
    """admissible(k, lambda) for each planted point, computed after timing."""
    for it in items:
        planted = it.get("planted")
        rec = records.get(key(it))
        if planted and rec is not None and "summary" in rec.data:
            k = rec.data["summary"]["degree"]
            rec.data["planted_admissible"] = hp.admissible(
                k, Fraction(planted["lambda"])).admissible


def _record_error(hp, rec: Record, error):
    if isinstance(error, DeadlineExceeded):
        rec.add("deadline")
    elif isinstance(error, hp.PotentialError):
        rec.add("potential_error", f"{type(error).__name__}: {error}")
    else:
        rec.add("exception", f"{type(error).__name__}: {error}")


class BatchWorkload:
    """One op = one hp.batch call over the directory; files are counted."""

    def __init__(self, hp, directory, items):
        self.hp = hp
        self.directory = directory
        self.items = items
        self.records = {}
        self.file_latencies = {}     # file -> elapsed_seconds per pass
        self.files = 0

    def ops(self):
        yield "batch", lambda: self.hp.batch(self.directory)

    def deadline(self) -> float:
        return BATCH_DEADLINE_S

    def observe(self, name, result, error):
        if error is not None:
            rec = self.records.setdefault("batch-call", Record())
            _record_error(self.hp, rec, error)
            return
        self.files += len(result.reports) + len(result.errors)
        for fname, rep in result.reports:
            self.file_latencies.setdefault(fname, []).append(rep.elapsed_seconds)
            self.records.setdefault(fname, Record()).add_report(rep)
        for fname, message in result.errors:
            self.records.setdefault(fname, Record()).add("potential_error", message)

    def finish(self):
        planted_verdicts(self.hp, self.items, self.records, lambda it: it["file"])

    def results(self) -> dict:
        return {name: rec.data for name, rec in self.records.items()}


class ObstructionWorkload:
    """One op = one task: a ve-build, a period pair, a table sweep or an
    orbit scenario.  Each task's checks run once, after its first run."""

    def __init__(self, hp, tasks):
        self.hp = hp
        self.tasks = tasks
        self.records = {t["name"]: Record() for t in tasks}
        from homopot import orbit
        from homopot import morales
        self.orbit = orbit
        self.morales = morales
        self.scenarios = orbit.load_scenarios()

    def deadline(self) -> float:
        return TASK_DEADLINE_S

    def ops(self):
        for t in self.tasks:
            yield t["name"], getattr(self, "_" + t["class"].replace("-", "_"))(t)

    def _ve_build(self, t):
        hp = self.hp
        from homopot.scalars import GaussianRational

        def run():
            V = hp.parse_potential(t["text"])
            dset = hp.find_darboux_points(V)
            points = [p for p in dset.points if not p.isotropic]
            if t["normalization"] == "exact":
                # the planted point (1, 0); other exact points may need an
                # irrational rotation
                point = next(p for p in points
                             if p.exact and complex(p.c[0]) == 1 and complex(p.c[1]) == 0)
            else:
                point = points[0]
            Vn, c = hp.normalize(V, point)
            jet = hp.jet_at(Vn, c, t["level"])
            lam = point.spectrum[1]
            if isinstance(lam, GaussianRational) and lam.is_real():
                lam = lam.re
            else:
                lam = hp.reconstruct_rational(complex(lam).real, 10**6)
            system = hp.build_higher_ve(jet if jet.exact else None, t["level"],
                                        V.degree, lam=lam)
            return system, system.to_json(), jet.exact
        return run

    def _period(self, t):
        hp = self.hp
        alpha, j = Fraction(t["alpha"]), t["j"]

        def run():
            return (hp.period_closed_form(alpha, j),
                    hp.period_quadrature(hp.LoopSpec(j), alpha, 1e-10))
        return run

    def _table(self, t):
        hp, morales = self.hp, self.morales
        k, bound = t["k"], Fraction(t["bound"])
        lams = [Fraction(x) for x in t["lambdas"]]

        def run():
            verdicts = [hp.admissible(k, lam) for lam in lams]
            return verdicts, morales.admissible_values_at_most(k, bound)
        return run

    def _scenario(self, t):
        cfg = self.scenarios[t["index"]]
        return lambda: self.orbit.run_scenario(cfg)

    def observe(self, name, result, error):
        rec = self.records[name]
        if error is not None:
            _record_error(self.hp, rec, error)
            return
        rec.add("report")
        if rec.first is None:
            rec.first = True
            task = next(t for t in self.tasks if t["name"] == name)
            rec.data["problems"] = getattr(self, "_check_" + task["class"].replace("-", "_"))(
                task, result)

    def _check_ve_build(self, t, result):
        system, payload, exact = result
        problems = []
        if system.block_triangular_violations():
            problems.append("block_triangular_violations() is not empty")
        if system.dim != comb(t["level"] + 4, 4) - 1:
            problems.append(f"dimension {system.dim} != C(l+4,4)-1")
        if len(payload["entries"]) < len(system.transitions):
            problems.append("to_json lost transitions")
        if exact != (t["normalization"] == "exact"):
            problems.append(f"normalization exact={exact}, expected {t['normalization']}")
        return problems

    def _check_period(self, t, result):
        closed, quad = result
        diff = abs(closed.value - quad.value)
        # the quadrature's own error estimate plus its requested tolerance
        if diff > quad.error_bound + 1e-10:
            return [f"|closed - quadrature| = {diff:.3e} > error bound "
                    f"{quad.error_bound:.3e} + 1e-10"]
        return []

    def _check_table(self, t, result):
        verdicts, at_most = result
        k, bound = t["k"], Fraction(t["bound"])
        problems = []
        for v in verdicts:
            if v.admissible and v.lam <= bound and v.lam not in at_most:
                problems.append(f"admissible lambda {v.lam} missing from values <= {bound}")
            if v.admissible and v.witness is not None:
                row = next(r for r in self.morales.table_rows(k) if r.row_id == v.witness[0])
                if not row.all_c and row.value(v.witness[1]) != v.lam:
                    problems.append(f"witness {v.witness} does not give {v.lam}")
        for lam in at_most:
            if lam > bound or not self.hp.admissible(k, lam).admissible:
                problems.append(f"listed value {lam} is not admissible below {bound}")
        return problems

    def _check_scenario(self, t, res):
        problems = []
        limits = {"max_drift": 1e-9, "time_change_defect": 1e-9,
                  "pk_deviation": 1e-6, "ve_residual": 1e-7}
        for key, limit in limits.items():
            if key in res and not res[key] < limit:
                problems.append(f"{key} = {res[key]:.3e} not below {limit}")
        return problems

    def finish(self):
        pass

    def results(self) -> dict:
        return {name: rec.data for name, rec in self.records.items()}


# -- the timed loop -------------------------------------------------------------------


def one_pass(work, tracer=None):
    """Run every op once; returns (latencies, timed wall seconds)."""
    latencies = []
    wall = 0.0
    limit = work.deadline()
    for name, fn in work.ops():
        if tracer is not None:
            tracer.begin_op()
            target = (lambda fn=fn: tracer.span("bench.op", fn))
        else:
            target = fn
        result = error = None
        t0 = time.perf_counter()
        try:
            result = call_with_deadline(limit, target)
        except (DeadlineExceeded, Exception) as exc:  # recorded as this op's failure
            error = exc
        t1 = time.perf_counter()
        elapsed = limit if isinstance(error, DeadlineExceeded) else t1 - t0
        latencies.append(elapsed)
        wall += t1 - t0
        if tracer is None:
            work.observe(name, result, error)
    return latencies, wall


def run(work, seconds: float, hp, spans_path=None) -> dict:
    """Whole passes while the next round of passes fits in `seconds`
    (at least one round).

    Except for batch-dir, whose thread pool may use every core, pass i is
    pinned to the i-th allowed core in turn.  On a shared host the cores'
    speeds differ and change: a run that the scheduler kept on one core
    read up to 1.8x slower than the next, while alternating gives every
    run the same mix of cores and the per-operation median over passes
    blends them.
    """
    out = {"ready": time.monotonic()}
    latencies, walls, ops = [], [], []
    cores = sorted(os.sched_getaffinity(0))
    pin = len(cores) > 1 and not isinstance(work, BatchWorkload)
    round_size = len(cores) if pin else 1
    start = time.perf_counter()
    while True:
        files_before = getattr(work, "files", 0)
        if pin:
            os.sched_setaffinity(0, {cores[len(walls) % len(cores)]})
        lat, wall = one_pass(work)
        latencies.append(lat)
        walls.append(wall)
        ops.append(work.files - files_before if isinstance(work, BatchWorkload) else len(lat))
        elapsed = time.perf_counter() - start
        if spans_path is not None:
            break       # a traced run needs one untraced pass for the checks
        if len(walls) % round_size == 0 and elapsed * (1 + round_size / len(walls)) > seconds:
            break       # whole rounds over the cores, while the next one fits
    os.sched_setaffinity(0, cores)
    out.update(pass_latencies=latencies, pass_walls=walls, pass_ops=ops)
    if isinstance(work, BatchWorkload):
        out["file_latencies"] = work.file_latencies
    if spans_path is not None:
        out["trace"] = traced_passes(work, hp, seconds, list(walls), spans_path)
    work.finish()
    out["records"] = work.results()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def traced_passes(work, hp, seconds: float, untraced_walls: list, spans_path) -> dict:
    """Alternate traced and untraced passes; profile the traced ones."""
    import spans as tr
    tracer = tr.Tracer(DeadlineExceeded, hp.PotentialError)
    traced_walls = []
    start = time.perf_counter()
    while True:
        tracer.install()
        try:
            _, wall = one_pass(work, tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        if time.perf_counter() - start + wall >= seconds:
            break
        _, wall = one_pass(work)
        untraced_walls.append(wall)
    passes = len(traced_walls)
    tracer.write(spans_path)
    metrics = tr.layer_metrics(tracer, passes)
    untraced = statistics.median(untraced_walls)
    traced = statistics.median(traced_walls)
    selfs = tr.self_times(tracer.spans)
    metrics.update({
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.self_sum_s": sum(selfs.values()) / passes,
    })
    return {"metrics": metrics,
            "self_s": {k: v / passes for k, v in sorted(selfs.items())},
            "busy_s": {k: v / passes for k, v in sorted(tr.busy_times(tracer.spans).items())},
            "spans_file": str(spans_path)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spans", type=Path, default=None,
                    help="trace: profile traced passes and write their spans here")
    args = ap.parse_args(argv)

    payload = json.loads(sys.stdin.read()) if args.mode == "run" else None
    hp = load_homopot(args.root)
    signal.signal(signal.SIGALRM, _on_alarm)
    warm_up(hp, args.workload)
    if args.mode == "setup":
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    if args.workload == "obstructions":
        work = ObstructionWorkload(hp, payload["tasks"])
    elif args.workload == "batch-dir":
        work = BatchWorkload(hp, payload["directory"], payload["items"])
    else:
        work = AnalyzeWorkload(hp, payload["items"])
    result = run(work, args.seconds, hp, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

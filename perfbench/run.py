"""Benchmark of wienercub: three solve workloads, end-to-end metrics, and a
traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload tree_cubic_2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

`--trace 0` reports the end-to-end metrics (setup_s, op_min_s, peak_rss_mb;
op_p50_s and op_tail_s are printed and recorded beside them); `--trace 1`
reports the per-layer metrics of spans.PER_OP plus klv_solver.pool_speedup
and trace.overhead. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
lines before it give the same figures for people, and a full record (with
provenance, samples and failures) goes to perfbench/out/.

Load model: one process, a closed loop, one op at a time. The library is
imported from ./src of the checkout the script sits in, never from an
installed copy.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

perf = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5          # fresh interpreters timed per run, after one warm-up
NAMES = ("converge_gbm", "tree_cubic_2d", "signature_mc")


def tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond): the highest whole percentile,
    by nearest rank, that leaves at least ten samples above it. With ten
    samples or fewer it is the maximum, with none beyond."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, 0
    p = 100 * (n - 10) // n
    rank = max(1, math.ceil(p * n / 100))
    return xs[rank - 1], p, n - rank


def import_library():
    """wienercub from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    import wienercub

    if not os.path.abspath(wienercub.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: wienercub imported from {wienercub.__file__}, not {SRC}")
    return wienercub


def _plain(fn, name):
    return fn


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- set-up time ------------------------------------------------------------------


def setup_probe(name: str, seed: int) -> None:
    """Child mode: time `import wienercub` plus building the workload."""
    t0 = perf()
    wc = import_library()
    from workloads import WORKLOADS

    work = tempfile.mkdtemp(dir=OUT)
    try:
        WORKLOADS[name].setup(wc, seed, work, _plain)
        elapsed = perf() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(repr(elapsed))


def measure_setup(name: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


# -- the op loop --------------------------------------------------------------------


class Ops:
    """Runs ops, checks each, and counts attempts and failures."""

    def __init__(self, wl, wc, ref):
        self.wl, self.wc, self.ref = wl, wc, ref
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.last = None

    def run(self, fn, state) -> float | None:
        """One op; its seconds, or None when it raised."""
        self.attempted += 1
        t0 = perf()
        try:
            value = fn(self.wc, state)
        except Exception:  # an op that raises is a failed op, not a crash
            self._fail([traceback.format_exc(limit=3)])
            return None
        dt = perf() - t0
        fails = self.wl.check(state, self.ref, value)
        if self.first is None:
            self.first = value
        elif value != self.first:
            fails.append("value differs from the run's first op on the same inputs")
        if fails:
            self._fail(fails)
        self.last = value
        return dt

    def _fail(self, fails):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.extend(fails)

    def loop(self, fn, state, seconds: float, before=None) -> list[float]:
        samples: list[float] = []
        end = perf() + seconds
        while perf() < end:
            if before is not None:
                before(len(samples))
            dt = self.run(fn, state)
            if dt is not None:
                samples.append(dt)
        return samples


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    if not traced:
        measure_setup(name, seed)       # untimed: fills the bytecode cache
    setup_times = []
    wc = import_library()
    import numpy
    import scipy

    from spans import LAYERS, PER_OP, Tracer, op_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    work = tempfile.mkdtemp(dir=OUT)
    record = {"workload": name, "why": wl.why}
    try:
        state = wl.setup(wc, seed, work, _plain)
        ref = wl.oracle(wc, state)
        ops = Ops(wl, wc, ref)
        ops.run(wl.op, state)           # warm-up: caches and lazy imports
        lines = []
        if not traced:
            # the set-up probes are spread over the run, so that their median
            # spans the host's fast and slow spells as the op samples do
            samples = []
            for _ in range(SETUP_PROBES):
                samples += ops.loop(wl.op, state, seconds / SETUP_PROBES)
                setup_times.append(measure_setup(name, seed))
            if not samples:
                raise SystemExit("error: every op raised:\n" + "\n".join(ops.failures))
            value, pct, beyond = tail(samples)
            metrics = {
                "setup_s": _metric(statistics.median(setup_times), "s"),
                # the op's cost when nothing else on the host slows it: an op
                # cannot run faster than its work, only slower (see NOTES.md)
                "op_min_s": _metric(min(samples), "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            p50 = statistics.median(samples)
            record.update(setup_samples=setup_times, op_samples=samples,
                          op_p50_s=p50, op_tail_s=value, tail_percentile=pct,
                          tail_beyond=beyond)
            timed = len(samples)
            # recorded beside the gated metrics; their run-to-run spread on a
            # shared host is too wide to gate on (see NOTES.md, "Noise")
            lines.append(f"op_p50_s = {p50:.6g} s (median of {timed} ops)")
            lines.append(f"op_tail_s = {value:.6g} s (p{pct}, {beyond} of {timed} "
                         f"ops beyond it)")
        else:
            pool_op = getattr(wl, "pool_op", None)
            phase = seconds / (4 if pool_op else 3)
            plain = ops.loop(wl.op, state, phase)
            pooled = ops.loop(pool_op, state, phase) if pool_op else []
            tracer = Tracer()
            tracer.install(wc)
            try:
                tstate = wl.setup(wc, seed, work, lambda fn, nm: tracer.wrap_callback(
                    fn, nm, timed=True, rows=True))
                root = tracer.wrap_span(wl.op, "bench.op")
                traced_samples = ops.loop(root, tstate, seconds - phase * (
                    2 if pool_op else 1), before=lambda i: setattr(tracer, "op", i))
            finally:
                tracer.uninstall()
            spans = tracer.spans()
            per_op = [m for op, m in op_metrics(spans, tracer.counters()).items()
                      if op >= 0]
            metrics = {
                key: _metric(statistics.median(m[key] for m in per_op), unit)
                for key, unit in PER_OP
            }
            metrics["klv_solver.pool_speedup"] = _metric(
                statistics.median(plain) / statistics.median(pooled) if pooled else 0.0,
                "ratio")
            metrics["trace.overhead"] = _metric(
                statistics.median(traced_samples) / statistics.median(plain), "ratio")
            busy = {layer: metrics[f"layer.{layer}.busy_s"]["value"] for layer in LAYERS}
            total = sum(busy.values()) or 1.0
            split = {layer: busy[layer] / total for layer in LAYERS}
            timed = len(traced_samples)
            record.update(untraced_samples=plain, pool_samples=pooled,
                          traced_samples=traced_samples, layer_split=split,
                          spans_per_op=len(spans) / max(1, len(per_op)))
            lines.append("layer split of busy time: " + ", ".join(
                f"{layer} {share:.1%}" for layer, share in
                sorted(split.items(), key=lambda kv: -kv[1]) if share > 0))
            with open(os.path.join(OUT, f"spans-{name}-s{seed}.jsonl"), "w") as fh:
                for s in spans:
                    fh.write(json.dumps(list(s)) + "\n")
        accuracy = wl.accuracy(state, ref, ops.last) if ops.last is not None else None
        if accuracy is not None:
            lines.append(f"abs_error = {accuracy:.6e} (vs the oracle)")
            record["abs_error"] = accuracy
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines.append(f"fail_ratio = {ops.failed}/{ops.attempted}")
    record.update(
        metrics=metrics,
        attempted=ops.attempted,
        failed=ops.failed,
        failures=ops.failures,
        provenance={
            "commit": git_commit(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "seed": seed,
            "seconds": seconds,
            "trace": int(traced),
            "ops_attempted": ops.attempted,
            "timed_samples": timed,
            "setup_probes": len(setup_times),
        },
    )
    record["lines"] = lines
    return record


def result_line(record) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def print_record(record) -> None:
    print(f"workload {record['workload']}: {record['why']}")
    for key, m in record["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for line in record["lines"]:
        print(f"  {line}")
    for fail in record["failures"][:5]:
        print(f"  FAILED: {fail}")
    print("  provenance " + json.dumps(record["provenance"], sort_keys=True))


def run_all(args) -> dict:
    """Each workload in its own fresh interpreter; one summary at the end."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} failed:\n{proc.stderr}")
        one = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        for key, m in one["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wienercub", "__init__.py")):
        print(f"error: no wienercub sources in {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
        with open(os.path.join(OUT, name), "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True, default=repr)
        print_record(record)
        result = result_line(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""jcpair benchmark: one workload per run, timed end to end or traced per layer.

Run from the root of a jcpair source tree; the package is imported from
``src/``.  ``perfbench/README.md`` describes the workloads, checks and
metrics; ``BENCHMARK.json`` lists the metrics with units and bounds.

    python3 perfbench/run.py --workload dense_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare OLD_RESULTS_DIR NEW_RESULTS_DIR
    python3 perfbench/run.py --workload oracle_validate --write-golden
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
WORK_DIR = ".perfbench-work"
SETUP_PROBES = 15
OP_TIMEOUT_S = 150.0
PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import jcpair; jcpair.load_config(sys.argv[2])"

BUCKETS = ("le4", "le8", "le16", "le48")  # n <= 4, 8, 16, 48 (sector blocks stop at 48)
SUITES = (
    "closed_form_vs_oracle", "eigenstate_residuals", "decoupled_limit",
    "perturbative_limit", "collective_modes", "sector_structure",
    "entanglement_thresholds", "transition_rates", "susceptibility_consistency",
    "eigensolver_properties",
)
PER_LAYER = (
    "config.load_s",
    "spectrum.sweep_s", "spectrum.closed_form_calls", "spectrum.min_gap_s",
    "susceptibility.curve_s", "susceptibility.peak_report_s",
    "susceptibility.peak_report_calls", "susceptibility.symmetry_metric_s",
    "cli.format_s", "cli.write_s", "cli.bytes_written", "cli.self_s",
    *(f"linalg.{metric}.{bucket}"
      for metric in ("eig_s", "eig_calls", "kernel_s", "sweeps", "rotations_computed")
      for bucket in BUCKETS),
    "linalg.check_s", "sectors.build_s", "sectors.build_calls",
    "eigenstates.amplitudes_calls",
    *(f"validate.suite_s.{suite}" for suite in SUITES),
    "validate.self_s", "trace.overhead_s",
)
COUNTS = {name for name in PER_LAYER if not name.endswith("_s") and "_s." not in name}


class Worker:
    """The process under test, driven one request at a time."""

    def __init__(self, src: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(HERE / "worker.py"), str(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.hello = self.receive(60.0)
        if not Path(self.hello["jcpair_file"]).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"jcpair imported from {self.hello['jcpair_file']}, not {src}")

    def request(self, message: dict, timeout: float = OP_TIMEOUT_S) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self.receive(timeout)

    def receive(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError(f"worker gave no answer within {timeout} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Tally:
    """Operation outcomes of one run."""

    def __init__(self) -> None:
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.items_done = 0
        self.problems: list[str] = []

    def record(self, op: wl.Op, wall: float, problems: list) -> None:
        self.attempted += 1
        self.busy += wall
        self.walls[op.kind].append(wall)
        if problems:
            self.failed += 1
            self.problems.extend(f"{op.key}: {problem}" for problem in problems[:3])
        else:
            self.items_done += op.items


def execute(worker: Worker, op: wl.Op, tally: Tally, golden: dict | None) -> float:
    wl.remove_outputs(op)
    reply = worker.request({"cmd": "op", "op": op.request})
    if reply["error"]:
        problems = [reply["error"].strip().splitlines()[-1]]
    elif reply["rc"] != 0:
        problems = [f"exit code {reply['rc']}"]
    else:
        try:
            problems = op.check(reply)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"output check raised {exc!r}"]
        if golden is not None and op.outputs and not problems:
            if golden.get(op.key) != wl.file_hashes(op.outputs):
                problems = ["SHA-256 differs from golden.json"]
    tally.record(op, reply["wall"], problems)
    return reply["wall"]


def setup_probe(src: Path, config: str) -> float:
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-I", "-c", PROBE, str(src), config],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True) as probe:
        # communicate() with a timeout reaps the child by polling in sleeps
        # of up to 50 ms, which quantizes the measurement; without one it
        # blocks in waitpid.  The timer kills a probe that hangs.
        watchdog = threading.Timer(60.0, probe.kill)
        watchdog.start()
        try:
            _, stderr = probe.communicate()
        finally:
            watchdog.cancel()
    elapsed = time.perf_counter() - start
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed (code {probe.returncode}): {stderr.strip()}")
    return elapsed


def tail(walls: dict[str, list[float]]) -> dict:
    """Pooled tail of all operations, each wall divided by its kind's median.

    The ratio is taken at the highest percentile with at least ten samples
    beyond it (the maximum when there are fewer than 11 samples).  Pooling
    lets a workload that cycles through slow kinds of operation reach that
    percentile in one run; with a single kind, ratio times median is the
    plain percentile value.
    """
    ratios = sorted(w / statistics.median(kind) for kind in walls.values() for w in kind)
    at = len(ratios) - 11 if len(ratios) >= 11 else len(ratios) - 1
    return {"ratio": ratios[at], "percentile": 100.0 * (at + 1) / len(ratios),
            "samples": len(ratios), "samples_beyond": len(ratios) - 1 - at}


def timed_run(worker: Worker, workload: wl.Workload, seconds: float, golden,
              probe) -> tuple:
    tally = Tally()
    setup: list[float] = []
    worker.request({"cmd": "pass", "trace": False, "config": workload.config})
    started = time.perf_counter()
    i = 0
    while True:
        # Set-up probes are spread evenly over the run, between operations,
        # so that their median covers the whole run: the machine's speed can
        # drift within seconds.
        if len(setup) < SETUP_PROBES and len(setup) * seconds <= SETUP_PROBES * tally.busy:
            setup.append(probe())
        op = workload.op(i)
        execute(worker, op, tally, golden)
        i += 1
        elapsed = time.perf_counter() - started
        if i % workload.cycle == 0 and (tally.busy >= seconds or elapsed >= 2 * seconds + 20):
            break
    setup.extend(probe() for _ in range(SETUP_PROBES - len(setup)))
    p50 = statistics.fmean(statistics.median(w) for w in tally.walls.values())
    pooled = tail(tally.walls)
    metrics = {
        "op_s_p50": p50,
        "op_s_tail": pooled["ratio"] * p50,
        "setup_s": statistics.median(setup),
        "items_per_s": tally.items_done / tally.busy,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    detail = {
        "walls_s": tally.walls,
        "p50_s": {kind: statistics.median(walls) for kind, walls in tally.walls.items()},
        "tail": pooled,
        "setup_samples_s": setup,
    }
    return tally, metrics, detail


def _bucket(n: int) -> str:
    for limit, bucket in zip((4, 8, 16), BUCKETS):
        if n <= limit:
            return bucket
    return BUCKETS[-1]


def cycle_metrics(span_path: Path) -> list[dict]:
    """Per-layer totals of each traced cycle, from the worker's span file."""
    with open(span_path, encoding="utf-8") as handle:
        handle.readline()
        rows = [line.rstrip("\n").split(",") for line in handle]
    child_time: dict[int, float] = defaultdict(float)
    spans = []
    for span_id, parent, name, n, start, end, value in rows:
        duration = float(end) - float(start)
        child_time[int(parent)] += duration
        spans.append((int(span_id), name, int(n), duration, int(value)))
    cycles: list[dict] = []
    for span_id, name, n, duration, value in spans:
        if name == "cycle":
            # Keys outside PER_LAYER (a suite added later) are kept as extras.
            cycles.append(defaultdict(int, dict.fromkeys(PER_LAYER[:-1], 0)))
            continue
        m = cycles[-1]
        own = duration - child_time[span_id]
        if name == "linalg.eig":
            bucket = _bucket(n)
            m[f"linalg.eig_s.{bucket}"] += duration
            m[f"linalg.eig_calls.{bucket}"] += 1
            m["linalg.check_s"] += own
        elif name == "linalg.kernel":
            bucket = _bucket(n)
            m[f"linalg.kernel_s.{bucket}"] += duration
            m[f"linalg.sweeps.{bucket}"] += value
            m[f"linalg.rotations_computed.{bucket}"] += value * n * (n - 1) // 2
        elif name.startswith("validate.suite."):
            m["validate.suite_s." + name.removeprefix("validate.suite.")] += own
        elif name in ("validate.run_all", "validate.summary_text"):
            m["validate.self_s"] += own
        elif name == "cli.main":
            m["cli.self_s"] += own
        elif name == "cli.write":
            m["cli.write_s"] += duration
            m["cli.bytes_written"] += value
        elif name in ("spectrum.closed_form", "eigenstates.amplitudes"):
            m[name + "_calls"] += 1
        elif name in ("susceptibility.peak_report", "sectors.build"):
            m[name + "_s"] += duration
            m[name + "_calls"] += 1
        elif name != "op":
            m[name + "_s"] += duration
    return cycles


def traced_run(worker: Worker, workload: wl.Workload, seconds: float, golden,
               span_path: Path) -> tuple:
    tally = Tally()
    overheads = []
    missing: list = []
    started = time.perf_counter()
    while True:
        pass_walls = []
        for traced in (False, True):
            reply = worker.request({"cmd": "pass", "trace": traced, "config": workload.config})
            missing = reply["missing"] or missing
            pass_walls.append(sum(
                execute(worker, op, tally, golden)
                for op in map(workload.op, range(workload.cycle))
            ))
        overheads.append(pass_walls[1] - pass_walls[0])
        if time.perf_counter() - started >= seconds:
            break
    peak = worker.request({"cmd": "quit", "spans": str(span_path)})["peak_rss_mb"]
    cycles = cycle_metrics(span_path)
    metrics = {}
    for name in PER_LAYER[:-1]:
        values = [cycle[name] for cycle in cycles]
        if name in COUNTS and len(set(values)) > 1:
            tally.problems.append(f"count {name} differs between identical cycles: {values}")
        metrics[name] = values[0] if name in COUNTS else statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    extras = {name: value for name, value in cycles[0].items() if name not in metrics}
    detail = {"cycles": len(cycles), "untraced_names": missing, "extra_metrics": extras,
              "peak_rss_mb": peak}
    return tally, metrics, detail


def write_golden(worker: Worker, workload: wl.Workload) -> int:
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    tally = Tally()
    worker.request({"cmd": "pass", "trace": False, "config": workload.config})
    for i in range(workload.distinct):
        op = workload.op(i)
        execute(worker, op, tally, None)
        table[op.key] = wl.file_hashes(op.outputs)
    if tally.failed:
        print("\n".join(tally.problems), file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
    print(f"recorded {workload.distinct} golden entries for {workload.name} in {GOLDEN}")
    return 0


def environment(hello: dict, load: float) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "backend": hello["backend"], "python": hello["python"], "numpy": hello["numpy"],
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "loadavg_1m_at_start": load,
    }


def run(args: argparse.Namespace, root: Path) -> int:
    src = root / "src"
    if not (src / "jcpair" / "__init__.py").is_file():
        print(f"perfbench: {src}/jcpair not found; run from a jcpair source tree",
              file=sys.stderr)
        return 2
    if args.write_golden and args.seed != wl.DEFAULT_SEED:
        print(f"perfbench: golden hashes are kept for seed {wl.DEFAULT_SEED} only",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    load = os.getloadavg()[0]
    work = root / WORK_DIR / args.workload
    work.mkdir(parents=True, exist_ok=True)
    workload = wl.WORKLOADS[args.workload](args.seed, work, args.small)
    golden = None
    if args.seed == wl.DEFAULT_SEED and not args.write_golden:
        golden = json.loads(GOLDEN.read_text())

    with Worker(src) as worker:
        env = environment(worker.hello, load)
        if args.write_golden:
            return write_golden(worker, workload)
        if args.trace:
            span_path = work / f"spans-seed{args.seed}.csv"
            tally, metrics, detail = traced_run(
                worker, workload, args.seconds, golden, span_path)
            names = [m["name"] for m in spec["per_layer"]]
        else:
            tally, metrics, detail = timed_run(
                worker, workload, args.seconds, golden,
                lambda: setup_probe(src, workload.config))
            metrics["peak_rss_mb"] = worker.request({"cmd": "quit"})["peak_rss_mb"]
            names = [m["name"] for m in spec["end_to_end"]]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {names}")
    correct = tally.failed == 0 and not tally.problems
    result = {
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "small": args.small, "env": env,
        "failed_frac": tally.failed / tally.attempted, "problems": tally.problems[:20],
        "detail": detail, **result,
    }
    results = root / WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    suffix = "-small" if args.small else ""
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print("env: " + " ".join(f"{key}={value}" for key, value in env.items()))
    for problem in tally.problems[:10]:
        print(f"FAILED {problem}")
    print(f"{args.workload}: {tally.attempted} operations, {tally.failed} failed "
          f"(failed_frac {record['failed_frac']:.6g}); results in {out.relative_to(root)}")
    for name in names:
        print(f"  {name:<45} {metrics[name]:>14.6g} {units[name]}")
    if "tail" in detail:
        t = detail["tail"]
        print(f"  op_s_tail: {t['ratio']:.6g} x op_s_p50, at p{t['percentile']:.4g} of "
              f"{t['samples']} pooled samples, {t['samples_beyond']} beyond")
    print(json.dumps(result))
    return 0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(old: list[float], new: list[float], better: str, bound: float) -> str:
    """Improved, unchanged, worse or unresolved, by the choosing-metrics rule."""
    sign = 1.0 if better == "lower" else -1.0
    (q1a, ma, q3a), (q1b, mb, q3b) = _quartiles(old), _quartiles(new)
    spread_old = (q3a - q1a) / abs(ma)
    spread = max(spread_old, (q3b - q1b) / abs(mb))
    worse_by = sign * (mb - ma) / abs(ma)
    all_better = all(sign * (b - a) < 0 for b in new for a in old)
    all_worse = all(sign * (b - a) > 0 for b in new for a in old)
    if spread > bound:
        return "improved" if all_better else "worse" if all_worse else "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(old, new))
    wins = sum(sign * (b - a) < 0 for a, b in pairs)
    if len(pairs) >= 10 and -worse_by > spread_old and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def _load_runs(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0 and not record.get("small"):
            runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda record: record["seed"])
    return runs


def compare(old_dir: str, new_dir: str, spec: dict) -> int:
    old, new = _load_runs(old_dir), _load_runs(new_dir)
    header = f"{'workload':<16} {'metric':<12} {'old median [q1, q3]':>32} " \
             f"{'new median [q1, q3]':>32} {'new/old':>8}  verdict (bound)"
    print(header)
    for workload in sorted(set(old) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in old[workload]]
            b = [r["metrics"][name]["value"] for r in new[workload]]
            (q1a, ma, q3a), (q1b, mb, q3b) = _quartiles(a), _quartiles(b)
            print(f"{workload:<16} {name:<12} {ma:>12.5g} [{q1a:.5g}, {q3a:.5g}] "
                  f"{mb:>12.5g} [{q1b:.5g}, {q3b:.5g}] {mb / ma:>8.4f}  "
                  f"{verdict(a, b, metric['better'], metric['bound'])} "
                  f"({metric['bound']:g}, n={len(a)}/{len(b)})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="jcpair benchmark")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes (2,001 points, 100 trials, nu <= 6) for self-tests")
    parser.add_argument("--write-golden", action="store_true",
                        help=f"record output hashes of seed {wl.DEFAULT_SEED} into golden.json")
    parser.add_argument("--compare", nargs=2, metavar=("OLD_DIR", "NEW_DIR"),
                        help="compare two directories of results files")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.compare:
        return compare(*args.compare, json.loads((root / "BENCHMARK.json").read_text()))
    if args.workload is None:
        parser.error("--workload is required")
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())

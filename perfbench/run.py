"""Repository benchmark: end-to-end metrics, or a traced layer split.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 0 --trace 0

``--trace 0`` launches the workload's process five times to sample
its set-up time, three of them for a stint each of a timed phase of
``--seconds`` (``run_seconds`` of ``BENCHMARK.json`` by default), and
reports every end-to-end metric of ``BENCHMARK.json``.  (serve-warm
launches one process, which launches its server five times.)  Times
are in reference seconds: host seconds scaled by a host-speed probe
run around each stretch of them (see ``workload.py``); the report
carries the raw ones too.
``--trace 1`` runs the workload's traced pass instead and reports
every per-layer metric.  Outputs are checked either way: a wrong
output counts in ``failed`` and makes ``correct`` false.

Standard output ends with a human-readable metric table, one
``perfbench-report`` JSON line (host block, calibration score, raw
samples, ``fail_ratio``, and in traced runs the layer split and
``trace_overhead``), and, as the very last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.

The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostprobe import HostProbe
from workload import (SETUP_LAUNCHES, SETUP_LAUNCHES_BEFORE, TIMED_STINTS,
                      WORKLOAD_CLASSES)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The seed runs use unless told otherwise, and the held-out seed no
#: tuning used: a later claim must also hold on it.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

#: Every run, set-up and checks included, must end within this.
RUN_LIMIT_SECONDS = 170.0

CALIBRATION_LOOP = 200_000
CALIBRATION_REPEATS = 7


def calibration_score() -> dict:
    """A fixed pure-Python loop's speed, so host changes show."""
    timings = []
    for _ in range(CALIBRATION_REPEATS):
        started = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc = (acc + i * i) % 1_000_003
        timings.append(time.perf_counter() - started)
    median = statistics.median(timings)
    return {"loop_iterations": CALIBRATION_LOOP,
            "repeats": CALIBRATION_REPEATS, "median_s": median,
            "mloops_per_s": CALIBRATION_LOOP / median / 1e6}


def host_block() -> dict:
    return {"cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "calibration": calibration_score()}


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def metric_units(spec: dict) -> dict:
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def run_child(args, mode: str, tmp: Path, deadline: float, probe: HostProbe,
              seconds: float | None = None, first_op: int = 0) -> dict:
    """Launch one workload process and return its JSON result."""
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp)  # temporary files stay in the checkout
    # cache bytecode in the checkout, so that after the first launch
    # set-up times imports rather than compiles
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    probe_before = probe()
    launched_ns = time.monotonic_ns()
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds if seconds is None else seconds),
           "--mode", mode, "--first-op", str(first_op),
           "--probe-before", repr(probe_before),
           "--launched-ns", str(launched_ns), "--tmp", str(tmp)]
    # a session of its own, so a timeout also stops the servers and
    # workers the workload process started
    process = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:  # a timeout, or this process being stopped
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.communicate()
        raise
    if process.returncode != 0:
        raise RuntimeError(f"{args.workload} {mode} process failed "
                           f"(exit {process.returncode}):\n"
                           f"{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_stints(args, tmp: Path, deadline: float,
               probe: HostProbe) -> tuple[dict, list]:
    """Launch set-up-only processes around one process per stint."""
    setup: list[dict] = []
    ops: list[dict] = []
    peak_rss_mb = 0.0
    for _ in range(SETUP_LAUNCHES_BEFORE):
        setup += run_child(args, "setup", tmp, deadline, probe)["setup"]
    for _ in range(TIMED_STINTS):
        stint = run_child(args, "timed", tmp, deadline, probe,
                          seconds=args.seconds / TIMED_STINTS,
                          first_op=len(ops))
        setup += stint["setup"]
        ops += stint["ops"]
        peak_rss_mb = max(peak_rss_mb, stint["peak_rss_mb"])
    while len(setup) < SETUP_LAUNCHES:
        setup += run_child(args, "setup", tmp, deadline, probe)["setup"]
    return {"ops": ops, "peak_rss_mb": peak_rss_mb}, setup


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated within the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup: list[dict], result: dict,
               key: str = "scaled_s") -> dict[str, float]:
    """The end-to-end metrics, from reference (or, by *key*, raw) times."""
    ops = result["ops"]
    busy = sum(op[key] for op in ops)
    latencies = [op[key] * 1e3 for op in ops]
    return {"setup_s": statistics.median(s[key] for s in setup),
            "sim_insns_per_s": sum(op["sim_insns"] for op in ops) / busy,
            "jobs_per_s": len(ops) / busy,
            "job_ms_p50": statistics.median(latencies),
            "job_ms_p90": percentile(latencies, 90),
            "peak_rss_mb": result["peak_rss_mb"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_CLASSES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # stopped, exit through the clean-up that stops the child processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_SECONDS
    spec = load_benchmark()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    specs = metric_units(spec)
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    host = host_block()
    probe = HostProbe()
    try:
        if args.trace:
            result = run_child(args, "traced", tmp, deadline, probe)
            metrics = result["layers"]
            units = specs["per_layer"]
            report = {"layers": metrics, "untraced_s": result["untraced_s"],
                      "traced_s": result["traced_s"],
                      "trace_overhead": metrics["trace_overhead"]}
        else:
            if args.workload == "serve-warm":
                # one process: it launches a server per stint and
                # samples every server launch itself
                result = run_child(args, "timed", tmp, deadline, probe)
                setup = result["setup"]
            else:
                result, setup = run_stints(args, tmp, deadline, probe)
            metrics = end_to_end(setup, result)
            units = specs["end_to_end"]
            report = {"setup_samples": setup,
                      "raw_metrics": end_to_end(setup, result, "seconds")}
    finally:
        probe.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only once no other run is using it
        except OSError:
            pass
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    ops = result["ops"]
    failed = sum(not op["ok"] for op in ops)
    report.update({"workload": args.workload, "seed": args.seed,
                   "default_seed": DEFAULT_SEED,
                   "held_out_seed": HELD_OUT_SEED,
                   "seconds": args.seconds, "trace": args.trace,
                   "host": host, "ops": ops,
                   "fail_ratio": failed / len(ops)})
    for name, unit in units.items():
        print(f"{args.workload:16s} {name:26s} {metrics[name]:>16.6g} "
              f"{unit}")
    print(f"{args.workload:16s} {'fail_ratio':26s} "
          f"{report['fail_ratio']:>16.6g} 1  ({failed}/{len(ops)} ops)")
    print("perfbench-report " + json.dumps(report))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

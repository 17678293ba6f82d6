"""One benchmark workload process: set up, time operations, check them.

``run.py`` launches this file once per set-up sample (three of them
also run a stint of the timed phase each), or once for the traced
run; it drives the repository only through the
public APIs of ``repro.engine`` and the ``repro`` CLI::

    python3 perfbench/workload.py --workload sweep-cold --seed 0 \\
        --seconds 5 --mode timed --launched-ns <monotonic ns> --tmp DIR

The last line of standard output is one JSON object with the set-up
sample(s), every operation's timing and size, the output checks, the
peak RSS of the process doing the work and, in ``traced`` mode, the
per-layer numbers.

Workloads (the choice of each is explained in ``README.md``):

``sweep-cold``       inline ``run_sweep`` of mcf, gcc, untoast, applu
                     x {baseline, optimized} into a fresh store whose
                     oracle traces the set-up emulated.
``fuzz``             ``run_fuzz`` of one seed over the five synth
                     families per operation (smoke-size programs).
``serve-warm``       ``repro serve`` in its own process over a filled
                     store; one closed-loop client submits a warm
                     44-point sweep job and streams it to the end.
``segments-worker``  adaptive ``run_segmented_sweep`` of mcf at a
                     raised scale, leased over TCP to one
                     ``repro worker`` subprocess.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostprobe import HostProbe, current_cpu  # noqa: E402
from tracing import (STAGES, Tracer, merge_summaries,  # noqa: E402
                     stage_split)

SWEEP_KERNELS = ("mcf", "gcc", "untoast", "applu")
SEGMENT_KERNEL = "mcf"
SEGMENT_SCALE = 2
#: Planner job count for segments-worker; with the adaptive policy it
#: sets the segment size, and the inline reference uses the same.
SEGMENT_JOBS = 2
#: Fuzz seeds of run ``--seed n`` start at ``n * FUZZ_SEED_STRIDE``.
FUZZ_SEED_STRIDE = 1000
#: A serve-warm run needs at least ten samples beyond its p90.
MIN_SERVE_JOBS = 100
#: A timed phase is split into this many stints of equal length,
#: each run by a process launched for it: a workload process, or for
#: serve-warm a server.  Launches of the same program differ in speed
#: by several percent, so no one process's speed decides a run.
TIMED_STINTS = 3
#: Set-up samples per run: workload process launches, or for
#: serve-warm launches of its server; set-up time is their median.
#: The samples are spread over the run: one launch before the timed
#: phase, one per stint, and one after it.
SETUP_LAUNCHES = 5
SETUP_LAUNCHES_BEFORE = 1
#: Operations the traced run repeats, untraced then traced.
TRACE_OPS = {"sweep-cold": 1, "fuzz": 4, "serve-warm": 30,
             "segments-worker": 1}

#: The host runs in speed phases tens of seconds long and ~40% apart,
#: and its two CPUs need not be in the same phase.  So every set-up
#: sample and operation is timed between two runs of the host-speed
#: probe (``hostprobe.py``) and its seconds are scaled to reference
#: seconds: seconds on a host where the probe takes
#: ``REFERENCE_PROBE_S``.
REFERENCE_PROBE_S = 0.001
#: In a timed phase the probe runs again, between operations or
#: before a ``Pipeline.run`` inside one, once this long has passed
#: since it last ran.
PROBE_INTERVAL_S = 0.5


def host_scale(probe_before: float, probe_after: float) -> float:
    """The factor from host seconds to reference seconds."""
    return 2 * REFERENCE_PROBE_S / (probe_before + probe_after)


def setup_sample(seconds: float, probe_before: float,
                 probe: HostProbe) -> dict:
    """One set-up sample, probed again now that it has ended.

    Set-up launches processes, which may run on either CPU, so its
    probes cover every CPU.
    """
    probe_after = probe()
    return {"seconds": seconds, "probe_before": probe_before,
            "probe_after": probe_after,
            "scaled_s": seconds * host_scale(probe_before, probe_after)}


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _self_hwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stop(process: subprocess.Popen, sig=signal.SIGINT,
          timeout: float = 20.0) -> None:
    """Stop a child process and wait until it has ended."""
    if process.poll() is None:
        process.send_signal(sig)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


class OpTime:
    """An operation's time in host seconds and in reference seconds."""

    def __init__(self):
        self.seconds = 0.0
        self.scaled_s = 0.0


class HostClock:
    """Times operations, scaling each stretch by the probes around it.

    The probe's own time counts in no operation.
    """

    def __init__(self, probe: HostProbe, wide: bool):
        self.probe = probe
        self.wide = wide
        self.last_probe = self._probe()
        self.probed_at = time.perf_counter()
        self.unscaled: list[tuple[OpTime, float]] = []
        self.current: OpTime | None = None
        self.stretch_started = 0.0

    def begin(self) -> OpTime:
        self.current = OpTime()
        self.stretch_started = time.perf_counter()
        return self.current

    def _close_stretch(self) -> None:
        now = time.perf_counter()
        if self.current is not None:
            stretch = now - self.stretch_started
            self.current.seconds += stretch
            self.unscaled.append((self.current, stretch))
        self.stretch_started = now

    def end(self) -> None:
        self._close_stretch()
        self.current = None

    def checkpoint(self, force: bool = False) -> None:
        """Probe the host, if forced or if it is time to."""
        if (not force and time.perf_counter() - self.probed_at
                < PROBE_INTERVAL_S):
            return
        self._close_stretch()
        probe = self._probe()
        scale = host_scale(self.last_probe, probe)
        for op_time, stretch in self.unscaled:
            op_time.scaled_s += stretch * scale
        self.unscaled = []
        self.last_probe = probe
        self.probed_at = self.stretch_started = time.perf_counter()

    def _probe(self) -> float:
        return self.probe(None if self.wide else current_cpu())

    @contextlib.contextmanager
    def inside_pipelines(self):
        """Also checkpoint before every ``Pipeline.run`` in this process."""
        from repro.uarch.pipeline import Pipeline
        original = Pipeline.run
        clock = self

        def run(self):
            clock.checkpoint()
            return original(self)

        Pipeline.run = run
        try:
            yield
        finally:
            Pipeline.run = original


class Op:
    """What one timed operation produced."""

    def __init__(self, output, sim_insns: int, extra: dict | None = None):
        self.output = output
        self.sim_insns = sim_insns
        self.extra = extra or {}
        self.time = OpTime()
        self.ok = False


class Workload:
    """Set-up, one operation, and the output checks of a workload."""

    name = ""
    #: Whether a timed phase probes every CPU, averaged, rather than
    #: the CPU this process is on: true where the work runs in another
    #: process too (a server, a worker), on either CPU.
    probe_wide = False
    #: The fewest operations a timed process runs, whatever its time.
    min_ops = 1

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def setup(self) -> None:
        """Everything before the first timed operation."""

    def start_timed(self, seconds: float) -> None:
        """The timed phase, of *seconds*, starts now."""

    def prepare(self, index: int) -> None:
        """Untimed work before operation *index*."""

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def verify(self, ops: list[Op]) -> list[bool]:
        """Check every operation's output; one verdict per op."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return _self_hwm_mb()

    def model_totals(self, ops: list[Op]) -> tuple[int, int] | None:
        """Simulated (cycles, retired) that checked ops' outputs carry."""
        return None

    def late_setup_samples(self) -> list[dict]:
        """Set-up samples this process took itself, once the timed
        phase is over (serve-warm: its server launches)."""
        return []

    def close(self) -> None:
        """Stop every process and remove every file the workload made."""


def _sweep_points(kernels, scale: int = 1):
    from repro.engine.campaign import Campaign
    from repro.uarch.config import default_config
    return Campaign.from_axes(
        workloads=list(kernels), scales=[scale],
        base=default_config().with_optimizer(),
        include_baseline=True).points()


def _totals(sweep) -> tuple[int, int]:
    return (sum(r.stats.cycles for r in sweep.results),
            sum(r.stats.retired for r in sweep.results))


def _sweeps_totals(ops: list[Op]) -> tuple[int, int]:
    totals = [_totals(op.output) for op in ops]
    return sum(t[0] for t in totals), sum(t[1] for t in totals)


class SweepCold(Workload):
    name = "sweep-cold"

    def setup(self) -> None:
        from repro.engine.store import ArtifactStore
        from repro.workloads import build_trace
        kernels = list(SWEEP_KERNELS)
        random.Random(self.seed).shuffle(kernels)
        self.points = _sweep_points(kernels)
        self.trace_dir = self.tmp / "traces"
        traces = ArtifactStore(self.trace_dir)
        for name in kernels:
            traces.save_trace(name, 1, build_trace(name, 1).trace)

    def _store(self, index: int) -> Path:
        return self.tmp / f"sweep-{index}"

    def prepare(self, index: int) -> None:
        shutil.copytree(self.trace_dir, self._store(index))

    def op(self, index: int) -> Op:
        from repro.engine import pool
        store = self._store(index)
        sweep = pool.run_sweep(self.points, jobs=1, store_dir=store,
                               backend="inline")
        op = Op(sweep, _totals(sweep)[1])
        op.store = store
        return op

    def verify(self, ops: list[Op]) -> list[bool]:
        from repro.engine import pool
        verdicts = []
        for op in ops:
            cold = op.output
            warm = pool.run_sweep(self.points, jobs=1, store_dir=op.store,
                                  backend="inline")
            verdicts.append(
                cold.counters["emulations"] == 0
                and cold.counters["simulations"] == len(self.points)
                and warm.counters["simulations"] == 0
                and warm.ledger_json() == cold.ledger_json())
            shutil.rmtree(op.store, ignore_errors=True)
        return verdicts

    def model_totals(self, ops):
        return _sweeps_totals(ops)


class Fuzz(Workload):
    name = "fuzz"

    def setup(self) -> None:
        from repro.engine import differential  # noqa: F401

    def op(self, index: int) -> Op:
        from repro.engine import differential
        start = self.seed * FUZZ_SEED_STRIDE + index
        report = differential.run_fuzz(range(start, start + 1),
                                       small=True)
        return Op(report, sum(p.instructions for p in report.programs))

    def verify(self, ops: list[Op]) -> list[bool]:
        from repro.workloads.synth import FAMILIES
        return [op.output.ok and len(op.output.programs) == len(FAMILIES)
                for op in ops]


class ServeWarm(Workload):
    name = "serve-warm"
    probe_wide = True
    min_ops = MIN_SERVE_JOBS

    def __init__(self, seed: int, tmp: Path, in_process: bool = False,
                 probe: HostProbe | None = None):
        super().__init__(seed, tmp)
        self.in_process = in_process
        self.probe = probe
        self.server = None
        self.setup_samples: list[dict] = []
        self.stint_s = 0.0
        self.stint_started = 0.0
        self.earlier_peak_mb = 0.0

    def fill(self) -> None:
        """Fill the store once, outside set-up and the timed runs."""
        import hashlib

        from repro.engine import pool
        from repro.workloads import ALL_WORKLOADS
        kernels = [w.name for w in ALL_WORKLOADS]
        random.Random(self.seed).shuffle(kernels)
        self.spec = {"kind": "sweep", "workloads": kernels,
                     "optimized": True, "baseline": True}
        self.store = self.tmp / "serve-store"
        sweep = pool.run_sweep(_sweep_points(kernels), jobs=2,
                               store_dir=self.store)
        self.ledger_sha256 = hashlib.sha256(
            sweep.ledger_json().encode()).hexdigest()

    def _launch(self) -> tuple[subprocess.Popen, str, dict]:
        probe_before = self.probe()
        launched = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "--store", str(self.store),
             "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = process.stdout.readline()
        announced = time.monotonic()
        if not line.startswith("serving on "):
            _stop(process)
            raise RuntimeError(f"repro serve did not announce: {line!r}")
        url = line.split()[2]
        return process, url, setup_sample(announced - launched,
                                          probe_before, self.probe)

    def setup(self) -> None:
        from repro.engine import service  # noqa: F401
        if self.in_process:
            self._serve_in_thread()
            return
        for _ in range(SETUP_LAUNCHES_BEFORE):
            process, _, sample = self._launch()
            _stop(process)
            self.setup_samples.append(sample)
        self._next_server()

    def _next_server(self) -> None:
        """Stop the serving server, if any, and launch the next one."""
        if self.server is not None:
            self.earlier_peak_mb = self.peak_rss_mb()
            _stop(self.server)
        self.server, self.url, sample = self._launch()
        self.setup_samples.append(sample)
        self.stint_started = time.monotonic()

    def start_timed(self, seconds: float) -> None:
        if not self.in_process:
            self.stint_s = seconds / TIMED_STINTS
            self.stint_started = time.monotonic()

    def prepare(self, index: int) -> None:
        launched = len(self.setup_samples) - SETUP_LAUNCHES_BEFORE
        if (self.stint_s and launched < TIMED_STINTS
                and time.monotonic() - self.stint_started >= self.stint_s):
            self._next_server()

    def late_setup_samples(self) -> list[dict]:
        self.earlier_peak_mb = self.peak_rss_mb()
        _stop(self.server)
        self.server = None
        while len(self.setup_samples) < SETUP_LAUNCHES:
            process, _, sample = self._launch()
            _stop(process)
            self.setup_samples.append(sample)
        return self.setup_samples

    def _serve_in_thread(self) -> None:
        """Host the service in this process (traced runs see inside)."""
        import asyncio

        from repro.engine.service import run_service
        ready = threading.Event()
        self._loop = asyncio.new_event_loop()
        self._shutdown = None

        def announce(host, port, store_dir):
            self.url = f"http://{host}:{port}"
            ready.set()

        async def main():
            self._shutdown = asyncio.Event()
            await run_service(store_dir=str(self.store), port=0,
                              announce=announce,
                              shutdown=self._shutdown)

        self._thread = threading.Thread(
            target=self._loop.run_until_complete, args=(main(),))
        self._thread.start()
        if not ready.wait(timeout=60):
            raise RuntimeError("in-process service did not start")

    def op(self, index: int) -> Op:
        from repro.engine.service import request_json, watch_job
        events = []
        started = time.perf_counter()
        job = request_json(self.url, "POST", "/jobs", self.spec)
        submitted = time.perf_counter()
        last = watch_job(self.url, job["id"], events.append, timeout=60)
        result = (last.result or {}) if last is not None else {}
        return Op(last, int(result.get("retired_insns", 0)), {
            "submit_ms": (submitted - started) * 1e3,
            "exec_ms": float(result.get("elapsed_seconds", 0.0)) * 1e3,
            "events": len(events)})

    def verify(self, ops: list[Op]) -> list[bool]:
        return [op.output is not None
                and op.output.kind == "job-finished"
                and (op.output.result or {}).get("ledger_sha256")
                == self.ledger_sha256
                for op in ops]

    def model_totals(self, ops):
        cycles = retired = 0
        for op in ops:
            ledger = json.loads(op.output.result["ledger"])
            for point in ledger["points"]:
                cycles += point["stats"]["cycles"]
                retired += point["stats"]["retired"]
        return cycles, retired

    def peak_rss_mb(self) -> float:
        if self.in_process:
            return _self_hwm_mb()
        if self.server is None:
            return self.earlier_peak_mb
        return max(self.earlier_peak_mb, _vm_hwm_mb(self.server.pid))

    def close(self) -> None:
        if self.server is not None:
            _stop(self.server)
        if self.in_process and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
            self._thread.join(timeout=30)
            self._loop.close()


class SegmentsWorker(Workload):
    name = "segments-worker"
    probe_wide = True
    #: an operation's time varies by ~15% with how the planner's and
    #: the worker's work interleave, so a run needs several
    min_ops = 3

    def __init__(self, seed: int, tmp: Path, traced_worker: bool = False):
        super().__init__(seed, tmp)
        self.traced_worker = traced_worker
        self.worker = None
        self.backend = None
        self.worker_summary = None

    def setup(self) -> None:
        from repro.engine.backend import SocketWorkerBackend
        from repro.engine.segments import SegmentPolicy
        points = _sweep_points([SEGMENT_KERNEL], SEGMENT_SCALE)
        if self.seed % 2:
            points.reverse()
        self.points = points
        self.policy = SegmentPolicy(mode="adaptive")
        self.store = self.tmp / "planner-store"
        self.replica = self.tmp / "worker-replica"
        self.backend = SocketWorkerBackend(store_dir=self.store,
                                           parallelism=SEGMENT_JOBS)
        connect = f"{self.backend.host}:{self.backend.port}"
        if self.traced_worker:
            self.summary_path = self.tmp / "worker-trace.json"
            cmd = [sys.executable, str(HERE / "tracing.py"), "--connect",
                   connect, "--replica", str(self.replica),
                   "--out", str(self.summary_path)]
        else:
            cmd = [sys.executable, "-m", "repro", "worker", "--connect",
                   connect, "--replica", str(self.replica), "--quiet"]
        self.worker = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 60
        while self.backend.worker_count() < 1:
            if self.worker.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro worker did not connect")
            time.sleep(0.002)

    def prepare(self, index: int) -> None:
        # a cold run each time: the planner's store and the worker's
        # replica would otherwise answer every unit from cache (the
        # worker is idle between operations, waiting for a lease)
        from repro.engine.store import ArtifactStore
        ArtifactStore(self.store).clear()
        ArtifactStore(self.replica).clear()

    def op(self, index: int) -> Op:
        from repro.engine import segments
        sweep = segments.run_segmented_sweep(
            self.points, self.policy, jobs=SEGMENT_JOBS,
            store_dir=self.store, backend=self.backend)
        return Op(sweep, _totals(sweep)[1])

    def verify(self, ops: list[Op]) -> list[bool]:
        from repro.engine import segments

        # the first stint of a run computes the reference, later ones
        # of the same run read it back
        cached = self.tmp / "reference-ledger.json"
        if cached.exists():
            reference = cached.read_text()
        else:
            reference = segments.run_segmented_sweep(
                self.points, self.policy, jobs=SEGMENT_JOBS,
                store_dir=self.tmp / "reference-store",
                backend="inline").ledger_json()
            shutil.rmtree(self.tmp / "reference-store", ignore_errors=True)
            cached.write_text(reference)
        return [op.output.ledger_json() == reference for op in ops]

    def model_totals(self, ops):
        return _sweeps_totals(ops)

    def peak_rss_mb(self) -> float:
        return _vm_hwm_mb(self.worker.pid)

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()
        if self.worker is not None:
            try:
                self.worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                _stop(self.worker, signal.SIGKILL)
            if self.traced_worker and self.summary_path.exists():
                self.worker_summary = json.loads(
                    self.summary_path.read_text())


WORKLOAD_CLASSES = {cls.name: cls for cls in
                    (SweepCold, Fuzz, ServeWarm, SegmentsWorker)}


# ----------------------------------------------------------------------
# running operations
# ----------------------------------------------------------------------

def run_ops(workload: Workload, probe: HostProbe, count: int | None = None,
            seconds: float = 0.0, min_ops: int = 1,
            probe_inside: bool = True, first_op: int = 0) -> list[Op]:
    """Time ops until *seconds* pass (and *min_ops* ran), or *count*.

    With *probe_inside*, the host probe also runs inside an operation,
    before the pipelines this process simulates.
    """
    ops: list[Op] = []
    clock = HostClock(probe, workload.probe_wide)
    started = time.perf_counter()
    workload.start_timed(seconds)
    with (clock.inside_pipelines() if probe_inside
          else contextlib.nullcontext()):
        while True:
            index = first_op + len(ops)
            workload.prepare(index)
            op_time = clock.begin()
            try:
                op = workload.op(index)
            except Exception as error:  # a failed operation, not a crash
                op = Op(None, 0,
                        {"error": f"{type(error).__name__}: {error}"})
            clock.end()
            op.time = op_time
            ops.append(op)
            if count is not None:
                finished = len(ops) >= count
            else:
                finished = (time.perf_counter() - started >= seconds
                            and len(ops) >= min_ops)
            clock.checkpoint(force=finished)
            if finished:
                break
    done = [op for op in ops if op.output is not None]
    for op, ok in zip(done, workload.verify(done)):
        op.ok = bool(ok)
    return ops


def op_records(ops: list[Op]) -> list[dict]:
    return [{"seconds": op.time.seconds, "scaled_s": op.time.scaled_s,
             "sim_insns": op.sim_insns, "ok": op.ok, **op.extra}
            for op in ops]


def timed(args, tmp: Path, launched_ns: int) -> dict:
    serve = args.workload == ServeWarm.name
    # the probe's helper starts once the set-up it would disturb is
    # over, except on serve-warm, whose set-up samples are server
    # launches the probe brackets
    probe = HostProbe() if serve else None
    workload = (ServeWarm(args.seed, tmp, probe=probe) if serve
                else WORKLOAD_CLASSES[args.workload](args.seed, tmp))
    try:
        if serve:
            workload.fill()
        workload.setup()
        first_op_ns = time.monotonic_ns()
        setup = []
        if probe is None:
            probe = HostProbe()
            setup.append(setup_sample((first_op_ns - launched_ns) / 1e9,
                                      args.probe_before, probe))
        if args.mode == "setup":
            return {"setup": setup}
        ops = run_ops(workload, probe, seconds=args.seconds,
                      min_ops=workload.min_ops, first_op=args.first_op)
        peak_rss_mb = workload.peak_rss_mb()
        # serve-warm's samples: launches before, during and after the
        # timed phase
        setup += workload.late_setup_samples()
        return {"setup": setup, "ops": op_records(ops),
                "peak_rss_mb": peak_rss_mb}
    finally:
        workload.close()
        if probe is not None:
            probe.close()


def _profile_stages(workload: Workload) -> tuple[dict[str, float], Op]:
    """cProfile every ``Pipeline.run`` of one more operation."""
    from repro.uarch.pipeline import Pipeline
    profile = cProfile.Profile()
    original = Pipeline.run

    def profiled_run(self):
        profile.enable()
        try:
            return original(self)
        finally:
            profile.disable()

    Pipeline.run = profiled_run
    try:
        workload.prepare(0)
        op = workload.op(0)
    finally:
        Pipeline.run = original
    op.ok = bool(workload.verify([op])[0])
    return stage_split(profile), op


def traced(args, tmp: Path) -> dict:
    """Per-layer numbers from a traced pass over the timed ops."""
    from repro.engine.telemetry import TELEMETRY
    count = TRACE_OPS[args.workload]
    cls = WORKLOAD_CLASSES[args.workload]
    if cls is ServeWarm:
        workload = ServeWarm(args.seed, tmp, in_process=True)
        workload.fill()
    else:
        workload = cls(args.seed, tmp)
    tracer = Tracer()
    put_bytes = TELEMETRY.counter("repro_store_put_bytes_total")
    written = 0

    def with_tracing(fn):
        nonlocal written
        before = put_bytes.value
        tracer.install()
        try:
            return fn()
        finally:
            tracer.uninstall()
            written += put_bytes.value - before

    probe = HostProbe()
    try:
        # set-up is traced too: on sweep-cold it is where traces are
        # assembled and emulated
        with_tracing(workload.setup)
        # one operation first, so lazy imports and cold caches weigh on
        # neither pass and do not pass for (negative) tracing overhead
        warmup = run_ops(workload, probe, count=1, probe_inside=False)
        plain = run_ops(workload, probe, count=count, probe_inside=False)
        if isinstance(workload, SegmentsWorker):
            workload.close()
            workload = SegmentsWorker(args.seed, tmp, traced_worker=True)
            workload.setup()
        ops = with_tracing(lambda: run_ops(workload, probe, count=count,
                                           probe_inside=False))
        stages, profiled = (_profile_stages(workload)
                            if isinstance(workload, (SweepCold, Fuzz))
                            else ({}, None))
    finally:
        workload.close()
        probe.close()
    # operation time in reference seconds, so a host phase does not
    # pass for tracing overhead
    untraced_s = sum(op.time.scaled_s for op in plain)
    traced_s = sum(op.time.scaled_s for op in ops)
    summary = tracer.summary()
    if isinstance(workload, SegmentsWorker) and workload.worker_summary:
        # blob bytes count at the lease server only, not again at the
        # worker's replica
        blob_bytes = summary["counts"].get("backend.blob_bytes", 0)
        summary = merge_summaries(summary, workload.worker_summary)
        summary["counts"]["backend.blob_bytes"] = blob_bytes
    model = workload.model_totals([op for op in ops if op.ok])
    if model is None:
        model = (summary["counts"].get("model.cycles", 0),
                 summary["counts"].get("model.retired", 0))
    # every op is checked, so every op counts in attempted and failed
    checked = (warmup + plain + ops
               + ([profiled] if profiled is not None else []))
    return {"ops": op_records(checked), "traced_ops": op_records(ops),
            "layers": layer_metrics(summary, stages, ops, written, model,
                                    traced_s / untraced_s - 1.0),
            "untraced_s": untraced_s, "traced_s": traced_s}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(summary: dict, stages: dict, ops: list[Op],
                  written: int, model: tuple[int, int],
                  overhead: float) -> dict[str, float]:
    """The per-layer metric set; layers a workload skips read 0."""
    busy = summary["self_s"]
    counts = summary["counts"]

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    reads = counts.get("store.read.calls", 0)
    metrics = {
        "assembler.busy_s": busy.get("assembler", 0.0),
        "assembler.programs": counts.get("assembler.programs", 0),
        "synth.busy_s": busy.get("synth", 0.0),
        "emulator.busy_s": busy.get("emulator", 0.0),
        "emulator.insns": counts.get("emulator.insns", 0),
        "emulator.insns_per_s": rate(counts.get("emulator.insns", 0),
                                     busy.get("emulator", 0.0)),
    }
    for layer in ("pipeline", "pipeline_opt"):
        metrics[f"{layer}.busy_s"] = busy.get(layer, 0.0)
        metrics[f"{layer}.insns_per_s"] = rate(
            counts.get(f"{layer}.insns", 0), busy.get(layer, 0.0))
    for stage in STAGES:
        metrics[f"stage.{stage}.self_s"] = stages.get(stage, 0.0)
    segments = sum(getattr(op.output, "counters", {}).get("segments", 0)
                   for op in ops)
    metrics.update({
        "store.write.calls": counts.get("store.write.calls", 0),
        "store.write.busy_s": busy.get("store.write", 0.0),
        "store.write.bytes": written,
        "store.read.calls": reads,
        "store.read.busy_s": busy.get("store.read", 0.0),
        "store.read.hit_ratio": rate(counts.get("store.read.hits", 0),
                                     reads),
        "planner.self_s": busy.get("planner", 0.0),
        "segments.count": segments,
        "segments.merge_s": busy.get("segments.merge", 0.0),
        "backend.units": counts.get("backend.units", 0),
        "backend.unit_ms_p50": _median(
            summary["samples"].get("backend.unit_ms", ())),
        "backend.blob_bytes": counts.get("backend.blob_bytes", 0),
        "http.submit_ms_p50": _median(op.extra["submit_ms"] for op in ops
                                      if "submit_ms" in op.extra),
        "service.exec_ms_p50": _median(op.extra["exec_ms"] for op in ops
                                       if "exec_ms" in op.extra),
        "service.overhead_ms_p50": _median(
            op.time.seconds * 1e3 - op.extra["exec_ms"] for op in ops
            if "exec_ms" in op.extra),
        "service.events_per_job": _median(op.extra["events"] for op in ops
                                          if "events" in op.extra),
        "differential.programs": counts.get("differential.programs", 0),
        "differential.busy_s": busy.get("differential", 0.0),
        "differential.findings": counts.get("differential.findings", 0),
        "model.cycles": model[0],
        "model.retired": model[1],
        "trace_overhead": overhead,
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_CLASSES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced"))
    parser.add_argument("--launched-ns", type=int, default=None)
    parser.add_argument("--probe-before", type=float, default=None,
                        help="the host probe's time (every CPU) just "
                             "before this process was launched")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--first-op", type=int, default=0,
                        help="index of the first timed operation (a "
                             "later stint continues the earlier ones)")
    args = parser.parse_args(argv)
    launched_ns = args.launched_ns or time.monotonic_ns()
    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    if args.mode == "traced":
        result = traced(args, tmp)
    else:
        result = timed(args, tmp, launched_ns)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in tracing for the benchmark's traced run.

Nothing here edits the program.  :class:`Tracer` replaces public
functions and methods of the ``repro`` layers with wrappers that
record spans (name, start, end, parent) in memory, then puts the
originals back.  A layer's self time is its span's duration minus the
part its child spans cover; summing self times never counts a nested
call twice.

:func:`stage_split` turns a cProfile pass over ``Pipeline.run`` into
the per-stage time split (fetch, rename, optimizer, dispatch, issue,
writeback, retire) by grouping the pipeline's stage methods and the
functions under ``repro/core/``.

Run as a script, this module is a traced ``repro worker``: it installs
the tracer, serves a lease server until it shuts down, and writes the
tracer's summary as JSON::

    python3 perfbench/tracing.py --connect HOST:PORT --replica DIR --out FILE
"""

from __future__ import annotations

import argparse
import json
import os
import pstats
import sys
import threading
import time
from collections import defaultdict

#: Stage entry methods ``Pipeline.run`` calls once per cycle.
STAGE_ENTRIES = {"_fetch": "fetch", "_rename": "rename",
                 "_dispatch": "dispatch", "_issue": "issue",
                 "_writeback": "writeback", "_retire": "retire"}

STAGES = ("fetch", "rename", "optimizer", "dispatch", "issue",
          "writeback", "retire")

_STORE_WRITES = ("save_trace", "save_trace_info", "save_stats",
                 "save_segment_trace", "save_checkpoint",
                 "save_segment_stats", "save_manifest",
                 "save_search_manifest", "write_blob")
_STORE_READS = ("load_trace", "load_trace_info", "load_stats",
                "load_segment_trace", "load_checkpoint",
                "load_segment_stats", "load_manifest",
                "load_search_manifest", "read_blob")


class Tracer:
    """In-memory span recorder over wrapped ``repro`` callables."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._child_ns: list[int] = []
        self._index_lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._index_lock:
            index = len(self._child_ns)
            self._child_ns.append(0)
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if parent >= 0:
                self._child_ns[parent] += end - start
            self.spans.append((name, start, end, index))

    # -- installation ----------------------------------------------------

    def _wrap(self, fn, layer, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            name = layer(args) if callable(layer) else layer
            result = tracer.call(name, fn, args, kwargs)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_method(self, cls, attr: str, layer, on_result=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, layer, on_result))
        else:
            new = self._wrap(raw, layer, on_result)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def wrap_function(self, module, attr: str, layer,
                      on_result=None) -> None:
        """Wrap a module function everywhere ``repro`` imported it."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, layer, on_result)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> "Tracer":
        """Wrap every layer boundary the benchmark reports on."""
        from repro.engine import backend, differential, pool, segments
        # loaded so that wrap_function also finds the service's run_sweep
        from repro.engine import service  # noqa: F401
        from repro.engine.store import ArtifactStore
        from repro.functional.emulator import Emulator
        from repro.isa.assembler import Assembler
        from repro.uarch.pipeline import Pipeline
        from repro.uarch.stats import PipelineStats
        from repro.workloads.common import Workload

        def count_programs(tracer, args, kwargs, result):
            tracer.counts["assembler.programs"] += 1

        def count_insns(tracer, args, kwargs, result):
            tracer.counts["emulator.insns"] += len(result)

        def count_retired(tracer, args, kwargs, result):
            layer = _pipeline_layer(args)
            tracer.counts[f"{layer}.insns"] += result.retired
            tracer.counts["model.cycles"] += result.cycles
            tracer.counts["model.retired"] += result.retired

        def count_findings(tracer, args, kwargs, result):
            tracer.counts["differential.programs"] += 1
            tracer.counts["differential.findings"] += len(result.failures)

        def count_read(tracer, args, kwargs, result):
            tracer.counts["store.read.calls"] += 1
            tracer.counts["store.read.hits"] += result is not None

        def count_write(tracer, args, kwargs, result):
            tracer.counts["store.write.calls"] += 1

        def count_blob_read(tracer, args, kwargs, result):
            count_read(tracer, args, kwargs, result)
            tracer.counts["backend.blob_bytes"] += len(result or b"")

        def count_blob_write(tracer, args, kwargs, result):
            count_write(tracer, args, kwargs, result)
            payload = args[3] if len(args) > 3 else kwargs["payload"]
            tracer.counts["backend.blob_bytes"] += len(payload)

        self.wrap_method(Assembler, "assemble", "assembler",
                         count_programs)
        self.wrap_method(Workload, "source", _source_layer)
        self.wrap_method(Emulator, "run_packed", "emulator", count_insns)
        self.wrap_method(Pipeline, "run", _pipeline_layer, count_retired)
        self.wrap_method(PipelineStats, "merge_all", "segments.merge")
        self.wrap_function(differential, "check_workload", "differential",
                           count_findings)
        self.wrap_function(pool, "run_sweep", "planner")
        self.wrap_function(segments, "run_segmented_sweep", "planner")
        for attr in _STORE_WRITES:
            on_result = (count_blob_write if attr == "write_blob"
                         else count_write)
            self.wrap_method(ArtifactStore, attr, "store.write", on_result)
        for attr in _STORE_READS:
            on_result = (count_blob_read if attr == "read_blob"
                         else count_read)
            self.wrap_method(ArtifactStore, attr, "store.read", on_result)
        for cls in (backend.InlineBackend, backend.PoolBackend,
                    backend.SocketWorkerBackend):
            self.wrap_method(cls, "group", "backend.group",
                             self._trace_group)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _trace_group(self, tracer, args, kwargs, group) -> None:
        """Time each unit at the planner, from submit to its result."""
        submit, wait_any = group.submit, group.wait_any
        submitted: dict[int, int] = {}

        def traced_submit(unit):
            started = time.perf_counter_ns()
            ticket = self.call("backend", submit, (unit,), {})
            submitted[ticket] = started
            self.counts["backend.units"] += 1
            return ticket

        def traced_wait_any():
            ticket, result = self.call("backend", wait_any, (), {})
            started = submitted.pop(ticket, None)
            if started is not None:
                self.samples["backend.unit_ms"].append(
                    (time.perf_counter_ns() - started) / 1e6)
            return ticket, result

        group.submit, group.wait_any = traced_submit, traced_wait_any

    # -- reporting -------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: span time not covered by child spans."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, index in self.spans:
            totals[name] += (end - start - self._child_ns[index]) / 1e9
        return dict(totals)

    def summary(self) -> dict:
        return {"self_s": self.self_seconds(), "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()}}


def _source_layer(args) -> str:
    return "synth" if args[0].suite == "synth" else "kernel.source"


def _pipeline_layer(args) -> str:
    return ("pipeline_opt" if args[0].config.optimizer.enabled
            else "pipeline")


def merge_summaries(*summaries: dict) -> dict:
    """Add per-process tracer summaries together."""
    merged = {"self_s": defaultdict(float), "counts": defaultdict(int),
              "samples": defaultdict(list)}
    for summary in summaries:
        for section in ("self_s", "counts"):
            for key, value in summary[section].items():
                merged[section][key] += value
        for key, values in summary["samples"].items():
            merged["samples"][key].extend(values)
    return {section: dict(values) for section, values in merged.items()}


# ----------------------------------------------------------------------
# cProfile stage split
# ----------------------------------------------------------------------

def _in_package(key, package: str) -> bool:
    parts = os.path.normpath(key[0]).split(os.sep)
    return "repro" in parts and package in parts


def _is_core(key) -> bool:
    return _in_package(key, "core")


def _is_pipeline(key) -> bool:
    return _in_package(key, "uarch") and key[0].endswith("pipeline.py")


def stage_split(profile) -> dict[str, float]:
    """Profiled seconds per pipeline stage.

    A stage's time is the inclusive time of its entry method on
    ``Pipeline`` minus the calls it makes into ``repro/core/``; those
    calls, wherever they come from, are the optimizer's time.  A
    helper method belongs to the stage of the caller that spends the
    most time in it.  The numbers include cProfile's own overhead, so
    read them as shares of the pass.
    """
    stats = pstats.Stats(profile).stats
    memo: dict = {}

    def stage_of(key, seen=()) -> str | None:
        if key in memo:
            return memo[key]
        stage = None
        if _is_pipeline(key) and key[2] in STAGE_ENTRIES:
            stage = STAGE_ENTRIES[key[2]]
        elif key in stats and key not in seen:
            callers = stats[key][4]
            for caller in sorted(callers, key=lambda c: -callers[c][3]):
                stage = stage_of(caller, seen + (key,))
                if stage is not None:
                    break
        memo[key] = stage
        return stage

    split = dict.fromkeys(STAGES, 0.0)
    for key, (_, _, _, cumtime, _) in stats.items():
        if _is_pipeline(key) and key[2] in STAGE_ENTRIES:
            split[STAGE_ENTRIES[key[2]]] += cumtime
    for key, (_, _, _, _, callers) in stats.items():
        if not _is_core(key):
            continue
        for caller, (_, _, _, cumtime) in callers.items():
            if _is_core(caller):
                continue
            split["optimizer"] += cumtime
            stage = stage_of(caller)
            if stage is not None:
                split[stage] -= cumtime
    return split


# ----------------------------------------------------------------------
# traced worker entry point
# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--connect", required=True)
    parser.add_argument("--replica", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    from repro.engine.backend import run_worker
    tracer = Tracer().install()
    try:
        run_worker(args.connect, store_dir=args.replica)
    finally:
        tracer.uninstall()
        with open(args.out, "w") as fh:
            json.dump(tracer.summary(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

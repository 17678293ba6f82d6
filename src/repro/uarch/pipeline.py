"""Cycle-level out-of-order superscalar timing model.

Trace-driven replay of the oracle instruction stream through the
paper's machine (Table 2): fetch → decode → rename(/optimize) →
schedule → register read → execute → retire.

Modeling notes (all standard for SimpleScalar-era studies, and
documented in DESIGN.md):

* **Wrong-path fetch** is charged as a front-end bubble: when a
  mispredicted control instruction is fetched, fetch stops until the
  branch resolves, then pays a redirect and refills the front end.
  The minimum resolution loop of the baseline machine is 20 cycles.
* **Bypass** is modeled by separating *wakeup* (dependents may issue
  ``exec_latency`` cycles after the producer issues) from
  *completion* (architectural effects: branch redirects, value
  feedback, retirement eligibility — ``regread_stages`` later).
  Instructions that finish at rename (early-executed, nop) get one
  combined wakeup-and-completion event instead.
* **Memory disambiguation** is oracle-based: true addresses identify
  the youngest in-flight older store that overlaps each load.  An
  exact-match store forwards its data; partial overlaps force the load
  to wait for the store and access the cache.
* **Stores** complete at address generation + 1 (write-buffer
  semantics); their cache-line touch happens at issue so later loads
  see warm lines.

The pipeline consumes a packed
:class:`~repro.functional.trace.PackedTrace` directly — the fetch
stage walks the integer columns by row index and builds
:class:`DynInstr` records via :meth:`DynInstr.from_packed`, never
materializing per-entry objects.  Everything that depends only on the
static instruction (opcode tables, destination, non-zero sources, the
renamer's rename plan) is decoded once per static instruction into a
per-run decode table (:func:`~repro.uarch.dyninstr.decode_table`,
indexed like ``PackedTrace.iidx``), so fetch fills those fields with
one tuple unpack per row.  Any other iterable of
:class:`TraceEntry` (a list, a lazy stream) is packed up front by
``PackedTrace.from_entries``; the columns are a fraction of the size
of the equivalent entry list, so materializing is cheap.

The per-cycle loop fast-forwards across *provably idle* stretches —
cycles where no event fires, no queue holds a ready instruction, and
neither fetch, rename, dispatch, nor retire can act — crediting the
front-end stall counters for the skipped cycles exactly as the
cycle-by-cycle loop would have.  Cycle counts and every stat are
bit-identical to the unskipped loop; only wall-clock time changes.

When the stream ends the machine performs a deterministic drain:
fetch stops, every in-flight instruction retires, and the final cycle
count includes the drain.  Per-segment runs of a split trace
therefore produce exact instruction and event counters (each entry is
fetched/issued/retired exactly once across segments) while cycle
counts carry one pipeline-fill + drain overhead per segment (see
``PipelineStats.merge``).
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Iterable

from ..functional.emulator import ArchState, TraceEntry
from ..functional.trace import PackedTrace
from ..isa.opcodes import OP_LATENCY, OPCODE_ID, Opcode, QUEUE_MEM
from .branch_predictor import FrontEndPredictor
from .caches import MemoryHierarchy
from .config import MachineConfig
from .dyninstr import DynInstr, decode_table
from .regfile import OutOfRegisters, PhysRegFile
from .rename import BaselineRenamer, Renamer
from .scheduler import SchedulerBank
from .stats import PipelineStats

_BLOCK_SHIFT = 3  # 8-byte blocks for memory-dependence tracking

_EV_WAKEUP = 0
_EV_COMPLETE = 1
#: Wakeup and completion in one event, for instructions that finish at
#: rename (early-executed or nop): both fire in the same cycle, and
#: the pair was adjacent in ``(cycle, seq)`` heap order anyway.
_EV_RENAMED = 2

_NOP_ID = OPCODE_ID[Opcode.NOP]

_DEADLOCK_WINDOW = 500_000


class SimulationDeadlock(Exception):
    """Raised when the pipeline stops making forward progress."""


class Pipeline:
    """One simulated machine executing one dynamic trace."""

    def __init__(self, trace: "PackedTrace | Iterable[TraceEntry]",
                 config: MachineConfig,
                 renamer: Renamer | None = None,
                 prf: PhysRegFile | None = None,
                 arch_state: ArchState | None = None):
        if not isinstance(trace, PackedTrace):
            trace = PackedTrace.from_entries(trace)
        self._trace = trace
        self._next_row = 0
        self._n_rows = len(trace)
        self.config = config
        self.prf = prf if prf is not None else PhysRegFile(config.num_pregs)
        if renamer is None:
            renamer = BaselineRenamer(self.prf)
        self.renamer = renamer
        self._statics = decode_table(trace.instrs, renamer.rename_plan)
        self.hierarchy = MemoryHierarchy(config.il1, config.dl1, config.l2,
                                         config.memory_latency)
        self.predictor = FrontEndPredictor(config.gshare_bits,
                                           config.btb_entries,
                                           config.ras_entries)
        self.sched = SchedulerBank(config.sched_entries,
                                   config.n_simple_ialu,
                                   config.n_complex_ialu, config.n_fpalu,
                                   config.n_agen)
        self.stats = PipelineStats()
        self.now = 0
        # front end
        self._frontend: deque[tuple[int, DynInstr]] = deque()
        self._frontend_cap = config.frontend_depth * config.fetch_width
        self._fetch_blocked_by: DynInstr | None = None
        self._fetch_resume_cycle = 0
        self._current_fetch_line = -1
        # rename / dispatch
        self._dispatch_queue: deque[tuple[int, DynInstr]] = deque()
        self._dispatch_cap = (config.dispatch_stages + 1) * config.rename_width
        self._rob: deque[DynInstr] = deque()
        # execution bookkeeping
        self._events: list[tuple[int, int, int, DynInstr]] = []
        self._waiting_on_preg: dict[int, list[DynInstr]] = {}
        self._waiting_on_store: dict[int, list[DynInstr]] = {}
        self._last_writer: dict[int, DynInstr] = {}
        self._last_retire_cycle = 0
        # Optional retirement-side architectural replay: every retired
        # entry is folded into *arch_state* in retirement order, so the
        # differential harness can compare the state this machine's
        # retirement implies against the emulator's final state.
        self._arch_state = arch_state

    # ==================================================================
    # main loop
    # ==================================================================

    def run(self) -> PipelineStats:
        """Simulate until the trace is exhausted **and** fully drained."""
        stats = self.stats
        events = self._events
        frontend = self._frontend
        dispatch_queue = self._dispatch_queue
        rob = self._rob
        queues = self.sched.queues_by_idx
        q0, q1, q2, q3 = queues
        frontend_cap = self._frontend_cap
        n_rows = self._n_rows
        while self._next_row < n_rows or stats.retired < stats.fetched:
            self.now += 1
            now = self.now
            # Each stage call is guarded by the exact condition under
            # which the stage would do anything (the method bodies
            # early-return on the same condition, so the guards only
            # skip no-op calls, never work).
            if events and events[0][0] <= now:
                self._writeback()
            if q0.ready or q3.ready or q1.ready or q2.ready:
                self._issue()
            if dispatch_queue and dispatch_queue[0][0] <= now:
                self._dispatch()
            if frontend and frontend[0][0] <= now:
                self._rename()
            if self._fetch_blocked_by is not None:
                stats.fetch_blocked_cycles += 1
            elif now < self._fetch_resume_cycle:
                stats.fetch_icache_stall_cycles += 1
            elif self._next_row < n_rows:
                self._fetch()
            head = rob[0] if rob else None
            if (head is not None and head.completed
                    and head.complete_cycle <= now):
                self._retire()
            if self.now - self._last_retire_cycle > _DEADLOCK_WINDOW:
                raise SimulationDeadlock(
                    f"no retirement since cycle {self._last_retire_cycle} "
                    f"(now {self.now}, retired "
                    f"{stats.retired}/{stats.fetched} fetched, "
                    f"rob {len(rob)}, "
                    f"head {rob[0] if rob else None})")
            # --- idle-cycle fast-forward -------------------------------
            # If the next cycle provably does nothing, jump straight to
            # the next cycle where anything *can* happen, crediting the
            # per-cycle fetch stall counters for the skipped cycles.
            if self._next_row >= n_rows and stats.retired >= stats.fetched:
                break  # drained this cycle; nothing left to skip to
            nxt = self.now + 1
            if frontend and frontend[0][0] <= nxt:
                continue  # rename (or a rename stall) next cycle
            if rob and rob[0].completed:
                continue  # retirement can proceed next cycle
            if q0.ready or q3.ready or q1.ready or q2.ready:
                continue  # issue next cycle
            if dispatch_queue and dispatch_queue[0][0] <= nxt:
                continue
            blocked = self._fetch_blocked_by is not None
            resume = self._fetch_resume_cycle
            can_fetch = (not blocked and nxt >= resume
                         and self._next_row < n_rows
                         and len(frontend) < frontend_cap)
            if can_fetch:
                continue
            target = self._last_retire_cycle + _DEADLOCK_WINDOW + 1
            if events:
                target = min(target, events[0][0])
            if dispatch_queue:
                target = min(target, dispatch_queue[0][0])
            if frontend:
                target = min(target, frontend[0][0])
            if (not blocked and resume > nxt and self._next_row < n_rows
                    and len(frontend) < frontend_cap):
                target = min(target, resume)
            if target <= nxt:
                continue
            # Cycles nxt .. target-1 would each have run _fetch and
            # counted a stall; replicate that bookkeeping in bulk.
            if blocked:
                stats.fetch_blocked_cycles += target - nxt
            elif resume > nxt:
                stats.fetch_icache_stall_cycles += min(target, resume) - nxt
            self.now = target - 1
        self.stats.cycles = self.now
        self._finalize_stats()
        return self.stats

    def _finalize_stats(self) -> None:
        stats = self.stats
        stats.il1_hits = self.hierarchy.il1.hits
        stats.il1_misses = self.hierarchy.il1.misses
        stats.dl1_hits = self.hierarchy.dl1.hits
        stats.dl1_misses = self.hierarchy.dl1.misses
        stats.l2_hits = self.hierarchy.l2.hits
        stats.l2_misses = self.hierarchy.l2.misses
        stats.cond_branches = self.predictor.cond_branches
        stats.cond_mispredicts = self.predictor.cond_mispredicts
        stats.indirect_jumps = self.predictor.indirect_jumps
        stats.indirect_mispredicts = self.predictor.indirect_mispredicts
        stats.preg_high_water = self.prf.high_water
        stats.preg_alloc_stalls = self.prf.allocation_stalls
        self.renamer.collect_stats(stats)

    # ==================================================================
    # writeback: wakeup + completion events
    # ==================================================================

    def _writeback(self) -> None:
        events = self._events
        now = self.now
        pop = heapq.heappop
        while events and events[0][0] <= now:
            _, _, kind, di = pop(events)
            if kind != _EV_COMPLETE:
                self._do_wakeup(di)
            if kind != _EV_WAKEUP:
                self._do_complete(di)

    def _do_wakeup(self, di: DynInstr) -> None:
        dst_preg = di.dst_preg
        if dst_preg is not None:
            self.prf.mark_ready(dst_preg, di.result)
            waiters = self._waiting_on_preg.pop(dst_preg, None)
            if waiters:
                queues = self.sched.queues_by_idx
                for waiter in waiters:
                    waiter.deps_remaining -= 1
                    if waiter.deps_remaining == 0:
                        queues[waiter.queue_idx].ready += 1
        if di.is_store:
            waiters = self._waiting_on_store.pop(di.seq, None)
            if waiters:
                queues = self.sched.queues_by_idx
                for waiter in waiters:
                    waiter.deps_remaining -= 1
                    if waiter.deps_remaining == 0:
                        queues[waiter.queue_idx].ready += 1

    def _do_complete(self, di: DynInstr) -> None:
        now = self.now
        di.completed = True
        di.complete_cycle = now
        self.renamer.on_complete(di, now)
        if di.is_store:
            self.renamer.on_store_executed(di)
        if di is self._fetch_blocked_by:
            self._fetch_blocked_by = None
            self._fetch_resume_cycle = now + self.config.redirect_penalty
            if di.early_resolved:
                self.stats.mispredicts_recovered_early += 1

    # ==================================================================
    # issue / execute
    # ==================================================================

    def _issue(self) -> None:
        now = self.now
        regread = self.config.regread_stages
        events = self._events
        push = heapq.heappush
        stats = self.stats
        for di in self.sched.select_all():
            di.issue_cycle = now
            stats.issued += 1
            if di.queue_idx != QUEUE_MEM:
                # A removed load runs as a one-cycle register move.
                latency = 1 if di.removed_load else OP_LATENCY[di.op]
            else:
                latency = self._memory_latency(di)
            di.exec_latency = latency
            seq = di.seq
            push(events, (now + latency, seq, _EV_WAKEUP, di))
            push(events, (now + regread + latency, seq, _EV_COMPLETE, di))

    def _memory_latency(self, di: DynInstr) -> int:
        """Execution latency of a memory-queue instruction."""
        agen = 0 if di.addr_known else 1
        if di.is_store:
            # Write-buffer semantics: touch the line, complete quickly.
            self.hierarchy.dwrite(di.addr)
            self.stats.dcache_accesses += 1
            return agen + 1
        store_dep = di.store_dep
        if (store_dep is not None and not store_dep.retired
                and store_dep.addr == di.addr
                and store_dep.mem_size == di.mem_size):
            self.stats.store_forwards_lsq += 1
            return agen + 1
        self.stats.dcache_accesses += 1
        return agen + self.hierarchy.dread(di.addr)

    # ==================================================================
    # dispatch: rename exit -> scheduler entry
    # ==================================================================

    def _dispatch(self) -> None:
        moved = 0
        queue = self._dispatch_queue
        now = self.now
        width = self.config.rename_width
        queues = self.sched.queues_by_idx
        while queue and moved < width:
            enter_cycle, di = queue[0]
            if enter_cycle > now:
                break
            target = queues[di.queue_idx]
            if len(target._entries) >= target.capacity:
                target.full_stalls += 1
                break
            queue.popleft()
            self._setup_deps(di)
            target.insert(di)
            moved += 1

    def _setup_deps(self, di: DynInstr) -> None:
        deps = 0
        src_pregs = di.src_pregs
        if src_pregs:
            is_ready = self.prf.is_ready
            waiting = self._waiting_on_preg
            # A register named twice is one dependence.
            if len(src_pregs) > 1:
                src_pregs = set(src_pregs)
            for preg in src_pregs:
                if not is_ready(preg):
                    deps += 1
                    waiting.setdefault(preg, []).append(di)
        store_dep = di.store_dep
        if store_dep is not None:
            if store_dep.issue_cycle < 0:
                # Store hasn't produced its data/address yet.
                deps += 1
                self._waiting_on_store.setdefault(store_dep.seq,
                                                  []).append(di)
            elif not store_dep.completed:
                # Store issued; its wakeup may still be in flight.
                wakeup = store_dep.issue_cycle + store_dep.exec_latency
                if wakeup > self.now:
                    deps += 1
                    self._waiting_on_store.setdefault(store_dep.seq,
                                                      []).append(di)
        di.deps_remaining = deps

    # ==================================================================
    # rename (+ optimize)
    # ==================================================================

    def _rename(self) -> None:
        config = self.config
        frontend = self._frontend
        now = self.now
        if not frontend or frontend[0][0] > now:
            return
        renamer = self.renamer
        rename = renamer.rename
        rob = self._rob
        dispatch_queue = self._dispatch_queue
        rob_size = config.rob_size
        dispatch_cap = self._dispatch_cap
        stats = self.stats
        width = config.rename_width
        rename_done = now + config.effective_rename_stages
        enter = rename_done + config.dispatch_stages
        events = self._events
        push = heapq.heappush
        renamed = 0
        began_bundle = False
        while renamed < width and frontend and frontend[0][0] <= now:
            if len(rob) >= rob_size:
                stats.rename_stall_rob += 1
                break
            if len(dispatch_queue) >= dispatch_cap:
                stats.rename_stall_dispatch += 1
                break
            di = frontend[0][1]
            if not began_bundle:
                renamer.begin_bundle(now)
                began_bundle = True
            try:
                rename(di, now)
            except OutOfRegisters:
                if renamer.relieve_pressure():
                    continue  # retry this instruction
                stats.rename_stall_pregs += 1
                break
            frontend.popleft()
            renamed += 1
            rob.append(di)
            # Classify the renamed instruction and route it onward.
            if di.misspec_flush and self._fetch_blocked_by is None:
                # An MBC speculative-staleness recovery: treat it like
                # a mispredict — fetch is squashed until this load
                # resolves.
                self._fetch_blocked_by = di
            if di.mem_size:
                stats.mem_ops += 1
                if di.addr_known:
                    stats.mem_addr_known += 1
                if di.is_load:
                    stats.loads += 1
                    if di.removed_load:
                        stats.loads_removed += 1
                self._track_memory_dependence(di)
            if di.early:
                stats.early_executed += 1
                if di.is_control:
                    stats.early_branches += 1
                if di.mispredicted:
                    di.early_resolved = True
                push(events, (rename_done, di.seq, _EV_RENAMED, di))
            elif di.op == _NOP_ID:
                push(events, (rename_done, di.seq, _EV_RENAMED, di))
            else:
                dispatch_queue.append((enter, di))

    def _track_memory_dependence(self, di: DynInstr) -> None:
        addr = di.addr
        size = di.mem_size
        first_block = addr >> _BLOCK_SHIFT
        last_block = (addr + size - 1) >> _BLOCK_SHIFT
        last_writer = self._last_writer
        if di.is_store:
            for block in range(first_block, last_block + 1):
                last_writer[block] = di
            return
        # Load: find the youngest older overlapping in-flight store.
        best: DynInstr | None = None
        for block in range(first_block, last_block + 1):
            store = last_writer.get(block)
            if store is None or store.retired:
                continue
            s_addr = store.addr
            if s_addr < addr + size and addr < s_addr + store.mem_size:
                if best is None or store.seq > best.seq:
                    best = store
        if best is not None and not di.removed_load:
            di.store_dep = best

    # ==================================================================
    # fetch
    # ==================================================================

    def _fetch(self) -> None:
        config = self.config
        stats = self.stats
        if self._fetch_blocked_by is not None:
            stats.fetch_blocked_cycles += 1
            return
        now = self.now
        if now < self._fetch_resume_cycle:
            stats.fetch_icache_stall_cycles += 1
            return
        row = self._next_row
        n = self._n_rows
        if row >= n:
            return
        frontend = self._frontend
        cap = self._frontend_cap
        trace = self._trace
        pcs = trace.pcs
        fetch_width = config.fetch_width
        block_mask = ~(fetch_width * 4 - 1)
        hierarchy = self.hierarchy
        line_shift = hierarchy.il1.line_shift
        il1_latency = config.il1.latency
        frontend_time = now + config.frontend_depth
        from_packed = DynInstr.from_packed
        statics = self._statics
        fe_append = frontend.append
        fetched = 0
        block_start = -1
        while fetched < fetch_width and row < n and len(frontend) < cap:
            pc = pcs[row]
            if block_start < 0:
                block_start = pc & block_mask
            elif pc & block_mask != block_start:
                # Fetch delivers one aligned block per cycle; the next
                # block starts next cycle.
                break
            line = pc >> line_shift
            if line != self._current_fetch_line:
                latency = hierarchy.ifetch(pc)
                self._current_fetch_line = line
                if latency > il1_latency:
                    # I-cache miss: this group ends; resume after fill.
                    self._fetch_resume_cycle = now + latency
                    break
            di = from_packed(trace, row, now, statics)
            row += 1
            fe_append((frontend_time, di))
            fetched += 1
            if di.is_control:
                taken = di.taken
                mispredicted, bubble = self.predictor.predict_op(
                    di.op, di.instr, taken == 1, di.next_pc)
                di.mispredicted = mispredicted
                if mispredicted:
                    self._fetch_blocked_by = di
                    self._current_fetch_line = -1
                    break
                if bubble:
                    di.btb_bubble = True
                    stats.btb_bubbles += 1
                    self._fetch_resume_cycle = (
                        now + config.btb_miss_penalty)
                    self._current_fetch_line = -1
                    break
                if taken:
                    # Correctly predicted taken: the fetch group ends,
                    # the next group starts at the target next cycle.
                    self._current_fetch_line = -1
                    break
        stats.fetched += fetched
        self._next_row = row

    # ==================================================================
    # retire
    # ==================================================================

    def _retire(self) -> None:
        retired = 0
        rob = self._rob
        now = self.now
        arch_state = self._arch_state
        renamer = self.renamer
        last_writer = self._last_writer
        while (rob and retired < self.config.retire_width
               and rob[0].completed and rob[0].complete_cycle <= now):
            di = rob.popleft()
            di.retired = True
            if arch_state is not None:
                arch_state.apply_di(di)
            renamer.on_retire(di)
            if di.is_store:
                addr = di.addr
                first = addr >> _BLOCK_SHIFT
                last = (addr + di.mem_size - 1) >> _BLOCK_SHIFT
                for block in range(first, last + 1):
                    if last_writer.get(block) is di:
                        del last_writer[block]
            retired += 1
            self.stats.retired += 1
        if retired:
            self._last_retire_cycle = now


def make_pipeline(trace: "PackedTrace | Iterable[TraceEntry]",
                  config: MachineConfig,
                  arch_state: ArchState | None = None) -> Pipeline:
    """Build a :class:`Pipeline` with the config-appropriate renamer.

    ``arch_state``, if given, receives every retired entry in
    retirement order (see :class:`~repro.functional.emulator.\
ArchState`); the differential harness uses this to audit retirement
    against the architectural oracle.
    """
    prf = PhysRegFile(config.num_pregs)
    if config.optimizer.enabled:
        from ..core.optimizer import OptimizingRenamer
        renamer: Renamer = OptimizingRenamer(prf, config)
    else:
        renamer = BaselineRenamer(prf)
    return Pipeline(trace, config, renamer=renamer, prf=prf,
                    arch_state=arch_state)


#: Lazily bound telemetry registry.  The uarch layer must not import
#: :mod:`repro.engine` at module level (the engine imports *this*
#: module during its package init — a module-level import here would
#: touch a partially initialized package); binding at first simulation
#: keeps the layering one-way at import time.
_TELEMETRY = None


def _telemetry():
    global _TELEMETRY
    if _TELEMETRY is None:
        from ..engine.telemetry import TELEMETRY
        _TELEMETRY = TELEMETRY
    return _TELEMETRY


def simulate_trace(trace: "PackedTrace | Iterable[TraceEntry]",
                   config: MachineConfig) -> PipelineStats:
    """Simulate *trace* on *config*'s machine and return its stats.

    *trace* is ideally a :class:`PackedTrace` (what the emulator
    produces); lists and lazy iterables of entries are packed on
    entry.  Builds the optimizing renamer when
    ``config.optimizer.enabled``, otherwise the baseline renamer.

    Telemetry sits at per-run granularity (one clock read pair around
    the whole simulation — never per cycle), recording wall time,
    retired instruction and cycle totals, and a simulation-throughput
    gauge.
    """
    started_ns = time.perf_counter_ns()
    stats = make_pipeline(trace, config).run()
    telemetry = _telemetry()
    if telemetry.enabled:
        elapsed = (time.perf_counter_ns() - started_ns) / 1e9
        telemetry.counter("repro_sim_runs_total").inc()
        telemetry.counter("repro_sim_retired_insns_total").inc(
            stats.retired)
        telemetry.counter("repro_sim_cycles_total").inc(stats.cycles)
        telemetry.histogram("repro_sim_run_seconds").observe(elapsed)
        if elapsed > 0:
            telemetry.gauge("repro_sim_insns_per_second").set(
                stats.retired / elapsed)
            telemetry.gauge("repro_sim_cycles_per_second").set(
                stats.cycles / elapsed)
    return stats

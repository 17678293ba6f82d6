"""Dynamic (in-flight) instruction state for the timing model.

A :class:`DynInstr` carries everything the pipeline tracks about one
dynamic instruction: the oracle values copied straight out of the
packed trace columns (seq, pc, result, effective address, branch
outcome, next pc), the static fields decoded once per static
instruction, physical register operands after rename/optimization,
scheduler routing, readiness bookkeeping, the optimizer outcome flags
(early execution, removed load, known address), and the cycle
timestamps used to compute latencies.

**Static decode.**  Everything that depends only on the static
instruction — the small-integer opcode id ``op`` (indexing the flat
tables in :mod:`repro.isa.opcodes`), memory size, load/store/control
flags, scheduler class and queue, the destination (``dst_arch``: the
architectural index, or ``-1`` for none and for the hardwired-zero
registers), the non-zero register sources ``nz_srcs``, and the
renamer's per-static ``plan`` — is computed by :func:`decode_static`
once per static instruction.  The pipeline builds one
:func:`decode_table` per run, indexed like ``PackedTrace.iidx``, and
:meth:`DynInstr.from_packed` fills all static fields from its row with
one tuple unpack; the entry-based constructor runs the same
:func:`decode_static`, so the two constructors cannot drift.

The hot stages read the direct fields and never materialize a
:class:`~repro.functional.trace.TraceEntry`.  The :attr:`entry` view
is still available (built lazily from the packed trace row) for
diagnostics and for callers that predate the packed format.

Field conventions: ``addr`` is ``-1`` for non-memory instructions;
``taken`` is ``-1`` for non-control instructions, else ``0``/``1``.
"""

from __future__ import annotations

from typing import Callable

from ..functional.trace import NO_ADDR, NO_TAKEN, PackedTrace, TraceEntry
from ..isa.instructions import Instruction
from ..isa.opcodes import (OP_CLASS_BY_ID, OP_IS_CONTROL, OP_IS_LOAD,
                           OP_IS_STORE, OP_MEM_SIZE, OP_QUEUE, OPCODE_ID)
from ..isa.registers import is_zero_reg

#: The :class:`DynInstr` slots filled by :func:`decode_static`, in the
#: order of its tuple.
STATIC_FIELDS = ("op", "instr", "reg_srcs", "mem_size", "is_load",
                 "is_store", "is_control", "sched_class", "queue_idx",
                 "dst_arch", "nz_srcs", "plan")


def decode_static(instr: Instruction, plan: object = None) -> tuple:
    """The static fields of *instr*, in :data:`STATIC_FIELDS` order.

    *plan* is the installed renamer's per-static-instruction rename
    plan (:meth:`~repro.uarch.rename.Renamer.rename_plan`), carried
    through unchanged.
    """
    op = OPCODE_ID[instr.opcode]
    dst = instr.dst
    reg_srcs = instr.reg_sources()
    return (op, instr, reg_srcs, OP_MEM_SIZE[op], OP_IS_LOAD[op],
            OP_IS_STORE[op], OP_IS_CONTROL[op], OP_CLASS_BY_ID[op],
            OP_QUEUE[op], -1 if dst is None or is_zero_reg(dst) else dst,
            tuple(arch for arch in reg_srcs if not is_zero_reg(arch)),
            plan)


def decode_table(instrs: list[Instruction],
                 rename_plan: Callable[[Instruction], object]
                 ) -> list[tuple]:
    """:func:`decode_static` of every static instruction, in order.

    Indexed like ``PackedTrace.iidx``; costs O(static instructions)
    and is built once per pipeline run.
    """
    return [decode_static(instr, rename_plan(instr)) for instr in instrs]


class DynInstr:
    """One in-flight dynamic instruction."""

    __slots__ = (
        "_trace", "_row", "_entry",
        "seq", "pc", "op", "instr", "reg_srcs",
        "result", "addr", "taken", "next_pc", "mem_size",
        "is_load", "is_store", "is_control",
        "sched_class", "queue_idx", "dst_arch", "nz_srcs", "plan",
        "src_pregs", "dst_preg", "prev_preg",
        "deps_remaining", "store_dep",
        "early", "early_value", "removed_load", "addr_known",
        "mispredicted", "early_resolved", "btb_bubble", "misspec_flush",
        "fetch_cycle", "rename_cycle", "issue_cycle", "complete_cycle",
        "completed", "retired", "exec_latency",
    )

    def __init__(self, entry: TraceEntry, fetch_cycle: int):
        # Entry-based construction, kept for callers (and tests) that
        # build instructions from individual TraceEntry objects.  The
        # pipeline's fetch stage uses :meth:`from_packed` instead; both
        # take their static fields from :func:`decode_static`.
        self._trace = None
        self._row = -1
        self._entry = entry
        (self.op, self.instr, self.reg_srcs, self.mem_size, self.is_load,
         self.is_store, self.is_control, self.sched_class, self.queue_idx,
         self.dst_arch, self.nz_srcs, self.plan) = decode_static(entry.instr)
        self.seq = entry.seq
        self.pc = entry.pc
        self.result = entry.result
        addr = entry.addr
        self.addr = NO_ADDR if addr is None else addr
        taken = entry.taken
        self.taken = NO_TAKEN if taken is None else (1 if taken else 0)
        self.next_pc = entry.next_pc
        self.fetch_cycle = fetch_cycle
        self._init_pipeline_state()

    @classmethod
    def from_packed(cls, trace: PackedTrace, row: int, fetch_cycle: int,
                    statics: list[tuple]) -> "DynInstr":
        """Build from one packed-trace row without materializing views.

        *statics* is the run's :func:`decode_table` over
        ``trace.instrs``.
        """
        di = object.__new__(cls)
        di._trace = trace
        di._row = row
        di._entry = None
        (di.op, di.instr, di.reg_srcs, di.mem_size, di.is_load,
         di.is_store, di.is_control, di.sched_class, di.queue_idx,
         di.dst_arch, di.nz_srcs, di.plan) = statics[trace.iidx[row]]
        di.seq = trace.seqs[row]
        di.pc = trace.pcs[row]
        di.result = trace.results[row]
        di.addr = trace.addrs[row]
        di.taken = trace.takens[row]
        di.next_pc = trace.next_pcs[row]
        di.fetch_cycle = fetch_cycle
        # Pipeline-state defaults, inlined from _init_pipeline_state —
        # this constructor runs once per fetched instruction.
        di.src_pregs = ()
        di.dst_preg = None
        di.prev_preg = None
        di.deps_remaining = 0
        di.store_dep = None
        di.early = False
        di.early_value = None
        di.removed_load = False
        di.addr_known = False
        di.mispredicted = False
        di.early_resolved = False
        di.btb_bubble = False
        di.misspec_flush = False
        di.rename_cycle = -1
        di.issue_cycle = -1
        di.complete_cycle = -1
        di.completed = False
        di.retired = False
        di.exec_latency = 0
        return di

    def _init_pipeline_state(self) -> None:
        self.src_pregs: tuple[int, ...] = ()
        self.dst_preg: int | None = None
        self.prev_preg: int | None = None
        self.deps_remaining = 0
        self.store_dep: "DynInstr | None" = None
        self.early = False
        self.early_value: int | None = None
        self.removed_load = False
        self.addr_known = False
        self.mispredicted = False
        self.early_resolved = False
        self.btb_bubble = False
        self.misspec_flush = False
        self.rename_cycle = -1
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.completed = False
        self.retired = False
        self.exec_latency = 0

    @property
    def entry(self) -> TraceEntry:
        """The full oracle view, materialized lazily from the trace."""
        e = self._entry
        if e is None:
            e = self._entry = self._trace.entry(self._row)
        return e

    @property
    def opcode(self):
        return self.instr.opcode

    def __repr__(self) -> str:
        flags = []
        if self.early:
            flags.append("early")
        if self.removed_load:
            flags.append("rle")
        if self.mispredicted:
            flags.append("mispred")
        flag_text = f" [{','.join(flags)}]" if flags else ""
        return (f"DynInstr(#{self.seq} pc={self.pc:#x} "
                f"{self.instr}{flag_text})")

"""Register rename: the RAT and the baseline renamer.

The baseline machine renames architectural to physical registers with
no optimization — this is the machine the paper's speedups are measured
against.  The continuous optimizer
(:class:`repro.core.optimizer.OptimizingRenamer`) plugs into the same
:class:`Renamer` interface so the pipeline is agnostic to which one is
installed.
"""

from __future__ import annotations

from ..isa.instructions import Instruction
from ..isa.program import STACK_BASE
from ..isa.registers import (NUM_ARCH_REGS, STACK_POINTER_REG, is_fp_reg,
                             is_zero_reg)
from .dyninstr import DynInstr
from .regfile import OutOfRegisters, PhysRegFile
from .stats import PipelineStats


class Renamer:
    """Interface the pipeline drives each cycle.

    Implementations fill in the rename-related fields of each
    :class:`DynInstr` (``src_pregs``, ``dst_preg``, ``prev_preg`` and —
    for the optimizer — the ``early``/``removed_load``/``addr_known``
    flags) and manage physical-register references.
    """

    def rename_plan(self, instr: Instruction) -> object:
        """Per-static-instruction state for :meth:`rename`, or None.

        Called once per static instruction when the pipeline builds its
        decode table; the result rides in every matching
        ``DynInstr.plan``.  Instructions built outside a pipeline carry
        ``plan=None``.
        """
        return None

    def begin_bundle(self, cycle: int) -> None:
        """Called once per cycle before the first rename of the cycle."""

    def rename(self, di: DynInstr, cycle: int) -> None:
        """Rename one instruction (may raise ``OutOfRegisters``)."""
        raise NotImplementedError

    def on_complete(self, di: DynInstr, cycle: int) -> None:
        """Called when *di* finishes execution (writeback)."""
        raise NotImplementedError

    def on_retire(self, di: DynInstr) -> None:
        """Called when *di* retires."""
        raise NotImplementedError

    def on_store_executed(self, di: DynInstr) -> None:
        """Called when a store's address is definitively known."""

    def relieve_pressure(self) -> bool:
        """Drop droppable state to free a physical register, if possible."""
        return False

    def collect_stats(self, stats: PipelineStats) -> None:
        """Contribute implementation-specific counters to *stats*."""


class ArchRAT:
    """Architectural-to-physical register mapping for all 64 registers."""

    def __init__(self, prf: PhysRegFile):
        self._prf = prf
        self._map: list[int | None] = [None] * NUM_ARCH_REGS
        for arch in range(NUM_ARCH_REGS):
            if is_zero_reg(arch):
                continue
            preg = prf.allocate()
            value: int | float
            if is_fp_reg(arch):
                value = 0.0
            elif arch == STACK_POINTER_REG:
                value = STACK_BASE
            else:
                value = 0
            prf.mark_ready(preg, value)
            self._map[arch] = preg

    def lookup(self, arch: int) -> int | None:
        """Current physical mapping of *arch* (None for zero registers)."""
        return self._map[arch]

    def remap(self, arch: int, preg: int) -> int:
        """Point *arch* at *preg*; returns the previous mapping."""
        previous = self._map[arch]
        self._map[arch] = preg
        return previous


class BaselineRenamer(Renamer):
    """Plain rename with R10000-style free-at-overwriter-retire.

    Reads the statically decoded ``dst_arch`` (``-1`` for none/zero)
    and ``nz_srcs`` (register sources minus the hardwired zeros), so
    renaming is one RAT read per source and one remap per destination.
    """

    def __init__(self, prf: PhysRegFile):
        self._prf = prf
        self.rat = ArchRAT(prf)
        self._rat_map = self.rat._map

    def rename(self, di: DynInstr, cycle: int) -> None:
        prf = self._prf
        dst = di.dst_arch
        # Check capacity before taking any references so a failed
        # rename leaves no state behind.
        if dst >= 0 and not prf.can_allocate():
            raise OutOfRegisters("no free physical registers")
        srcs = di.nz_srcs
        if srcs:
            rat_map = self._rat_map
            add_ref = prf.add_ref
            src_pregs = []
            for arch in srcs:
                preg = rat_map[arch]
                add_ref(preg)
                src_pregs.append(preg)
            di.src_pregs = tuple(src_pregs)
        if dst >= 0:
            new_preg = prf.allocate()
            rat_map = self._rat_map
            di.prev_preg = rat_map[dst]
            rat_map[dst] = new_preg
            di.dst_preg = new_preg
        di.rename_cycle = cycle

    def on_complete(self, di: DynInstr, cycle: int) -> None:
        self._prf.release_all(di.src_pregs)

    def on_retire(self, di: DynInstr) -> None:
        if di.prev_preg is not None:
            self._prf.release(di.prev_preg)

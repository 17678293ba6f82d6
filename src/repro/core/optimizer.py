"""The continuous optimizer: an optimizing renamer for the pipeline.

This is the paper's contribution.  :class:`OptimizingRenamer` replaces
the baseline renamer in the rename stage and, for every dynamic
instruction:

1. resolves each source against the augmented RAT (symbolic values of
   the form ``(preg << scale) ± offset``) and the known-value table
   fed by value feedback;
2. applies CP/RA (:mod:`repro.core.cpra`) — possibly executing the
   instruction entirely within the optimizer (*early execution*),
   resolving mispredicted branches at rename, or rewriting the
   instruction's dependence to an earlier producer;
3. for memory operations with rename-time addresses, consults the
   Memory Bypass Cache (:mod:`repro.core.mbc`) to eliminate redundant
   loads and forward stores;
4. enforces the intra-bundle dependence-depth limits of Section 6.2
   (chained additions, chained memory operations);
5. verifies every produced value against the oracle trace — the
   paper's strict expression and value checking (Section 4.2).

Operating modes (Figure 9): with ``enable_opt`` off, only value
feedback is active — sources become known solely through fed-back
execution results, instructions with fully known inputs still execute
early, but no symbolic rewriting, constant propagation through the
RAT, or RLE/SF happens.  This is the paper's "eager bypassing"
feedback-only configuration.

Physical-register lifetimes follow the reference-counting scheme
(Section 3.1): RAT symbolic bases and MBC entries pin their registers,
and the optimizer sheds that state under register pressure (dropping a
hint is always safe).

Everything that depends only on the static instruction is decoded once
into a rename plan (:meth:`OptimizingRenamer.rename_plan`, called once
per static instruction when the pipeline builds its decode table, and
carried in ``DynInstr.plan``): the handler for the instruction's
category, its source descriptors (immediates and the hardwired-zero
registers pre-resolved to interned constant :class:`SymVal` values,
other registers as architectural indices), the load/store displacement,
base and data operands, the MBC eligibility, and the CP/RA transform
from :data:`repro.core.cpra.TRANSFORM_BY_ID`.  Per dynamic instruction
the optimizer only resolves register sources against its tables and
applies the plan.
"""

from __future__ import annotations

from ..functional.alu import COND_TESTS, to_signed64
from ..isa.instructions import Imm, Instruction
from ..isa.opcodes import (OP_COND, OP_SPEC_BY_ID, OPCODE_ID, QUEUE_INT,
                           OpClass, Opcode)
from ..isa.registers import NUM_INT_REGS, is_int_reg, is_zero_reg
from ..uarch.config import MachineConfig
from ..uarch.dyninstr import DynInstr
from ..uarch.regfile import OutOfRegisters, PhysRegFile
from ..uarch.rename import BaselineRenamer
from ..uarch.stats import PipelineStats
from . import cpra, symbolic
from .feedback import ValueFeedbackChannel
from .mbc import MemoryBypassCache
from .symbolic import SymVal

_INT_COND_BRANCHES = frozenset({
    Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLE, Opcode.BGT,
})

_PENDING_INSERT = 0
_PENDING_INVALIDATE = 1

_EARLY = cpra.Kind.EARLY
_REWRITTEN = cpra.Kind.REWRITTEN
_PLAIN_KIND = cpra.Kind.PLAIN
_ADD_ID = OPCODE_ID[Opcode.ADD]

_const = symbolic.const
_add_const = symbolic.add_const
_fold = symbolic.fold


class VerificationError(Exception):
    """The optimizer produced a value that disagrees with the oracle."""


class _OptEntry:
    """Symbolic state of one integer architectural register."""

    __slots__ = ("sym", "sym_ref", "bundle_id", "add_depth", "mem_chain")

    def __init__(self, sym: SymVal):
        self.sym = sym
        self.sym_ref: int | None = None  # preg pinned by sym.base
        self.bundle_id = -1  # bundle that set the depth tags
        self.add_depth = 0
        self.mem_chain = 0


class _Plan:
    """Rename plan of one static instruction.

    ``handler`` is the category handler (an unbound
    :class:`OptimizingRenamer` method taking ``(renamer, di, plan)``).
    Source descriptors ``src_a``/``src_b`` are either an integer
    architectural index (resolved per dynamic instruction against the
    symbolic RAT) or an already-resolved constant :class:`SymVal`
    (immediates, displacements, the hardwired-zero registers); None
    means no such operand.  Fields a category does not use stay None.
    """

    __slots__ = ("handler", "src_a", "src_b", "transform", "disp", "mbc",
                 "is_fp", "data_int", "cond_test", "implied", "link")

    def __init__(self, handler, src_a=None, src_b=None, transform=None,
                 disp: int = 0, mbc: bool = False, is_fp: bool = False,
                 data_int: bool = False, cond_test=None, implied=None,
                 link: int | None = None):
        self.handler = handler
        self.src_a = src_a
        self.src_b = src_b
        self.transform = transform
        self.disp = disp
        #: The instruction reads or writes the MBC (RLE/SF eligible).
        self.mbc = mbc
        self.is_fp = is_fp
        #: Store: the data operand is an integer register.
        self.data_int = data_int
        #: Conditional branch: the condition test on a known value.
        self.cond_test = cond_test
        #: Conditional branch: the value the direction implies for the
        #: condition register, indexed by ``taken`` (0/1), or None.
        self.implied = implied
        #: ``jsr``: the link (return-address) value.
        self.link = link


def _src_desc(src) -> int | SymVal:
    """Descriptor of one integer source operand (see :class:`_Plan`)."""
    if type(src) is Imm:
        return _const(src.value)
    if is_zero_reg(src.index):
        return symbolic.ZERO
    return src.index


class OptimizingRenamer(BaselineRenamer):
    """Rename stage with the continuous optimizer installed."""

    def __init__(self, prf: PhysRegFile, config: MachineConfig):
        super().__init__(prf)
        self._config = config
        ocfg = self._ocfg = config.optimizer
        # Optimizer-config flags, read on every renamed instruction.
        self._enable_opt = ocfg.enable_opt
        self._enable_feedback = ocfg.enable_feedback
        self._mbc_on = ocfg.enable_opt and ocfg.enable_rle_sf
        self._add_depth = ocfg.add_depth
        self._mem_depth = ocfg.mem_depth
        self._verify_on = ocfg.verify
        self.feedback = ValueFeedbackChannel(prf, ocfg.vf_delay)
        self._fb_pending = self.feedback.pending
        self._fb_lookup = self.feedback.lookup
        self.mbc = MemoryBypassCache(ocfg.mbc_entries, prf)
        # Interned plain symbolic value per physical register.
        self._plain = tuple(symbolic.plain(preg)
                            for preg in range(prf.num_regs))
        # Pending MBC writes: applied at the next bundle boundary so no
        # dependence within a rename packet is satisfied by RLE/SF
        # (Section 3.2).  Each pending insert holds a register
        # reference so the base cannot be recycled before commit.
        # Entries are (kind, addr, size, sym, expected, is_fp).
        self._mbc_pending: list[tuple[int, int, int, SymVal | None,
                                      int | float, bool]] = []
        self._pending_refs: list[int] = []
        self._bundle_id = 0
        # Symbolic state per integer architectural register; starts as
        # the plain physical mapping.
        self._entries: list[_OptEntry | None] = [None] * NUM_INT_REGS
        for arch in range(NUM_INT_REGS):
            if is_zero_reg(arch):
                continue
            self._entries[arch] = _OptEntry(
                symbolic.plain(self.rat.lookup(arch)))
        # statistics
        self.stat_early = 0
        self.stat_rewritten = 0
        self.stat_strength_reductions = 0
        self.stat_branch_inferences = 0
        self.stat_mbc_misspeculations = 0
        self.stat_depth_rejections = 0

    # ==================================================================
    # static decode
    # ==================================================================

    def rename_plan(self, instr: Instruction) -> _Plan:
        """Decode *instr* once into its :class:`_Plan`."""
        opcode = instr.opcode
        op = OPCODE_ID[opcode]
        spec = OP_SPEC_BY_ID[op]
        srcs = instr.srcs
        if opcode in _INT_COND_BRANCHES:
            cond_reg = _src_desc(srcs[0])
            implied = None
            if self._enable_opt and type(cond_reg) is int:
                implied = (cpra.branch_implied_value(opcode, False),
                           cpra.branch_implied_value(opcode, True))
                if implied == (None, None):
                    implied = None
            return _Plan(OptimizingRenamer._rename_branch, src_a=cond_reg,
                         cond_test=COND_TESTS[OP_COND[op]],
                         implied=implied)
        if spec.is_jump:
            if opcode is Opcode.BR:
                return _Plan(OptimizingRenamer._rename_br)
            if opcode is Opcode.JSR:
                return _Plan(OptimizingRenamer._rename_jsr,
                             link=instr.pc + 4)
            # ret / jmp: indirect through an integer register.
            return _Plan(OptimizingRenamer._rename_indirect,
                         src_a=_src_desc(srcs[0]))
        if spec.is_load:
            dst = instr.dst
            is_fp = opcode is Opcode.LDF
            mbc = (self._mbc_on and dst is not None
                   and not is_zero_reg(dst) and (is_fp or is_int_reg(dst)))
            return _Plan(OptimizingRenamer._rename_load,
                         src_a=_src_desc(srcs[0]), disp=instr.disp,
                         mbc=mbc, is_fp=is_fp)
        if spec.is_store:
            data = srcs[0].index
            data_int = is_int_reg(data)
            if data_int:
                data_desc = _src_desc(srcs[0])
            else:
                data_desc = None if is_zero_reg(data) else data
            return _Plan(OptimizingRenamer._rename_store, src_a=data_desc,
                         src_b=_src_desc(srcs[1]), disp=instr.disp,
                         mbc=self._mbc_on, is_fp=opcode is Opcode.STF,
                         data_int=data_int)
        if (spec.op_class in (OpClass.INT_SIMPLE, OpClass.INT_COMPLEX)
                and opcode is not Opcode.NOP):
            if len(srcs) > 2:
                raise ValueError(f"too many sources for CP/RA: {instr}")
            descs = [_src_desc(src) for src in srcs] + [None, None]
            if opcode is Opcode.LDA:
                # lda is presented to CP/RA as an add of the
                # displacement.
                return _Plan(OptimizingRenamer._rename_int_alu,
                             src_a=descs[0], src_b=_const(instr.disp),
                             transform=cpra.TRANSFORM_BY_ID[_ADD_ID])
            return _Plan(OptimizingRenamer._rename_int_alu,
                         src_a=descs[0], src_b=descs[1],
                         transform=cpra.TRANSFORM_BY_ID[op])
        # FP operations, FP branches, nop: plain rename.
        return _Plan(OptimizingRenamer._rename_plain)

    # ==================================================================
    # bundle boundary
    # ==================================================================

    def begin_bundle(self, cycle: int) -> None:
        if self._enable_feedback:
            pending = self._fb_pending
            if pending and pending[0][0] <= cycle:
                self.feedback.drain(cycle)
        if self._mbc_pending:
            for kind, addr, size, sym, expected, is_fp in self._mbc_pending:
                if kind == _PENDING_INSERT:
                    self.mbc.insert(addr, size, sym, expected, is_fp=is_fp)
                else:
                    self.mbc.invalidate_overlap(addr, size)
            self._mbc_pending.clear()
            for preg in self._pending_refs:
                self._prf.release(preg)
            self._pending_refs.clear()
        self._bundle_id += 1

    # ==================================================================
    # rename entry point
    # ==================================================================

    def rename(self, di: DynInstr, cycle: int) -> None:
        if di.dst_arch >= 0 and not self._prf.can_allocate():
            raise OutOfRegisters("no free physical registers")
        di.rename_cycle = cycle
        plan = di.plan
        if plan is None:  # built outside a pipeline's decode table
            plan = di.plan = self.rename_plan(di.instr)
        plan.handler(self, di, plan)

    # ------------------------------------------------------------------
    # source resolution
    # ------------------------------------------------------------------

    def _expr_of(self, arch: int) -> tuple[SymVal, int, int]:
        """Resolved symbolic value + intra-bundle depth tags of *arch*.

        *arch* is a non-zero integer register (the hardwired zeros are
        pre-resolved constants in the rename plan).
        """
        entry = self._entries[arch]
        sym = entry.sym
        base = sym[0]
        if base is not None and self._enable_feedback:
            known = self._fb_lookup(base)
            if known is not None:
                sym = _fold(sym, known)
                self._set_entry_sym(arch, sym)
        if entry.bundle_id == self._bundle_id:
            return sym, entry.add_depth, entry.mem_chain
        return sym, 0, 0

    # ------------------------------------------------------------------
    # RAT symbolic-state updates
    # ------------------------------------------------------------------

    def _set_entry_sym(self, arch: int, sym: SymVal,
                       add_depth: int = 0, mem_chain: int = 0) -> None:
        """Replace the symbolic value of *arch*, managing base pins."""
        entry = self._entries[arch]
        base = sym[0]
        new_ref: int | None = None
        if base is not None and base != self._rat_map[arch]:
            self._prf.add_ref(base)
            new_ref = base
        if entry.sym_ref is not None:
            self._prf.release(entry.sym_ref)
        entry.sym = sym
        entry.sym_ref = new_ref
        if add_depth or mem_chain:
            entry.bundle_id = self._bundle_id
            entry.add_depth = add_depth
            entry.mem_chain = mem_chain
        else:
            entry.bundle_id = -1
            entry.add_depth = 0
            entry.mem_chain = 0

    def _allocate_dst(self, di: DynInstr, sym: SymVal | None,
                      add_depth: int = 0, mem_chain: int = 0) -> int | None:
        """Allocate the destination register and install its new state."""
        dst = di.dst_arch
        if dst < 0:
            return None
        new_preg = self._prf.allocate()
        rat_map = self._rat_map
        di.prev_preg = rat_map[dst]
        rat_map[dst] = new_preg
        di.dst_preg = new_preg
        if dst < NUM_INT_REGS:
            if sym is None or not self._enable_opt:
                sym = self._plain[new_preg]
                add_depth = 0
                mem_chain = 0
            self._set_entry_sym(dst, sym, add_depth, mem_chain)
        return new_preg

    def _take_deps(self, di: DynInstr, pregs: list[int]) -> None:
        add_ref = self._prf.add_ref
        for preg in pregs:
            add_ref(preg)
        di.src_pregs = tuple(pregs)

    def _take_mapping_deps(self, di: DynInstr) -> None:
        """Depend on the physical mappings of all register sources."""
        srcs = di.nz_srcs
        if srcs:
            rat_map = self._rat_map
            self._take_deps(di, [rat_map[arch] for arch in srcs])

    # ------------------------------------------------------------------
    # verification (Section 4.2: strict expression and value checking)
    # ------------------------------------------------------------------

    def _verify(self, di: DynInstr, produced: int | float,
                expected: int | float, what: str) -> None:
        if not self._verify_on or produced == expected:
            return
        if isinstance(produced, int) and isinstance(expected, int):
            produced = to_signed64(produced)
            expected = to_signed64(expected)
        if produced != expected:
            raise VerificationError(
                f"{what} mismatch for {di}: optimizer produced "
                f"{produced!r}, oracle says {expected!r}")

    # ==================================================================
    # instruction-category handlers
    # ==================================================================

    def _rename_int_alu(self, di: DynInstr, plan: _Plan) -> None:
        desc = plan.src_a
        if type(desc) is int:
            a, depth, mem_chain = self._expr_of(desc)
        else:
            a = desc
            depth = mem_chain = 0
        desc = plan.src_b
        if type(desc) is int:
            b, b_depth, b_chain = self._expr_of(desc)
            if b_depth > depth:
                depth = b_depth
            if b_chain > mem_chain:
                mem_chain = b_chain
        else:
            b = desc
        kind, value, sym, uses_alu, reduced = plan.transform(a, b)
        if uses_alu and depth > self._add_depth:
            # This transformation would chain one more serial addition
            # onto this cycle's optimizer ALUs than the hardware has.
            self.stat_depth_rejections += 1
            kind = _PLAIN_KIND
            reduced = False
        elif kind is not _EARLY and not self._enable_opt:
            # Feedback-only mode: no symbolic rewriting.
            kind = _PLAIN_KIND
            reduced = False
        if reduced:
            self.stat_strength_reductions += 1
            di.sched_class = OpClass.INT_SIMPLE
            di.queue_idx = QUEUE_INT
        if kind is _EARLY:
            self._verify(di, value, di.result, "early value")
            di.early = True
            di.early_value = value
            self.stat_early += 1
            dst = self._allocate_dst(
                di, sym, depth + 1 if uses_alu else depth, mem_chain)
            if dst is not None and self._enable_opt:
                # Recording the computed value is constant propagation;
                # in feedback-only mode (Figure 9) the result instead
                # returns through the normal delayed feedback path.
                self.feedback.record_known(dst, value)
            return
        if kind is _REWRITTEN:
            self.stat_rewritten += 1
            base = sym[0]
            if base is not None:
                self._prf.add_ref(base)
                di.src_pregs = (base,)
            else:
                di.src_pregs = ()
            self._allocate_dst(di, sym, depth + 1 if uses_alu else depth,
                               mem_chain)
            return
        self._take_mapping_deps(di)
        self._allocate_dst(di, None)

    def _rename_branch(self, di: DynInstr, plan: _Plan) -> None:
        desc = plan.src_a
        if type(desc) is int:
            sym, depth, _ = self._expr_of(desc)
        else:
            sym = desc
            depth = 0
        taken = None if sym[0] is not None else plan.cond_test(sym[2])
        # The branch test itself is zero-detect logic, not an adder, so
        # it may consume a value produced by this bundle's last allowed
        # addition level (hence the +1).
        if taken is not None and depth <= self._add_depth + 1:
            self._verify(di, int(taken), di.taken,
                         "early branch direction")
            di.early = True
            self.stat_early += 1
        else:
            if taken is not None:
                self.stat_depth_rejections += 1
            self._take_mapping_deps(di)
        implied = plan.implied
        if implied is not None:
            implied = implied[di.taken == 1]
            if implied is not None:
                current = self._entries[desc].sym
                if current[0] is not None:
                    self._set_entry_sym(desc, _const(implied))
                    self.stat_branch_inferences += 1

    def _rename_br(self, di: DynInstr, plan: _Plan) -> None:
        di.early = True
        self.stat_early += 1

    def _rename_jsr(self, di: DynInstr, plan: _Plan) -> None:
        # The link value is a decode-time constant.
        return_pc = plan.link
        self._verify(di, return_pc, di.result, "jsr link value")
        di.early = True
        self.stat_early += 1
        dst = self._allocate_dst(di, _const(return_pc))
        if dst is not None and self._enable_opt:
            self.feedback.record_known(dst, return_pc)

    def _rename_indirect(self, di: DynInstr, plan: _Plan) -> None:
        desc = plan.src_a
        if type(desc) is int:
            sym, depth, _ = self._expr_of(desc)
        else:
            sym = desc
            depth = 0
        if sym[0] is None and depth <= self._add_depth + 1:
            self._verify(di, sym[2], di.next_pc, "early indirect target")
            di.early = True
            self.stat_early += 1
            return
        self._take_mapping_deps(di)

    def _rename_load(self, di: DynInstr, plan: _Plan) -> None:
        desc = plan.src_a
        if type(desc) is int:
            base_sym, depth, mem_chain = self._expr_of(desc)
        else:
            base_sym = desc
            depth = mem_chain = 0
        base = base_sym[0]
        if (base is None and depth <= self._add_depth
                and mem_chain <= self._mem_depth):
            self._verify(di, _add_const(base_sym, plan.disp)[2], di.addr,
                         "rename-time load address")
            di.addr_known = True
            if plan.mbc:
                if plan.is_fp:
                    if self._try_bypass_fp_load(di):
                        return
                elif self._try_bypass_load(di):
                    return
                # MBC miss: install this load's destination for future
                # redundant-load elimination.
                dst = self._allocate_dst(di, None)
                expected = (float(di.result) if plan.is_fp
                            else int(di.result))
                self._pend_insert(di.addr, di.mem_size, self._plain[dst],
                                  expected, is_fp=plan.is_fp)
                return
            self._allocate_dst(di, None)
            return
        # Address not available at rename: agen depends on the
        # (possibly reassociated) base register.
        if self._enable_opt and base is not None:
            self._prf.add_ref(base)
            di.src_pregs = (base,)
        else:
            self._take_mapping_deps(di)
        self._allocate_dst(di, None)

    def _try_bypass_load(self, di: DynInstr) -> bool:
        """Attempt RLE/SF; returns True if the load was eliminated."""
        size = di.mem_size
        addr = di.addr
        line = self.mbc.lookup(addr, size)
        if line is None or line.is_fp:
            return False
        if line.expected_value != int(di.result):
            # Speculative staleness: an unknown-address store modified
            # this location after the entry was installed (Section 3.2's
            # "proceed speculatively and recover" mode).
            self.mbc.invalidate_entry(addr, size)
            self.stat_mbc_misspeculations += 1
            di.misspec_flush = True
            return False
        sym = line.sym
        if sym[0] is not None and self._enable_feedback:
            known = self._fb_lookup(sym[0])
            if known is not None:
                sym = _fold(sym, known)
        di.removed_load = True
        if sym[0] is None:
            self._verify(di, sym[2], di.result, "forwarded load value")
            di.early = True
            di.early_value = sym[2]
            self.stat_early += 1
            dst = self._allocate_dst(di, sym, mem_chain=1)
            if dst is not None:
                self.feedback.record_known(dst, sym[2])
            return True
        if sym.is_plain:
            # The move is optimized away entirely via physical register
            # reuse (the paper's citation [15], Jourdan et al.): the
            # destination architectural register is remapped onto the
            # previous memory operation's register.  No execution at all.
            self._remap_to_existing(di, sym[0])
            self._set_entry_sym(di.dst_arch, self._plain[sym[0]],
                                mem_chain=1)
            return True
        # Offset/scaled forward: becomes a single-cycle move computing
        # (base << scale) + offset on a simple ALU.
        di.sched_class = OpClass.INT_SIMPLE
        di.queue_idx = QUEUE_INT
        self._take_deps(di, [sym[0]])
        self._allocate_dst(di, sym, mem_chain=1)
        return True

    def _remap_to_existing(self, di: DynInstr, preg: int) -> None:
        """Collapse *di* into a RAT remap onto an existing register."""
        di.early = True
        self.stat_early += 1
        self._prf.add_ref(preg)  # the new architectural-mapping reference
        di.prev_preg = self.rat.remap(di.dst_arch, preg)
        di.dst_preg = None

    def _try_bypass_fp_load(self, di: DynInstr) -> bool:
        """RLE/SF for FP loads: forward the previous operation's register.

        No symbolic form exists for FP values, but the load can still
        become a one-cycle FP register move of the matching entry's
        physical register (never an early execution).
        """
        size = di.mem_size
        addr = di.addr
        line = self.mbc.lookup(addr, size)
        if line is None or not line.is_fp:
            return False
        if line.expected_value != float(di.result):
            self.mbc.invalidate_entry(addr, size)
            self.stat_mbc_misspeculations += 1
            di.misspec_flush = True
            return False
        di.removed_load = True
        # As for integer RLE/SF, the move is optimized away by
        # remapping the FP destination onto the existing register.
        self._remap_to_existing(di, line.sym.base)
        return True

    def _rename_store(self, di: DynInstr, plan: _Plan) -> None:
        desc = plan.src_b
        if type(desc) is int:
            base_sym, depth, mem_chain = self._expr_of(desc)
        else:
            base_sym = desc
            depth = mem_chain = 0
        rat_map = self._rat_map
        deps: list[int] = []
        base = base_sym[0]
        if (base is None and depth <= self._add_depth
                and mem_chain <= self._mem_depth):
            self._verify(di, _add_const(base_sym, plan.disp)[2], di.addr,
                         "rename-time store address")
            di.addr_known = True
        elif self._enable_opt and base is not None:
            deps.append(base)
        elif type(desc) is int:
            deps.append(rat_map[desc])
        # Data operand: forwarded symbolically into the MBC, but the
        # store unit itself reads the plain physical register unless
        # the data is a known constant.
        data = plan.src_a
        data_sym: SymVal | None = None
        if plan.data_int:
            if type(data) is int:
                data_sym, _, _ = self._expr_of(data)
                if data_sym[0] is not None:
                    deps.append(rat_map[data])
            else:
                data_sym = data
        elif data is not None:
            deps.append(rat_map[data])
        self._take_deps(di, deps)
        if di.addr_known and plan.mbc:
            # The emulator records a store's data value as the row's
            # result, so ``di.result`` is the store value.
            if plan.is_fp:
                # FP store forwarding: record the data register so a
                # later FP load becomes a register move.  A hardwired
                # zero has no physical register to forward, so the
                # location is invalidated instead.
                mapping = rat_map[data] if type(data) is int else None
                if mapping is not None:
                    self._pend_insert(di.addr, di.mem_size,
                                      self._plain[mapping],
                                      float(di.result), is_fp=True)
                    return
                data_sym = None
            if data_sym is None:
                self._mbc_pending.append(
                    (_PENDING_INVALIDATE, di.addr, di.mem_size,
                     None, 0, False))
                return
            expected = int(di.result)
            if data_sym[0] is None:
                self._verify(di, data_sym[2], expected,
                             "store-forward data value")
            self._pend_insert(di.addr, di.mem_size, data_sym, expected)

    def _pend_insert(self, addr: int, size: int, sym: SymVal,
                     expected: int | float, is_fp: bool = False) -> None:
        self._mbc_pending.append(
            (_PENDING_INSERT, addr, size, sym, expected, is_fp))
        base = sym[0]
        if base is not None:
            self._prf.add_ref(base)
            self._pending_refs.append(base)

    def _rename_plain(self, di: DynInstr, plan: _Plan) -> None:
        self._take_mapping_deps(di)
        self._allocate_dst(di, None)

    # ==================================================================
    # pipeline callbacks
    # ==================================================================

    def on_complete(self, di: DynInstr, cycle: int) -> None:
        prf = self._prf
        prf.release_all(di.src_pregs)
        dst_preg = di.dst_preg
        if dst_preg is None or not self._enable_feedback:
            return
        result = di.result
        if (isinstance(result, int) and di.dst_arch < NUM_INT_REGS
                and prf.is_live(dst_preg)):
            self.feedback.publish(dst_preg, to_signed64(result), cycle)

    def on_store_executed(self, di: DynInstr) -> None:
        if di.addr_known and self._mbc_on:
            # The MBC was already updated with this store at rename.
            return
        self.mbc.invalidate_overlap(di.addr, di.mem_size)

    def relieve_pressure(self) -> bool:
        """Shed optimizer state (hints) to free physical registers."""
        while self._prf.num_free == 0:
            if not self.mbc.evict_lru():
                break
        if self._prf.num_free > 0:
            return True
        for arch in range(NUM_INT_REGS):
            entry = self._entries[arch]
            if entry is None or entry.sym_ref is None:
                continue
            self._set_entry_sym(arch, symbolic.plain(self.rat.lookup(arch)))
            if self._prf.num_free > 0:
                return True
        return False

    def collect_stats(self, stats: PipelineStats) -> None:
        stats.mbc_hits = self.mbc.hits
        stats.mbc_misses = self.mbc.misses
        stats.mbc_invalidations = self.mbc.invalidations
        stats.extra.update({
            "opt_early": self.stat_early,
            "opt_rewritten": self.stat_rewritten,
            "opt_strength_reductions": self.stat_strength_reductions,
            "opt_branch_inferences": self.stat_branch_inferences,
            "opt_mbc_misspeculations": self.stat_mbc_misspeculations,
            "opt_depth_rejections": self.stat_depth_rejections,
            "opt_values_fed_back": self.feedback.values_fed_back,
        })

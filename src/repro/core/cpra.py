"""Constant propagation and reassociation (CP/RA) transformations.

Pure dataflow logic of the rename-stage optimizer, separated from the
table plumbing for testability.  Given an opcode and its source
expressions (each already resolved against the RAT symbolic state and
the known-value table), :func:`transform` decides, exactly as the
hardware in Section 3.1 does, whether the instruction

* **executes early** — all inputs known and the operation is simple
  (single-cycle), so the rename-stage ALU produces the final value;
* is **rewritten** — the destination gets a new symbolic value of the
  form ``(base << scale) ± offset``, shifting the dependence to an
  earlier producer (reassociation) and/or folding constants; or
* stays **plain** — the result is not encodable symbolically and the
  instruction executes unchanged in the out-of-order core.

Also implemented here: the paper's minor optimizations — move
collapsing, strength reduction of multiplies by powers of two into
shifts, and early branch resolution.

The transforms live in one table, :data:`TRANSFORM_BY_ID`, indexed by
small-integer opcode id and built once at import: each entry takes the
resolved sources positionally, evaluates constants through the
id-indexed ALU table (:data:`repro.functional.alu.INT_EVAL_BY_ID`), and
builds its :class:`Outcome` positionally.  The optimizer's per-static
rename plans hold these entries directly; :func:`transform` is the
same lookup keyed by :class:`Opcode`.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from ..functional import alu
from ..isa.opcodes import OPCODE_ID, OPCODES_BY_ID, BranchCond, Opcode
from . import symbolic
from .symbolic import SymVal


class Kind(enum.Enum):
    """Outcome category of one CP/RA attempt."""

    EARLY = "early"  # executed in the optimizer
    REWRITTEN = "rewritten"  # new symbolic value for the destination
    PLAIN = "plain"  # no optimization


_OutcomeFields = namedtuple(
    "_OutcomeFields",
    ("kind", "value", "sym", "uses_alu", "strength_reduced"),
    defaults=(None, None, False, False))


class Outcome(_OutcomeFields):
    """Result of :func:`transform` for one instruction.

    ``value`` is the computed result (EARLY); ``sym`` the destination's
    symbolic value (EARLY/REWRITTEN); ``uses_alu`` marks consumption of
    an optimizer ALU (depth accounting); ``strength_reduced`` a
    multiply converted to a shift.  A named tuple — one is built per
    renamed integer instruction, so construction cost matters.
    """

    __slots__ = ()

    @property
    def is_early(self) -> bool:
        return self[0] is Kind.EARLY

    @property
    def is_rewritten(self) -> bool:
        return self[0] is Kind.REWRITTEN


_tuple_new = tuple.__new__
_EARLY = Kind.EARLY
_REWRITTEN = Kind.REWRITTEN

#: The shared "no optimization" outcome.
PLAIN = _tuple_new(Outcome, (Kind.PLAIN, None, None, False, False))
_PLAIN_REDUCED = _tuple_new(Outcome, (Kind.PLAIN, None, None, False, True))

_const = symbolic.const
_add_const = symbolic.add_const
_sym_shift_left = symbolic.shift_left
_INT_EVAL = alu.INT_EVAL_BY_ID
_ADD = _INT_EVAL[OPCODE_ID[Opcode.ADD]]
_SUB = _INT_EVAL[OPCODE_ID[Opcode.SUB]]
_SLL = _INT_EVAL[OPCODE_ID[Opcode.SLL]]
_to_signed64 = alu.to_signed64

# Every transform below takes the resolved sources positionally as
# ``(a, b)`` (``b`` is None for one-source operations) and builds its
# Outcome positionally: (kind, value, sym, uses_alu, strength_reduced).
# A SymVal ``s`` is constant when ``s[0] is None``; its value is ``s[2]``.


def _plain(a, b) -> Outcome:
    # div/rem and anything else: never early (multi-cycle), no form.
    return PLAIN


def _mov(a, b) -> Outcome:
    if a[0] is None:
        return _tuple_new(Outcome, (_EARLY, a[2], a, False, False))
    # Move collapsing: copy the producer's symbolic value; pure wiring,
    # no optimizer ALU consumed.
    return _tuple_new(Outcome, (_REWRITTEN, None, a, False, False))


def _add(a, b) -> Outcome:
    if a[0] is None:
        if b[0] is None:
            value = _ADD(a[2], b[2])
            return _tuple_new(Outcome, (_EARLY, value, _const(value),
                                        True, False))
        return _tuple_new(Outcome, (_REWRITTEN, None,
                                    _add_const(b, a[2]), True, False))
    if b[0] is None:
        return _tuple_new(Outcome, (_REWRITTEN, None,
                                    _add_const(a, b[2]), True, False))
    return PLAIN


def _sub(a, b) -> Outcome:
    if b[0] is None:
        if a[0] is None:
            value = _SUB(a[2], b[2])
            return _tuple_new(Outcome, (_EARLY, value, _const(value),
                                        True, False))
        # Only sym - const is representable.
        return _tuple_new(Outcome, (_REWRITTEN, None,
                                    _add_const(a, -b[2]), True, False))
    return PLAIN


def _scaled_add_transform(fn, shift: int):
    def scaled_add(a, b) -> Outcome:
        if a[0] is None:
            if b[0] is None:
                value = fn(a[2], b[2])
                return _tuple_new(Outcome, (_EARLY, value, _const(value),
                                            True, False))
            # (const << k) + sym  ->  sym + (const << k)
            return _tuple_new(Outcome, (
                _REWRITTEN, None,
                _add_const(b, _to_signed64(a[2] << shift)), True, False))
        if b[0] is None:
            shifted = _sym_shift_left(a, shift)
            if shifted is not None:
                return _tuple_new(Outcome, (
                    _REWRITTEN, None, _add_const(shifted, b[2]),
                    True, False))
        return PLAIN
    return scaled_add


def _shift_left(a, b) -> Outcome:
    if b[0] is None:
        if a[0] is None:
            value = _SLL(a[2], b[2])
            return _tuple_new(Outcome, (_EARLY, value, _const(value),
                                        True, False))
        shifted = _sym_shift_left(a, b[2] & 0x3F)
        if shifted is not None:
            return _tuple_new(Outcome, (_REWRITTEN, None, shifted,
                                        True, False))
    return PLAIN


def _multiply(a, b) -> Outcome:
    """Strength reduction: multiply by a power of two becomes a shift."""
    for multiplier, other in ((a, b), (b, a)):
        if multiplier[0] is not None:
            continue
        factor = multiplier[2]
        if factor == 0:
            return _tuple_new(Outcome, (_EARLY, 0, _const(0), True, True))
        if factor == 1:
            if other[0] is None:
                return _tuple_new(Outcome, (_EARLY, other[2], other,
                                            True, True))
            return _tuple_new(Outcome, (_REWRITTEN, None, other, True, True))
        if factor > 1 and factor & (factor - 1) == 0:
            shift = factor.bit_length() - 1
            if other[0] is None:
                value = _SLL(other[2], shift)
                return _tuple_new(Outcome, (_EARLY, value, _const(value),
                                            True, True))
            shifted = _sym_shift_left(other, shift)
            if shifted is not None:
                return _tuple_new(Outcome, (_REWRITTEN, None, shifted,
                                            True, True))
            # Still executable as a 1-cycle shift even though the
            # result is not symbolically encodable.
            return _PLAIN_REDUCED
    return PLAIN


def _fold_transform(fn, unary: bool):
    """Ops that fold to a constant when all sources are constant but
    have no symbolic (base << scale) + offset form otherwise."""
    if unary:
        def fold_unary(a, b) -> Outcome:
            if a[0] is None:
                value = fn(a[2])
                return _tuple_new(Outcome, (_EARLY, value, _const(value),
                                            True, False))
            return PLAIN
        return fold_unary

    def fold(a, b) -> Outcome:
        if a[0] is None and b[0] is None:
            value = fn(a[2], b[2])
            return _tuple_new(Outcome, (_EARLY, value, _const(value),
                                        True, False))
        return PLAIN
    return fold


def _build_transform(opcode: Opcode):
    fn = _INT_EVAL[OPCODE_ID[opcode]]
    if opcode is Opcode.MOV:
        return _mov
    if opcode is Opcode.ADD:
        return _add
    if opcode is Opcode.SUB:
        return _sub
    if opcode is Opcode.S4ADD:
        return _scaled_add_transform(fn, 2)
    if opcode is Opcode.S8ADD:
        return _scaled_add_transform(fn, 3)
    if opcode is Opcode.SLL:
        return _shift_left
    if opcode is Opcode.MUL:
        return _multiply
    if opcode in (Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.BIC,
                  Opcode.SRL, Opcode.SRA, Opcode.CMPEQ, Opcode.CMPNE,
                  Opcode.CMPLT, Opcode.CMPLE, Opcode.CMPULT, Opcode.CMPULE):
        return _fold_transform(fn, unary=False)
    if opcode in (Opcode.SEXTB, Opcode.SEXTW, Opcode.SEXTL):
        return _fold_transform(alu.UNARY_INT_OPS[opcode], unary=True)
    return _plain


#: CP/RA transform per opcode id: ``transform(a, b) -> Outcome`` over
#: resolved source values (``b`` is None for one-source operations).
#: Built once at import; the optimizer's rename plans hold these.
TRANSFORM_BY_ID = tuple(_build_transform(opcode) for opcode in OPCODES_BY_ID)


def transform(opcode: Opcode, srcs: list[SymVal]) -> Outcome:
    """Apply CP/RA to one integer instruction.

    *srcs* holds one resolved :class:`SymVal` per source operand
    (immediates arrive as constants).  ``lda`` must be presented as
    ``ADD`` with the displacement as the second source.
    """
    return TRANSFORM_BY_ID[OPCODE_ID[opcode]](
        srcs[0], srcs[1] if len(srcs) > 1 else None)


def resolve_branch(cond: BranchCond, src: SymVal) -> bool | None:
    """Early branch resolution: the outcome if the source is known."""
    if src[0] is not None:
        return None
    return alu.COND_TESTS[cond](src[2])


def branch_implied_value(opcode: Opcode, taken: bool) -> int | None:
    """Value a branch direction implies for its source register.

    ``beq`` taken (or ``bne`` not taken) proves the register is zero
    (Section 2.1's final minor optimization).  Other conditions give
    only inequalities, which the symbolic form cannot encode.
    """
    if opcode is Opcode.BEQ and taken:
        return 0
    if opcode is Opcode.BNE and not taken:
        return 0
    return None

"""Integer and floating-point operation semantics.

This module is the single source of truth for what every opcode
computes.  It is shared by:

* the functional emulator (the architectural oracle),
* the timing model's execution units, and
* the continuous optimizer's rename-stage ALUs (early execution).

Sharing one implementation is how the reproduction honours the paper's
"strict expression and value checking" (Section 4.2): any value the
optimizer computes early is, by construction and by test, the value the
execution core would have computed.

Integer values are 64-bit two's complement, carried as Python ints in
the signed range ``[-2**63, 2**63 - 1]``.
"""

from __future__ import annotations

from ..isa.opcodes import OPCODE_ID, OPCODES_BY_ID, BranchCond, Opcode

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def to_signed64(value: int) -> int:
    """Wrap an arbitrary Python int into signed 64-bit range."""
    value &= _MASK64
    if value & _SIGN64:
        value -= 1 << 64
    return value


def to_unsigned64(value: int) -> int:
    """Reinterpret a signed 64-bit value as unsigned."""
    return value & _MASK64


def sign_extend(value: int, size: int) -> int:
    """Sign-extend the low *size* bytes of *value* to 64 bits."""
    bits = size * 8
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


def zero_extend(value: int, size: int) -> int:
    """Zero-extend the low *size* bytes of *value* to 64 bits."""
    return value & ((1 << (size * 8)) - 1)


def _shift_amount(value: int) -> int:
    return value & 0x3F


def _div_trunc(a: int, b: int) -> int:
    if b == 0:
        return 0  # Alpha-style: no trap in this ISA; define as zero
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return to_signed64(quotient)


def _rem_trunc(a: int, b: int) -> int:
    if b == 0:
        return 0
    return to_signed64(a - _div_trunc(a, b) * b)


_INT_OPS = {
    Opcode.ADD: lambda a, b: to_signed64(a + b),
    Opcode.SUB: lambda a, b: to_signed64(a - b),
    Opcode.AND: lambda a, b: to_signed64(a & b),
    Opcode.OR: lambda a, b: to_signed64(a | b),
    Opcode.XOR: lambda a, b: to_signed64(a ^ b),
    Opcode.BIC: lambda a, b: to_signed64(a & ~b),
    Opcode.SLL: lambda a, b: to_signed64(a << _shift_amount(b)),
    Opcode.SRL: lambda a, b: to_signed64(
        to_unsigned64(a) >> _shift_amount(b)),
    Opcode.SRA: lambda a, b: to_signed64(a >> _shift_amount(b)),
    Opcode.S4ADD: lambda a, b: to_signed64((a << 2) + b),
    Opcode.S8ADD: lambda a, b: to_signed64((a << 3) + b),
    Opcode.CMPEQ: lambda a, b: 1 if a == b else 0,
    Opcode.CMPNE: lambda a, b: 1 if a != b else 0,
    Opcode.CMPLT: lambda a, b: 1 if a < b else 0,
    Opcode.CMPLE: lambda a, b: 1 if a <= b else 0,
    Opcode.CMPULT: lambda a, b: 1 if to_unsigned64(a) < to_unsigned64(b)
    else 0,
    Opcode.CMPULE: lambda a, b: 1 if to_unsigned64(a) <= to_unsigned64(b)
    else 0,
    Opcode.MUL: lambda a, b: to_signed64(a * b),
    Opcode.DIV: _div_trunc,
    Opcode.REM: _rem_trunc,
}

_UNARY_INT_OPS = {
    Opcode.MOV: lambda a: to_signed64(a),
    Opcode.SEXTB: lambda a: sign_extend(a, 1),
    Opcode.SEXTW: lambda a: sign_extend(a, 2),
    Opcode.SEXTL: lambda a: sign_extend(a, 4),
}

_FP_OPS = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: lambda a, b: a / b if b != 0.0 else 0.0,
    Opcode.FCMPEQ: lambda a, b: 1.0 if a == b else 0.0,
    Opcode.FCMPLT: lambda a, b: 1.0 if a < b else 0.0,
    Opcode.FCMPLE: lambda a, b: 1.0 if a <= b else 0.0,
}

_UNARY_FP_OPS = {
    Opcode.FMOV: lambda a: a,
    Opcode.FNEG: lambda a: -a,
}


#: Public views of the per-opcode handler dicts, used to build the
#: emulator's integer-dispatch tables (one callable per opcode id).
INT_OPS = _INT_OPS
UNARY_INT_OPS = _UNARY_INT_OPS
FP_OPS = _FP_OPS
UNARY_FP_OPS = _UNARY_FP_OPS

#: Branch-condition test per :class:`BranchCond`, mirroring
#: :func:`branch_taken` one closure per condition so the emulator's
#: dispatch loop skips the if-chain.
COND_TESTS = {
    BranchCond.ALWAYS: lambda v: True,
    BranchCond.EQ: lambda v: v == 0,
    BranchCond.NE: lambda v: v != 0,
    BranchCond.LT: lambda v: v < 0,
    BranchCond.GE: lambda v: v >= 0,
    BranchCond.LE: lambda v: v <= 0,
    BranchCond.GT: lambda v: v > 0,
}


def _int_eval(opcode: Opcode):
    op = _INT_OPS.get(opcode)
    if op is not None:
        return op
    unary = _UNARY_INT_OPS.get(opcode)
    if unary is not None:
        return lambda a, b=0: unary(a)
    if opcode is Opcode.LDA:
        return _INT_OPS[Opcode.ADD]  # base + displacement
    return None


#: Integer-ALU semantics per opcode id: a ``(a, b) -> int`` callable
#: (unary operations ignore ``b``), or None for opcodes that are not
#: integer ALU operations.  Hot callers index this by opcode id instead
#: of hashing :class:`Opcode` members.
INT_EVAL_BY_ID = tuple(_int_eval(opcode) for opcode in OPCODES_BY_ID)


def evaluate_int(opcode: Opcode, a: int, b: int = 0) -> int:
    """Evaluate an integer opcode over signed 64-bit inputs."""
    op_id = OPCODE_ID.get(opcode)
    op = None if op_id is None else INT_EVAL_BY_ID[op_id]
    if op is None:
        raise ValueError(f"not an integer ALU opcode: {opcode}")
    return op(a, b)


def evaluate_fp(opcode: Opcode, a: float, b: float = 0.0) -> float:
    """Evaluate a floating-point opcode."""
    op = _FP_OPS.get(opcode)
    if op is not None:
        return op(a, b)
    unary = _UNARY_FP_OPS.get(opcode)
    if unary is not None:
        return unary(a)
    raise ValueError(f"not an FP opcode: {opcode}")


def convert_itof(value: int) -> float:
    """``itof``: integer value to FP value."""
    return float(value)


def convert_ftoi(value: float) -> int:
    """``ftoi``: truncate an FP value toward zero into 64-bit range."""
    if value != value or value in (float("inf"), float("-inf")):
        return 0
    return to_signed64(int(value))


def branch_taken(cond: BranchCond, value: int | float) -> bool:
    """Evaluate a branch condition against a register value vs. zero."""
    if cond is BranchCond.ALWAYS:
        return True
    if cond is BranchCond.EQ:
        return value == 0
    if cond is BranchCond.NE:
        return value != 0
    if cond is BranchCond.LT:
        return value < 0
    if cond is BranchCond.GE:
        return value >= 0
    if cond is BranchCond.LE:
        return value <= 0
    if cond is BranchCond.GT:
        return value > 0
    raise ValueError(f"unknown branch condition: {cond}")


def is_int_alu_op(opcode: Opcode) -> bool:
    """True if :func:`evaluate_int` can evaluate *opcode*."""
    op_id = OPCODE_ID.get(opcode)
    return op_id is not None and INT_EVAL_BY_ID[op_id] is not None

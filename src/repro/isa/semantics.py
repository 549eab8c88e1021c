"""Shared instruction semantics: ALU arithmetic, flags, effective addresses.

Both the online machine (:mod:`repro.machine`) and the offline replay
engine (:mod:`repro.replay`) execute instructions; this module holds the
arithmetic they must agree on, so reconstruction soundness (replayed
addresses == machine-issued addresses) reduces to the replay engine's
availability logic rather than divergent arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping

from .instructions import Op
from .operands import Mem
from .registers import MASK64, to_signed


@dataclass(frozen=True)
class Flags:
    """Condition flags produced by CMP/TEST (and consumed by Jcc).

    Only the zero and sign flags are modelled; the conditional branches in
    the ISA (JE/JNE/JL/JLE/JG/JGE) are all expressible via signed compare
    outcome, which we keep directly as ``lt``/``eq``.
    """

    eq: bool = False
    lt: bool = False

    def taken(self, op: Op) -> bool:
        """Whether conditional branch *op* is taken under these flags."""
        try:
            return _TAKEN[op](self)
        except KeyError:
            raise ValueError(f"not a conditional branch: {op}") from None


#: Each conditional branch's predicate over the flags.
_TAKEN: Dict[Op, Callable[[Flags], bool]] = {
    Op.JE: lambda flags: flags.eq,
    Op.JNE: lambda flags: not flags.eq,
    Op.JL: lambda flags: flags.lt,
    Op.JLE: lambda flags: flags.lt or flags.eq,
    Op.JG: lambda flags: not (flags.lt or flags.eq),
    Op.JGE: lambda flags: not flags.lt,
}

#: Every flag state, by ``(eq, lt)``: flags are immutable, so CMP and
#: TEST share these instead of allocating one per execution.
_FLAGS: Dict[tuple, Flags] = {
    (eq, lt): Flags(eq=eq, lt=lt) for eq in (False, True)
    for lt in (False, True)
}


def compare(a: int, b: int) -> Flags:
    """Signed comparison of two 64-bit values (CMP a, b → flags for b?a).

    Matching AT&T ``cmp src, dst`` convention: the flags describe
    ``dst - src``, i.e. ``cmp $3, %rax`` then ``jl`` branches if rax < 3.
    """
    sa, sb = to_signed(a), to_signed(b)
    return _FLAGS[sb == sa, sb < sa]


def test_bits(a: int, b: int) -> Flags:
    """TEST a, b → flags of (a & b)."""
    value = a & b & MASK64
    return _FLAGS[value == 0, to_signed(value) < 0]


_ALU_FUNCS: Dict[Op, Callable[[int, int], int]] = {
    # dst = dst <op> src, AT&T order f(src, dst)
    Op.ADD: lambda src, dst: dst + src,
    Op.SUB: lambda src, dst: dst - src,
    Op.AND: lambda src, dst: dst & src,
    Op.OR: lambda src, dst: dst | src,
    Op.XOR: lambda src, dst: dst ^ src,
    Op.IMUL: lambda src, dst: to_signed(dst) * to_signed(src),
    Op.SHL: lambda src, dst: dst << (src & 63),
    Op.SHR: lambda src, dst: dst >> (src & 63),
}

_UNARY_FUNCS: Dict[Op, Callable[[int], int]] = {
    Op.NEG: lambda dst: -dst,
    Op.NOT: lambda dst: ~dst,
    Op.INC: lambda dst: dst + 1,
    Op.DEC: lambda dst: dst - 1,
}


def alu(op: Op, src: int, dst: int) -> int:
    """Compute a two-operand ALU result, 64-bit wrapped."""
    try:
        return _ALU_FUNCS[op](src, dst) & MASK64
    except KeyError:
        raise ValueError(f"not a binary ALU op: {op}") from None


def alu_unary(op: Op, dst: int) -> int:
    """Compute a one-operand ALU result, 64-bit wrapped."""
    try:
        return _UNARY_FUNCS[op](dst) & MASK64
    except KeyError:
        raise ValueError(f"not a unary ALU op: {op}") from None


def reverse_alu(op: Op, src: int, result: int) -> int:
    """Recover the *old* dst of ``dst = dst op src`` from src and result.

    This is the reverse-execution primitive (§5.2.2): ADD/SUB/XOR are
    invertible in the source operand.

    Raises:
        ValueError: if *op* is not reversible.
    """
    if op == Op.ADD:
        return (result - src) & MASK64
    if op == Op.SUB:
        return (result + src) & MASK64
    if op == Op.XOR:
        return (result ^ src) & MASK64
    raise ValueError(f"not reversible: {op}")


def reverse_alu_src(op: Op, dst_before: int, result: int) -> int:
    """Recover the *src* operand of ``dst = dst op src`` from old dst and
    result — the other direction of reverse execution."""
    if op == Op.ADD:
        return (result - dst_before) & MASK64
    if op == Op.SUB:
        return (dst_before - result) & MASK64
    if op == Op.XOR:
        return (result ^ dst_before) & MASK64
    raise ValueError(f"not reversible: {op}")


def effective_address(mem: Mem, registers: Mapping[str, int], ip: int) -> int:
    """Compute a memory operand's effective address.

    Args:
        mem: the memory operand.
        registers: any mapping from register name to value (a concrete
            register file or the replay engine's program map view).
        ip: the address of the instruction itself (for RIP-relative).
    """
    if mem.rip_relative:
        return (ip + mem.disp) & MASK64
    address = mem.disp
    if mem.base:
        address += registers[mem.base]
    if mem.index:
        address += registers[mem.index] * mem.scale
    return address & MASK64

"""Replay compilation: lowering programs to a flat micro-op IR.

Interpreting :class:`~repro.isa.instructions.Instruction` dataclasses
would cost the window replayer ``isinstance`` chains over operands,
register-name hashing and enum dispatch on every step of every forward
pass of every fixed-point round.  This module does that work exactly
once per program: each instruction is *lowered* to a flat tuple
micro-op whose

* operands are resolved to dense register **slot indices**
  (:data:`~repro.isa.registers.REG_SLOT`),
* ALU operations are bound to their concrete arithmetic callables
  (:mod:`~repro.isa.semantics`), and
* effective-address formulas are pre-extracted — RIP-relative and
  displacement-only operands collapse to a precomputed constant
  :class:`~repro.replay.program_map.Known` since the instruction pointer
  is known at lowering time.

The compiled form also carries the per-address basic-block index and a
per-address *summarizable* flag, which the block effect-summary cache
(:mod:`repro.replay.summary`) uses to bound memoizable straight-line
spans.

Compiled programs are cached in a module-level
:class:`weakref.WeakKeyDictionary` keyed by the program object: the ALU
callables are lambdas and therefore unpicklable, so the replay engine
never stores a compiled program on itself (engines are pickled into
process-executor workers) — workers re-derive it via :func:`lowered`,
which is a cache hit for every window after the first.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Tuple

from .instructions import (
    ALU_BINARY,
    ALU_UNARY,
    Instruction,
    Op,
    REVERSIBLE_ALU,
    SYSTEM_OPS,
)
from .operands import Imm, Mem, Reg
from .program import Program
from .registers import MASK64, REG_SLOT
from .semantics import _ALU_FUNCS, _UNARY_FUNCS

# Import here (not from program_map) to avoid a package cycle: the replay
# package imports this module.
from ..replay.program_map import Known

#: Micro-op kind constants.  Each lowered instruction is a plain tuple
#: whose first element is one of these; the remaining elements are
#: pre-resolved operands (slot indices, bound callables, constant Knowns,
#: address formulas).
U_NOP = 0        # (0,)                          jmp/jcc/halt/nop
U_MOV_RR = 1     # (1, src_slot, dst_slot)
U_MOV_IR = 2     # (2, known, dst_slot)
U_LOAD = 3       # (3, formula, dst_slot)        mov mem -> reg
U_STORE_R = 4    # (4, formula, src_slot)        mov reg -> mem
U_STORE_I = 5    # (5, formula, known)           mov imm -> mem
U_LEA = 6        # (6, formula, dst_slot)
U_ALU_RR = 7     # (7, func, src_slot, dst_slot)
U_ALU_IR = 8     # (8, func, imm_value, dst_slot)
U_ALU_UN = 9     # (9, func, dst_slot)
U_ALU_MR = 10    # (10, func, formula, dst_slot) alu mem -> reg
U_CMP = 11       # (11, descs)                   cmp/test side effects
U_PUSH_R = 12    # (12, src_slot)
U_PUSH_K = 13    # (13, known)                   push imm / bare push
U_PUSH_M = 14    # (14, formula)                 push mem (builder-rare)
U_POP = 15       # (15, dst_slot)
U_CALL = 16      # (16, ret_known)               return address baked in
U_RET = 17       # (17,)
U_CLOBBER = 18   # (18, dst_slot)                spawn/malloc
U_SYS = 19       # (19,)                         other system ops

#: Address-formula kinds (first element of a formula tuple).
A_CONST = 0      # (0, known)                    rip-relative / disp-only
A_BASE = 1       # (1, base_slot, disp)
A_BI = 2         # (2, base_slot, index_slot, scale, disp)
A_INDEX = 3      # (3, index_slot, scale, disp)

#: Reverse micro-op kinds (the §5.2.1 back-propagation, pre-decoded).
#: Each transforms the after-state of one step into its before-state.
R_NOP = 0        # (0,)                          writes no registers
R_POP_DST = 1    # (1, dst_slot)                 dst unknowable before
R_MOV_RR = 2     # (2, src_slot, dst_slot)       copy: src held the value
R_LEA_BASE = 3   # (3, base_slot, disp, dst_slot)
R_LEA_BI = 4     # (4, base_slot, index_slot, scale, disp, dst_slot)
R_ALU_IR = 5     # (5, op, imm, dst_slot)        reversible, imm source
R_ALU_RR = 6     # (6, op, src_slot, dst_slot)   reversible, reg source
R_ALU_UN = 7     # (7, inverse_op, dst_slot)
R_RSP_ADD = 8    # (8,)                          push/call: rsp was +8
R_RSP_SUB = 9    # (9,)                          ret: rsp was -8
R_POP = 10       # (10, dst_slot)                pop: dst gone, rsp was -8

#: Retry-descriptor kinds: how a blocked step's memory operand can be
#: recomputed from backward register state (None when it cannot).
T_MEM = 0        # (0, formula, is_store)
T_PUSH = 1       # (1,)                          store at rsp - 8
T_POP = 2        # (2,)                          load at rsp

_UNARY_INVERSE = {Op.INC: Op.DEC, Op.DEC: Op.INC, Op.NEG: Op.NEG,
                  Op.NOT: Op.NOT}

#: Slot of the stack pointer (PUSH/POP/CALL/RET hot path).
RSP_SLOT = REG_SLOT["rsp"]

#: Micro-op kinds excluded from effect summaries: they conservatively
#: invalidate all emulated memory and clobber kernel-produced registers,
#: so a span containing one has no replayable effect template.
_UNSUMMARIZABLE = frozenset({U_CLOBBER, U_SYS})


def lower_mem(mem: Mem, ip: int) -> tuple:
    """Lower one memory operand to an address formula.

    RIP-relative and displacement-only operands become constants: the
    instruction's own address is known at lowering time, so their
    effective address (always taint-free) is precomputed.
    """
    if mem.rip_relative:
        return (A_CONST, Known((ip + mem.disp) & MASK64))
    if mem.base and mem.index:
        return (A_BI, REG_SLOT[mem.base], REG_SLOT[mem.index],
                mem.scale, mem.disp)
    if mem.base:
        return (A_BASE, REG_SLOT[mem.base], mem.disp)
    if mem.index:
        return (A_INDEX, REG_SLOT[mem.index], mem.scale, mem.disp)
    return (A_CONST, Known(mem.disp & MASK64))


def eval_addr(slots: list, formula: tuple):
    """Evaluate an address formula against the slot file.

    Returns the effective address as a ``Known`` (value + merged taint of
    the address registers), or None when a required register slot is
    unavailable — mirroring ``WindowReplayer._address_of`` exactly.
    """
    kind = formula[0]
    if kind == A_CONST:
        return formula[1]
    if kind == A_BASE:
        base = slots[formula[1]]
        if base is None:
            return None
        return Known((base.value + formula[2]) & MASK64, base.taint)
    if kind == A_BI:
        base = slots[formula[1]]
        index = slots[formula[2]]
        if base is None or index is None:
            return None
        taint = base.taint
        if taint is None:
            taint = index.taint
        elif index.taint is not None:
            taint = taint | index.taint
        return Known(
            (base.value + index.value * formula[3] + formula[4]) & MASK64,
            taint,
        )
    index = slots[formula[1]]
    if index is None:
        return None
    return Known((index.value * formula[2] + formula[3]) & MASK64,
                 index.taint)


def lower_instruction(ins: Instruction, ip: int) -> tuple:
    """Lower one instruction at address *ip* to its micro-op tuple."""
    op = ins.op
    if op == Op.MOV:
        src, dst = ins.operands
        if isinstance(dst, Mem):
            formula = lower_mem(dst, ip)
            if isinstance(src, Reg):
                return (U_STORE_R, formula, REG_SLOT[src.name])
            return (U_STORE_I, formula, Known(src.value & MASK64))
        if isinstance(src, Mem):
            return (U_LOAD, lower_mem(src, ip), REG_SLOT[dst.name])
        if isinstance(src, Reg):
            return (U_MOV_RR, REG_SLOT[src.name], REG_SLOT[dst.name])
        return (U_MOV_IR, Known(src.value & MASK64), REG_SLOT[dst.name])
    if op == Op.LEA:
        mem, dst = ins.operands
        return (U_LEA, lower_mem(mem, ip), REG_SLOT[dst.name])
    if op in ALU_BINARY:
        src, dst = ins.operands
        func = _ALU_FUNCS[op]
        if isinstance(src, Reg):
            return (U_ALU_RR, func, REG_SLOT[src.name], REG_SLOT[dst.name])
        if isinstance(src, Mem):
            return (U_ALU_MR, func, lower_mem(src, ip), REG_SLOT[dst.name])
        return (U_ALU_IR, func, src.value & MASK64, REG_SLOT[dst.name])
    if op in ALU_UNARY:
        (dst,) = ins.operands
        return (U_ALU_UN, _UNARY_FUNCS[op], REG_SLOT[dst.name])
    if op in (Op.CMP, Op.TEST):
        descs = []
        for operand in ins.operands:
            if isinstance(operand, Reg):
                descs.append((0, REG_SLOT[operand.name]))
            elif isinstance(operand, Mem):
                descs.append((1, lower_mem(operand, ip)))
            # Immediates have no availability side effects: dropped.
        return (U_CMP, tuple(descs))
    if op == Op.PUSH:
        if ins.operands:
            src = ins.operands[0]
            if isinstance(src, Reg):
                return (U_PUSH_R, REG_SLOT[src.name])
            if isinstance(src, Mem):
                return (U_PUSH_M, lower_mem(src, ip))
            return (U_PUSH_K, Known(src.value & MASK64))
        return (U_PUSH_K, Known(0))
    if op == Op.POP:
        return (U_POP, REG_SLOT[ins.operands[0].name])
    if op == Op.CALL:
        return (U_CALL, Known(ip + 1))
    if op == Op.RET:
        return (U_RET,)
    if op == Op.SPAWN:
        return (U_CLOBBER, REG_SLOT[ins.operands[0].name])
    if op == Op.MALLOC:
        return (U_CLOBBER, REG_SLOT[ins.operands[1].name])
    if op in SYSTEM_OPS:
        return (U_SYS,)
    return (U_NOP,)  # JMP / Jcc / HALT / NOP


def lower_reverse(ins: Instruction, ip: int) -> tuple:
    """Lower one instruction to its reverse micro-op.

    What the forward semantics can invert — a register copy, ADD/SUB/XOR
    with an immediate or another register, INC/DEC/NEG/NOT, LEA with one
    address register unknown, and stack-pointer adjustments — is encoded
    as a recovery op; everything else degrades to forgetting the written
    register(s).
    """
    op = ins.op
    if op == Op.MOV:
        src, dst = ins.operands
        if not isinstance(dst, Reg):
            return (R_NOP,)
        if isinstance(src, Reg) and src.name != dst.name:
            return (R_MOV_RR, REG_SLOT[src.name], REG_SLOT[dst.name])
        return (R_POP_DST, REG_SLOT[dst.name])
    if op == Op.LEA:
        mem, dst = ins.operands
        dst_slot = REG_SLOT[dst.name]
        if mem.rip_relative:
            return (R_POP_DST, dst_slot)
        if mem.base and mem.index:
            return (R_LEA_BI, REG_SLOT[mem.base], REG_SLOT[mem.index],
                    mem.scale, mem.disp, dst_slot)
        if mem.base:
            if REG_SLOT[mem.base] != dst_slot:
                return (R_LEA_BASE, REG_SLOT[mem.base], mem.disp, dst_slot)
        return (R_POP_DST, dst_slot)
    if op in ALU_BINARY:
        src, dst = ins.operands
        dst_slot = REG_SLOT[dst.name]
        if op not in REVERSIBLE_ALU:
            return (R_POP_DST, dst_slot)
        if isinstance(src, Imm):
            return (R_ALU_IR, op, src.value & MASK64, dst_slot)
        if isinstance(src, Reg) and src.name != dst.name:
            return (R_ALU_RR, op, REG_SLOT[src.name], dst_slot)
        return (R_POP_DST, dst_slot)
    if op in ALU_UNARY:
        (dst,) = ins.operands
        return (R_ALU_UN, _UNARY_INVERSE[op], REG_SLOT[dst.name])
    if op in (Op.PUSH, Op.CALL):
        return (R_RSP_ADD,)
    if op == Op.RET:
        return (R_RSP_SUB,)
    if op == Op.POP:
        return (R_POP, REG_SLOT[ins.operands[0].name])
    if op == Op.SPAWN:
        return (R_POP_DST, REG_SLOT[ins.operands[0].name])
    if op == Op.MALLOC:
        return (R_POP_DST, REG_SLOT[ins.operands[1].name])
    return (R_NOP,)  # cmp/test/branches/sync/halt/nop


def lower_retry(ins: Instruction, ip: int):
    """Lower one instruction to its blocked-step retry descriptor.

    The explicit memory operand of a load/store (as an address formula),
    the implicit stack slot of push/pop, or None when the step has no
    access the backward pass could recompute.
    """
    mem = None
    for operand in ins.operands:
        if isinstance(operand, Mem):
            mem = operand
    if mem is not None:
        if ins.is_load() or ins.is_store():
            return (T_MEM, lower_mem(mem, ip), ins.is_store())
        return None
    if ins.op == Op.PUSH:
        return (T_PUSH,)
    if ins.op == Op.POP:
        return (T_POP,)
    return None


class CompiledProgram:
    """A program lowered to micro-ops, plus span metadata.

    Attributes:
        instructions: the source program's instructions.  The program
            itself is not kept: it is this object's key in the
            weak-keyed :data:`_COMPILED` cache, and a strong reference
            here would keep every lowered program alive.
        uops: one micro-op tuple per code address.
        rev: one reverse micro-op tuple per code address (backward pass).
        retry: one blocked-step retry descriptor (or None) per address.
        block_id: per-address basic-block index (summary spans carry
            their recorded path, so they may cross block boundaries; the
            table remains for diagnostics and analyses).
        summarizable: per-address flag — False for micro-ops whose
            effects cannot be captured in a replayable summary.
    """

    __slots__ = ("instructions", "uops", "rev", "retry", "block_id",
                 "summarizable", "_interfaces", "__weakref__")

    def __init__(self, program: Program) -> None:
        self.instructions = program.instructions
        self.uops: List[tuple] = [
            lower_instruction(ins, ip)
            for ip, ins in enumerate(program.instructions)
        ]
        self.rev: List[tuple] = [
            lower_reverse(ins, ip)
            for ip, ins in enumerate(program.instructions)
        ]
        self.retry: List = [
            lower_retry(ins, ip)
            for ip, ins in enumerate(program.instructions)
        ]
        self.block_id: List[int] = list(program.block_table())
        self.summarizable: List[bool] = [
            u[0] not in _UNSUMMARIZABLE for u in self.uops
        ]
        #: path (instruction-address tuple) -> (live_in_slots,
        #: def_slots); lazy.  Paths repeat heavily (loop bodies), so the
        #: table stays small relative to the summary cache itself.
        self._interfaces: Dict[Tuple[int, ...],
                               Tuple[tuple, tuple]] = {}

    def path_interface(self,
                       path: Tuple[int, ...]) -> Tuple[tuple, tuple]:
        """Live-in and defined register slots along a recorded path.

        *Live-in* slots are registers some instruction on *path* reads
        before any earlier instruction on it writes them: together with
        the validated memory reads, they fully determine the path's
        effects, so their exact contents form the summary-cache
        signature.  *Def* slots are every register the path may write; a
        summary snapshots their final values.  The path need not be
        straight-line — span keys carry the path itself, so a summary
        can follow control flow across block boundaries.
        """
        cached = self._interfaces.get(path)
        if cached is not None:
            return cached
        instructions = self.instructions
        reads: set = set()
        written: set = set()
        for ip in path:
            ins = instructions[ip]
            for name in ins.reads_registers():
                if name not in written:
                    reads.add(name)
            written |= ins.writes_registers()
        interface = (
            tuple(sorted(REG_SLOT[name] for name in reads)),
            tuple(sorted(REG_SLOT[name] for name in written)),
        )
        self._interfaces[path] = interface
        return interface


#: Program -> CompiledProgram.  Module-level (never stored on a pickled
#: engine: the bound ALU lambdas don't pickle) and weak-keyed so compiled
#: forms die with their programs.
_COMPILED: "weakref.WeakKeyDictionary[Program, CompiledProgram]" = \
    weakref.WeakKeyDictionary()


def lowered(program: Program) -> CompiledProgram:
    """The compiled form of *program* (lowered at most once per process)."""
    compiled = _COMPILED.get(program)
    if compiled is None:
        compiled = CompiledProgram(program)
        _COMPILED[program] = compiled
    return compiled

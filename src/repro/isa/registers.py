"""Register file definitions for the repro ISA.

The ISA models the x86-64 integer register file: sixteen general-purpose
registers plus the instruction pointer ``rip``.  ProRace's offline replay
reasons about *which registers are available* at each point; keeping the
register set identical to x86-64 lets the replay engine mirror the paper's
examples (Figure 5) instruction for instruction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

#: The sixteen general-purpose registers, in conventional order.
GP_REGISTERS: Tuple[str, ...] = (
    "rax",
    "rbx",
    "rcx",
    "rdx",
    "rsi",
    "rdi",
    "rbp",
    "rsp",
    "r8",
    "r9",
    "r10",
    "r11",
    "r12",
    "r13",
    "r14",
    "r15",
)

#: Instruction pointer.  Always "available" during replay (PC-relative
#: addressing is recoverable from the PT path alone, per the paper §5.1).
RIP = "rip"

#: All architectural registers a PEBS record snapshots.
ALL_REGISTERS: Tuple[str, ...] = GP_REGISTERS + (RIP,)

_REGISTER_SET = frozenset(ALL_REGISTERS)

#: Dense slot index per architectural register (``rip`` included last).
#: The replay engine's program map stores register availability in a flat
#: list indexed by these slots; the micro-op IR resolves operand names to
#: slot indices once, at lowering time, so the replay hot loop never
#: hashes a register name.
REG_SLOT: Dict[str, int] = {name: i for i, name in enumerate(ALL_REGISTERS)}

#: Inverse of :data:`REG_SLOT`: slot index -> register name.
SLOT_NAMES: Tuple[str, ...] = ALL_REGISTERS

#: Number of register slots.
NUM_SLOTS = len(ALL_REGISTERS)

#: 64-bit wraparound mask.
MASK64 = (1 << 64) - 1


def is_register(name: str) -> bool:
    """Return True if *name* names an architectural register."""
    return name in _REGISTER_SET


def check_register(name: str) -> str:
    """Validate a register name, returning it unchanged.

    Raises:
        ValueError: if *name* is not an architectural register.
    """
    if name not in _REGISTER_SET:
        raise ValueError(f"unknown register: {name!r}")
    return name


class RegisterFile:
    """A concrete 64-bit register file.

    Values are stored as unsigned 64-bit integers (Python ints masked to
    64 bits).  Signed interpretation is applied only where an instruction's
    semantics require it (e.g. conditional branches).

    The values live in :attr:`slots`, a flat list indexed by
    :data:`REG_SLOT`.  The name-keyed API below validates names and masks
    values; the simulated machine's pre-decoded instruction handlers
    resolve register names to slots once and then read and write
    :attr:`slots` directly, storing only values already masked.
    """

    __slots__ = ("slots",)

    def __init__(self, values: Dict[str, int] | None = None) -> None:
        self.slots: List[int] = [0] * NUM_SLOTS
        if values:
            for name, value in values.items():
                self[name] = value

    def __getitem__(self, name: str) -> int:
        try:
            return self.slots[REG_SLOT[name]]
        except KeyError:
            raise ValueError(f"unknown register: {name!r}") from None

    def __setitem__(self, name: str, value: int) -> None:
        slot = REG_SLOT.get(name)
        if slot is None:
            raise ValueError(f"unknown register: {name!r}")
        self.slots[slot] = value & MASK64

    def snapshot(self) -> Dict[str, int]:
        """Return a copy of every register value (a PEBS-style snapshot)."""
        return dict(zip(ALL_REGISTERS, self.slots))

    def restore(self, snapshot: Dict[str, int]) -> None:
        """Overwrite registers from *snapshot* (unknown keys rejected)."""
        for name, value in snapshot.items():
            self[name] = value

    def copy(self) -> "RegisterFile":
        clone = RegisterFile()
        clone.slots = list(self.slots)
        return clone

    def items(self) -> Iterable[Tuple[str, int]]:
        return self.snapshot().items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegisterFile):
            return NotImplemented
        return self.slots == other.slots

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = {k: hex(v) for k, v in self.items() if v}
        return f"RegisterFile({nonzero})"


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned value as signed two's complement."""
    value &= MASK64
    if value >= 1 << 63:
        return value - (1 << 64)
    return value


def to_unsigned(value: int) -> int:
    """Mask a (possibly negative) Python int to its 64-bit representation."""
    return value & MASK64

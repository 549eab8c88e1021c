"""The *program map*: availability-tracked register and memory state.

The paper (§5.1) keeps "all the register and memory values in a special
hash table called program map", where every location is either *available*
(its 64-bit value is known) or *unavailable*.  Values here additionally
carry a *taint set* — the emulated memory addresses whose contents flowed
into them — so the detector-driven invalidation of §5.1 ("when a race is
detected on the emulated memory location ... PRORACE invalidates the
memory location and regenerates the trace") can identify exactly which
reconstructed accesses to retract.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional

from ..isa.registers import MASK64, NUM_SLOTS, REG_SLOT

#: Taint: emulated-memory addresses a value depends on (None = clean).
Taint = Optional[FrozenSet[int]]


def merge_taint(a: Taint, b: Taint) -> Taint:
    if a is None:
        return b
    if b is None:
        return a
    return a | b


class Known:
    """An available value with provenance taint.

    Immutable by convention: nothing assigns ``value`` or ``taint``
    after construction, so instances are shared freely between register
    slots, emulated memory and backward facts.  A slotted class rather
    than a frozen dataclass because the forward pass builds one for
    every value it produces, and this one constructs in well under half
    the time.
    """

    __slots__ = ("value", "taint")

    def __init__(self, value: int, taint: Taint = None) -> None:
        self.value = value
        self.taint = taint

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value and self.taint == other.taint

    def __hash__(self) -> int:
        return hash((self.value, self.taint))

    def __repr__(self) -> str:
        return f"Known(value={self.value!r}, taint={self.taint!r})"


class ProgramMap:
    """Register file + emulated memory with availability tracking.

    Registers start unavailable; :meth:`restore_registers` makes the full
    file available (what a PEBS sample's context provides).  Memory starts
    empty ("unavailable in the first place") and gains entries only when
    an available value is stored through a known address — the *memory
    emulation* of §5.1, which system calls and stores through unknown
    addresses conservatively clear.

    Registers are stored in a flat list indexed by the dense slot indices
    of :data:`~repro.isa.registers.REG_SLOT` (None = unavailable), memory
    in a dict of address → :class:`Known`.  The window replayer's
    micro-op executor reads and writes ``_slots`` and ``_memory``
    directly and applies the emulation rules itself (see
    :meth:`~repro.replay.window.WindowReplayer._exec_uops`).
    """

    __slots__ = ("_slots", "_memory", "memory_invalidations", "poisoned",
                 "emulated_touched")

    def __init__(self, poisoned: Optional[Iterable[int]] = None) -> None:
        self._slots: list = [None] * NUM_SLOTS
        self._memory: Dict[int, Known] = {}
        self.memory_invalidations = 0
        #: Addresses whose emulated values must never be used (the
        #: race-regeneration protocol marks racy locations poisoned).
        self.poisoned: FrozenSet[int] = frozenset(poisoned or ())
        #: Every address this replay *tried* to emulate (available value
        #: stored, whether or not poisoning refused it).  Poisoning an
        #: address can only change a replay that consulted the poison set,
        #: and the poison set is consulted exactly at emulating stores —
        #: so a replay whose touched set misses the new poisons is
        #: provably identical, which is what lets regeneration rounds
        #: skip re-replaying unaffected threads.
        self.emulated_touched: set = set()

    def restore_registers(self, snapshot: Mapping[str, int]) -> None:
        """Make the whole register file available (a PEBS context)."""
        slots = [None] * NUM_SLOTS
        for name, value in snapshot.items():
            slots[REG_SLOT[name]] = Known(value & MASK64)
        self._slots = slots

    def memory_copy(self) -> Dict[int, Known]:
        return dict(self._memory)

    def set_memory_map(self, memory: Dict[int, Known]) -> None:
        self._memory = dict(memory)

"""Unit tests for the availability-tracked program map.

The program map holds the register file and the emulated memory; the
window replayer's micro-op executor applies the §5.1 emulation rules to
it directly, so the memory tests drive a one-window replay of a short
straight-line program and read the rules off what it recovers.
"""

from repro.isa import assemble
from repro.isa.registers import MASK64, REG_SLOT
from repro.replay import WindowReplayer
from repro.replay.program_map import Known, ProgramMap, merge_taint


class TestTaint:
    def test_merge_none(self):
        assert merge_taint(None, None) is None

    def test_merge_one_sided(self):
        t = frozenset({1})
        assert merge_taint(t, None) == t
        assert merge_taint(None, t) == t

    def test_merge_union(self):
        assert merge_taint(frozenset({1}), frozenset({2})) == frozenset({1, 2})


class TestRegisters:
    def test_start_unavailable(self):
        assert all(known is None for known in ProgramMap()._slots)

    def test_restore_makes_all_available(self):
        pm = ProgramMap()
        pm.restore_registers({"rax": 5, "rbx": 6})
        assert pm._slots[REG_SLOT["rax"]] == Known(5)
        available = {name for name, slot in REG_SLOT.items()
                     if pm._slots[slot] is not None}
        assert available == {"rax", "rbx"}

    def test_values_masked(self):
        pm = ProgramMap()
        pm.restore_registers({"rax": -1})
        assert pm._slots[REG_SLOT["rax"]].value == MASK64


def _deref_after(between, poison_cell=False):
    """Replay a program that stores a pointer to ``table`` in ``cell``,
    runs *between*, then loads ``cell`` back and dereferences it, with
    no register known on entry.  Returns the program, the replayer and
    the dereference's recovered access — None unless ``cell`` was still
    emulated."""
    program = assemble(f"""
.global cell 0
.array table 3 4
main:
    lea table(%rip), %rax
    mov %rax, cell(%rip)
{between}
    mov cell(%rip), %rbx
    mov (%rbx), %rcx
    halt
""")
    poisoned = frozenset({program.symbols["cell"]}) if poison_cell else None
    steps = list(range(len(program)))
    replayer = WindowReplayer(program, steps, 0, len(steps), tid=0,
                              entry_registers=None, exit_registers=None,
                              poisoned=poisoned)
    recovered = {access.step_index: access for access in replayer.run()}
    return program, replayer, recovered.get(len(steps) - 2)


class TestMemoryEmulation:
    def test_memory_starts_unavailable(self):
        assert ProgramMap().memory_copy() == {}

    def test_store_then_load(self):
        program, _replayer, deref = _deref_after("    nop")
        assert deref is not None
        assert deref.address == program.symbols["table"]

    def test_loaded_value_tainted_by_its_address(self):
        """A value read from emulated memory is only trustworthy if the
        emulation of that location is — the taint records this (§5.1)."""
        program, _replayer, deref = _deref_after("    nop")
        assert deref.taint == frozenset({program.symbols["cell"]})

    def test_unavailable_store_evicts(self):
        _program, _replayer, deref = _deref_after(
            "    mov (%rdx), %rax\n    mov %rax, cell(%rip)")
        assert deref is None

    def test_invalidate_clears_all(self):
        _program, replayer, deref = _deref_after("    io $1")
        assert deref is None
        assert replayer.exit_memory == {}
        assert replayer.stats.memory_invalidations == 1

    def test_poisoned_address_never_emulated(self):
        program, replayer, deref = _deref_after("    nop", poison_cell=True)
        assert deref is None
        # The store was still tried: it counts as touched.
        assert program.symbols["cell"] in replayer.touched

    def test_memory_copy_roundtrip(self):
        pm = ProgramMap()
        pm.set_memory_map({0x100: Known(9)})
        other = ProgramMap()
        other.set_memory_map(pm.memory_copy())
        assert other.memory_copy() == {0x100: Known(9)}
        other._memory.clear()
        assert pm.memory_copy() == {0x100: Known(9)}

"""Extended window-replay coverage: stack traffic, taint propagation,
window statistics, cross-window memory carry-over."""

from repro.isa import assemble
from repro.replay import PROV_BACKWARD, WindowReplayer

from tests.helpers import record_states


def replay_whole(source, entry_step=0, seed=0, entry=True, exit_step=None):
    program = assemble(source)
    machine, states = record_states(program, seed=seed)
    steps = [ip for ip, _ in states[0]]
    replayer = WindowReplayer(
        program, steps, entry_step,
        exit_step if exit_step is not None else len(steps), tid=0,
        entry_registers=states[0][entry_step][1] if entry else None,
        exit_registers=(
            states[0][exit_step][1] if exit_step is not None else None
        ),
    )
    return program, steps, replayer


class TestStackTraffic:
    SOURCE = """
.global g 3
main:
    mov g(%rip), %rax
    push %rax
    mov $0, %rax
    pop %rbx
    mov %rbx, g(%rip)
    halt
"""

    def test_push_pop_addresses_recovered(self):
        program, steps, replayer = replay_whole(self.SOURCE)
        recovered = {a.ip: a for a in replayer.run()}
        assert recovered[1].is_store  # push
        assert not recovered[3].is_store  # pop
        assert recovered[1].address == recovered[3].address

    def test_pop_value_flows_through_emulated_stack(self):
        """push then pop through emulated memory: the store at ip 4 uses
        the value restored via the stack slot."""
        program, steps, replayer = replay_whole(self.SOURCE)
        recovered = {a.ip: a for a in replayer.run()}
        assert 4 in recovered  # final store address known via rip

    def test_rsp_recovered_backward(self):
        """With no entry context, backward propagation restores rsp and
        with it the stack-slot addresses."""
        program, steps, _ = replay_whole(self.SOURCE)
        machine, states = record_states(assemble(self.SOURCE))
        replayer = WindowReplayer(
            assemble(self.SOURCE), steps, 0, 4, tid=0,
            entry_registers=None, exit_registers=states[0][4][1],
        )
        recovered = {a.ip: a for a in replayer.run()}
        assert 1 in recovered and recovered[1].provenance == PROV_BACKWARD


class TestCallRetAcrossWindow:
    SOURCE = """
.array arr 1 2 3 4
main:
    mov $2, %rbx
    call f
    mov arr(,%rbx,8), %rcx
    halt
f:
    mov arr(,%rbx,8), %rdx
    ret
"""

    def test_rsp_tracked_through_call_ret(self):
        program, steps, replayer = replay_whole(self.SOURCE)
        recovered = {a.step_index for a in replayer.run()}
        # Both array loads (inside f and after the ret) recovered.
        ips = {replayer.steps[j] for j in recovered}
        assert program.resolve("f") in ips
        assert 2 in ips


class TestTaint:
    def test_taint_propagates_through_lea_and_alu(self):
        source = """
.global cell 0
.array arr 7 7 7 7 7 7 7 7
main:
    mov $3, %rax
    mov %rax, cell(%rip)
    mov cell(%rip), %rbx     # rbx tainted by cell
    add $1, %rbx             # taint survives arithmetic
    mov arr(,%rbx,8), %rcx   # access address tainted
    halt
"""
        program, steps, replayer = replay_whole(source)
        recovered = {a.ip: a for a in replayer.run()}
        access = recovered[4]
        assert access.taint and program.symbols["cell"] in access.taint

    def test_clean_addresses_have_no_taint(self):
        source = """
.array arr 7 7 7 7
main:
    mov $2, %rbx
    mov arr(,%rbx,8), %rcx
    halt
"""
        program, steps, replayer = replay_whole(source)
        recovered = {a.ip: a for a in replayer.run()}
        assert recovered[1].taint is None


class TestCrossWindowMemory:
    def test_emulated_memory_carries_between_windows(self):
        """A pointer stored in window 1 resolves a load in window 2 (the
        engine threads exit_memory → entry_memory)."""
        source = """
.global cell 0
.array arr 5 6 7 8
main:
    mov $arr, %rax
    mov %rax, cell(%rip)     # window 1: emulate the pointer
    mov $0, %r9
    mov cell(%rip), %rsi     # window 2 starts before this load
    mov 8(%rsi), %rdx
    halt
"""
        program = assemble(source)
        machine, states = record_states(program)
        steps = [ip for ip, _ in states[0]]
        first = WindowReplayer(
            program, steps, 0, 3, tid=0,
            entry_registers=states[0][0][1], exit_registers=states[0][3][1],
        )
        first.run()
        second = WindowReplayer(
            program, steps, 3, len(steps), tid=0,
            entry_registers=states[0][3][1], exit_registers=None,
            entry_memory=first.exit_memory,
        )
        recovered = {a.ip: a for a in second.run()}
        assert recovered[4].address == program.symbols["arr"] + 8


class TestWindowStats:
    def test_counters_populate(self):
        source = """
.global g 1
main:
    mov g(%rip), %rbx
    mov (%rbx), %rcx
    mov g(%rip), %rdx
    halt
"""
        program, steps, replayer = replay_whole(source, entry=False)
        replayer.run()
        stats = replayer.stats
        assert stats.steps == len(steps)
        assert stats.missed >= 1  # (%rbx) with rbx from memory
        assert stats.iterations >= 1

    def test_invalidation_counted(self):
        source = """
.global g 1
.global lockvar 0
main:
    mov $5, %rax
    mov %rax, g(%rip)
    lock $lockvar
    unlock $lockvar
    halt
"""
        program, steps, replayer = replay_whole(source)
        replayer.run()
        assert replayer.stats.memory_invalidations >= 2

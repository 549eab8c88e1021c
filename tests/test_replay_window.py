"""Window replay unit tests, including the paper's Figure 5 example."""

from repro.isa import assemble
from repro.replay import PROV_BACKWARD, WindowReplayer

from tests.helpers import record_states


def _single_thread_window(source, start, end, seed=0):
    """Build a WindowReplayer over thread 0's straight-line execution."""
    program = assemble(source)
    machine, states = record_states(program, seed=seed)
    steps = [ip for ip, _ in states[0]]
    entry = states[0][start][1] if start < len(states[0]) else None
    exit_regs = states[0][end][1] if end < len(states[0]) else None
    replayer = WindowReplayer(
        program, steps, start, end, tid=0,
        entry_registers=entry, exit_registers=exit_regs,
    )
    return program, machine, steps, replayer


FIGURE5 = """
.reserve stack_pad 4
.array darray 11 22 33 44 55 66 77 88
.array parray 0 0 0 0
main:
    mov $darray, %rbp
    mov $1, %rbx
    mov $parray, %r15
    mov $darray, %r9
    mov %r9, parray(%rip)
    mov %r9, 8(%r15)
    mov $darray, %r14
    mov $0, %r12
    mov $7, %r10
    mov $3, %r13
    mov %rax, 0x8(%rsp)         # 10: sampled store (paper line 0)
    mov 0x0(%rbp,%rbx,4), %rdx  # 11
    mov (%r15,%rbx,8), %rsi     # 12: load makes rsi unavailable
    mov 0x8(%rsi), %rax         # 13: needs rsi -> backward replay
    mov %r10, %rdi              # 14
    mov 0x8(%r14), %rax         # 15
    add %rax, %r13              # 16
    xor %rax, %rax              # 17
    mov %r13, 0x8(%r14)         # 18
    mov 0x8(%rsp), %rcx         # 19
    mov (%r15,%r12,8), %rsi     # 20: next sample (paper line 10)
    halt
"""


class TestFigure5:
    """The paper's worked example, §5.1–§5.2 / Figure 5."""

    def _replay(self):
        # Window = paper lines 0..10 → our instruction 10 (sample) to 20
        # (next sample, exclusive).
        return _single_thread_window(FIGURE5, start=10, end=20)

    def test_forward_recovers_lines_0_1_2_5_8_9(self):
        program, machine, steps, replayer = self._replay()
        recovered = {a.ip: a for a in replayer.run()}
        # Paper: "forward replay can successfully reconstruct ... line 1,
        # 2, 5, 8, 9" (plus the sampled line 0 itself).
        for ip in (10, 11, 12, 15, 18, 19):
            assert ip in recovered, f"instruction {ip} not recovered"

    def test_line3_needs_backward_replay(self):
        program, machine, steps, replayer = self._replay()
        recovered = {a.ip: a for a in replayer.run()}
        assert 13 in recovered
        assert recovered[13].provenance == PROV_BACKWARD

    def test_line3_address_is_correct(self):
        program, machine, steps, replayer = self._replay()
        recovered = {a.ip: a for a in replayer.run()}
        darray = program.symbols["darray"]
        assert recovered[13].address == darray + 8

    def test_forward_only_misses_line3(self):
        program, machine, steps, _ = self._replay()
        _, states = record_states(program)
        fwd = WindowReplayer(
            program, steps, 10, 20, tid=0,
            entry_registers=states[0][10][1], exit_registers=None,
        )
        recovered = {a.ip for a in fwd.run()}
        assert 13 not in recovered
        assert 18 in recovered

    def test_all_recovered_addresses_match_ground_truth(self):
        program, machine, steps, replayer = self._replay()
        _, states = record_states(program)
        from repro.isa.semantics import effective_address

        for access in replayer.run():
            ins = program[access.ip]
            mem = ins.memory_operand()
            regs = states[0][access.step_index][1]
            truth = effective_address(mem, regs, access.ip)
            if ins.op.value == "push":
                truth = (regs["rsp"] - 8) & ((1 << 64) - 1)
            assert access.address == truth


class TestEdgeWindows:
    SOURCE = """
.global g 2
.array arr 1 2 3 4
main:
    mov g(%rip), %rax
    mov g(%rip), %rbx
    mov arr(,%rbx,8), %rcx
    mov %rcx, g(%rip)
    mov (%rbx), %rdx
    halt
"""

    def test_head_window_recovers_rip_relative_without_registers(self):
        """Before the first sample, only the PT path is known — yet
        PC-relative accesses are recoverable (§5.1, Table 2)."""
        program, machine, steps, _ = _single_thread_window(
            self.SOURCE, 0, 0
        )
        replayer = WindowReplayer(
            program, steps, 0, len(steps), tid=0,
            entry_registers=None, exit_registers=None,
        )
        recovered = {a.ip for a in replayer.run()}
        assert 0 in recovered  # mov g(%rip), %rax
        assert 3 in recovered  # mov %rcx, g(%rip)
        assert 2 not in recovered  # needs %rbx, loaded from memory

    def test_head_window_backward_from_first_sample(self):
        program = assemble(self.SOURCE)
        machine, states = record_states(program)
        steps = [ip for ip, _ in states[0]]
        # First sample at instruction 4; backward covers 0..3.
        replayer = WindowReplayer(
            program, steps, 0, 4, tid=0,
            entry_registers=None, exit_registers=states[0][4][1],
        )
        recovered = {a.ip: a for a in replayer.run()}
        # arr(,%rbx,8): rbx live until the end → backward recoverable.
        assert 2 in recovered
        assert recovered[2].provenance == PROV_BACKWARD
        arr = program.symbols["arr"]
        assert recovered[2].address == arr + 16


class TestReverseExecution:
    def test_add_chain_reversed(self):
        """dst = dst + imm chains are invertible back past the update."""
        source = """
.array arr 9 9 9 9 9 9 9 9
main:
    mov $1, %rbx
    mov arr(,%rbx,8), %rcx   # 1: load -> rbx stays, rcx unavailable
    add $2, %rbx             # 2: rbx = 3
    mov arr(,%rbx,8), %rdx   # 3: uses updated rbx
    halt
"""
        program = assemble(source)
        machine, states = record_states(program)
        steps = [ip for ip, _ in states[0]]
        # Window 1..4 with no entry context; exit context before halt.
        replayer = WindowReplayer(
            program, steps, 1, 4, tid=0,
            entry_registers=None, exit_registers=states[0][4][1],
        )
        recovered = {a.ip: a for a in replayer.run()}
        arr = program.symbols["arr"]
        # Instruction 3 via plain back-propagation of rbx.
        assert recovered[3].address == arr + 24
        # Instruction 1 needs reverse execution through `add $2, %rbx`.
        assert recovered[1].address == arr + 8
        assert recovered[1].provenance == PROV_BACKWARD

    def test_unary_inverted(self):
        source = """
.array arr 9 9 9 9 9 9 9 9
main:
    mov $3, %rbx
    mov arr(,%rbx,8), %rcx
    inc %rbx
    halt
"""
        program = assemble(source)
        machine, states = record_states(program)
        steps = [ip for ip, _ in states[0]]
        replayer = WindowReplayer(
            program, steps, 1, 3, tid=0,
            entry_registers=None, exit_registers=states[0][3][1],
        )
        recovered = {a.ip: a for a in replayer.run()}
        assert recovered[1].address == program.symbols["arr"] + 24

    def test_mov_copy_back_propagates(self):
        source = """
.array arr 9 9 9 9 9 9 9 9
main:
    mov $2, %rbx
    mov arr(,%rbx,8), %rcx
    mov %rbx, %rdx
    mov $0, %rbx
    halt
"""
        program = assemble(source)
        machine, states = record_states(program)
        steps = [ip for ip, _ in states[0]]
        replayer = WindowReplayer(
            program, steps, 1, 4, tid=0,
            entry_registers=None, exit_registers=states[0][4][1],
        )
        # rbx destroyed at 3, but rdx carries its value back through the
        # copy at 2.
        recovered = {a.ip: a for a in replayer.run()}
        assert recovered[1].address == program.symbols["arr"] + 16


class TestMemoryEmulation:
    def test_store_then_load_through_emulated_memory(self):
        source = """
.global cell 0
.array arr 5 6 7 8
main:
    mov $arr, %rax
    mov %rax, cell(%rip)     # 1: emulated store of the pointer
    mov cell(%rip), %rsi     # 2: load back through emulation
    mov 8(%rsi), %rdx        # 3: address recoverable via emulated value
    halt
"""
        program = assemble(source)
        machine, states = record_states(program)
        steps = [ip for ip, _ in states[0]]
        replayer = WindowReplayer(
            program, steps, 0, len(steps), tid=0,
            entry_registers=states[0][0][1], exit_registers=None,
        )
        recovered = {a.ip: a for a in replayer.run()}
        assert recovered[3].address == program.symbols["arr"] + 8
        assert recovered[3].taint  # depended on emulated memory

    def test_system_call_invalidates_emulation(self):
        source = """
.global cell 0
.global lockvar 0
.array arr 5 6 7 8
main:
    mov $arr, %rax
    mov %rax, cell(%rip)
    lock $lockvar
    unlock $lockvar
    mov cell(%rip), %rsi
    mov 8(%rsi), %rdx        # 5: emulation was invalidated by lock
    halt
"""
        program = assemble(source)
        machine, states = record_states(program)
        steps = [ip for ip, _ in states[0]]
        replayer = WindowReplayer(
            program, steps, 0, len(steps), tid=0,
            entry_registers=states[0][0][1], exit_registers=None,
        )
        recovered = {a.ip: a for a in replayer.run()}
        assert 5 not in recovered
        assert replayer.stats.memory_invalidations >= 1

    def test_poisoned_location_not_used(self):
        source = """
.global cell 0
.array arr 5 6 7 8
main:
    mov $arr, %rax
    mov %rax, cell(%rip)
    mov cell(%rip), %rsi
    mov 8(%rsi), %rdx
    halt
"""
        program = assemble(source)
        machine, states = record_states(program)
        steps = [ip for ip, _ in states[0]]
        cell = program.symbols["cell"]
        replayer = WindowReplayer(
            program, steps, 0, len(steps), tid=0,
            entry_registers=states[0][0][1], exit_registers=None,
            poisoned=frozenset({cell}),
        )
        recovered = {a.ip: a for a in replayer.run()}
        assert 3 not in recovered  # §5.1: racy emulated location unusable

    def test_unknown_address_store_invalidates_all(self):
        source = """
.global cell 0
.array arr 5 6 7 8
main:
    mov $arr, %rax
    mov %rax, cell(%rip)     # emulate cell
    mov (%r13), %r9          # r13 unknown in this window
    mov %r9, (%r13)          # store through unknown address
    mov cell(%rip), %rsi
    mov 8(%rsi), %rdx        # 5
    halt
"""
        program = assemble(source)
        machine, states = record_states(program)
        steps = [ip for ip, _ in states[0]]
        entry = dict(states[0][0][1])
        # Make r13 unavailable by replaying with a partial context: the
        # engine models this via a window whose entry lacks r13 — emulate
        # by entering at step 0 with the recorded registers minus r13.
        del entry["r13"]
        replayer = WindowReplayer(
            program, steps, 0, len(steps), tid=0,
            entry_registers=entry, exit_registers=None,
        )
        recovered = {a.ip: a for a in replayer.run()}
        assert 5 not in recovered

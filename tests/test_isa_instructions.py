"""Unit tests for instruction classification and dataflow metadata."""

from repro.isa.instructions import Instruction, Op
from repro.isa.operands import Imm, Mem, Reg


def ins(op, *operands, target=None):
    return Instruction(op, tuple(operands), target)


class TestClassification:
    def test_mov_load(self):
        load = ins(Op.MOV, Mem(base="rbx"), Reg("rax"))
        assert load.is_load() and not load.is_store()
        assert load.is_memory_access()

    def test_mov_store(self):
        store = ins(Op.MOV, Reg("rax"), Mem(base="rbx"))
        assert store.is_store() and not store.is_load()

    def test_mov_reg_reg_not_memory(self):
        assert not ins(Op.MOV, Reg("rax"), Reg("rbx")).is_memory_access()

    def test_lea_is_not_memory_access(self):
        lea = ins(Op.LEA, Mem(base="rbx", disp=8), Reg("rax"))
        assert not lea.is_memory_access()

    def test_alu_with_memory_source_is_load(self):
        add = ins(Op.ADD, Mem(base="rbx"), Reg("rax"))
        assert add.is_load() and not add.is_store()

    def test_push_is_store_pop_is_load(self):
        assert ins(Op.PUSH, Reg("rax")).is_store()
        assert ins(Op.POP, Reg("rax")).is_load()

    def test_cmp_with_memory_is_load(self):
        cmp = ins(Op.CMP, Mem(base="rbx"), Reg("rax"))
        assert cmp.is_load()

    def test_branch_classification(self):
        assert ins(Op.JMP, target="x").is_branch()
        assert ins(Op.JE, target="x").is_cond_branch()
        assert ins(Op.CALL, target="x").is_branch()
        assert ins(Op.RET).is_branch()
        assert not ins(Op.NOP).is_branch()

    def test_system_classification(self):
        assert ins(Op.LOCK, Imm(0)).is_system()
        assert ins(Op.MALLOC, Imm(8), Reg("rax")).is_system()
        assert not ins(Op.MOV, Reg("rax"), Reg("rbx")).is_system()

    def test_sync_classification(self):
        assert ins(Op.SPAWN, Reg("rax"), target="w").is_sync()
        assert ins(Op.SEM_POST, Imm(0)).is_sync()
        assert not ins(Op.MALLOC, Imm(8), Reg("rax")).is_sync()


class TestDataflow:
    def test_mov_reg_reg(self):
        mov = ins(Op.MOV, Reg("rax"), Reg("rbx"))
        assert mov.reads_registers() == frozenset({"rax"})
        assert mov.writes_registers() == frozenset({"rbx"})

    def test_mov_load_reads_address_registers(self):
        load = ins(Op.MOV, Mem(base="rbp", index="rbx", scale=4), Reg("rdx"))
        assert load.reads_registers() == frozenset({"rbp", "rbx"})
        assert load.writes_registers() == frozenset({"rdx"})

    def test_mov_store_reads_source_and_address(self):
        store = ins(Op.MOV, Reg("rax"), Mem(base="rsp", disp=8))
        assert store.reads_registers() == frozenset({"rax", "rsp"})
        assert store.writes_registers() == frozenset()

    def test_rip_relative_reads_nothing(self):
        load = ins(Op.MOV, Mem(disp=4, rip_relative=True), Reg("rax"))
        assert load.reads_registers() == frozenset()

    def test_alu_binary_reads_both(self):
        add = ins(Op.ADD, Reg("rax"), Reg("rbx"))
        assert add.reads_registers() == frozenset({"rax", "rbx"})
        assert add.writes_registers() == frozenset({"rbx"})

    def test_alu_unary(self):
        inc = ins(Op.INC, Reg("rcx"))
        assert inc.reads_registers() == frozenset({"rcx"})
        assert inc.writes_registers() == frozenset({"rcx"})

    def test_push_pop_touch_rsp(self):
        push = ins(Op.PUSH, Reg("rax"))
        assert "rsp" in push.reads_registers()
        assert push.writes_registers() == frozenset({"rsp"})
        pop = ins(Op.POP, Reg("rax"))
        assert pop.writes_registers() == frozenset({"rax", "rsp"})

    def test_spawn_writes_tid_destination(self):
        spawn = ins(Op.SPAWN, Reg("r9"), target="w")
        assert spawn.writes_registers() == frozenset({"r9"})
        assert spawn.reads_registers() == frozenset()

    def test_malloc_reads_size_writes_dst(self):
        malloc = ins(Op.MALLOC, Reg("rdi"), Reg("rax"))
        assert malloc.reads_registers() == frozenset({"rdi"})
        assert malloc.writes_registers() == frozenset({"rax"})

    def test_join_reads_tid(self):
        join = ins(Op.JOIN, Reg("rbx"))
        assert join.reads_registers() == frozenset({"rbx"})

    def test_str_rendering(self):
        assert str(ins(Op.MOV, Reg("rax"), Mem(base="rsp", disp=8))) == \
            "mov %rax,0x8(%rsp)"

"""Window replay: reconstructing unsampled accesses between two samples.

One *window* is the path slice between consecutive PEBS samples of a
thread (Figure 4).  The replayer alternates:

* **Forward replay** (§5.1): restore the entry sample's register file and
  re-execute every instruction along the PT path, tracking availability
  in a :class:`~repro.replay.program_map.ProgramMap`; each memory
  instruction whose effective address computes yields a recovered access.
* **Backward replay** (§5.2): walking back from the *next* sample's
  register file, values back-propagate to each register's last update
  point, and *reverse execution* inverts ADD/SUB/XOR (plus the trivially
  invertible INC/DEC/NEG/NOT, LEA, and stack-pointer adjustments) to push
  knowledge further back.  Accesses the forward pass missed are recovered
  where the backward state covers their address registers.
* The two passes iterate — backward facts seed the next forward pass —
  "until they reach the fixed point where no further restoration is
  found" (§5.2.2).

Windows at the trace edges degenerate gracefully: before the first sample
only the backward pass runs; after the last sample only the forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..isa.lowering import (
    A_BASE,
    A_BI,
    A_CONST,
    R_ALU_IR,
    R_ALU_RR,
    R_ALU_UN,
    R_LEA_BASE,
    R_MOV_RR,
    R_NOP,
    R_POP,
    R_POP_DST,
    R_RSP_ADD,
    R_RSP_SUB,
    RSP_SLOT,
    T_MEM,
    T_PUSH,
    U_ALU_IR,
    U_ALU_MR,
    U_ALU_RR,
    U_ALU_UN,
    U_CALL,
    U_CLOBBER,
    U_CMP,
    U_LEA,
    U_LOAD,
    U_MOV_IR,
    U_MOV_RR,
    U_NOP,
    U_POP,
    U_PUSH_K,
    U_PUSH_M,
    U_PUSH_R,
    U_RET,
    U_STORE_I,
    U_STORE_R,
    U_SYS,
    eval_addr,
    lowered,
)
from ..isa.program import Program
from ..isa.registers import MASK64, REG_SLOT
from ..isa.semantics import alu_unary, reverse_alu
from .program_map import Known, ProgramMap, Taint, merge_taint
from .summary import (
    MIN_SPAN,
    BlockSummaryCache,
    SpanRecord,
    SpanSummary,
    WindowSummary,
)

#: How a recovered access was obtained.
PROV_SAMPLED = "sampled"
PROV_FORWARD = "forward"
PROV_BACKWARD = "backward"
PROV_BASICBLOCK = "basicblock"

#: Every provenance the replay layers emit, in a stable order — the
#: columnar event batches (:mod:`repro.detector.batch`) intern
#: provenance strings against this table so the hot path carries one
#: byte per access instead of a string reference.
PROVENANCES = (PROV_SAMPLED, PROV_FORWARD, PROV_BACKWARD, PROV_BASICBLOCK)


@dataclass(frozen=True)
class RecoveredAccess:
    """One memory access whose address the offline stage reconstructed."""

    tid: int
    step_index: int
    ip: int
    address: int
    is_store: bool
    provenance: str
    #: Emulated-memory addresses this address computation depended on;
    #: non-empty taints are retracted if those locations prove racy.
    taint: Taint = None


@dataclass
class WindowStats:
    """Availability bookkeeping for one window replay."""

    steps: int = 0
    recovered_forward: int = 0
    recovered_backward: int = 0
    missed: int = 0
    iterations: int = 0
    memory_invalidations: int = 0
    #: Steps actually stepped by forward passes; a cached-summary hit
    #: skips its span's steps entirely.
    steps_executed: int = 0
    #: Effect-summary cache hits and the steps those hits skipped.
    summary_hits: int = 0
    summary_steps: int = 0
    #: 1 when this window's whole fixed point was served from the
    #: window memo (steps_executed is 0 in that case).
    window_hit: int = 0


class WindowReplayer:
    """Replays one window of one thread's decoded path.

    Args:
        program: the binary.
        steps: the thread's full decoded path (instruction addresses).
        start: first step index of the window (the entry sample's step, or
            0 for the pre-first-sample window).
        end: one past the last step index (the next sample's step, or
            ``len(steps)`` for the tail window).
        tid: owning thread.
        entry_registers: the entry sample's register context (state
            *before* the instruction at ``start`` executes), or None for
            the head window.
        exit_registers: the next sample's register context (state before
            ``steps[end]`` executes = after ``steps[end-1]``), or None for
            the tail window.
        entry_memory: emulated memory carried over from the previous
            window of the same thread.
        poisoned: emulated addresses barred by race regeneration (§5.1).
        max_iterations: fixed-point iteration cap.
        summary_cache: shared block effect-summary cache, or None to
            step every window in full.
    """

    def __init__(
        self,
        program: Program,
        steps: Sequence[int],
        start: int,
        end: int,
        tid: int,
        entry_registers: Optional[Mapping[str, int]],
        exit_registers: Optional[Mapping[str, int]],
        entry_memory: Optional[Dict[int, Known]] = None,
        poisoned: Optional[FrozenSet[int]] = None,
        max_iterations: int = 4,
        summary_cache: Optional[BlockSummaryCache] = None,
    ) -> None:
        self.program = program
        self.steps = steps
        self.start = start
        self.end = end
        self.tid = tid
        self.entry_registers = entry_registers
        self.exit_registers = exit_registers
        self.entry_memory = entry_memory or {}
        self.poisoned = poisoned or frozenset()
        self.max_iterations = max_iterations
        self.stats = WindowStats()
        self.exit_memory: Dict[int, Known] = {}
        #: Union of the program maps' emulated-store address sets across
        #: all forward passes (see ProgramMap.emulated_touched).
        self.touched: set = set()
        self._compiled = lowered(program)
        self._summary_cache = summary_cache
        self._scope = (
            summary_cache.scope(self.poisoned)
            if self._summary_cache is not None
            else None
        )
        self._window_scope = (
            summary_cache.window_scope(self.poisoned)
            if self._summary_cache is not None
            else None
        )
        #: Lazily computed per-window span lengths.
        self._span_len: Optional[List[int]] = None
        #: Companion jump table: next window offset whose uncapped span
        #: reaches MIN_SPAN (sentinel: window length).
        self._next_span: Optional[List[int]] = None
        #: (j, length) -> (path, live_in, defs): span key material reused
        #: across the fixed-point iterations of this window.
        self._span_meta: Dict[Tuple[int, int], tuple] = {}

    # ------------------------------------------------------------------

    def run(self) -> List[RecoveredAccess]:
        """Run the fixed-point replay; returns accesses sorted by step.

        With a summary cache attached, the whole window result is
        memoized: every input that determines the fixed point — thread,
        position, decoded path, entry/exit register contexts, entry
        memory and the iteration budget — is part of the key, so a
        repeat replay of the same bundle skips the forward *and*
        backward passes outright and replays the recorded outcome.
        """
        scope = self._window_scope
        if scope is None:
            return self._run_fixed_point()
        cache = self._summary_cache
        key = (
            self.tid, self.start,
            tuple(self.steps[self.start:self.end]),
            None if self.entry_registers is None
            else tuple(sorted(self.entry_registers.items())),
            None if self.exit_registers is None
            else tuple(sorted(self.exit_registers.items())),
            tuple(sorted((a, k.value, k.taint)
                         for a, k in self.entry_memory.items())),
            self.max_iterations,
        )
        summary = scope.get(key)
        if summary is not None:
            cache.window_hits += 1
            st = summary.stats
            cache.steps_saved += st.steps_executed + st.summary_steps
            s = self.stats
            s.steps = st.steps
            s.recovered_forward = st.recovered_forward
            s.recovered_backward = st.recovered_backward
            s.missed = st.missed
            s.iterations = st.iterations
            s.memory_invalidations = st.memory_invalidations
            s.window_hit = 1
            self.exit_memory = dict(summary.exit_memory)
            self.touched |= summary.touched
            return list(summary.accesses)
        cache.window_misses += 1
        result = self._run_fixed_point()
        scope[key] = WindowSummary(
            accesses=tuple(result),
            exit_memory=dict(self.exit_memory),
            touched=frozenset(self.touched),
            stats=replace(self.stats),
        )
        cache.window_stores += 1
        return result

    def _run_fixed_point(self) -> List[RecoveredAccess]:
        """The §5.2.2 forward/backward iteration (uncached)."""
        recovered: Dict[int, RecoveredAccess] = {}
        facts: Dict[int, Dict[int, Known]] = {}

        for iteration in range(self.max_iterations):
            self.stats.iterations = iteration + 1
            first = iteration == 0
            fwd_accesses, blocked = self._forward_pass(facts, first)
            for access in fwd_accesses:
                recovered.setdefault(access.step_index, access)
            if self.exit_registers is None:
                break  # tail window: nothing to propagate backward
            bwd_accesses, new_facts = self._backward_pass(blocked)
            for access in bwd_accesses:
                recovered.setdefault(access.step_index, access)
            if new_facts == facts:
                # Re-running the forward pass without new backward facts
                # cannot restore anything further: fixed point (§5.2.2).
                break
            facts = new_facts

        self.stats.recovered_forward = sum(
            1 for a in recovered.values() if a.provenance == PROV_FORWARD
        )
        self.stats.recovered_backward = sum(
            1 for a in recovered.values() if a.provenance == PROV_BACKWARD
        )
        return [recovered[j] for j in sorted(recovered)]

    # ------------------------------------------------------------------
    # Forward pass
    # ------------------------------------------------------------------

    def _forward_pass(
        self, facts: Dict[int, Dict[int, Known]], first: bool
    ) -> Tuple[List[RecoveredAccess], FrozenSet[int]]:
        """One forward replay over the window.

        Steps the pre-lowered micro-ops and — when a summary cache is
        attached — applies memoized span effects wherever the inputs
        match a prior execution.  *facts* are the backward pass's
        before-step register values, keyed by register slot, applied as
        they are reached.  Returns recovered accesses and the step
        indices where an unavailable input blocked reconstruction.
        """
        pm = ProgramMap(self.poisoned)
        if self.entry_registers is not None:
            pm.restore_registers(self.entry_registers)
        pm.set_memory_map(self.entry_memory)
        provenance = PROV_FORWARD if first else PROV_BACKWARD
        accesses: List[RecoveredAccess] = []
        blocked: set = set()
        slots = pm._slots

        fact_steps = sorted(step for step, named in facts.items() if named)

        if self._scope is None:
            prev = self.start
            for step in fact_steps:
                self._exec_uops(pm, prev, step, provenance, blocked,
                                accesses)
                for slot, known in facts[step].items():
                    if slots[slot] is None:
                        slots[slot] = known
                prev = step
            self._exec_uops(pm, prev, self.end, provenance, blocked,
                            accesses)
        else:
            span_len = self._span_lengths()
            next_span = self._next_span
            lo, hi = self.start, self.end
            n_facts = len(fact_steps)
            fp = 0
            j = lo
            while j < hi:
                while fp < n_facts and fact_steps[fp] < j:
                    fp += 1
                if fp < n_facts and fact_steps[fp] == j:
                    for slot, known in facts[j].items():
                        if slots[slot] is None:
                            slots[slot] = known
                    fp += 1
                length = span_len[j - lo]
                if fp < n_facts:
                    cap = fact_steps[fp] - j
                    if length > cap:
                        length = cap
                if length >= MIN_SPAN:
                    j += self._try_span(pm, j, length, provenance,
                                        blocked, accesses)
                else:
                    # Batch the whole stretch up to the next usable span
                    # (precomputed jump table) or the next fact step into
                    # one executor call — per-step scanning would
                    # otherwise eat the span savings in branchy code.
                    stop = fact_steps[fp] if fp < n_facts else hi
                    if stop > hi:
                        stop = hi
                    k = lo + next_span[j - lo + 1]
                    if k > stop:
                        k = stop
                    self._exec_uops(pm, j, k, provenance, blocked,
                                    accesses)
                    j = k

        self.stats.steps = self.end - self.start
        self.stats.memory_invalidations = pm.memory_invalidations
        self.exit_memory = pm.memory_copy()
        self.touched |= pm.emulated_touched
        return accesses, frozenset(blocked)

    def _span_lengths(self) -> List[int]:
        """Per-step maximal summarizable span length for this window.

        ``span[k]`` is the longest run of steps starting at window offset
        ``k`` containing no system op or kernel clobber.  Spans follow
        the recorded path — the path itself is part of the summary key,
        so a span may freely cross basic-block boundaries.  Computed once
        per window by a reverse scan; the forward passes then cap it at
        the next backward-fact step at runtime.
        """
        if self._span_len is not None:
            return self._span_len
        steps = self.steps
        summarizable = self._compiled.summarizable
        lo, hi = self.start, self.end
        n = hi - lo
        span = [0] * n
        nxt = [n] * (n + 1)
        for k in range(n - 1, -1, -1):
            if summarizable[steps[lo + k]]:
                span[k] = span[k + 1] + 1 if k + 1 < n else 1
            nxt[k] = k if span[k] >= MIN_SPAN else nxt[k + 1]
        self._span_len = span
        self._next_span = nxt
        return span

    def _try_span(
        self,
        pm: ProgramMap,
        j: int,
        length: int,
        provenance: str,
        blocked: set,
        accesses: List[RecoveredAccess],
    ) -> int:
        """Apply a cached span summary at step *j*, or record one.

        Returns the number of steps consumed (always *length*; a cache
        miss or validation failure falls back to recording execution).
        """
        cache = self._summary_cache
        scope = self._scope
        slots = pm._slots
        memory = pm._memory
        meta = self._span_meta.get((j, length))
        if meta is None:
            path = tuple(self.steps[j:j + length])
            live_in, defs = self._compiled.path_interface(path)
            meta = (path, live_in, defs)
            self._span_meta[(j, length)] = meta
        path, live_in, defs = meta
        # The signature is flattened to (value, taint) pairs: plain
        # tuples hash/compare in C, where Known's generated dunders are
        # Python-level calls on the hot path.
        key = (path, tuple(
            None if (k := slots[slot]) is None else (k.value, k.taint)
            for slot in live_in))

        summary = scope.get(key)
        if summary is not None:
            valid = True
            for address, entry in summary.reads:
                if memory.get(address) != entry:
                    valid = False
                    break
            if valid:
                tid = self.tid
                for offset in summary.blocked:
                    blocked.add(j + offset)
                self.stats.missed += summary.missed
                for offset, ip, address, is_store, taint in summary.accesses:
                    accesses.append(RecoveredAccess(
                        tid=tid, step_index=j + offset, ip=ip,
                        address=address, is_store=is_store,
                        provenance=provenance, taint=taint,
                    ))
                # Replay the recorded memory events under the same
                # rules as the executor's stores: a clear, an eviction,
                # or an emulated value unless the address is poisoned.
                touched = pm.emulated_touched
                poisoned = pm.poisoned
                for address, known in summary.writes:
                    if address is None:
                        if memory:
                            memory.clear()
                        pm.memory_invalidations += 1
                    elif known is None:
                        memory.pop(address, None)
                    else:
                        touched.add(address)
                        if address in poisoned:
                            memory.pop(address, None)
                        else:
                            memory[address] = known
                for slot, known in summary.reg_out:
                    slots[slot] = known
                cache.hits += 1
                cache.steps_saved += length
                self.stats.summary_hits += 1
                self.stats.summary_steps += length
                return length
            cache.validation_failures += 1
        else:
            cache.misses += 1

        record = SpanRecord()
        span_blocked: set = set()
        missed_before = self.stats.missed
        access_start = len(accesses)
        self._exec_uops(pm, j, j + length, provenance, span_blocked,
                        accesses, record)
        blocked |= span_blocked
        scope[key] = SpanSummary(
            reads=tuple(record.reads),
            writes=tuple(record.writes),
            reg_out=tuple((slot, slots[slot]) for slot in defs),
            accesses=tuple(
                (a.step_index - j, a.ip, a.address, a.is_store, a.taint)
                for a in accesses[access_start:]
            ),
            blocked=tuple(sorted(step - j for step in span_blocked)),
            missed=self.stats.missed - missed_before,
        )
        cache.stores += 1
        return length

    def _exec_uops(
        self,
        pm: ProgramMap,
        lo: int,
        hi: int,
        provenance: str,
        blocked: set,
        accesses: List[RecoveredAccess],
        record: Optional[SpanRecord] = None,
    ) -> None:
        """Step micro-ops for window steps ``[lo, hi)``.

        The replayer's hot loop, over pre-lowered tuples and the flat
        register slot file.  A step whose input is unavailable is marked
        blocked; a memory operand whose address does not compute counts
        as missed; a write to an unknown address, a system op or a
        kernel clobber invalidates all emulated memory; a value loaded
        from emulated memory is tainted by its address; and a step
        recovers at most one access.  When *record* is given, memory
        reads/writes are captured for the effect-summary cache (see
        :mod:`repro.replay.summary`).
        """
        slots = pm._slots
        memory = pm._memory
        touched = pm.emulated_touched
        poisoned = pm.poisoned
        steps = self.steps
        uops = self._compiled.uops
        tid = self.tid
        stats = self.stats
        stats.steps_executed += hi - lo

        for j in range(lo, hi):
            ip = steps[j]
            u = uops[ip]
            kind = u[0]

            if kind == U_NOP:
                continue

            if kind == U_MOV_RR:
                value = slots[u[1]]
                if value is None:
                    blocked.add(j)
                slots[u[2]] = value
                continue

            if kind == U_MOV_IR:
                slots[u[2]] = u[1]
                continue

            if kind == U_LOAD:
                address = eval_addr(slots, u[1])
                if address is None:
                    blocked.add(j)
                    stats.missed += 1
                    slots[u[2]] = None
                    continue
                av = address.value
                accesses.append(RecoveredAccess(
                    tid=tid, step_index=j, ip=ip, address=av,
                    is_store=False, provenance=provenance,
                    taint=address.taint,
                ))
                entry = memory.get(av)
                if record is not None and not record.cleared \
                        and av not in record.written:
                    # A load of an address this span already stored is
                    # deterministic given the signature (the stored value
                    # derives from validated inputs): no validation read.
                    record.reads.append((av, entry))
                if entry is None:
                    slots[u[2]] = None
                else:
                    slots[u[2]] = Known(
                        entry.value,
                        merge_taint(
                            merge_taint(entry.taint, frozenset({av})),
                            address.taint,
                        ),
                    )
                continue

            if kind == U_STORE_R or kind == U_STORE_I:
                address = eval_addr(slots, u[1])
                if kind == U_STORE_R:
                    value = slots[u[2]]
                    if value is None:
                        blocked.add(j)
                else:
                    value = u[2]
                if address is None:
                    blocked.add(j)
                    stats.missed += 1
                    if memory:
                        memory.clear()
                    pm.memory_invalidations += 1
                    if record is not None:
                        record.writes.append((None, None))
                        record.cleared = True
                    continue
                av = address.value
                if value is None:
                    memory.pop(av, None)
                else:
                    touched.add(av)
                    if av in poisoned:
                        memory.pop(av, None)
                    else:
                        memory[av] = value
                if record is not None:
                    record.writes.append((av, value))
                    record.written.add(av)
                accesses.append(RecoveredAccess(
                    tid=tid, step_index=j, ip=ip, address=av,
                    is_store=True, provenance=provenance,
                    taint=address.taint,
                ))
                continue

            if kind == U_LEA:
                address = eval_addr(slots, u[1])
                if address is None:
                    blocked.add(j)
                slots[u[2]] = address
                continue

            if kind == U_ALU_RR or kind == U_ALU_IR:
                if kind == U_ALU_RR:
                    value = slots[u[2]]
                    if value is None:
                        blocked.add(j)
                else:
                    value = u[2]
                current = slots[u[3]]
                if current is None:
                    blocked.add(j)
                    slots[u[3]] = None
                elif value is None:
                    slots[u[3]] = None
                elif kind == U_ALU_RR:
                    slots[u[3]] = Known(
                        u[1](value.value, current.value) & MASK64,
                        merge_taint(value.taint, current.taint),
                    )
                else:
                    slots[u[3]] = Known(
                        u[1](value, current.value) & MASK64, current.taint
                    )
                continue

            if kind == U_ALU_UN:
                current = slots[u[2]]
                if current is None:
                    blocked.add(j)
                    slots[u[2]] = None
                else:
                    slots[u[2]] = Known(
                        u[1](current.value) & MASK64, current.taint
                    )
                continue

            if kind == U_ALU_MR:
                address = eval_addr(slots, u[2])
                if address is None:
                    blocked.add(j)
                    stats.missed += 1
                    value = None
                else:
                    av = address.value
                    accesses.append(RecoveredAccess(
                        tid=tid, step_index=j, ip=ip, address=av,
                        is_store=False, provenance=provenance,
                        taint=address.taint,
                    ))
                    entry = memory.get(av)
                    if record is not None and not record.cleared \
                            and av not in record.written:
                        record.reads.append((av, entry))
                    if entry is None:
                        value = None
                    else:
                        value = Known(
                            entry.value,
                            merge_taint(
                                merge_taint(entry.taint, frozenset({av})),
                                address.taint,
                            ),
                        )
                current = slots[u[3]]
                if value is None or current is None:
                    if current is None:
                        blocked.add(j)
                    slots[u[3]] = None
                else:
                    slots[u[3]] = Known(
                        u[1](value.value, current.value) & MASK64,
                        merge_taint(value.taint, current.taint),
                    )
                continue

            if kind == U_CMP:
                emitted = False
                for desc in u[1]:
                    if desc[0] == 0:
                        if slots[desc[1]] is None:
                            blocked.add(j)
                    else:
                        address = eval_addr(slots, desc[1])
                        if address is None:
                            blocked.add(j)
                            stats.missed += 1
                        elif not emitted:
                            # A step recovers at most one access: the
                            # first operand whose address computes.  The
                            # loaded value is discarded, so no read needs
                            # recording.
                            accesses.append(RecoveredAccess(
                                tid=tid, step_index=j, ip=ip,
                                address=address.value, is_store=False,
                                provenance=provenance, taint=address.taint,
                            ))
                            emitted = True
                continue

            if kind == U_PUSH_R or kind == U_PUSH_K or kind == U_PUSH_M:
                if kind == U_PUSH_R:
                    value = slots[u[1]]
                    if value is None:
                        blocked.add(j)
                elif kind == U_PUSH_K:
                    value = u[1]
                else:
                    address = eval_addr(slots, u[1])
                    if address is None:
                        blocked.add(j)
                        stats.missed += 1
                        value = None
                    else:
                        # The push's own store is the step's one
                        # access, so the source's load is not recovered;
                        # the loaded value — and therefore the read —
                        # still matters.
                        av = address.value
                        entry = memory.get(av)
                        if record is not None \
                                and not record.cleared \
                                and av not in record.written:
                            record.reads.append((av, entry))
                        if entry is None:
                            value = None
                        else:
                            value = Known(
                                entry.value,
                                merge_taint(
                                    merge_taint(entry.taint,
                                                frozenset({av})),
                                    address.taint,
                                ),
                            )
                rsp = slots[RSP_SLOT]
                if rsp is None:
                    blocked.add(j)
                    stats.missed += 1
                    if memory:
                        memory.clear()
                    pm.memory_invalidations += 1
                    if record is not None:
                        record.writes.append((None, None))
                        record.cleared = True
                    continue
                av = (rsp.value - 8) & MASK64
                if value is None:
                    memory.pop(av, None)
                else:
                    touched.add(av)
                    if av in poisoned:
                        memory.pop(av, None)
                    else:
                        memory[av] = value
                if record is not None:
                    record.writes.append((av, value))
                    record.written.add(av)
                slots[RSP_SLOT] = Known(av, rsp.taint)
                accesses.append(RecoveredAccess(
                    tid=tid, step_index=j, ip=ip, address=av,
                    is_store=True, provenance=provenance, taint=rsp.taint,
                ))
                continue

            if kind == U_POP:
                rsp = slots[RSP_SLOT]
                if rsp is None:
                    blocked.add(j)
                    stats.missed += 1
                    slots[u[1]] = None
                    continue
                av = rsp.value
                entry = memory.get(av)
                if record is not None and not record.cleared \
                        and av not in record.written:
                    # A load of an address this span already stored is
                    # deterministic given the signature (the stored value
                    # derives from validated inputs): no validation read.
                    record.reads.append((av, entry))
                if entry is None:
                    slots[u[1]] = None
                else:
                    slots[u[1]] = Known(
                        entry.value,
                        merge_taint(entry.taint, frozenset({av})),
                    )
                accesses.append(RecoveredAccess(
                    tid=tid, step_index=j, ip=ip, address=av,
                    is_store=False, provenance=provenance, taint=rsp.taint,
                ))
                # rsp advances after the destination write: `pop %rsp`
                # ends with the adjusted pointer, as on the machine.
                slots[RSP_SLOT] = Known((av + 8) & MASK64, rsp.taint)
                continue

            if kind == U_CALL:
                rsp = slots[RSP_SLOT]
                if rsp is None:
                    if memory:
                        memory.clear()
                    pm.memory_invalidations += 1
                    if record is not None:
                        record.writes.append((None, None))
                        record.cleared = True
                    continue
                av = (rsp.value - 8) & MASK64
                value = u[1]
                touched.add(av)
                if av in poisoned:
                    memory.pop(av, None)
                else:
                    memory[av] = value
                if record is not None:
                    record.writes.append((av, value))
                    record.written.add(av)
                slots[RSP_SLOT] = Known(av, rsp.taint)
                continue

            if kind == U_RET:
                rsp = slots[RSP_SLOT]
                if rsp is not None:
                    slots[RSP_SLOT] = Known((rsp.value + 8) & MASK64,
                                            rsp.taint)
                continue

            if kind == U_CLOBBER:
                slots[u[1]] = None
                if memory:
                    memory.clear()
                pm.memory_invalidations += 1
                if record is not None:
                    record.writes.append((None, None))
                    record.cleared = True
                continue

            if kind == U_SYS:
                if memory:
                    memory.clear()
                pm.memory_invalidations += 1
                if record is not None:
                    record.writes.append((None, None))
                    record.cleared = True
                continue

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------

    def _backward_pass(
        self, blocked: FrozenSet[int]
    ) -> Tuple[List[RecoveredAccess], Dict[int, Dict[int, Known]]]:
        """Back-propagate the exit sample's registers through the window.

        Walks the pre-lowered reverse micro-ops, maintaining ``kb``:
        register values valid *after* the step being visited, keyed by
        register slot.  Per step, written registers leave ``kb`` unless
        reverse execution can invert the instruction; everything else
        passes through (the back-propagation of §5.2.1).  At each step
        the forward pass reported blocked, the before-state is recorded
        as a fact for the next forward pass and any missed memory
        operand re-tried.
        """
        assert self.exit_registers is not None
        kb: Dict[int, Known] = {
            REG_SLOT[name]: Known(value & MASK64)
            for name, value in self.exit_registers.items()
        }
        accesses: List[RecoveredAccess] = []
        facts: Dict[int, Dict[int, Known]] = {}
        compiled = self._compiled
        rev = compiled.rev
        retry = compiled.retry
        steps = self.steps
        tid = self.tid
        get = kb.get
        pop = kb.pop

        for j in range(self.end - 1, self.start - 1, -1):
            ip = steps[j]
            r = rev[ip]
            kind = r[0]
            if kind == R_NOP:
                pass
            elif kind == R_POP_DST:
                pop(r[1], None)
            elif kind == R_MOV_RR:
                after = pop(r[2], None)
                if after is not None and r[1] not in kb:
                    kb[r[1]] = after
            elif kind == R_ALU_IR:
                after = pop(r[3], None)
                if after is not None:
                    kb[r[3]] = Known(
                        reverse_alu(r[1], r[2], after.value), after.taint
                    )
            elif kind == R_ALU_RR:
                after = pop(r[3], None)
                if after is not None:
                    src = get(r[2])
                    if src is not None:
                        kb[r[3]] = Known(
                            reverse_alu(r[1], src.value, after.value),
                            merge_taint(after.taint, src.taint),
                        )
            elif kind == R_ALU_UN:
                after = pop(r[2], None)
                if after is not None:
                    kb[r[2]] = Known(alu_unary(r[1], after.value),
                                     after.taint)
            elif kind == R_RSP_ADD:
                rsp = get(RSP_SLOT)
                if rsp is not None:
                    kb[RSP_SLOT] = Known((rsp.value + 8) & MASK64,
                                         rsp.taint)
            elif kind == R_RSP_SUB:
                rsp = get(RSP_SLOT)
                if rsp is not None:
                    kb[RSP_SLOT] = Known((rsp.value - 8) & MASK64,
                                         rsp.taint)
            elif kind == R_POP:
                dst = r[1]
                pop(dst, None)
                if dst != RSP_SLOT:
                    rsp = get(RSP_SLOT)
                    if rsp is not None:
                        kb[RSP_SLOT] = Known((rsp.value - 8) & MASK64,
                                             rsp.taint)
            elif kind == R_LEA_BASE:
                after = pop(r[3], None)
                if after is not None and r[1] not in kb:
                    kb[r[1]] = Known((after.value - r[2]) & MASK64,
                                     after.taint)
            else:  # R_LEA_BI
                base_slot, index_slot = r[1], r[2]
                dst = r[5]
                after = pop(dst, None)
                if after is not None:
                    base = get(base_slot)
                    index = get(index_slot)
                    if base is not None and index is None and \
                            index_slot != dst:
                        kb[index_slot] = Known(
                            ((after.value - r[4] - base.value)
                             // r[3]) & MASK64,
                            merge_taint(after.taint, base.taint),
                        )
                    elif index is not None and base is None and \
                            base_slot != dst:
                        kb[base_slot] = Known(
                            (after.value - r[4]
                             - index.value * r[3]) & MASK64,
                            merge_taint(after.taint, index.taint),
                        )
            # kb now holds the before-state of step j.
            if j in blocked:
                if kb:
                    facts[j] = dict(kb)
                t = retry[ip]
                if t is not None:
                    tk = t[0]
                    if tk == T_MEM:
                        formula = t[1]
                        fk = formula[0]
                        known = None
                        if fk == A_CONST:
                            known = formula[1]
                        elif fk == A_BASE:
                            base = get(formula[1])
                            if base is not None:
                                known = Known(
                                    (base.value + formula[2]) & MASK64,
                                    base.taint,
                                )
                        elif fk == A_BI:
                            base = get(formula[1])
                            index = get(formula[2])
                            if base is not None and index is not None:
                                known = Known(
                                    (base.value + index.value * formula[3]
                                     + formula[4]) & MASK64,
                                    merge_taint(base.taint, index.taint),
                                )
                        else:  # A_INDEX
                            index = get(formula[1])
                            if index is not None:
                                known = Known(
                                    (index.value * formula[2]
                                     + formula[3]) & MASK64,
                                    index.taint,
                                )
                        if known is not None:
                            accesses.append(RecoveredAccess(
                                tid=tid, step_index=j, ip=ip,
                                address=known.value, is_store=t[2],
                                provenance=PROV_BACKWARD,
                                taint=known.taint,
                            ))
                    else:
                        rsp = get(RSP_SLOT)
                        if rsp is not None:
                            if tk == T_PUSH:
                                address = (rsp.value - 8) & MASK64
                            else:  # T_POP
                                address = rsp.value
                            accesses.append(RecoveredAccess(
                                tid=tid, step_index=j, ip=ip,
                                address=address, is_store=tk == T_PUSH,
                                provenance=PROV_BACKWARD, taint=rsp.taint,
                            ))
            if not kb:
                break
        return accesses, facts

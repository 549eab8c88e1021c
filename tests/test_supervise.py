"""Supervised runtime: retries, crash isolation, timeouts, deadlines,
quarantine, and checkpoint/resume (the §7.6 fleet's survival kit).

The headline contract: supervision changes *how persistently* work
runs, never *what* it computes — every scenario here checks the final
results against the plain serial run bit-for-bit.
"""

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import (
    EXIT_DEADLINE,
    EXIT_QUARANTINE,
    CheckpointError,
    DeadlineExceeded,
    QuarantinedWork,
    exit_code_for,
)
from repro.faults import WorkerFaultPlan
from repro.supervise import (
    SupervisorConfig,
    journal_path,
    open_journal,
    supervised_map,
)
from repro.tracing.serialize import ResultJournal

# Fast config for tests: no backoff sleeps.
FAST = SupervisorConfig(retries=3, backoff_base=0.0)


def _square(x):
    """Module-level so the process executor can pickle it."""
    return x * x


def _boom(x):
    raise ValueError(f"no good: {x}")


def _slow_square(x):
    time.sleep(5.0)
    return x * x


def _fails_on_two(x):
    if x == 2:
        raise ValueError("two")
    return x * x


def _square_and_pid(x):
    return x * x, os.getpid()


SRC = Path(__file__).resolve().parent.parent / "src"


def _running(pid):
    """Whether *pid* is a live process (an unreaped zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestHappyPath:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_matches_serial(self, executor, jobs):
        items = list(range(9))
        results, ledger = supervised_map(_square, items, jobs=jobs,
                                         executor=executor, config=FAST)
        assert results == [x * x for x in items]
        assert ledger.attempts == len(items)
        assert not ledger.eventful

    def test_empty(self):
        results, ledger = supervised_map(_square, [], jobs=4, config=FAST)
        assert results == []
        assert ledger.attempts == 0

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            supervised_map(_square, [1], executor="gpu")


class TestReusedWorkers:
    """Process workers are forked once per call and fed item after
    item; only a crash or a timeout costs a worker."""

    def test_two_jobs_use_at_most_two_workers(self):
        results, ledger = supervised_map(_square_and_pid, list(range(16)),
                                         jobs=2, executor="process")
        assert [square for square, _ in results] == \
            [x * x for x in range(16)]
        pids = {pid for _, pid in results}
        assert 1 <= len(pids) <= 2
        assert os.getpid() not in pids
        assert ledger.respawns == 0

    def test_kill_replaces_the_worker_and_costs_only_its_item(self):
        plan = WorkerFaultPlan(seed=3, kill=0.3)
        items = list(range(12))
        killed = [i for i in items if plan.action(i, 1) == "kill"]
        assert 0 < len(killed) < len(items), "seed must kill some items"
        results, ledger = supervised_map(_square_and_pid, items, jobs=2,
                                         executor="process", config=FAST,
                                         fault_plan=plan)
        assert [square for square, _ in results] == [x * x for x in items]
        assert [r.attempts for r in ledger.items] == \
            [2 if i in killed else 1 for i in items]
        assert ledger.crashes == ledger.respawns == len(killed)
        # Each kill forks at most one replacement worker.
        assert len({pid for _, pid in results}) <= 2 + len(killed)

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="reads process states from /proc")
    def test_workers_exit_when_the_supervisor_dies(self, tmp_path):
        """A SIGKILLed supervisor leaves no worker behind: the idle one
        reads EOF at once, the busy one when it tries to answer."""
        script = tmp_path / "supervisor.py"
        script.write_text(
            "import os, time\n"
            "from repro.supervise import supervised_map\n"
            "def item(seconds):\n"
            "    os.write(1, b'%d\\n' % os.getpid())\n"
            "    time.sleep(seconds)\n"
            "supervised_map(item, [0.0, 0.0, 0.0, 2.0], jobs=2)\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        supervisor = subprocess.Popen([sys.executable, str(script)],
                                      stdout=subprocess.PIPE, env=env)
        pids = set()
        try:
            for _ in range(4):
                pids.add(int(supervisor.stdout.readline()))
            supervisor.kill()
            supervisor.wait(timeout=10)
            deadline = time.monotonic() + 15
            while any(_running(pid) for pid in pids) \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            supervisor.kill()
            supervisor.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


class TestFaultRecovery:
    def test_process_kill_isolated_and_retried(self):
        """A SIGKILLed worker fails only its item; the retry converges
        and results are bit-identical to the no-fault serial run."""
        plan = WorkerFaultPlan(seed=3, kill=0.6)
        items = list(range(8))
        results, ledger = supervised_map(_square, items, jobs=4,
                                         executor="process", config=FAST,
                                         fault_plan=plan)
        assert results == [x * x for x in items]
        assert ledger.crashes > 0
        assert ledger.respawns == ledger.crashes
        assert ledger.retries == ledger.crashes
        assert all(r.outcome == "ok" for r in ledger.items)

    def test_thread_kill_simulated(self):
        """Thread workers simulate the kill via WorkerCrash — same
        accounting, same recovery."""
        plan = WorkerFaultPlan(seed=3, kill=0.6)
        items = list(range(8))
        results, ledger = supervised_map(_square, items, jobs=4,
                                         executor="thread", config=FAST,
                                         fault_plan=plan)
        assert results == [x * x for x in items]
        assert ledger.crashes > 0

    def test_fail_fault_counts_as_failure(self):
        plan = WorkerFaultPlan(seed=5, fail=0.7)
        items = list(range(6))
        results, ledger = supervised_map(_square, items, jobs=2,
                                         executor="thread", config=FAST,
                                         fault_plan=plan)
        assert results == [x * x for x in items]
        assert ledger.failures > 0
        assert ledger.crashes == 0

    def test_hung_worker_killed_and_retried(self):
        """A hung process worker is killed at task_timeout and the item
        retried (the retry attempt is past max_faulty_attempts, so it
        runs clean)."""
        plan = WorkerFaultPlan(seed=1, hang=1.0, hang_seconds=30.0)
        config = SupervisorConfig(retries=2, task_timeout=0.5,
                                  backoff_base=0.0)
        items = [2, 3]
        results, ledger = supervised_map(_square, items, jobs=2,
                                         executor="process", config=config,
                                         fault_plan=plan)
        assert results == [4, 9]
        assert ledger.timeouts == len(items)
        assert ledger.respawns == len(items)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_identical_across_executors_and_jobs(self, executor, jobs):
        """Acceptance criterion: determinism holds across jobs 1/4 and
        thread/process under the same fault plan."""
        plan = WorkerFaultPlan(seed=7, kill=0.3, fail=0.3)
        items = list(range(10))
        results, _ = supervised_map(_square, items, jobs=jobs,
                                    executor=executor, config=FAST,
                                    fault_plan=plan)
        assert results == [x * x for x in items]


class TestQuarantine:
    def test_exhausted_budget_quarantines(self):
        """A permanently faulty item ends in QuarantinedWork naming the
        exact indices, with the survivors' results on the exception."""
        plan = WorkerFaultPlan(seed=5, fail=0.7, max_faulty_attempts=99)
        config = SupervisorConfig(retries=1, backoff_base=0.0)
        items = list(range(6))
        faulty = [i for i in items
                  if plan.action(i, 1) == "fail"]
        assert faulty, "seed must schedule at least one fault"
        with pytest.raises(QuarantinedWork) as excinfo:
            supervised_map(_square, items, jobs=2, executor="thread",
                           config=config, fault_plan=plan)
        error = excinfo.value
        assert list(error.indices) == faulty
        assert exit_code_for(error) == EXIT_QUARANTINE
        for i in items:
            expected = None if i in faulty else i * i
            assert error.partial[i] == expected
        assert error.ledger.quarantined == tuple(faulty)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_no_policy_runs_each_item_once(self, executor):
        """Without a config a failing item is not retried: the call ends
        in QuarantinedWork naming its index and the exception, with
        every other result kept."""
        with pytest.raises(QuarantinedWork) as excinfo:
            supervised_map(_fails_on_two, [0, 1, 2, 3], jobs=2,
                           executor=executor)
        error = excinfo.value
        assert error.indices == (2,)
        assert error.partial == [0, 1, None, 9]
        assert error.ledger.attempts == 4
        assert error.ledger.items[2].error == "ValueError: two"

    def test_plain_exceptions_quarantine_too(self):
        with pytest.raises(QuarantinedWork) as excinfo:
            supervised_map(_boom, [1], config=FAST)
        record = excinfo.value.ledger.items[0]
        assert record.attempts == FAST.retries + 1
        assert "ValueError" in record.error


class TestDeadline:
    def test_deadline_carries_partial_results(self):
        config = SupervisorConfig(retries=0, deadline=0.3,
                                  task_timeout=10.0, backoff_base=0.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            supervised_map(_slow_square, [1, 2, 3], jobs=1,
                           executor="process", config=config)
        error = excinfo.value
        assert exit_code_for(error) == EXIT_DEADLINE
        assert error.ledger.deadline_hit
        assert error.partial == [None, None, None]

    def test_inline_deadline(self):
        config = SupervisorConfig(retries=0, deadline=0.2,
                                  backoff_base=0.0)
        with pytest.raises(DeadlineExceeded):
            supervised_map(_slow_square, [1, 2], jobs=1,
                           executor="serial", config=config)


class TestBackoff:
    def test_deterministic_and_exponential(self):
        config = SupervisorConfig(seed=11, backoff_base=0.05,
                                  backoff_factor=2.0, backoff_jitter=0.1)
        again = SupervisorConfig(seed=11, backoff_base=0.05,
                                 backoff_factor=2.0, backoff_jitter=0.1)
        assert config.backoff(3, 1) == 0.0
        for attempt in (2, 3, 4):
            delay = config.backoff(3, attempt)
            base = 0.05 * 2.0 ** (attempt - 2)
            assert base <= delay <= base * 1.1
            assert delay == again.backoff(3, attempt)

    def test_different_seeds_different_jitter(self):
        a = SupervisorConfig(seed=1).backoff(0, 3)
        b = SupervisorConfig(seed=2).backoff(0, 3)
        assert a != b

    def test_zero_base_disables(self):
        assert FAST.backoff(0, 5) == 0.0


class TestJournal:
    def test_resume_restores_entries(self, tmp_path):
        path = tmp_path / "trial.prjl"
        with ResultJournal(path, key="k1") as journal:
            supervised_map(_square, list(range(6)), config=FAST,
                           journal=journal)
        with ResultJournal(path, key="k1") as journal:
            assert len(journal.entries) == 6
            results, ledger = supervised_map(_square, list(range(6)),
                                             config=FAST, journal=journal)
        assert results == [x * x for x in range(6)]
        assert ledger.resumed == 6
        assert ledger.attempts == 0
        assert all(r.outcome == "resumed" for r in ledger.items)

    def test_partial_journal_runs_only_missing(self, tmp_path):
        path = tmp_path / "trial.prjl"
        with ResultJournal(path, key="k1") as journal:
            journal.append(0, 0)
            journal.append(2, 4)
        with ResultJournal(path, key="k1") as journal:
            results, ledger = supervised_map(_square, list(range(4)),
                                             config=FAST, journal=journal)
        assert results == [0, 1, 4, 9]
        assert ledger.resumed == 2
        assert ledger.attempts == 2

    def test_torn_tail_truncated(self, tmp_path):
        """A crash mid-append leaves a torn record; reopening keeps the
        good prefix and drops the tail."""
        path = tmp_path / "trial.prjl"
        with ResultJournal(path, key="k1") as journal:
            journal.append(0, "a")
            journal.append(1, "b")
        whole = path.read_bytes()
        path.write_bytes(whole[:-3])
        with ResultJournal(path, key="k1") as journal:
            assert journal.entries == {0: "a"}
            # And the truncated journal is append-consistent again.
            journal.append(1, "b")
        with ResultJournal(path, key="k1") as journal:
            assert journal.entries == {0: "a", 1: "b"}

    def test_key_mismatch_rejected(self, tmp_path):
        path = tmp_path / "trial.prjl"
        ResultJournal(path, key="sweep period=50").close()
        with pytest.raises(CheckpointError):
            ResultJournal(path, key="sweep period=100")

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "trial.prjl"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            ResultJournal(path, key="k1")

    def test_payloads_pickled_faithfully(self, tmp_path):
        path = tmp_path / "trial.prjl"
        value = {"cells": [(1, 2), (3, 4)], "nested": {"deep": None}}
        with ResultJournal(path, key="k") as journal:
            journal.append(5, value)
        with ResultJournal(path, key="k") as journal:
            assert journal.entries[5] == value
            assert pickle.dumps(journal.entries[5]) == pickle.dumps(value)


class TestJournalPaths:
    def test_content_addressed(self, tmp_path):
        a = journal_path(tmp_path, "sweep", "key-one")
        b = journal_path(tmp_path, "sweep", "key-two")
        assert a != b
        assert a.name.startswith("sweep-") and a.suffix == ".prjl"

    def test_open_journal_none_without_dir(self):
        assert open_journal(None, "sweep", "k", resume=True) is None

    def test_open_journal_fresh_discards_stale(self, tmp_path):
        journal = open_journal(tmp_path, "sweep", "k", resume=False)
        journal.append(0, "stale")
        journal.close()
        journal = open_journal(tmp_path, "sweep", "k", resume=False)
        try:
            assert journal.entries == {}
        finally:
            journal.close()

    def test_open_journal_resume_keeps(self, tmp_path):
        journal = open_journal(tmp_path, "sweep", "k", resume=False)
        journal.append(0, "kept")
        journal.close()
        journal = open_journal(tmp_path, "sweep", "k", resume=True)
        try:
            assert journal.entries == {0: "kept"}
        finally:
            journal.close()


class TestLedger:
    def test_to_dict_round_trips_json(self):
        import json

        _, ledger = supervised_map(_square, [1, 2], config=FAST)
        blob = json.dumps(ledger.to_dict())
        assert json.loads(blob)["items"] == 2

    def test_render_mentions_quarantine(self):
        plan = WorkerFaultPlan(seed=5, fail=1.0, max_faulty_attempts=99)
        config = SupervisorConfig(retries=0, backoff_base=0.0)
        with pytest.raises(QuarantinedWork) as excinfo:
            supervised_map(_square, [1], config=config, fault_plan=plan)
        text = excinfo.value.ledger.render()
        assert "quarantined" in text


class TestBackoffDerivation:
    """The per-attempt jitter is *derived* from (seed, item, attempt) —
    no shared RNG stream — so retry timing is independent of scheduling
    order, of other items' retries, and of anything else that consumes
    randomness in the process."""

    def test_pinned_derivation(self):
        """The jitter is the keyed-hash unit draw, pinned so a change
        to the derivation shows up as a test failure, not as silently
        different fleet timing."""
        import hashlib

        config = SupervisorConfig(seed=7, backoff_base=0.05,
                                  backoff_factor=2.0, backoff_jitter=0.1)
        for index, attempt in [(0, 2), (3, 2), (3, 5), (1000, 3)]:
            digest = hashlib.blake2b(
                f"backoff|7|{index}|{attempt}".encode(),
                digest_size=8).digest()
            unit = int.from_bytes(digest, "big") / 2.0 ** 64
            expected = (0.05 * 2.0 ** (attempt - 2)) * (1.0 + 0.1 * unit)
            assert config.backoff(index, attempt) == expected

    def test_order_independent(self):
        config = SupervisorConfig(seed=3, backoff_base=0.01)
        forward = [config.backoff(i, 2) for i in range(8)]
        backward = [config.backoff(i, 2) for i in reversed(range(8))]
        assert forward == list(reversed(backward))

    def test_global_rng_independent(self):
        import random

        config = SupervisorConfig(seed=3, backoff_base=0.01)
        random.seed(123)
        a = config.backoff(5, 3)
        random.seed(999)
        for _ in range(17):
            random.random()
        assert config.backoff(5, 3) == a

    def test_decorrelated_from_worker_fault_plan(self):
        """The fault plan draws from random.Random((seed*1_000_003+i)*
        8_191+attempt); the backoff must not reuse that stream, or
        chaos tests would couple fault schedules to retry timing."""
        import random as random_module

        seed, index, attempt = 11, 3, 2
        plan_rng = random_module.Random(
            (seed * 1_000_003 + index) * 8_191 + attempt)
        config = SupervisorConfig(seed=seed, backoff_base=1.0,
                                  backoff_factor=1.0, backoff_jitter=1.0)
        unit = config.backoff(index, attempt) - 1.0
        assert abs(unit - plan_rng.random()) > 1e-12


class TestJournalCrashConsistency:
    """S1: a writer dying at ANY byte of the final record must leave a
    journal that reopens to the good prefix (never an error, never a
    phantom entry)."""

    def test_truncation_at_every_byte_of_last_record(self, tmp_path):
        path = tmp_path / "crash.prjl"
        with ResultJournal(path, key="k1") as journal:
            journal.append(0, {"payload": "alpha"})
            prefix_len = path.stat().st_size
            journal.append(1, {"payload": "beta" * 7})
        whole = path.read_bytes()
        for cut in range(prefix_len, len(whole)):
            path.write_bytes(whole[:cut])
            with ResultJournal(path, key="k1") as journal:
                assert journal.entries == {0: {"payload": "alpha"}}
                expected_drop = cut - prefix_len
                assert journal.dropped_tail_bytes == expected_drop
            # The torn tail was truncated away on open: reopening again
            # is clean.
            with ResultJournal(path, key="k1") as journal:
                assert journal.dropped_tail_bytes == 0
            path.write_bytes(whole)  # restore for the next offset

    def test_garbage_tail_dropped(self, tmp_path):
        """A final record of CRC-valid garbage (arbitrary bytes whose
        pickle payload is rot) is also a torn tail, not a crash."""
        path = tmp_path / "crash.prjl"
        with ResultJournal(path, key="k1") as journal:
            journal.append(0, "good")
        import struct
        import zlib

        rot = b"this is not a pickle"
        record = struct.pack("<III", 1, len(rot), zlib.crc32(rot)) + rot
        with open(path, "ab") as out:
            out.write(record)
        with ResultJournal(path, key="k1") as journal:
            assert journal.entries == {0: "good"}
            assert journal.dropped_tail_bytes == len(record)

    def test_torn_creation_recovers(self, tmp_path):
        """Dying inside the header write of a brand-new journal leaves
        a file shorter than the header; reopening rewrites it fresh."""
        path = tmp_path / "crash.prjl"
        ResultJournal(path, key="k1").close()
        whole = path.read_bytes()
        for cut in range(len(whole)):
            path.write_bytes(whole[:cut])
            with ResultJournal(path, key="k1") as journal:
                assert journal.entries == {}
                assert journal.dropped_tail_bytes == cut
            path.write_bytes(whole)

    def test_torn_creation_of_other_key_still_rejected(self, tmp_path):
        """A truncated header that does NOT match this key's fresh bytes
        is a foreign/corrupt file, not our torn creation."""
        path = tmp_path / "crash.prjl"
        ResultJournal(path, key="other-key").close()
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) - 2])
        with pytest.raises(CheckpointError):
            ResultJournal(path, key="k1")

    def test_ledger_accounts_dropped_tail(self, tmp_path):
        """supervised_map surfaces the dropped tail in its RunLedger, so
        an operator sees WHY some items re-ran on resume."""
        path = tmp_path / "crash.prjl"
        with ResultJournal(path, key="k1") as journal:
            supervised_map(_square, [2, 3], config=FAST, journal=journal)
        whole = path.read_bytes()
        path.write_bytes(whole[:-2])
        with ResultJournal(path, key="k1") as journal:
            results, ledger = supervised_map(_square, [2, 3], config=FAST,
                                             journal=journal)
        assert results == [4, 9]
        # The whole torn record is dropped, not just the 2 missing
        # bytes: everything after the last intact record.
        dropped = ledger.journal_tail_dropped
        assert dropped > 0
        assert ledger.resumed == 1
        assert "torn tail" in ledger.render()
        assert ledger.to_dict()["journal_tail_dropped"] == dropped

"""Exhaustive exit-code taxonomy tests (promised by ``repro.errors``).

Every concrete :class:`~repro.errors.ReproError` subclass must declare
a documented exit code explicitly — nothing inherits one silently —
and :func:`~repro.errors.exit_code_for` must map every class (plus
foreign exceptions) to the documented table.  The docstring table in
``errors.py`` is the contract; this file is its proof.
"""

import re

import pytest

import repro.errors as errors_module
from repro.errors import (
    CheckpointError,
    DecodeError,
    DeadlineExceeded,
    EXIT_DEADLINE,
    EXIT_DEGRADED,
    EXIT_OK,
    EXIT_QUARANTINE,
    EXIT_RACES,
    EXIT_TRACE_ERROR,
    EXIT_UNCONFIRMED,
    EXIT_USAGE,
    QuarantinedWork,
    ReplayError,
    ReproError,
    TraceError,
    UnknownDetectorError,
    UsageError,
    WorkerCrash,
    exit_code_for,
)
from repro.tracing.serialize import TraceFormatError

#: The full documented class -> exit-code mapping.  A new error class
#: that is not added here fails the exhaustiveness test below.
EXPECTED_CODES = {
    ReproError: EXIT_TRACE_ERROR,
    TraceError: EXIT_TRACE_ERROR,
    TraceFormatError: EXIT_TRACE_ERROR,
    CheckpointError: EXIT_TRACE_ERROR,
    DecodeError: EXIT_TRACE_ERROR,
    ReplayError: EXIT_TRACE_ERROR,
    UsageError: EXIT_USAGE,
    UnknownDetectorError: EXIT_TRACE_ERROR,
    WorkerCrash: EXIT_QUARANTINE,
    DeadlineExceeded: EXIT_DEADLINE,
    QuarantinedWork: EXIT_QUARANTINE,
}

#: Constructors for classes whose __init__ takes required arguments.
INSTANCES = {
    UnknownDetectorError: lambda: UnknownDetectorError(
        "fasttrak", ["fasttrack", "lockset"], suggestion="fasttrack"
    ),
    WorkerCrash: lambda: WorkerCrash("worker 3 died", index=3, exitcode=-9),
    DeadlineExceeded: lambda: DeadlineExceeded("out of time"),
    QuarantinedWork: lambda: QuarantinedWork([1, 4]),
}


def _all_error_classes():
    """Every ReproError subclass importable from the package (the
    transitive closure, found by walking __subclasses__)."""
    # Import the modules that define subclasses outside errors.py so
    # the walk sees them.
    import repro.tracing.serialize  # noqa: F401

    seen = set()
    frontier = [ReproError]
    while frontier:
        cls = frontier.pop()
        if cls in seen:
            continue
        seen.add(cls)
        frontier.extend(cls.__subclasses__())
    return seen


class TestExitCodeConstants:
    def test_distinct_and_documented_values(self):
        codes = {
            EXIT_OK: 0,
            EXIT_RACES: 1,
            EXIT_TRACE_ERROR: 2,
            EXIT_DEADLINE: 3,
            EXIT_QUARANTINE: 4,
            EXIT_USAGE: 5,
            EXIT_DEGRADED: 6,
            EXIT_UNCONFIRMED: 8,
        }
        for constant, value in codes.items():
            assert constant == value
        assert len(set(codes)) == 8

    def test_retired_code_7_is_not_reused(self):
        """Code 7 is retired: no ``EXIT_*`` constant takes it, so
        scripts testing ``$? -eq 8`` keep their meaning."""
        values = {getattr(errors_module, name)
                  for name in dir(errors_module) if name.startswith("EXIT_")}
        assert values == set(range(9)) - {7}

    def test_docstring_table_covers_every_code(self):
        """The human-facing table documents rows 0 through 8."""
        table_rows = set(
            int(m) for m in re.findall(
                r"^(\d)\s{2,}", errors_module.__doc__, flags=re.M
            )
        )
        assert table_rows == set(range(9))


class TestMappingExhaustive:
    def test_every_class_is_in_the_expected_table(self):
        """A newly added error class must be classified here (and in
        the docstring table) before it ships."""
        assert _all_error_classes() == set(EXPECTED_CODES)

    @pytest.mark.parametrize(
        "cls,code", sorted(EXPECTED_CODES.items(), key=lambda kv: kv[0].__name__)
    )
    def test_class_declares_its_code_explicitly(self, cls, code):
        # Declared in the class body, never inherited silently.
        assert "exit_code" in vars(cls) or cls.exit_code == code
        assert cls.exit_code == code

    @pytest.mark.parametrize(
        "cls,code", sorted(EXPECTED_CODES.items(), key=lambda kv: kv[0].__name__)
    )
    def test_exit_code_for_instances(self, cls, code):
        make = INSTANCES.get(cls, lambda c=cls: c("boom"))
        assert exit_code_for(make()) == code

    def test_every_code_is_a_documented_failure_code(self):
        failure_codes = {EXIT_TRACE_ERROR, EXIT_DEADLINE,
                         EXIT_QUARANTINE, EXIT_USAGE}
        assert set(EXPECTED_CODES.values()) <= failure_codes


class TestForeignExceptions:
    def test_unclassified_exception_maps_to_trace_error(self):
        assert exit_code_for(ValueError("nope")) == EXIT_TRACE_ERROR

    def test_duck_typed_exit_code_is_honoured(self):
        class Custom(Exception):
            exit_code = EXIT_USAGE

        assert exit_code_for(Custom()) == EXIT_USAGE


class TestCarriedContext:
    """The structured payloads operators rely on."""

    def test_unknown_detector_suggestion(self):
        err = INSTANCES[UnknownDetectorError]()
        assert err.name == "fasttrak"
        assert err.suggestion == "fasttrack"
        assert "did you mean" in str(err)

    def test_quarantined_work_sorts_indices(self):
        err = QuarantinedWork([4, 1])
        assert err.indices == (1, 4)

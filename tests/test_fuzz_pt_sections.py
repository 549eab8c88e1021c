"""Fuzz the container's PT section reader.

Hypothesis overwrites bytes inside one PT section payload of a v2, v3
or v4 container.  Each damaged container is read twice over:

* with the section's CRC and the trailer recomputed, so the damage
  reaches the PT section reader itself;
* as damaged, so the checksums catch it and salvage runs.

Every input must load, salvage under ``allow_partial``, or raise
:class:`TraceFormatError`; nothing else may escape the reader.  A
bundle that loads must decode under ``decode_all_tolerant`` without
raising.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock.model import estimate_clock_model
from repro.faults import clock_plans
from repro.pmu.governor import GovernorConfig
from repro.ptdecode import decode_all_tolerant
from repro.tracing import read_trace_bytes, trace_run, trace_to_bytes
from repro.tracing.serialize import (
    _PT_HEADER,
    _SEC_PT,
    TraceFormatError,
    TraceReader,
)
from repro.workloads import RACE_BUGS, WorkloadScale

SCALE = WorkloadScale(iterations=4, threads=2, data_words=8, io_cycles=50)


def _containers():
    """The program and ``{version: container bytes}`` for v2, v3 and
    v4."""
    program = RACE_BUGS["pbzip2-0.9.4"].build(SCALE)
    clean = trace_run(program, period=13, seed=0)
    governed = trace_run(program, period=13, seed=0,
                         governor=GovernorConfig())
    # A v4 container carries a clock calibration.  A corrected bundle
    # may hold negative timestamps, which the container cannot write,
    # so the calibration of a skewed copy goes with the clean streams.
    skewed, _ = clock_plans(0.2, seed=1)["clock-skew"].apply(clean)
    calibrated = dataclasses.replace(clean, clock=estimate_clock_model(skewed))
    blobs = {2: trace_to_bytes(clean), 3: trace_to_bytes(governed),
             4: trace_to_bytes(calibrated)}
    for version, blob in blobs.items():
        assert TraceReader(blob).version == version
    return program, blobs


PROGRAM, CONTAINERS = _containers()


def _pt_sections(blob):
    reader = TraceReader(blob)
    return [entry for entry in reader.sections if entry.kind == _SEC_PT]


def _damage(blob, entry, edits, recompute):
    """*blob* with *edits* (``(offset, byte)`` pairs, offsets taken
    modulo the payload length) written into *entry*'s payload; with
    *recompute*, the section CRC and the trailer are made to match."""
    data = bytearray(blob)
    for offset, value in edits:
        data[entry.offset + offset % entry.length] = value
    if recompute:
        payload = bytes(data[entry.offset:entry.offset + entry.length])
        # A v2+ section header ends with the payload's CRC.
        struct.pack_into("<I", data, entry.offset - 4, zlib.crc32(payload))
        struct.pack_into("<I", data, len(data) - 4, zlib.crc32(data[:-4]))
    return bytes(data)


def _load(blob):
    """The bundle *blob* loads or salvages to, or None when the reader
    refuses it with :class:`TraceFormatError` both ways."""
    try:
        return read_trace_bytes(blob, program=PROGRAM)
    except TraceFormatError:
        pass
    try:
        return read_trace_bytes(blob, program=PROGRAM, allow_partial=True)
    except TraceFormatError:
        return None


@pytest.mark.parametrize("version", sorted(CONTAINERS))
@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_damaged_pt_section(version, data):
    blob = CONTAINERS[version]
    sections = _pt_sections(blob)
    entry = data.draw(st.sampled_from(sections))
    edits = data.draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**20),
                  st.integers(min_value=0, max_value=255)),
        min_size=1, max_size=4))
    for recompute in (True, False):
        bundle = _load(_damage(blob, entry, edits, recompute))
        if bundle is None:
            continue
        samples = {tid: bundle.samples_of_thread(tid)
                   for tid in bundle.pt_traces}
        decode_all_tolerant(PROGRAM, bundle.pt_traces,
                            config=bundle.pt_config, samples=samples)


@pytest.mark.parametrize("version", sorted(CONTAINERS))
def test_every_path_is_reached(version):
    """Damage that the CRCs catch salvages the section away; damage
    behind recomputed CRCs reaches the reader, which refuses a bad kind
    and loads a changed timestamp."""
    blob = CONTAINERS[version]
    sections = _pt_sections(blob)
    entry = sections[0]
    kind_at = _PT_HEADER.size  # the first packet's kind
    salvaged = _load(_damage(blob, entry, [(kind_at, 9)], recompute=False))
    assert salvaged.defects.corrupted_sections == (f"pt#{entry.index}",)
    assert len(salvaged.pt_traces) == len(sections) - 1
    with pytest.raises(TraceFormatError, match="bad packet kind 9"):
        read_trace_bytes(_damage(blob, entry, [(kind_at, 9)], True))
    loaded = read_trace_bytes(
        _damage(blob, entry, [(kind_at + 1, 0xFF)], True), program=PROGRAM)
    assert loaded.defects is None

"""Fuzz the container reader.

Hypothesis overwrites bytes of a v1, v2, v3 or v4 container: inside
one PT section payload, inside one payload of every other section kind,
inside the container or a section header, or anywhere in the file.
Each damaged container is read twice over:

* with the damaged section's CRC (v2 and later) and the trailer
  recomputed, so the damage reaches the section table walk and the
  section readers themselves;
* as damaged, so the checksums catch it and salvage runs (v1 sections
  carry no CRC, so a damaged v1 file is refused outright).

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

from repro.analysis import OfflinePipeline
from repro.clock.model import ClockModel, CoreClockFit
from repro.pmu.governor import GovernorConfig
from repro.ptdecode import decode_all_tolerant
from repro.tracing import read_trace_bytes, trace_run, trace_to_bytes
from repro.tracing.serialize import (
    _CLOCK_FIT,
    _CLOCK_HEADER,
    _HEADER,
    _PT_HEADER,
    _SEC_CLOCK,
    _SEC_PT,
    _SECTION,
    _SECTION_V2,
    TraceFormatError,
    TraceReader,
)
from repro.workloads import RACE_BUGS, WorkloadScale

SCALE = WorkloadScale(iterations=4, threads=2, data_words=8, io_cycles=50)


def _containers():
    """The program and ``{version: container bytes}`` for v1 to v4."""
    program = RACE_BUGS["pbzip2-0.9.4"].build(SCALE)
    clean = trace_run(program, period=13, seed=0)
    governed = trace_run(program, period=13, seed=0,
                         governor=GovernorConfig())
    # A v4 container carries a clock calibration.  The clean trace has
    # too few sync records for the estimator to fit a core, so the
    # calibration is written by hand, one fit per core, for the damage
    # to reach the fit records.
    calibration = ClockModel(
        fits=tuple(CoreClockFit(core=core, offset=3.0 * core,
                                scale=1.0 + 1e-4 * core, half_width=2.5,
                                anchors=4)
                   for core in range(4)),
        inversions=1, default_half_width=2.0)
    calibrated = dataclasses.replace(clean, clock=calibration)
    blobs = {1: trace_to_bytes(clean, version=1), 2: trace_to_bytes(clean),
             3: trace_to_bytes(governed), 4: trace_to_bytes(calibrated)}
    for version, blob in blobs.items():
        assert TraceReader(blob).version == version
    return program, blobs


PROGRAM, CONTAINERS = _containers()

#: The versions whose sections carry CRCs, so that damage salvages.
SALVAGEABLE = (2, 3, 4)

#: Every (version, kind) of a section other than PT in the containers.
OTHER_SECTIONS = sorted({
    (version, entry.kind)
    for version, blob in CONTAINERS.items()
    for entry in TraceReader(blob).sections if entry.kind != _SEC_PT
})

EDITS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**20),
              st.integers(min_value=0, max_value=255)),
    min_size=1, max_size=4)


def _sections(blob, kind=_SEC_PT):
    reader = TraceReader(blob)
    return [entry for entry in reader.sections if entry.kind == kind]


def _edit(blob, start, length, edits):
    """*blob* with *edits* (``(offset, byte)`` pairs, offsets taken
    modulo *length*) written into ``blob[start:start + length]``."""
    data = bytearray(blob)
    for offset, value in edits:
        data[start + offset % length] = value
    return data


def _seal(data, entry=None):
    """*data* with the trailer, and *entry*'s payload CRC when its
    section carries one, made to match."""
    if entry is not None and entry.crc is not None:
        payload = bytes(data[entry.offset:entry.offset + entry.length])
        # A v2+ section header ends with the payload's CRC.
        struct.pack_into("<I", data, entry.offset - 4, zlib.crc32(payload))
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(data[:-4]))
    return bytes(data)


def _damage(blob, entry, edits, recompute):
    """*blob* with *edits* written into *entry*'s payload; with
    *recompute*, the section CRC and the trailer are made to match."""
    data = _edit(blob, entry.offset, entry.length, edits)
    return _seal(data, entry) if recompute else bytes(data)


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


def _check(blob):
    """Load *blob* as :func:`_load` does and decode what loads."""
    bundle = _load(blob)
    if bundle is None:
        return
    samples = {tid: bundle.samples_of_thread(tid)
               for tid in bundle.pt_traces}
    decode_all_tolerant(PROGRAM, bundle.pt_traces,
                        config=bundle.pt_config, samples=samples)


def _check_damaged_section(version, kind, data):
    """Damage one payload of a *kind* section of the *version*
    container, and check it with and without recomputed CRCs."""
    blob = CONTAINERS[version]
    entry = data.draw(st.sampled_from(_sections(blob, kind)))
    edits = data.draw(EDITS)
    for recompute in (True, False):
        _check(_damage(blob, entry, edits, recompute))


@pytest.mark.parametrize("version", sorted(CONTAINERS))
@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_damaged_pt_section(version, data):
    _check_damaged_section(version, _SEC_PT, data)


@pytest.mark.parametrize("version,kind", OTHER_SECTIONS)
@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_damaged_section(version, kind, data):
    _check_damaged_section(version, kind, data)


@pytest.mark.parametrize("version", sorted(CONTAINERS))
@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_damaged_header(version, data):
    """Damage to the container header or one section header: the
    section table walk meets a bad magic, version, count, kind, length
    or CRC."""
    blob = CONTAINERS[version]
    size = (_SECTION_V2 if version >= 2 else _SECTION).size
    headers = [(0, _HEADER.size)] + [
        (entry.offset - size, size)
        for entry in TraceReader(blob).sections]
    start, length = data.draw(st.sampled_from(headers))
    damaged = _edit(blob, start, length, data.draw(EDITS))
    _check(bytes(damaged))
    _check(_seal(damaged))


@pytest.mark.parametrize("version", sorted(CONTAINERS))
@given(edits=EDITS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_damaged_container(version, edits):
    """Damage anywhere in the file, the trailer included."""
    blob = CONTAINERS[version]
    damaged = _edit(blob, 0, len(blob), edits)
    _check(bytes(damaged))
    _check(_seal(damaged))


def test_every_section_kind_is_damaged():
    """The containers carry every section kind the format defines, and
    a v1 container is refused once damaged, as it cannot salvage."""
    kinds = {kind for _version, kind in OTHER_SECTIONS} | {_SEC_PT}
    assert kinds == set(range(1, 8))
    blob = CONTAINERS[1]
    entry = _sections(blob)[0]
    damaged = _damage(blob, entry, [(_PT_HEADER.size, 9)], recompute=False)
    with pytest.raises(TraceFormatError, match="checksum mismatch"):
        read_trace_bytes(damaged, program=PROGRAM, allow_partial=True)
    with pytest.raises(TraceFormatError, match="bad packet kind 9"):
        read_trace_bytes(_seal(bytearray(damaged)), program=PROGRAM)


@pytest.mark.parametrize("version", SALVAGEABLE)
def test_every_path_is_reached(version):
    """Damage that the CRCs catch salvages the section away; damage
    behind recomputed CRCs reaches the reader, which refuses a bad kind
    and loads a changed timestamp."""
    blob = CONTAINERS[version]
    sections = _sections(blob)
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


#: The fields of a clock fit record, by position in ``_CLOCK_FIT``.
FIT_FIELDS = {"offset": 1, "scale": 2, "half_width": 3}


def _calibration_with(field, value):
    """The v4 container with *field* of its calibration set to *value*
    (``default_half_width`` in the section header, else in the second
    of its four fits), CRCs recomputed; returns it and the section."""
    blob = CONTAINERS[4]
    entry, = _sections(blob, _SEC_CLOCK)
    data = bytearray(blob)
    if field == "default_half_width":
        count, inversions, _width = _CLOCK_HEADER.unpack_from(
            data, entry.offset)
        _CLOCK_HEADER.pack_into(data, entry.offset, count, inversions,
                                value)
    else:
        at = entry.offset + _CLOCK_HEADER.size + _CLOCK_FIT.size
        fit = list(_CLOCK_FIT.unpack_from(data, at))
        fit[FIT_FIELDS[field]] = value
        _CLOCK_FIT.pack_into(data, at, *fit)
    return _seal(data, entry), entry


@pytest.mark.parametrize("field,value", [
    (field, value)
    for field in ("scale", "offset", "half_width", "default_half_width")
    for value in (float("nan"), float("inf"), float("-inf"))
] + [("half_width", -1.0), ("default_half_width", -1.0)])
def test_non_finite_calibration(field, value):
    """A calibration that cannot map a timestamp is refused: a strict
    read raises, a salvaging read loses the clock section, and
    reconciliation then re-estimates the clock instead of crashing."""
    blob, entry = _calibration_with(field, value)
    with pytest.raises(TraceFormatError, match="bad clock"):
        read_trace_bytes(blob, program=PROGRAM)
    bundle = read_trace_bytes(blob, program=PROGRAM, allow_partial=True)
    assert bundle.defects.corrupted_sections == (f"clock#{entry.index}",)
    assert bundle.clock is None
    OfflinePipeline(PROGRAM, reconcile_clock=True).analyze(bundle)

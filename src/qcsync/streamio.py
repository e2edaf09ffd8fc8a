"""Timestamp stream interchange formats.

Binary layout (all little-endian):

    bytes 0..7   magic ``QCSTMP03``
    bytes 8..11  u32 header length H
    bytes 12..   H bytes of UTF-8 JSON header:
                 {"seed", "duration_s", "config_hash",
                  "nominal_one_way_delay_ps", "n_records"}
                 n_records lists each detector's record count
    then per detector, in DetectorId order, its i64 time_ps.  Nothing
    follows.  Truncated files, trailing bytes and the older ``QCSTMP02``
    (each detector's times followed by ground-truth pair ids) and
    ``QCSTMP01`` (one record list with a u8 detector column) files are
    refused.

The CSV form is two columns, ``detector,time_ps``, with detector names
IdlerA / SignalB / ReturnA: the same records as the binary file, without
its metadata.  It is written one detector block after another.  The reader
takes rows in any interleaving, such as a time tagger's global time order,
but each detector's own times must ascend.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .errors import ConfigurationError
from .simulation import DETECTOR_IDS_BY_NAME, DETECTOR_NAMES, DetectorId, TimestampStream

__all__ = ["write_stream", "read_stream", "write_stream_csv", "read_stream_csv"]

_MAGIC = b"QCSTMP03"


def write_stream(stream, path):
    """Serialize a stream to the per-detector binary format."""
    header = {
        "seed": stream.seed,
        "duration_s": stream.duration_s,
        "config_hash": stream.config_hash,
        "nominal_one_way_delay_ps": stream.nominal_one_way_delay_ps,
        "n_records": [t.size for t in stream.times],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for times in stream.times:
            # No copy of a contiguous little-endian array: the file gets its buffer.
            fh.write(np.ascontiguousarray(times, "<i8"))


def read_stream(path):
    """Read a ``QCSTMP03`` file, each detector's block straight into its array."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic in (b"QCSTMP01", b"QCSTMP02"):
            raise ConfigurationError(f"{magic.decode()} stream files are no longer read")
        if magic != _MAGIC:
            raise ConfigurationError(f"not a {_MAGIC.decode()} timestamp stream file: {magic!r}")
        try:
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen).decode("utf-8"))
            counts = list(header["n_records"])
            duration_s, seed = header["duration_s"], header["seed"]
        except (struct.error, ValueError, KeyError, TypeError) as exc:
            raise ConfigurationError(f"malformed timestamp stream header: {exc!r}") from exc
        # The header's values reach the stream as written, each checked there
        # or here, never coerced: a JSON bool or a string is no count.
        if not all(type(n) is int and n >= 0 for n in counts):
            raise ConfigurationError(f"n_records must list integers >= 0: {counts!r}")
        # Sized before anything is allocated, so a bad count cannot ask for
        # more memory than the file holds.
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if body != 8 * sum(counts):
            raise ConfigurationError(f"payload of {body} bytes does not hold {counts} records")
        times = []
        for n in counts:
            t = np.empty(n, "<i8")
            if fh.readinto(t) != t.nbytes:
                raise ConfigurationError(f"{path} ended inside its records")
            times.append(t)
    return TimestampStream(
        times=times,
        duration_s=duration_s,
        seed=seed,
        config_hash=header.get("config_hash"),
        nominal_one_way_delay_ps=header.get("nominal_one_way_delay_ps"),
    )


def write_stream_csv(stream, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("detector,time_ps\n")
        for det in DetectorId:
            name = DETECTOR_NAMES[det]
            fh.writelines(f"{name},{t}\n" for t in stream.times[det].tolist())


def read_stream_csv(path, duration_s=None, seed=0):
    """Parse the two-column CSV back into a stream."""
    rows = {det: [] for det in DetectorId}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "detector,time_ps":
            raise ConfigurationError(f"unexpected stream CSV header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            try:
                name, cell = line.rstrip("\n").split(",")
                t = int(cell)
            except ValueError as exc:
                raise ConfigurationError(f"malformed stream CSV line {lineno}: {line!r}") from exc
            if name not in DETECTOR_IDS_BY_NAME:
                raise ConfigurationError(f"unknown detector name: {name!r}")
            rows[DETECTOR_IDS_BY_NAME[name]].append(t)
    times = [np.asarray(rows[det], dtype=np.int64) for det in DetectorId]
    if duration_s is None:
        duration_s = max((float(t.max() + 1) * 1e-12 for t in times if t.size), default=0.0)
    return TimestampStream(
        times=times,
        duration_s=duration_s,
        seed=seed,
    )

"""Timestamp stream interchange formats.

Binary layout (all little-endian):

    bytes 0..7   magic ``QCSTMP02``
    bytes 8..11  u32 header length H
    bytes 12..   H bytes of UTF-8 JSON header:
                 {"seed", "duration_s", "config_hash",
                  "nominal_one_way_delay_ps", "n_records"}
                 n_records lists each detector's record count
    then per detector, in DetectorId order: its i64 time_ps, then its u64
    pair ids.  Nothing follows.  Truncated files, trailing bytes and older
    ``QCSTMP01`` files (one record list with a u8 detector column) are refused.

The CSV form is two columns, ``detector,time_ps``, with detector names
IdlerA / SignalB / ReturnA; ground-truth pair ids are deliberately absent
so CSV exports are safe estimator inputs.  It is written one detector block
after another.  The reader takes rows in any interleaving, such as a time
tagger's global time order, but each detector's own times must ascend.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import ConfigurationError
from .simulation import DETECTOR_IDS_BY_NAME, DETECTOR_NAMES, DetectorId, TimestampStream

__all__ = ["write_stream", "read_stream", "write_stream_csv", "read_stream_csv"]

_MAGIC = b"QCSTMP02"


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
        for times, pair_ids in zip(stream.times, stream.pair_ids):
            fh.write(times.astype("<i8").tobytes())
            fh.write(pair_ids.astype("<u8").tobytes())


def read_stream(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != _MAGIC:
        raise ConfigurationError(f"not a {_MAGIC.decode()} timestamp stream file: {data[:8]!r}")
    try:
        (hlen,) = struct.unpack_from("<I", data, 8)
        header = json.loads(data[12 : 12 + hlen].decode("utf-8"))
        counts = [int(n) for n in header["n_records"]]
        duration_s, seed = float(header["duration_s"]), int(header["seed"])
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed timestamp stream header: {exc!r}") from exc
    body = memoryview(data)[12 + hlen :]
    if min(counts, default=0) < 0 or len(body) != 16 * sum(counts):
        raise ConfigurationError(f"payload of {len(body)} bytes does not hold {counts} records")
    times, pair_ids, offset = [], [], 0
    for n in counts:
        times.append(np.frombuffer(body, "<i8", n, offset).astype(np.int64))
        pair_ids.append(np.frombuffer(body, "<u8", n, offset + 8 * n).astype(np.int64))
        offset += 16 * n
    return TimestampStream(
        times=times,
        pair_ids=pair_ids,
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
    """Parse the two-column CSV back into a stream (pair ids lost)."""
    rows = {det: [] for det in DetectorId}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "detector,time_ps":
            raise ConfigurationError(f"unexpected stream CSV header: {header!r}")
        for line in fh:
            name, t = line.rstrip("\n").split(",")
            if name not in DETECTOR_IDS_BY_NAME:
                raise ConfigurationError(f"unknown detector name: {name!r}")
            rows[DETECTOR_IDS_BY_NAME[name]].append(int(t))
    times = [np.asarray(rows[det], dtype=np.int64) for det in DetectorId]
    if duration_s is None:
        duration_s = max((float(t.max() + 1) * 1e-12 for t in times if t.size), default=0.0)
    return TimestampStream(
        times=times,
        pair_ids=[np.full(t.size, -1, dtype=np.int64) for t in times],
        duration_s=duration_s,
        seed=seed,
    )

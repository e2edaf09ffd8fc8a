"""Stream serialization: binary column format and CSV."""

import json
import struct

import numpy as np
import pytest

from qcsync import simulation
from qcsync.errors import ConfigurationError
from qcsync.simulation import DetectorId, TimestampStream
from qcsync.streamio import read_stream, read_stream_csv, write_stream, write_stream_csv

from conftest import traced_peak


@pytest.fixture
def stream():
    # Records (detector, time): (0,10) (1,20) (2,30) (0,40) (1,50).
    return TimestampStream(
        times=[np.array([10, 40]), np.array([20, 50]), np.array([30])],
        duration_s=1.0,
        seed=321,
        config_hash="abc123",
        nominal_one_way_delay_ps=49e6,
    )


def assert_same_records(a, b):
    assert a.counts() == b.counts()
    for det in DetectorId:
        np.testing.assert_array_equal(a.times[det], b.times[det])


@pytest.fixture
def million_records(tmp_path):
    """A written stream of 1 M records and its path."""
    rng = np.random.default_rng(16)
    stream = TimestampStream(
        times=[np.sort(rng.integers(0, 10**13, n)) for n in (600_000, 250_000, 150_000)],
        duration_s=10.0,
        seed=16,
    )
    path = tmp_path / "million.bin"
    write_stream(stream, path)
    return stream, path


# Headroom for the interpreter's own small objects: the header, the file
# object and its buffer, the stream's tuples.  A copy of the smallest
# detector's block alone is 1.2 MB.
SMALL_CONSTANT = 64 * 1024


class TestStreamLayout:
    @pytest.mark.parametrize(
        "times",
        [
            [[1], [2]],  # two detector arrays, not three
            [[5, 1], [0], [0]],  # IdlerA out of order
            [[-1], [0], [0]],  # negative timestamp
        ],
        ids=["two_detectors", "unsorted", "negative_time"],
    )
    def test_malformed_layout_rejected(self, times):
        with pytest.raises(ConfigurationError):
            TimestampStream(times=times, duration_s=1.0, seed=0)

    @pytest.mark.parametrize(
        "idler",
        [
            [1.7, 2.2],
            [1.0, float("nan")],
            [1.0, float("inf")],
            [2.0**63],
            np.array([True, True]),
            np.array([2**63], np.uint64),
            [2**70],
            ["1", "2"],
        ],
        ids=["fractional", "nan", "infinite", "float-beyond-int64", "bool", "uint64-beyond-int64",
             "int-beyond-int64", "text"],
    )
    def test_inexact_times_refused(self, idler):
        # Converting any of these would change or invent a timestamp.
        with pytest.raises(ConfigurationError, match="IdlerA timestamps must be exact integers"):
            TimestampStream(times=[idler, [20], []], duration_s=1.0, seed=0)

    def test_exact_times_converted_and_int64_kept(self):
        idler = np.array([10, 40], np.int64)
        stream = TimestampStream(
            times=[idler, [20.0, 50.0], np.array([2**63 - 1], np.uint64)], duration_s=1.0, seed=0
        )
        assert stream.times[DetectorId.IDLER_A] is idler
        assert all(t.dtype == np.int64 for t in stream.times)
        assert stream.times[DetectorId.SIGNAL_B].tolist() == [20, 50]
        assert stream.times[DetectorId.RETURN_A].tolist() == [2**63 - 1]


class TestBinaryFormat:
    def test_roundtrip(self, stream, tmp_path):
        path = tmp_path / "s.bin"
        write_stream(stream, path)
        back = read_stream(path)
        assert_same_records(back, stream)
        assert back.seed == 321
        assert back.duration_s == 1.0
        assert back.config_hash == "abc123"
        assert back.nominal_one_way_delay_ps == 49e6

    def test_rewrite_is_byte_identical(self, stream, tmp_path):
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        write_stream(stream, p1)
        write_stream(read_stream(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTASTREAMFILE")
        with pytest.raises(ConfigurationError):
            read_stream(path)

    def test_version_one_file_refused(self, tmp_path):
        # QCSTMP01: one time-sorted record list with a u8 detector column.
        blob = json.dumps({"seed": 0, "duration_s": 1.0, "n_records": 2}).encode()
        path = tmp_path / "v1.bin"
        path.write_bytes(
            b"QCSTMP01"
            + struct.pack("<I", len(blob))
            + blob
            + np.array([0, 1], "<u1").tobytes()
            + np.array([10, 20], "<i8").tobytes()
            + np.array([0, 0], "<u8").tobytes()
        )
        with pytest.raises(ConfigurationError, match="QCSTMP01"):
            read_stream(path)

    def test_version_two_file_refused(self, tmp_path):
        # QCSTMP02: each detector's i64 times, then its u64 pair ids.
        blob = json.dumps({"seed": 0, "duration_s": 1.0, "n_records": [1, 1, 0]}).encode()
        path = tmp_path / "v2.bin"
        path.write_bytes(
            b"QCSTMP02"
            + struct.pack("<I", len(blob))
            + blob
            + np.array([10, 0, 20, 0], "<i8").tobytes()
        )
        with pytest.raises(ConfigurationError, match="QCSTMP02"):
            read_stream(path)

    def test_truncated_file_refused(self, stream, tmp_path):
        path = tmp_path / "s.bin"
        write_stream(stream, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ConfigurationError):
            read_stream(path)

    def test_trailing_bytes_refused(self, stream, tmp_path):
        path = tmp_path / "s.bin"
        write_stream(stream, path)
        path.write_bytes(path.read_bytes() + b"\0" * 16)
        with pytest.raises(ConfigurationError):
            read_stream(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("duration_s", float("nan")),
            ("duration_s", float("inf")),
            ("duration_s", -1.0),
            ("nominal_one_way_delay_ps", "abc"),
            ("nominal_one_way_delay_ps", 0.0),
            ("nominal_one_way_delay_ps", float("inf")),
        ],
        ids=["nan-duration", "infinite-duration", "negative-duration", "text-delay",
             "zero-delay", "infinite-delay"],
    )
    def test_bad_metadata_refused(self, stream, tmp_path, field, value):
        # Written from a stream changed after it was built, refused when read.
        setattr(stream, field, value)
        path = tmp_path / "s.bin"
        write_stream(stream, path)
        with pytest.raises(ConfigurationError, match=field):
            read_stream(path)
        with pytest.raises(ConfigurationError, match=field):
            TimestampStream(times=stream.times, seed=0, **{"duration_s": 1.0, field: value})
        if field == "duration_s":
            write_stream_csv(stream, tmp_path / "s.csv")
            with pytest.raises(ConfigurationError, match=field):
                read_stream_csv(tmp_path / "s.csv", duration_s=value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 2.9),
            ("seed", "7"),
            ("seed", True),
            ("seed", -3),
            ("config_hash", 5),
            ("duration_s", "1.0"),
            ("duration_s", True),
            ("n_records", ["1", 1, 0]),
            ("n_records", [1.0, 1, 0]),
            ("n_records", [True, 1, 0]),
        ],
        ids=["fractional-seed", "text-seed", "bool-seed", "negative-seed", "number-hash",
             "text-duration", "bool-duration", "text-count", "float-count", "bool-count"],
    )
    def test_header_values_not_coerced(self, tmp_path, field, value):
        # Each header is otherwise valid for its two records; the one value
        # is refused as written rather than converted.
        header = {"seed": 0, "duration_s": 1.0, "config_hash": None, "n_records": [1, 1, 0]}
        header[field] = value
        blob = json.dumps(header).encode()
        path = tmp_path / "s.bin"
        path.write_bytes(
            b"QCSTMP03" + struct.pack("<I", len(blob)) + blob + np.array([10, 20], "<i8").tobytes()
        )
        with pytest.raises(ConfigurationError, match=field):
            read_stream(path)
        if field != "n_records":
            kwargs = {"duration_s": 1.0, "seed": 0, field: value}
            with pytest.raises(ConfigurationError, match=field):
                TimestampStream(times=[[10], [20], []], **kwargs)

    def test_huge_count_refused_before_allocating(self, tmp_path):
        blob = json.dumps({"seed": 0, "duration_s": 1.0, "n_records": [10**15, 0, 0]}).encode()
        path = tmp_path / "huge.bin"
        path.write_bytes(b"QCSTMP03" + struct.pack("<I", len(blob)) + blob + bytes(8))
        with pytest.raises(ConfigurationError, match="does not hold"):
            read_stream(path)

    def test_reader_holds_only_its_arrays(self, million_records):
        # Each block is read straight into its array: no bytes of the whole
        # file and no second copy of a block.
        stream, path = million_records
        back, peak = traced_peak(read_stream, path)
        assert_same_records(back, stream)
        # The stream's order check compares one window of records at a time.
        window = simulation._PAIR_CHUNK
        assert peak < 8 * len(stream) + window + SMALL_CONSTANT

    def test_writer_copies_nothing(self, million_records, tmp_path):
        stream, path = million_records
        _, peak = traced_peak(write_stream, stream, tmp_path / "again.bin")
        assert peak < SMALL_CONSTANT
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


class TestCsvFormat:
    def test_roundtrip(self, stream, tmp_path):
        path = tmp_path / "s.csv"
        write_stream_csv(stream, path)
        text = path.read_text().splitlines()
        assert text[0] == "detector,time_ps"
        assert text[1] == "IdlerA,10"
        back = read_stream_csv(path, duration_s=1.0)
        assert_same_records(back, stream)

    def test_csv_and_binary_hold_the_same_records(self, stream, tmp_path):
        write_stream(stream, tmp_path / "s.bin")
        write_stream_csv(stream, tmp_path / "s.csv")
        assert_same_records(read_stream_csv(tmp_path / "s.csv"), read_stream(tmp_path / "s.bin"))

    def test_writer_emits_one_block_per_detector(self, stream, tmp_path):
        path = tmp_path / "s.csv"
        write_stream_csv(stream, path)
        assert path.read_text().splitlines()[1:] == [
            "IdlerA,10",
            "IdlerA,40",
            "SignalB,20",
            "SignalB,50",
            "ReturnA,30",
        ]

    def test_interleaved_and_blocked_rows_read_alike(self, stream, tmp_path):
        blocked = tmp_path / "blocked.csv"
        write_stream_csv(stream, blocked)
        interleaved = tmp_path / "interleaved.csv"
        interleaved.write_text(
            "detector,time_ps\nIdlerA,10\nSignalB,20\nReturnA,30\nIdlerA,40\nSignalB,50\n"
        )
        a = read_stream_csv(blocked)
        b = read_stream_csv(interleaved)
        assert_same_records(a, b)
        assert a.duration_s == b.duration_s == pytest.approx(51e-12)

    def test_detector_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("detector,time_ps\nIdlerA,10\nSignalB,5\nIdlerA,40\nIdlerA,30\n")
        with pytest.raises(ConfigurationError):
            read_stream_csv(path)

    def test_unknown_detector_name(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("detector,time_ps\nMystery,5\n")
        with pytest.raises(ConfigurationError):
            read_stream_csv(path)

    @pytest.mark.parametrize(
        "row",
        ["IdlerA,10,7\n", "IdlerA,1.5e3\n", "\n"],
        ids=["three-cells", "non-integer-time", "trailing-blank-line"],
    )
    def test_malformed_row_rejected(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text("detector,time_ps\nIdlerA,5\n" + row)
        with pytest.raises(ConfigurationError, match="line 3"):
            read_stream_csv(path)

"""Stream serialization: binary column format and CSV."""

import json
import struct

import numpy as np
import pytest

from qcsync.errors import ConfigurationError
from qcsync.simulation import DetectorId, TimestampStream
from qcsync.streamio import read_stream, read_stream_csv, write_stream, write_stream_csv


@pytest.fixture
def stream():
    # Records (detector, time, pair): (0,10,0) (1,20,0) (2,30,0) (0,40,1) (1,50,1).
    return TimestampStream(
        times=[np.array([10, 40]), np.array([20, 50]), np.array([30])],
        pair_ids=[np.array([0, 1]), np.array([0, 1]), np.array([0])],
        duration_s=1.0,
        seed=321,
        config_hash="abc123",
        nominal_one_way_delay_ps=49e6,
    )


def assert_same_records(a, b, pair_ids=True):
    assert a.counts() == b.counts()
    for det in DetectorId:
        np.testing.assert_array_equal(a.times[det], b.times[det])
        if pair_ids:
            np.testing.assert_array_equal(a.pair_ids[det], b.pair_ids[det])


class TestStreamLayout:
    @pytest.mark.parametrize(
        "times,pair_ids",
        [
            ([[1], [2]], [[1], [2]]),  # two detector arrays, not three
            ([[5, 1], [0], [0]], [[0, 0], [0], [0]]),  # IdlerA out of order
            ([[1, 2], [0], [0]], [[1], [0], [0]]),  # IdlerA lengths differ
            ([[-1], [0], [0]], [[0], [0], [0]]),  # negative timestamp
        ],
        ids=["two_detectors", "unsorted", "length_mismatch", "negative_time"],
    )
    def test_malformed_layout_rejected(self, times, pair_ids):
        with pytest.raises(ConfigurationError):
            TimestampStream(times=times, pair_ids=pair_ids, duration_s=1.0, seed=0)


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
        with pytest.raises(ConfigurationError):
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


class TestCsvFormat:
    def test_roundtrip(self, stream, tmp_path):
        path = tmp_path / "s.csv"
        write_stream_csv(stream, path)
        text = path.read_text().splitlines()
        assert text[0] == "detector,time_ps"
        assert text[1] == "IdlerA,10"
        back = read_stream_csv(path, duration_s=1.0)
        assert_same_records(back, stream, pair_ids=False)
        # Ground-truth pair ids are deliberately absent from CSV.
        assert all(np.all(p == -1) for p in back.pair_ids)

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

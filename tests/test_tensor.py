import numpy as np
import pytest

from roictx.errors import FormatError, ShapeError
from roictx.tensor import concat_channels, load_ften, save_ften


class TestConcatChannels:
    def test_nine_parts_stack_to_9d(self):
        parts = [np.full((4, 7, 7), float(i), dtype=np.float32)
                 for i in range(9)]
        out = concat_channels(parts)
        assert out.shape == (36, 7, 7)

    def test_single_part_is_identity(self):
        p = np.arange(12, dtype=np.float32).reshape(3, 2, 2)
        assert np.array_equal(concat_channels([p]), p)

    def test_mismatched_shapes_rejected(self):
        a = np.zeros((4, 7, 7), dtype=np.float32)
        b = np.zeros((4, 7, 6), dtype=np.float32)
        with pytest.raises(ShapeError):
            concat_channels([a, b])

    def test_empty_list_rejected(self):
        with pytest.raises(ShapeError):
            concat_channels([])

    def test_block_slicing_recovers_inputs_exactly(self):
        rng = np.random.default_rng(7)
        parts = [rng.normal(size=(3, 5, 4)).astype(np.float32)
                 for _ in range(6)]
        out = concat_channels(parts)
        for i, p in enumerate(parts):
            assert np.array_equal(out[3 * i:3 * (i + 1)], p)


class TestFten:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        for dims in [(5,), (2, 3), (4, 1, 6), (2, 3, 4, 5)]:
            t = rng.normal(size=dims).astype(np.float32)
            path = tmp_path / "t.ften"
            save_ften(path, t)
            back = load_ften(path)
            assert back.shape == t.shape
            assert back.tobytes() == t.tobytes()

    def test_header_format(self, tmp_path):
        path = tmp_path / "t.ften"
        save_ften(path, np.float32([[1.0, 2.0], [3.0, 4.0]]))
        raw = path.read_bytes()
        header, payload = raw.split(b"\n", 1)
        assert header == b"FTEN 2 2 2"
        assert len(payload) == 16

    def test_zero_extent_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            save_ften(tmp_path / "t.ften", np.zeros((0, 2), dtype=np.float32))

    def test_rank_5_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            save_ften(tmp_path / "t.ften",
                      np.zeros((1, 1, 1, 1, 1), dtype=np.float32))

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.ften"
        save_ften(path, np.zeros(4, dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            load_ften(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.ften"
        path.write_bytes(b"NOPE 1 4\n" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_ften(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.ften"
        save_ften(path, np.zeros(4, dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_ften(path)

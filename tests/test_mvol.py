import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fvfseg.errors import MvolFormatError
from fvfseg.mvol import atomic_write_text, decode, encode, read_volume, write_volume
from fvfseg.volume import BinaryMask, ScalarVolume


def f32_volumes():
    shapes = st.tuples(*(st.integers(1, 6) for _ in range(3)))
    return shapes.flatmap(
        lambda s: hnp.arrays(
            dtype=np.float32,
            shape=s,
            elements=st.floats(-1e6, 1e6, width=32),
        )
    )


class TestRoundTrip:
    @given(f32_volumes())
    def test_scalar_bytes_stable(self, data):
        v = ScalarVolume(data, (0.5, 1.0, 1.25))
        blob = encode(v)
        back = decode(blob)
        assert isinstance(back, ScalarVolume)
        assert back.dims == v.dims
        assert back.spacing == v.spacing
        assert np.array_equal(back.data, v.data)
        # a second encode of the decoded volume is byte-identical
        assert encode(back) == blob

    @given(
        hnp.arrays(dtype=bool, shape=st.tuples(*(st.integers(1, 6) for _ in range(3))))
    )
    def test_mask_bytes_stable(self, data):
        m = BinaryMask(data, (1.0, 1.0, 1.0))
        blob = encode(m)
        back = decode(blob)
        assert isinstance(back, BinaryMask)
        assert np.array_equal(back.data, m.data)
        assert encode(back) == blob

    @pytest.mark.parametrize("kind", ["scalar", "mask"])
    def test_decoded_array_is_a_writable_fortran_copy(self, kind, rng):
        raw = rng.random((5, 4, 3))
        vol = (
            ScalarVolume(raw.astype(np.float32), (1, 1, 2))
            if kind == "scalar"
            else BinaryMask(raw < 0.5, (1, 1, 2))
        )
        blob = bytearray(encode(vol))
        back = decode(blob)
        data = back.data
        assert data.dtype == (np.float32 if kind == "scalar" else np.bool_)
        assert data.flags.f_contiguous and data.flags.writeable
        assert np.array_equal(data, vol.data)
        blob[-data.size :] = bytes(data.size)  # the blob can change under it
        assert np.array_equal(data, vol.data)
        data[0, 0, 0] = not data[0, 0, 0]

    def test_file_round_trip(self, tmp_path, rng):
        v = ScalarVolume(rng.random((5, 4, 3)).astype(np.float32), (1, 1, 2))
        p = tmp_path / "v.mvol"
        write_volume(v, p)
        back = read_volume(p)
        assert np.array_equal(back.data, v.data)
        assert back.spacing == v.spacing

    def test_payload_is_x_fastest(self):
        data = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
        blob = encode(ScalarVolume(data, (1, 1, 1)))
        payload = blob.split(b"\n\n", 1)[1]
        assert np.array_equal(
            np.frombuffer(payload, dtype="<f4"), np.arange(8, dtype=np.float32)
        )

    def test_spacing_survives_with_full_precision(self, tmp_path):
        s = (0.1, 1 / 3, 1.6)
        v = ScalarVolume(np.zeros((2, 2, 2), dtype=np.float32), s)
        p = tmp_path / "s.mvol"
        write_volume(v, p)
        assert read_volume(p).spacing == tuple(float(x) for x in s)


class TestEncodeErrors:
    def test_float64_overflow_rejected(self):
        v = ScalarVolume(np.full((2, 2, 2), 1e300), (1, 1, 1))
        with pytest.raises(ValueError, match="float32"):
            encode(v)

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            encode(np.zeros((2, 2, 2)))


def _valid_blob():
    return encode(ScalarVolume(np.zeros((2, 3, 4), dtype=np.float32), (1, 1, 1)))


class TestDecodeErrors:
    def test_bad_magic(self):
        blob = _valid_blob().replace(b"MVOL1", b"MVOL9", 1)
        with pytest.raises(MvolFormatError, match="magic"):
            decode(blob)

    def test_missing_blank_line(self):
        blob = _valid_blob().replace(b"\n\n", b"\n", 1)
        with pytest.raises(MvolFormatError):
            decode(blob)

    def test_non_ascii_header(self):
        with pytest.raises(MvolFormatError):
            decode("MVÖL1\nx\ny\nz\nw\n\n".encode("utf-8"))

    @pytest.mark.parametrize(
        "bad",
        [
            b"dims 0 3 4",
            b"dims -2 3 4",
            b"dims 2 3",
            b"size 2 3 4",
            b"dims 2 x 4",
            b"dims 2.5 3 4",
            b"dims 2 3 0_4",
        ],
    )
    def test_bad_dims_line(self, bad):
        blob = _valid_blob().replace(b"dims 2 3 4", bad, 1)
        with pytest.raises(MvolFormatError):
            decode(blob)

    @pytest.mark.parametrize(
        "bad",
        [
            b"spacing 0 1 1",
            b"spacing -1 1 1",
            b"spacing inf 1 1",
            b"spacing 1 1 abc",
            b"spacing 1 1 1_0",
        ],
    )
    def test_bad_spacing_line(self, bad):
        blob = _valid_blob().replace(b"spacing 1 1 1", bad, 1)
        with pytest.raises(MvolFormatError):
            decode(blob)

    def test_spacing_exponents_accepted(self):
        blob = _valid_blob().replace(b"spacing 1 1 1", b"spacing 1e0 +2.5E-1 .5e+1", 1)
        assert decode(blob).spacing == (1.0, 0.25, 5.0)

    def test_unknown_dtype(self):
        blob = _valid_blob().replace(b"dtype scalar32", b"dtype scalar64", 1)
        with pytest.raises(MvolFormatError, match="dtype"):
            decode(blob)

    def test_unknown_encoding(self):
        blob = _valid_blob().replace(b"encoding raw-le", b"encoding raw-be", 1)
        with pytest.raises(MvolFormatError, match="encoding"):
            decode(blob)

    def test_truncated_payload(self):
        with pytest.raises(MvolFormatError, match="payload"):
            decode(_valid_blob()[:-4])

    def test_oversized_payload(self):
        with pytest.raises(MvolFormatError, match="payload"):
            decode(_valid_blob() + b"\x00\x00\x00\x00")

    def test_nonfinite_scalar_payload_rejected(self):
        blob = _valid_blob()
        header, payload = blob.split(b"\n\n", 1)
        arr = np.frombuffer(payload, dtype="<f4").copy()
        arr[0] = np.nan
        with pytest.raises(MvolFormatError, match="non-finite"):
            decode(header + b"\n\n" + arr.tobytes())

    def test_mask_bytes_other_than_binary_rejected(self):
        m = BinaryMask(np.ones((2, 2, 2), dtype=bool), (1, 1, 1))
        blob = encode(m)
        header, payload = blob.split(b"\n\n", 1)
        bad = bytes([2]) + payload[1:]
        with pytest.raises(MvolFormatError, match="0/1"):
            decode(header + b"\n\n" + bad)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_volume(tmp_path / "nope.mvol")


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        v = ScalarVolume(np.zeros((3, 3, 3), dtype=np.float32), (1, 1, 1))
        write_volume(v, tmp_path / "out.mvol")
        atomic_write_text(tmp_path / "out.txt", "hello\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.mvol", "out.txt"]

    def test_overwrite_replaces_content(self, tmp_path):
        p = tmp_path / "x.mvol"
        a = ScalarVolume(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1))
        b = ScalarVolume(np.ones((2, 2, 2), dtype=np.float32), (1, 1, 1))
        write_volume(a, p)
        write_volume(b, p)
        assert np.array_equal(read_volume(p).data, b.data)

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        v = ScalarVolume(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1))
        target = tmp_path / "fail.mvol"

        def boom(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_volume(v, target)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fvfseg import phantom
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


class TestReadVolume:
    """read_volume reads the payload straight into the volume's array."""

    def test_matches_decode_on_every_file_of_a_case(self, tmp_path):
        atlas = phantom.synth_atlas((40, 36, 32), seed=2, spacing=(1.0, 0.5, 2.0))
        tumor = phantom.TumorSpec(radii=(5.0,))
        patient, truth = phantom.synth_patient(atlas, tumor)
        phantom.save_phantom_case(str(tmp_path), atlas, patient, truth, tumor, atlas_seed=2)
        files = sorted(tmp_path.glob("*.mvol"))
        assert len(files) == 7
        for path in files:
            read, decoded = read_volume(path), decode(path.read_bytes())
            assert type(read) is type(decoded)
            assert read.data.dtype == decoded.data.dtype
            assert read.data.flags.f_contiguous and read.data.flags.writeable
            assert read.spacing == decoded.spacing
            assert read.data.tobytes(order="A") == decoded.data.tobytes(order="A")

    def test_mask_is_a_bool_array_over_the_read_bytes(self, tmp_path, rng):
        m = BinaryMask(rng.random((6, 5, 4)) < 0.5, (1, 1, 1))
        write_volume(m, tmp_path / "m.mvol")
        back = read_volume(tmp_path / "m.mvol")
        assert back.data.dtype == np.bool_ and back.data.base is not None
        assert np.array_equal(back.data, m.data)

    @pytest.mark.parametrize("change", [-1, 1])
    def test_a_file_that_changes_size_under_the_read_is_rejected(
        self, change, tmp_path, monkeypatch
    ):
        # the size read_volume checked is not what the read then finds
        path = tmp_path / "v.mvol"
        path.write_bytes(_valid_blob())
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size + change)
        real_fstat = os.fstat

        def stale_fstat(fd):
            return os.stat_result((*real_fstat(fd)[:6], size, *real_fstat(fd)[7:]))

        monkeypatch.setattr(os, "fstat", stale_fstat)
        with pytest.raises(MvolFormatError, match="changed size while it was read"):
            read_volume(path)

    @pytest.mark.parametrize("kind", ["scalar", "mask"])
    def test_peak_memory_is_one_payload(self, kind, tmp_path, rng):
        raw = rng.random((64, 64, 64))
        vol = (
            ScalarVolume(raw.astype(np.float32), (1, 1, 1))
            if kind == "scalar"
            else BinaryMask(raw < 0.5, (1, 1, 1))
        )
        path = tmp_path / "v.mvol"
        write_volume(vol, path)
        tracemalloc.start()
        try:
            back = read_volume(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the array and the header block; reading the file whole and
        # slicing its payload held three arrays' worth
        assert peak <= 1.25 * back.data.nbytes, f"peak {peak / back.data.nbytes:.2f} arrays"


# fixed volumes and the sha256 of their files: every byte on disk is part
# of the format, whatever path the writer takes to produce it
_PINNED_SPACING = (0.1, 1 / 3, 1.6)
_PINNED_GRID = np.arange(6 * 5 * 4).reshape((6, 5, 4))
_PINNED = {
    "float64_c": (
        ScalarVolume((_PINNED_GRID * 37 % 101 - 50) / 7.0, _PINNED_SPACING),
        "707eace0651394f6fe45912b3ad0ed762f606585f6810d1336391f958846897d",
    ),
    "float32_f": (
        ScalarVolume(
            np.asfortranarray(((_PINNED_GRID * 13 % 29) / 3.0).astype(np.float32)),
            _PINNED_SPACING,
        ),
        "fbc12099848e4453ce159f6d84d7245bcd976985f79e3d4d898fff0d9ac3c8df",
    ),
    "mask_odd": (
        BinaryMask(np.arange(3 * 5 * 7).reshape((3, 5, 7)) * 7 % 11 < 5, _PINNED_SPACING),
        "38517d199fc935f4b0e6b04be1f0a7ba8eda879b76738a70e6318cc20fc1b3d6",
    ),
}


class TestWriteVolume:
    """write_volume streams the header and one payload array to the file."""

    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_bytes_are_pinned(self, name, tmp_path):
        vol, digest = _PINNED[name]
        path = tmp_path / "v.mvol"
        write_volume(vol, path)
        blob = path.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest
        assert encode(vol) == blob

    @pytest.mark.parametrize(
        "kind, order", [("float64", "C"), ("float64", "F"), ("mask", "C")]
    )
    def test_peak_memory_is_one_payload(self, kind, order, tmp_path, rng):
        raw = rng.random((64, 64, 64))
        if kind == "mask":
            vol, payload = BinaryMask(raw < 0.5, (1, 1, 1)), raw.size
        else:
            vol, payload = ScalarVolume(np.asarray(raw, order=order), (1, 1, 1)), 4 * raw.size
        path = tmp_path / "v.mvol"
        tracemalloc.start()
        try:
            write_volume(vol, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the one converted payload and the header
        assert peak <= 1.25 * payload, f"peak {peak / payload:.2f} payloads"
        assert read_volume(path).data.tobytes(order="F") == vol.data.astype(
            "<f4" if kind != "mask" else bool
        ).tobytes(order="F")

    @pytest.mark.parametrize(
        "bad",
        [
            ScalarVolume(np.full((2, 2, 2), 1e300), (1, 1, 1)),
            np.zeros((2, 2, 2), dtype=np.float32),
        ],
        ids=["float64_overflow", "not_a_volume"],
    )
    def test_failed_write_keeps_the_earlier_file(self, bad, tmp_path, monkeypatch):
        path = tmp_path / "v.mvol"
        write_volume(ScalarVolume(np.ones((2, 2, 2), dtype=np.float32), (1, 1, 1)), path)
        before = path.read_bytes()

        def no_temp_file(*args, **kwargs):
            raise AssertionError("temp file created before the volume was checked")

        monkeypatch.setattr(os, "open", no_temp_file)
        with pytest.raises((ValueError, TypeError)):
            write_volume(bad, path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["v.mvol"]
        assert path.read_bytes() == before


class TestFileMode:
    """Written files get the mode open(path, "wb") would give them."""

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
    )
    def test_mode_follows_the_umask(self, umask, mode, tmp_path):
        vol = ScalarVolume(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1))
        old = os.umask(umask)
        try:
            write_volume(vol, tmp_path / "v.mvol")
            atomic_write_text(tmp_path / "t.txt", "hello\n")
        finally:
            os.umask(old)
        for name in ("v.mvol", "t.txt"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode, name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("order", ["C", "F"])
def test_payload_bytes_do_not_depend_on_memory_layout(order, dtype, rng):
    # a C-ordered volume is cast in slabs of x-planes, a Fortran-ordered one
    # in one astype; 19 planes leave a part slab, and float64 values that
    # are not float32 ones, subnormal in float32 and -0.0 all round alike
    raw = rng.normal(0.0, 1e3, (19, 6, 5))
    raw[0, 0, :3] = (1e-42, -0.0, 3.4e38)
    data = np.asarray(raw, dtype=dtype, order=order)
    expected = raw.astype(dtype).astype("<f4").tobytes(order="F")
    payload = encode(ScalarVolume(data, (1, 1, 1))).split(b"\n\n", 1)[1]
    assert payload == expected


class TestEncodeErrors:
    def test_float64_overflow_rejected(self):
        v = ScalarVolume(np.full((2, 2, 2), 1e300), (1, 1, 1))
        with pytest.raises(ValueError, match="float32"):
            encode(v)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_overflow_in_any_slab_rejected_in_either_layout(self, order):
        data = np.ones((19, 2, 2), order=order)
        data[17, 1, 0] = -1e300
        with pytest.raises(ValueError, match="float32"):
            encode(ScalarVolume(data, (1, 1, 1)))

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            encode(np.zeros((2, 2, 2)))


def _valid_blob():
    return encode(ScalarVolume(np.zeros((2, 3, 4), dtype=np.float32), (1, 1, 1)))


def _rejected(blob, tmp_path, match=None) -> str:
    """The MvolFormatError message of ``blob``, which decode and read_volume
    of a file holding it must both raise, with the same message."""
    with pytest.raises(MvolFormatError, match=match) as from_bytes:
        decode(blob)
    path = tmp_path / "bad.mvol"
    path.write_bytes(blob)
    with pytest.raises(MvolFormatError) as from_file:
        read_volume(path)
    assert str(from_file.value) == str(from_bytes.value)
    return str(from_bytes.value)


class TestDecodeErrors:
    """Every malformed file raises the same error through read_volume as
    its bytes through decode."""

    def test_bad_magic(self, tmp_path):
        blob = _valid_blob().replace(b"MVOL1", b"MVOL9", 1)
        _rejected(blob, tmp_path, match="magic")

    def test_missing_blank_line(self, tmp_path):
        blob = _valid_blob().replace(b"\n\n", b"\n", 1)
        _rejected(blob, tmp_path, match="blank line")

    def test_non_ascii_header(self, tmp_path):
        _rejected("MVÖL1\nx\ny\nz\nw\n\n".encode("utf-8"), tmp_path, match="ASCII")

    def test_non_ascii_byte_in_a_valid_header(self, tmp_path):
        blob = _valid_blob().replace(b"raw-le", b"raw-l\xe9", 1)
        _rejected(blob, tmp_path, match="ASCII")

    def test_one_trailing_byte(self, tmp_path):
        _rejected(_valid_blob() + b"\x00", tmp_path, match="payload holds 97 bytes")

    @pytest.mark.parametrize("end", [4094, 4095, 4096, 12288])
    def test_header_ending_near_or_past_the_first_read(self, end, tmp_path):
        # trailing blanks on a header line are legal: pad the header so its
        # blank line starts at byte ``end``, inside a 4 KiB block, across its
        # end or past it, where a reader of a fixed-size head block would
        # have to fall back to another path
        blob = _valid_blob()
        pad = end - blob.index(b"\n\n")
        blob = blob.replace(b"spacing 1 1 1", b"spacing 1 1 1" + b" " * pad, 1)
        assert blob.index(b"\n\n") == end
        path = tmp_path / "long.mvol"
        path.write_bytes(blob)
        back = read_volume(path)
        assert back.data.tobytes() == decode(blob).data.tobytes()
        assert back.spacing == (1.0, 1.0, 1.0)
        _rejected(blob.replace(b"MVOL1", b"MVOL9", 1), tmp_path, match="magic")
        _rejected(blob[:-1], tmp_path, match="payload")
        _rejected(blob.replace(b"\n\n", b"\n", 1), tmp_path, match="blank line")

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
    def test_bad_dims_line(self, bad, tmp_path):
        blob = _valid_blob().replace(b"dims 2 3 4", bad, 1)
        _rejected(blob, tmp_path, match="dims")

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
    def test_bad_spacing_line(self, bad, tmp_path):
        blob = _valid_blob().replace(b"spacing 1 1 1", bad, 1)
        _rejected(blob, tmp_path, match="spacing")

    def test_spacing_exponents_accepted(self):
        blob = _valid_blob().replace(b"spacing 1 1 1", b"spacing 1e0 +2.5E-1 .5e+1", 1)
        assert decode(blob).spacing == (1.0, 0.25, 5.0)

    def test_unknown_dtype(self, tmp_path):
        blob = _valid_blob().replace(b"dtype scalar32", b"dtype scalar64", 1)
        _rejected(blob, tmp_path, match="dtype")

    def test_unknown_encoding(self, tmp_path):
        blob = _valid_blob().replace(b"encoding raw-le", b"encoding raw-be", 1)
        _rejected(blob, tmp_path, match="encoding")

    def test_truncated_payload(self, tmp_path):
        _rejected(_valid_blob()[:-4], tmp_path, match="payload")

    def test_oversized_payload(self, tmp_path):
        _rejected(_valid_blob() + b"\x00\x00\x00\x00", tmp_path, match="payload")

    def test_nonfinite_scalar_payload_rejected(self, tmp_path):
        blob = _valid_blob()
        header, payload = blob.split(b"\n\n", 1)
        arr = np.frombuffer(payload, dtype="<f4").copy()
        arr[0] = np.nan
        _rejected(header + b"\n\n" + arr.tobytes(), tmp_path, match="non-finite")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_scalar_payload_rejected(self, bad, tmp_path):
        blob = _valid_blob()
        header, payload = blob.split(b"\n\n", 1)
        arr = np.frombuffer(payload, dtype="<f4").copy()
        arr[-1] = bad
        _rejected(header + b"\n\n" + arr.tobytes(), tmp_path, match="non-finite")

    def test_mask_bytes_other_than_binary_rejected(self, tmp_path):
        m = BinaryMask(np.ones((2, 2, 2), dtype=bool), (1, 1, 1))
        blob = encode(m)
        header, payload = blob.split(b"\n\n", 1)
        bad = payload[:-1] + bytes([2])
        _rejected(header + b"\n\n" + bad, tmp_path, match="0/1")

    def test_mask_payload_of_the_wrong_size(self, tmp_path):
        m = BinaryMask(np.ones((2, 2, 2), dtype=bool), (1, 1, 1))
        _rejected(encode(m)[:-1], tmp_path, match="mask8 volume")

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

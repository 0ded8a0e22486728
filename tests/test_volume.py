import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fvfseg.errors import GridMismatchError
from fvfseg.volume import (
    BinaryMask,
    ScalarVolume,
    central_difference,
    gaussian_smooth,
    largest_component,
    morphology,
    require_same_grid,
    whole_box,
    world_offsets,
)

from .oracles import dilate_oracle, erode_oracle, largest_component_oracle

UNIT = (1.0, 1.0, 1.0)


def small_masks(max_side=8):
    return hnp.arrays(
        dtype=bool,
        shape=st.tuples(*(st.integers(2, max_side) for _ in range(3))),
    )


class TestTypes:
    def test_scalar_volume_casts_ints(self):
        v = ScalarVolume(np.ones((3, 3, 3), dtype=np.int32), UNIT)
        assert v.data.dtype == np.float64

    def test_scalar_volume_keeps_float32(self):
        v = ScalarVolume(np.zeros((3, 3, 3), dtype=np.float32), UNIT)
        assert v.data.dtype == np.float32

    def test_scalar_volume_rejects_nonfinite(self):
        bad = np.ones((3, 3, 3))
        bad[1, 1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ScalarVolume(bad, UNIT)

    def test_scalar_volume_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            ScalarVolume(np.zeros((3, 3)), UNIT)

    @pytest.mark.parametrize("spacing", [(0.0, 1, 1), (1, -2, 1), (1, 1, np.inf)])
    def test_bad_spacing_rejected(self, spacing):
        with pytest.raises(ValueError):
            ScalarVolume(np.zeros((3, 3, 3)), spacing)

    def test_mask_count(self):
        m = np.zeros((4, 4, 4), dtype=bool)
        m[0, 0, 0] = m[3, 3, 3] = True
        assert BinaryMask(m, UNIT).count() == 2

    def test_require_same_grid(self):
        a = ScalarVolume(np.zeros((3, 3, 3)), UNIT)
        b = ScalarVolume(np.zeros((3, 3, 4)), UNIT)
        c = ScalarVolume(np.zeros((3, 3, 3)), (1, 1, 2))
        require_same_grid(a, a)
        with pytest.raises(GridMismatchError):
            require_same_grid(a, b)
        with pytest.raises(GridMismatchError):
            require_same_grid(a, c)


class TestWorldCoordinates:
    def test_matches_formula(self, rng):
        dims = (4, 5, 6)
        spacing = (0.7, 1.1, 2.3)
        offsets = world_offsets(whole_box(dims), spacing, (0.0, 0.0, 0.0))
        wx, wy, wz = np.broadcast_arrays(*offsets)
        assert wx.shape == dims
        for _ in range(20):
            i, j, k = (int(rng.integers(0, d)) for d in dims)
            assert wx[i, j, k] == pytest.approx(i * 0.7)
            assert wy[i, j, k] == pytest.approx(j * 1.1)
            assert wz[i, j, k] == pytest.approx(k * 2.3)

    def test_box_is_the_slice_of_the_whole_grid(self):
        dims = (7, 5, 9)
        spacing = (0.9375, 1.0, 2.0)
        center = (2.5, -1.25, 7.0)
        box = (slice(2, 6), slice(0, 5), slice(3, 4))
        whole = np.broadcast_arrays(*world_offsets(whole_box(dims), spacing, center))
        part = world_offsets(box, spacing, center)
        assert [p.shape for p in part] == [(4, 1, 1), (1, 5, 1), (1, 1, 1)]
        for w, p in zip(whole, np.broadcast_arrays(*part)):
            assert np.array_equal(w[box], p)


class TestMorphology:
    @given(small_masks())
    def test_erode_matches_oracle(self, data):
        got = morphology(BinaryMask(data, UNIT), "erode").data
        assert np.array_equal(got, erode_oracle(data))

    @given(small_masks())
    def test_dilate_matches_oracle(self, data):
        got = morphology(BinaryMask(data, UNIT), "dilate").data
        assert np.array_equal(got, dilate_oracle(data))

    @given(small_masks(), st.integers(1, 3))
    def test_iterations_compose(self, data, iters):
        # one pass at radius r is r passes at radius 1
        once = BinaryMask(data, UNIT)
        chained = once
        for _ in range(iters):
            chained = morphology(chained, "dilate")
        assert np.array_equal(morphology(once, "dilate", iters).data, chained.data)

    @given(small_masks())
    def test_duality_on_interior(self, data):
        """Erosion and complement-dilation agree away from the border,
        where the outside-is-background convention differs."""
        eroded = morphology(BinaryMask(data, UNIT), "erode").data
        dual = ~morphology(BinaryMask(~data, UNIT), "dilate").data
        assert np.array_equal(eroded[1:-1, 1:-1, 1:-1], dual[1:-1, 1:-1, 1:-1])

    def test_mode_rejected(self):
        with pytest.raises(ValueError):
            morphology(BinaryMask(np.ones((3, 3, 3), dtype=bool), UNIT), "open")

    @pytest.mark.parametrize("mode, oracle", [("erode", erode_oracle), ("dilate", dilate_oracle)])
    def test_fortran_ordered_mask_matches_oracle(self, mode, oracle, rng):
        # masks read from MVOL files are Fortran-ordered
        data = rng.random((9, 7, 5)) > 0.3
        got = morphology(BinaryMask(np.asfortranarray(data), UNIT), mode, 2).data
        assert np.array_equal(got, oracle(data, 1, 2))

    @pytest.mark.parametrize("mode, oracle", [("erode", erode_oracle), ("dilate", dilate_oracle)])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "shape",
        [(1, 13, 5), (13, 1, 5), (6, 13, 1), (2, 13, 4), (13, 2, 4), (4, 13, 2), (1, 2, 9),
         (2, 2, 2), (13, 11, 12)],
    )
    def test_radius_and_thin_axes_match_oracle(self, shape, order, mode, oracle, rng):
        # Axes of length 1 and 2 are all face planes.  A dense mask keeps
        # erosions of the 13x11x12 grid non-empty and a sparse one keeps
        # dilations from filling it, at radii 1 to 6, each against the
        # oracle's repeated passes of radius 1 or 2; empty and full masks too.
        masks = [rng.random(shape) > p for p in (0.1, 0.97)]
        masks += [np.zeros(shape, bool), np.ones(shape, bool)]
        for data in masks:
            mask = BinaryMask(np.asarray(data, order=order), UNIT)
            for radius in (1, 2):
                for iters in (1, 2, 3):
                    got = morphology(mask, mode, radius * iters).data
                    assert np.array_equal(got, oracle(data, radius, iters))


class TestLargestComponent:
    @given(small_masks(), st.sampled_from([6, 26]))
    def test_matches_bfs_oracle(self, data, connectivity):
        if not data.any():
            with pytest.raises(ValueError):
                largest_component(BinaryMask(data, UNIT), connectivity)
            return
        got = largest_component(BinaryMask(data, UNIT), connectivity).data
        assert np.array_equal(got, largest_component_oracle(data, connectivity))

    def test_tie_breaks_by_linear_index(self):
        data = np.zeros((5, 5, 5), dtype=bool)
        data[4, 4, 4] = True  # later in x-fastest order
        data[2, 0, 0] = True  # earlier
        got = largest_component(BinaryMask(data, UNIT))
        expected = np.zeros_like(data)
        expected[2, 0, 0] = True
        assert np.array_equal(got.data, expected)

    def test_diagonal_connectivity(self):
        data = np.zeros((4, 4, 4), dtype=bool)
        data[0, 0, 0] = data[1, 1, 1] = data[2, 2, 2] = True
        assert largest_component(BinaryMask(data, UNIT), 26).count() == 3
        # with 6-connectivity these are three separate voxels
        assert largest_component(BinaryMask(data, UNIT), 6).count() == 1


class TestSmoothing:
    def test_constant_preserved(self):
        v = ScalarVolume(np.full((8, 8, 8), 3.25), UNIT)
        out = gaussian_smooth(v, 1.3)
        assert np.allclose(out.data, 3.25, atol=1e-12)

    def test_mass_roughly_preserved_interior(self, rng):
        data = np.zeros((16, 16, 16))
        data[8, 8, 8] = 1.0
        out = gaussian_smooth(ScalarVolume(data, UNIT), 1.0)
        assert out.data.sum() == pytest.approx(1.0, abs=1e-9)

    def test_separable_matches_direct_convolution(self, rng):
        from scipy.ndimage import correlate

        data = rng.random((7, 7, 7))
        sigma = 0.9
        out = gaussian_smooth(ScalarVolume(data, UNIT), sigma)
        r = int(np.ceil(3 * sigma))
        x = np.arange(-r, r + 1, dtype=float)
        k1 = np.exp(-(x**2) / (2 * sigma**2))
        k1 /= k1.sum()
        kernel = k1[:, None, None] * k1[None, :, None] * k1[None, None, :]
        ref = correlate(data, kernel, mode="nearest")
        assert np.allclose(out.data, ref, atol=1e-12)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bitwise_equal_to_three_plain_passes(self, rng, order):
        # neither the passes' output memory order nor a float32 input read
        # without a float64 copy may change a single bit
        from scipy.ndimage import correlate1d

        from fvfseg.volume import _gauss_kernel

        for dtype in (np.float64, np.float32):
            data = np.asarray(rng.normal(size=(9, 14, 11)), dtype=dtype, order=order)
            ref = data.astype(np.float64)
            for axis in range(3):
                ref = correlate1d(ref, _gauss_kernel(1.0), axis=axis, mode="nearest")
            out = gaussian_smooth(ScalarVolume(data, UNIT), 1.0).data
            assert out.dtype == np.float64 and out.flags.c_contiguous
            assert out.tobytes() == np.ascontiguousarray(ref).tobytes()


def _central_gradient(data, spacing):
    """central_difference along each axis of a C-ordered float64 copy."""
    f = np.ascontiguousarray(data, dtype=np.float64)
    grad = [np.empty(f.shape) for _ in range(3)]
    for axis, (g, s) in enumerate(zip(grad, spacing)):
        central_difference(f, axis, s, g)
    return grad


class TestGradient:
    def test_linear_field_exact(self):
        dims = (6, 7, 8)
        spacing = (0.5, 1.0, 2.0)
        wx, wy, wz = world_offsets(whole_box(dims), spacing, (0.0, 0.0, 0.0))
        gx, gy, gz = _central_gradient(2.0 * wx - 3.0 * wy + 0.5 * wz, spacing)
        assert np.allclose(gx, 2.0)
        assert np.allclose(gy, -3.0)
        assert np.allclose(gz, 0.5)

    @pytest.mark.parametrize("spacing", [UNIT, (1.0, 1.0, 2.0), (0.9375, 1.1, 1.3)])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(3, 3, 3), (9, 5, 7)])
    def test_matches_numpy_gradient_bit_for_bit(self, shape, order, spacing, rng):
        data = np.asarray(rng.normal(size=shape), order=order)
        data[rng.random(shape) < 0.2] = 0.0
        ref = np.gradient(data, *spacing, edge_order=1)
        for got, want in zip(_central_gradient(data, spacing), ref):
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

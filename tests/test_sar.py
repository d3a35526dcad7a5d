"""Covariance eigen path, radar index forms, multilook and speckle filter."""

import datetime as dt
import math
import re

import numpy as np
import pytest

from conftest import save_with_nodata
from vinesar import raster
from vinesar.raster import Bundle, GridSpec, Orbit, load_bundle, row_blocks
from vinesar.sar import (C2_BAND_NAMES, DPRVI_BAND_NAME, PSD_TOL, RANK1_TOL, CovarianceError,
                         EigenPair, boxcar_filter, dp_params, dprvi_from_eigen,
                         dprvi_grd, dprvi_raster, eigen_decompose, load_c2,
                         multilook, save_c2, valid_mask)


def grid(w, h):
    return GridSpec(width=w, height=h, origin_x=0.0, origin_y=0.0,
                    pixel_size_x=10.0, pixel_size_y=-10.0, crs="EPSG:32632")


def c2_raster(c11, c22, re, im, **kw):
    """A covariance bundle from its four bands."""
    values = np.stack([np.asarray(b, dtype=np.float32) for b in (c11, c22, re, im)])
    _, h, w = values.shape
    return Bundle(grid(w, h), list(C2_BAND_NAMES), values, **kw)


def random_psd(rng, n):
    """Random 2x2 Hermitian PSD entries, mixed scales, some near rank-1."""
    scale = 10.0 ** rng.uniform(-3, 3, size=n)
    c11 = rng.uniform(0.05, 2.0, size=n) * scale
    c22 = rng.uniform(0.05, 2.0, size=n) * scale
    # |c12|^2 <= c11*c22 keeps the matrix PSD; rho -> 1 approaches rank-1
    rho = rng.uniform(0.0, 1.0, size=n)
    rho[rng.random(n) < 0.1] = 1.0
    mag = rho * np.sqrt(c11 * c22)
    phase = rng.uniform(-math.pi, math.pi, size=n)
    return c11, c22, mag * np.cos(phase), mag * np.sin(phase)


def eig_oracle(c11, c22, re, im):
    m = np.array([[c11, re - 1j * im], [re + 1j * im, c22]])
    lo, hi = np.linalg.eigvalsh(m).real
    return hi, lo


class TestEigen:
    def test_hand_values(self):
        assert eigen_decompose(2.0, 2.0, 0.0, 0.0) == EigenPair(2.0, 2.0)
        assert eigen_decompose(1.0, 0.5, 0.0, 0.0) == EigenPair(1.0, 0.5)
        # rank-1: [[1, 1], [1, 1]] -> (2, 0)
        assert eigen_decompose(1.0, 1.0, 1.0, 0.0) == EigenPair(2.0, 0.0)
        pair = eigen_decompose(1.0, 1.0, 0.0, 1.0)
        assert pair.lambda1 == pytest.approx(2.0, abs=1e-15)
        assert pair.lambda2 == 0.0

    def test_matches_library_eigensolver(self):
        rng = np.random.default_rng(101)
        c11, c22, re, im = random_psd(rng, 3000)
        for i in range(3000):
            got = eigen_decompose(float(c11[i]), float(c22[i]),
                                  float(re[i]), float(im[i]))
            want = eig_oracle(c11[i], c22[i], re[i], im[i])
            tol = 1e-12 * max(want[0], 1e-300)
            assert got.lambda1 == pytest.approx(want[0], abs=tol)
            assert got.lambda2 == pytest.approx(max(want[1], 0.0),
                                                abs=max(tol, 1e-12 * want[0]))
            assert got.lambda2 >= 0.0

    def test_near_rank1_stays_nonnegative(self):
        # exact rank-1 matrices keep l2 at exactly zero even after the
        # entries round through float32 band storage
        rng = np.random.default_rng(33)
        for _ in range(500):
            a = rng.uniform(0.01, 10.0)
            b = rng.uniform(0.01, 10.0)
            ph = rng.uniform(-math.pi, math.pi)
            c11, c22 = a * a, b * b
            re, im = a * b * math.cos(ph), a * b * math.sin(ph)
            f = np.float32
            got = eigen_decompose(float(f(c11)), float(f(c22)),
                                  float(f(re)), float(f(im)))
            assert got.lambda2 == 0.0

    def test_zero_matrix_and_negative_determinant_give_positive_zero(self):
        # the determinant of [[1, 1 + 1e-8], [1 + 1e-8, 1]] is negative
        # within PSD_TOL
        for entries in ((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0 + 1e-8, 0.0)):
            lambda2 = eigen_decompose(*entries).lambda2
            assert lambda2 == 0.0 and math.copysign(1.0, lambda2) == 1.0, entries

    def test_scalar_eigen_is_bit_equal_to_the_array_reference(self):
        c11, c22, re, im = random_psd(np.random.default_rng(77), 5000)
        l1, l2, _ = eigen_reference(c11, c22, re, im)
        for k in range(5000):
            pair = eigen_decompose(float(c11[k]), float(c22[k]), float(re[k]), float(im[k]))
            assert (pair.lambda1, pair.lambda2) == (l1[k], l2[k]), k

    def test_rejects_non_psd_and_nonfinite(self):
        with pytest.raises(CovarianceError):
            eigen_decompose(1.0, 1.0, 2.0, 0.0)
        with pytest.raises(CovarianceError):
            eigen_decompose(-1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            eigen_decompose(math.nan, 1.0, 0.0, 0.0)


class TestDpForms:
    def test_frozen_values(self):
        # equal powers, no correlation: m=0, beta=1/2 -> index 1
        assert dprvi_from_eigen(EigenPair(1.0, 1.0)) == pytest.approx(1.0, abs=1e-15)
        # rank-1: m=1, beta=1 -> index 0
        assert dprvi_from_eigen(EigenPair(2.0, 0.0)) == 0.0
        # lambda = (1, 0.5): m=1/3, beta=2/3 -> 1 - 2/9 = 7/9
        assert dprvi_from_eigen(EigenPair(1.0, 0.5)) == pytest.approx(7.0 / 9.0, abs=1e-15)
        p = dp_params(EigenPair(1.0, 0.5))
        assert p.m == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert p.beta == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_eigen_and_ratio_forms_agree(self):
        rng = np.random.default_rng(202)
        l1 = 10.0 ** rng.uniform(-6, 6, size=20000)
        q = rng.uniform(0.0, 1.0, size=20000)
        l2 = l1 * q
        via_eigen = np.array([dprvi_from_eigen(EigenPair(a, b))
                              for a, b in zip(l1, l2)])
        via_ratio = q * (q + 3.0) / (q + 1.0) ** 2
        assert np.max(np.abs(via_eigen - via_ratio)) <= 1e-12

    def test_beta_identity_and_ranges(self):
        rng = np.random.default_rng(203)
        l1 = 10.0 ** rng.uniform(-6, 6, size=2000)
        l2 = l1 * rng.uniform(0.0, 1.0, size=2000)
        for a, b in zip(l1, l2):
            p = dp_params(EigenPair(a, b))
            assert 0.0 <= p.m <= 1.0
            assert 0.5 <= p.beta <= 1.0
            assert abs(p.beta - (1.0 + p.m) / 2.0) <= 1e-12
            d = dprvi_from_eigen(EigenPair(a, b))
            assert 0.0 <= d <= 1.0

    def test_scale_invariance(self):
        base = dprvi_from_eigen(EigenPair(1.0, 0.25))
        for s in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            assert dprvi_from_eigen(EigenPair(s, 0.25 * s)) == pytest.approx(
                base, rel=1e-12)

    def test_zero_power(self):
        assert math.isnan(dprvi_from_eigen(EigenPair(0.0, 0.0)))
        with pytest.raises(ValueError):
            dp_params(EigenPair(0.0, 0.0))


class TestGrdForm:
    def test_matches_ratio_form(self):
        rng = np.random.default_rng(204)
        for _ in range(2000):
            vv = 10.0 ** rng.uniform(-3, 3)
            q = rng.uniform(0.0, 1.0)
            want = q * (q + 3.0) / (q + 1.0) ** 2
            assert dprvi_grd(q * vv, vv) == pytest.approx(want, rel=1e-12)

    def test_clamp_and_edge_cases(self):
        # cross-pol above co-pol clamps the ratio to one -> index 1
        assert dprvi_grd(2.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert math.isnan(dprvi_grd(1.0, 0.0))
        assert dprvi_grd(0.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            dprvi_grd(-0.1, 1.0)
        with pytest.raises(ValueError):
            dprvi_grd(1.0, -1.0)


class TestCovarianceBundle:
    def test_save_load_bitwise(self, tmp_path):
        rng = np.random.default_rng(40)
        c11 = rng.uniform(0.5, 2.0, size=(4, 5))
        c22 = rng.uniform(0.1, 1.0, size=(4, 5))
        mag = 0.5 * np.sqrt(c11 * c22)
        c2 = c2_raster(c11, c22, mag, -mag,
                       timestamp=dt.date(2023, 5, 27), orbit=Orbit.DESCENDING)
        save_c2(c2, tmp_path / "c2_20230527_DES")
        back = load_c2(tmp_path / "c2_20230527_DES")
        assert back.timestamp == c2.timestamp
        assert back.orbit == c2.orbit
        assert back.band_names == list(C2_BAND_NAMES)
        for k in range(4):
            assert back.values[k].tobytes() == c2.values[k].tobytes()

    def test_load_masks_non_psd_pixel(self, tmp_path, caplog):
        rng = np.random.default_rng(41)
        c11 = rng.uniform(0.5, 2.0, size=(3, 4))
        c22 = rng.uniform(0.1, 1.0, size=(3, 4))
        mag = 0.5 * np.sqrt(c11 * c22)
        re = mag.copy()
        re[1, 2] = 5.0  # |c12|^2 > c11 * c22
        c2 = c2_raster(c11, c22, re, -mag)
        save_c2(c2, tmp_path / "c2_bad")
        with caplog.at_level("WARNING"):
            back = load_c2(tmp_path / "c2_bad")
        good = np.ones((3, 4), dtype=bool)
        good[1, 2] = False
        for k in range(4):
            band = back.values[k]
            assert math.isnan(band[1, 2])
            assert band[good].tobytes() == c2.values[k][good].tobytes()
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert " 1 of 12 valid pixels" in warnings[0].getMessage()

    def test_zero_sentinel_pixel_is_not_averaged_in(self, tmp_path):
        # the second pixel holds the header's nodata, 0.0, in all four bands
        c2 = c2_raster([[1.0, 0.0]], [[0.5, 0.0]], [[0.25, 0.0]], [[0.125, 0.0]])
        save_with_nodata(tmp_path / "c2_s", c2.spec, list(zip(C2_BAND_NAMES, c2.values)), 0.0)
        out = multilook(load_c2(tmp_path / "c2_s"), 2, 1)
        assert out.values[:, 0, 0].tolist() == [1.0, 0.5, 0.25, 0.125]

    def test_sentinel_pixel_is_nodata_not_a_bad_matrix(self, tmp_path, caplog):
        s = -9999.0
        c2 = c2_raster([[1.0, s]], [[0.5, s]], [[0.25, s]], [[0.125, s]])
        save_with_nodata(tmp_path / "c2_s", c2.spec, list(zip(C2_BAND_NAMES, c2.values)), s)
        with caplog.at_level("WARNING"):
            back = load_c2(tmp_path / "c2_s")
        assert back.values[:, 0, 0].tolist() == [1.0, 0.5, 0.25, 0.125]
        assert np.isnan(back.values[:, 0, 1]).all()
        assert not caplog.records  # no "violate the covariance constraints" count

    def test_valid_mask_requires_all_bands(self):
        c2 = c2_raster([[1.0, math.nan]], [[1.0, 1.0]], [[0.0, 0.0]], [[0.0, 0.0]])
        assert valid_mask(c2.values).tolist() == [[True, False]]

    def test_save_rejects_other_bands(self, tmp_path):
        c2 = c2_raster([[1.0]], [[1.0]], [[0.0]], [[0.0]])
        c2.band_names = ["C11", "C22", "C12_re", "X"]
        with pytest.raises(ValueError, match="covariance bundle needs"):
            save_c2(c2, tmp_path / "c2_bad")
        assert not list(tmp_path.iterdir())


class TestMultilook:
    def test_block_means_against_loops(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            wx, wy = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            if w < wx or h < wy:
                continue
            c11 = rng.uniform(0.5, 2.0, size=(h, w))
            c22 = rng.uniform(0.1, 1.0, size=(h, w))
            mag = rng.uniform(0.0, 0.9, size=(h, w)) * np.sqrt(c11 * c22)
            c2 = c2_raster(c11, c22, mag, 0.0 * mag)
            kill = rng.random(size=(h, w)) < 0.15
            c2.values[0][kill] = np.nan
            out = multilook(c2, wx, wy)
            assert out.spec.width == w // wx and out.spec.height == h // wy
            assert out.spec.pixel_size_x == pytest.approx(10.0 * wx)
            assert out.spec.pixel_size_y == pytest.approx(-10.0 * wy)
            for row in range(h // wy):
                for col in range(w // wx):
                    blk = np.s_[row * wy:(row + 1) * wy, col * wx:(col + 1) * wx]
                    vals = np.asarray(c2.values[0][blk], dtype=np.float64)
                    ok = ~kill[blk]
                    if ok.any():
                        assert out.values[0][row, col] == pytest.approx(
                            float(np.mean(vals[ok])), rel=1e-6)
                    else:
                        assert math.isnan(out.values[0][row, col])

    def test_bands_with_different_nodata_pixels(self):
        # each band loses its own pixels; a block averages only the pixels
        # valid in all four, the same ones for every band
        rng = np.random.default_rng(51)
        c2 = random_c2(rng, 12, 9, nodata=0.4)
        for wx, wy in ((1, 1), (3, 2), (2, 4), (9, 12)):
            out = multilook(c2, wx, wy)
            valid = valid_mask(c2.values)
            for row in range(12 // wy):
                for col in range(9 // wx):
                    blk = np.s_[row * wy:(row + 1) * wy, col * wx:(col + 1) * wx]
                    ok = valid[blk]
                    for k in range(4):
                        got = out.values[k][row, col]
                        if not ok.any():
                            assert math.isnan(got)
                            continue
                        vals = np.asarray(c2.values[k][blk], dtype=np.float64)[ok]
                        # float32 rounding of a float64 mean summed in another order
                        assert got == pytest.approx(np.mean(vals), rel=1e-6,
                                                    abs=1e-12 * np.abs(vals).max())

    def test_joint_validity(self):
        # NaN in one band invalidates the pixel for every band's mean
        c2 = c2_raster([[1.0, 3.0]], [[1.0, math.nan]], [[0.0, 0.0]], [[0.0, 0.0]])
        out = multilook(c2, 2, 1)
        assert out.values[0][0, 0] == np.float32(1.0)

    def test_origin_preserved_and_frozen_value(self):
        c2 = c2_raster([[1.0, 2.0], [3.0, 4.0]], np.full((2, 2), 1.0),
                       np.zeros((2, 2)), np.zeros((2, 2)))
        out = multilook(c2, 2, 2)
        assert out.values[0][0, 0] == np.float32(2.5)
        assert out.spec.origin_x == 0.0 and out.spec.origin_y == 0.0

    def test_rejects_bad_windows(self):
        c2 = c2_raster([[1.0]], [[1.0]], [[0.0]], [[0.0]])
        with pytest.raises(ValueError):
            multilook(c2, 0, 1)
        with pytest.raises(ValueError):
            multilook(c2, 2, 1)  # wider than the raster


def random_c2(rng, h, w, nodata=0.15):
    """Random PSD raster with a share of pixels NaN in one random band each."""
    c11, c22, re, im = random_psd(rng, h * w)
    c2 = c2_raster(*(b.reshape(h, w) for b in (c11, c22, re, im)))
    kill = rng.random(size=(h, w)) < nodata
    band = rng.integers(0, 4, size=(h, w))
    for k in range(4):
        c2.values[k][kill & (band == k)] = np.nan
    return c2


def boxcar_oracle(c2, win):
    """Per-pixel float64 mean of the valid pixels in each clipped window."""
    h, w = c2.spec.height, c2.spec.width
    r = win // 2
    valid = valid_mask(c2.values)
    out = np.full((4, h, w), np.nan)
    for row in range(h):
        for col in range(w):
            ys = slice(max(0, row - r), min(h, row + r + 1))
            xs = slice(max(0, col - r), min(w, col + r + 1))
            ok = valid[ys, xs]
            if ok.any():
                for k in range(4):
                    vals = np.asarray(c2.values[k][ys, xs], dtype=np.float64)
                    out[k][row, col] = np.mean(vals[ok])
    return out


def assert_matches_oracle(got, want):
    for k, name in enumerate(C2_BAND_NAMES):
        g = got.values[k]
        w = want[k]
        assert np.array_equal(np.isnan(g), np.isnan(w)), name
        # float32 output of sums taken through a summed-area table; the
        # off-diagonal bands change sign, so their means can cancel to ~0
        atol = 0.0
        if name.startswith("C12") and np.isfinite(w).any():
            atol = 1e-6 * np.nanmax(np.abs(w))
        np.testing.assert_allclose(g[np.isfinite(w)], w[np.isfinite(w)],
                                   rtol=1e-5, atol=atol, err_msg=name)


class TestBoxcar:
    def test_against_brute_force(self):
        rng = np.random.default_rng(60)
        for win in (3, 5):
            h, w = 9, 8
            c11 = rng.uniform(0.5, 2.0, size=(h, w))
            c22 = rng.uniform(0.1, 1.0, size=(h, w))
            mag = rng.uniform(0.0, 0.9, size=(h, w)) * np.sqrt(c11 * c22)
            phase = rng.uniform(-math.pi, math.pi, size=(h, w))
            c2 = c2_raster(c11, c22, mag * np.cos(phase), mag * np.sin(phase))
            c2.values[1][rng.random(size=(h, w)) < 0.2] = np.nan
            assert_matches_oracle(boxcar_filter(c2, win), boxcar_oracle(c2, win))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (3, 3)])
    @pytest.mark.parametrize("win", [7, 31])
    def test_window_wider_than_the_raster(self, shape, win):
        c2 = random_c2(np.random.default_rng(61), *shape, nodata=0.3)
        out = boxcar_filter(c2, win)
        assert_matches_oracle(out, boxcar_oracle(c2, win))
        if max(shape) - 1 <= win // 2 and valid_mask(c2.values).any():
            # every window holds the whole raster: one mean everywhere
            for band in out.values:
                assert np.all(band == band[0, 0])

    def test_random_rasters_against_brute_force(self):
        rng = np.random.default_rng(62)
        for _ in range(40):
            h, w = (int(v) for v in rng.integers(1, 14, size=2))
            win = int(rng.choice([3, 5, 7, 9, 15, 31]))
            c2 = random_c2(rng, h, w)
            assert_matches_oracle(boxcar_filter(c2, win), boxcar_oracle(c2, win))

    def test_all_nodata_neighbourhood_is_nodata(self):
        rng = np.random.default_rng(63)
        c2 = random_c2(rng, 12, 11, nodata=0.0)
        c2.values[3][2:9, 3:10] = np.nan  # one band enough to void the pixel
        out = boxcar_filter(c2, 5)
        # a 5x5 window centred inside rows 4..6, cols 5..7 sees only the hole
        for band in out.values:
            assert np.isnan(band[4:7, 5:8]).all()
            assert np.isfinite(band).sum() == band.size - 9
        assert_matches_oracle(out, boxcar_oracle(c2, 5))

    def test_window_one_is_identity(self):
        c2 = c2_raster([[1.0, 2.0]], [[0.5, 0.5]], [[0.1, 0.1]], [[0.0, 0.0]])
        out = boxcar_filter(c2, 1)
        assert out.values.tobytes() == c2.values.tobytes()
        assert out.values is not c2.values

    def test_rejects_even_window(self):
        c2 = c2_raster([[1.0]], [[1.0]], [[0.0]], [[0.0]])
        with pytest.raises(ValueError):
            boxcar_filter(c2, 4)


class TestDprviRaster:
    def test_per_pixel_values_and_nodata(self):
        c2 = c2_raster([[1.0, 1.0, math.nan]],
                       [[0.5, 1.0, 1.0]],
                       [[0.0, 1.0, 0.0]],
                       [[0.0, 0.0, 0.0]],
                       timestamp=dt.date(2023, 3, 28), orbit=Orbit.DESCENDING)
        out = dprvi_raster(c2)
        assert out.band_name == DPRVI_BAND_NAME
        assert out.timestamp == c2.timestamp and out.orbit == c2.orbit
        assert out.values.dtype == np.float32
        assert out.values[0, 0] == pytest.approx(7.0 / 9.0, rel=1e-6)
        assert out.values[0, 1] == 0.0  # rank-1 pixel
        assert math.isnan(out.values[0, 2])

    def test_non_psd_pixels_become_nodata(self, caplog):
        c2 = c2_raster([[1.0, 1.0]], [[1.0, 1.0]], [[0.0, 3.0]], [[0.0, 0.0]])
        with caplog.at_level("WARNING"):
            out = dprvi_raster(c2)
        assert out.values[0, 0] == pytest.approx(1.0, rel=1e-6)
        assert math.isnan(out.values[0, 1])
        assert any("1" in rec.message for rec in caplog.records)

    def test_matches_scalar_path(self):
        rng = np.random.default_rng(70)
        c11, c22, re, im = random_psd(rng, 400)
        c2 = c2_raster(c11.reshape(20, 20), c22.reshape(20, 20),
                       re.reshape(20, 20), im.reshape(20, 20))
        out = dprvi_raster(c2)
        for i in range(0, 400, 7):
            pair = eigen_decompose(*(float(b.flat[i]) for b in c2.values))
            want = dprvi_from_eigen(pair)
            assert out.values.flat[i] == pytest.approx(want, rel=1e-6, abs=1e-7)


def not_psd_reference(c11, c22, re, im):
    det = c11 * c22 - (re ** 2 + im ** 2)
    return (c11 < 0) | (c22 < 0) | (det < -PSD_TOL * (0.5 * (c11 + c22)) ** 2)


def eigen_reference(c11, c22, re, im):
    """Whole-array eigenvalues (l1, l2, finite) of float64 arrays."""
    trace = c11 + c22
    off_sq = re ** 2 + im ** 2
    det = c11 * c22 - off_sq
    finite = np.isfinite(c11) & np.isfinite(c22) & np.isfinite(off_sq)
    spread = np.sqrt((c11 - c22) ** 2 + 4.0 * off_sq)
    l1 = 0.5 * (trace + spread)
    with np.errstate(invalid="ignore", divide="ignore"):
        l2 = np.where(l1 > 0, np.maximum(det, 0.0) / np.where(l1 > 0, l1, 1.0), 0.0)
        l2 = np.where(l2 < RANK1_TOL * l1, 0.0, l2)
        l1 = np.where(finite, l1, np.nan)
        l2 = np.where(finite, l2, np.nan)
    return l1, l2, finite


def dprvi_reference(c2):
    """The whole-raster index: (values, count of non-PSD pixels)."""
    c11, c22, re, im = c2.values.astype(np.float64)
    bad = not_psd_reference(c11, c22, re, im)
    l1, l2, finite = eigen_reference(c11, c22, re, im)
    bad &= finite
    with np.errstate(invalid="ignore", divide="ignore"):
        index = 1.0 - (l1 - l2) / (l1 + l2) * (l1 / (l1 + l2))
    index = np.where((l1 + l2 > 0) & ~bad, index, np.nan)
    return index.astype(np.float32), int(bad.sum())


def blocked_c2(rng, h, w):
    """random_c2 with NaN pixels, non-PSD pixels, negative powers, zero
    matrices, exact rank-one and in-tolerance negative determinants."""
    c2 = random_c2(rng, h, w)
    c11, c22, re, im = c2.values.reshape(4, -1)
    n = h * w
    for i, k in enumerate(rng.choice(n, size=max(5, n // 10), replace=False)):
        kind = i % 5
        power = float(c11[k]) if math.isfinite(c11[k]) else 1.0
        if kind == 0:    # |c12|^2 > c11 * c22
            re[k] = 3.0 * power
            c22[k] = power
        elif kind == 1:  # negative power
            c11[k] = -power
        elif kind == 2:  # zero matrix
            c2.values.reshape(4, -1)[:, k] = 0.0
        elif kind == 3:  # rank one, or a hair past it
            c22[k] = power
            re[k] = power * float(rng.choice([1.0, 1.0 + 1e-7]))
            im[k] = 0.0
        else:
            c11[k] = np.nan
    return c2


def four_band_valid(c2):
    """Pixels whose four bands are all finite, one band at a time."""
    c11, c22, re, im = c2.values
    return np.isfinite(c11) & np.isfinite(c22) & np.isfinite(re) & np.isfinite(im)


def multilook_reference(c2, win_x, win_y):
    """The per-band multilook: one whole-scene float64 copy and one
    reshape-sum per band, each band's means cast once to float32."""
    hh, ww = c2.spec.height // win_y, c2.spec.width // win_x

    def block_sums(a):
        return a[:hh * win_y, :ww * win_x].reshape(hh, win_y, ww, win_x).sum(axis=(1, 3))

    valid = four_band_valid(c2)
    counts = block_sums(valid)
    out = []
    for band in c2.values:
        sums = block_sums(np.where(valid, band.astype(np.float64), 0.0))
        mean = np.full(sums.shape, np.nan)
        np.divide(sums, counts, out=mean, where=counts > 0)
        out.append(mean.astype(np.float32))
    return out


def boxcar_reference(c2, win):
    """The per-band, whole-scene summed-area boxcar: float64 tables padded
    by np.pad, one division per band, cast once to float32."""
    valid = four_band_valid(c2)
    h, w = valid.shape

    def window_sums(a):
        table = np.zeros((h + 1, w + 1), dtype=a.dtype)
        table[1:, 1:] = a.cumsum(axis=0).cumsum(axis=1)
        t = np.pad(table, win // 2, mode="edge")
        return (t[win:win + h, win:win + w] - t[:h, win:win + w]
                - t[win:win + h, :w] + t[:h, :w])

    counts = window_sums(valid.astype(np.int64))
    out = []
    for band in c2.values:
        sums = window_sums(np.where(valid, band.astype(np.float64), 0.0))
        mean = np.full((h, w), np.nan)
        np.divide(sums, counts, out=mean, where=counts > 0)
        out.append(mean.astype(np.float32))
    return out


class TestBlockedKernels:

    def test_row_blocks_cover_the_rows_in_order(self, block_shape):
        h, w = block_shape
        blocks = list(row_blocks(h, w))
        assert [r for rows in blocks for r in range(h)[rows]] == list(range(h))
        assert all((rows.stop - rows.start) * w <= max(raster.BLOCK_PX, w) for rows in blocks)

    def test_dprvi_raster_is_byte_equal_to_whole_raster(self, block_shape, caplog):
        h, w = block_shape
        c2 = blocked_c2(np.random.default_rng(h * 1000 + w), h, w)
        want, n_bad = dprvi_reference(c2)
        with caplog.at_level("WARNING"):
            got = dprvi_raster(c2)
        assert got.values.tobytes() == want.tobytes()
        assert n_bad > 0
        counts = [int(re.match(r"(\d+) pixels", r.getMessage()).group(1))
                  for r in caplog.records if r.levelname == "WARNING"]
        assert counts == [n_bad]

    @pytest.mark.parametrize("win", [3, 7])
    def test_boxcar_is_byte_equal_to_whole_raster(self, block_shape, win):
        h, w = block_shape
        c2 = blocked_c2(np.random.default_rng(h * 1000 + w + 2), h, w)
        assert not valid_mask(c2.values).all()
        want = boxcar_reference(c2, win)
        got = boxcar_filter(c2, win)
        for k, name in enumerate(C2_BAND_NAMES):
            assert got.values[k].tobytes() == want[k].tobytes(), name

    def test_multilook_is_byte_equal_to_per_band(self, block_shape):
        h, w = block_shape
        c2 = blocked_c2(np.random.default_rng(h * 1000 + w + 3), h, w)
        assert not valid_mask(c2.values).all()
        for wx, wy in ((1, 1), (2, 1), (1, 2), (3, 2), (4, 4)):
            if wx > w or wy > h:
                continue
            want = multilook_reference(c2, wx, wy)
            got = multilook(c2, wx, wy)
            assert got.values.shape == (4, h // wy, w // wx)
            for k, name in enumerate(C2_BAND_NAMES):
                assert got.values[k].tobytes() == want[k].tobytes(), (wx, wy, name)

    def test_load_c2_is_byte_equal_to_whole_raster(self, block_shape, tmp_path, caplog):
        h, w = block_shape
        c2 = blocked_c2(np.random.default_rng(h * 1000 + w + 1), h, w)
        save_c2(c2, tmp_path / "c2_blocks")
        want = load_bundle(tmp_path / "c2_blocks").values
        valid = np.isfinite(want).all(axis=0)
        bad = valid & not_psd_reference(*want.astype(np.float64))
        want[:, bad] = np.nan
        with caplog.at_level("WARNING"):
            got = load_c2(tmp_path / "c2_blocks")
        for k, name in enumerate(C2_BAND_NAMES):
            assert got.values[k].tobytes() == want[k].tobytes(), name
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert f" {int(bad.sum())} of {int(valid.sum())} valid pixels" in warnings[0]

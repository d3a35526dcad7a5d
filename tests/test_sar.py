"""Covariance eigen path, radar index forms, multilook and speckle filter."""

import datetime as dt
import math

import numpy as np
import pytest

from vinesar.raster import GridSpec, Orbit
from vinesar.sar import (DPRVI_BAND_NAME, C2Raster, CovarianceError, EigenPair,
                         boxcar_filter, dp_params, dprvi_from_eigen, dprvi_grd,
                         dprvi_raster, eigen_decompose, load_c2, multilook,
                         save_c2)


def grid(w, h):
    return GridSpec(width=w, height=h, origin_x=0.0, origin_y=0.0,
                    pixel_size_x=10.0, pixel_size_y=-10.0, crs="EPSG:32632")


def c2_raster(c11, c22, re, im, **kw):
    c11 = np.asarray(c11, dtype=np.float32)
    h, w = c11.shape
    return C2Raster(spec=grid(w, h), c11=c11,
                    c22=np.asarray(c22, dtype=np.float32),
                    c12_re=np.asarray(re, dtype=np.float32),
                    c12_im=np.asarray(im, dtype=np.float32), **kw)


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


class TestC2Raster:
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
        assert back.c11.tobytes() == c2.c11.tobytes()
        assert back.c22.tobytes() == c2.c22.tobytes()
        assert back.c12_re.tobytes() == c2.c12_re.tobytes()
        assert back.c12_im.tobytes() == c2.c12_im.tobytes()

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
        for name in ("c11", "c22", "c12_re", "c12_im"):
            band = getattr(back, name)
            assert math.isnan(band[1, 2])
            assert band[good].tobytes() == getattr(c2, name)[good].tobytes()
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert " 1 of 12 valid pixels" in warnings[0].getMessage()

    def test_valid_mask_requires_all_bands(self):
        c2 = c2_raster([[1.0, math.nan]], [[1.0, 1.0]], [[0.0, 0.0]], [[0.0, 0.0]])
        assert c2.valid_mask().tolist() == [[True, False]]


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
            c2.c11[kill] = np.nan
            out = multilook(c2, wx, wy)
            assert out.spec.width == w // wx and out.spec.height == h // wy
            assert out.spec.pixel_size_x == pytest.approx(10.0 * wx)
            assert out.spec.pixel_size_y == pytest.approx(-10.0 * wy)
            for row in range(h // wy):
                for col in range(w // wx):
                    blk = np.s_[row * wy:(row + 1) * wy, col * wx:(col + 1) * wx]
                    vals = np.asarray(c2.c11[blk], dtype=np.float64)
                    ok = ~kill[blk]
                    if ok.any():
                        assert out.c11[row, col] == pytest.approx(
                            float(np.mean(vals[ok])), rel=1e-6)
                    else:
                        assert math.isnan(out.c11[row, col])

    def test_bands_with_different_nodata_pixels(self):
        # each band loses its own pixels; a block averages only the pixels
        # valid in all four, the same ones for every band
        rng = np.random.default_rng(51)
        c2 = random_c2(rng, 12, 9, nodata=0.4)
        for wx, wy in ((1, 1), (3, 2), (2, 4), (9, 12)):
            out = multilook(c2, wx, wy)
            valid = c2.valid_mask()
            for row in range(12 // wy):
                for col in range(9 // wx):
                    blk = np.s_[row * wy:(row + 1) * wy, col * wx:(col + 1) * wx]
                    ok = valid[blk]
                    for name in BANDS:
                        got = getattr(out, name)[row, col]
                        if not ok.any():
                            assert math.isnan(got)
                            continue
                        vals = np.asarray(getattr(c2, name)[blk], dtype=np.float64)[ok]
                        # float32 rounding of a float64 mean summed in another order
                        assert got == pytest.approx(np.mean(vals), rel=1e-6,
                                                    abs=1e-12 * np.abs(vals).max())

    def test_joint_validity(self):
        # NaN in one band invalidates the pixel for every band's mean
        c2 = c2_raster([[1.0, 3.0]], [[1.0, math.nan]], [[0.0, 0.0]], [[0.0, 0.0]])
        out = multilook(c2, 2, 1)
        assert out.c11[0, 0] == np.float32(1.0)

    def test_origin_preserved_and_frozen_value(self):
        c2 = c2_raster([[1.0, 2.0], [3.0, 4.0]], np.full((2, 2), 1.0),
                       np.zeros((2, 2)), np.zeros((2, 2)))
        out = multilook(c2, 2, 2)
        assert out.c11[0, 0] == np.float32(2.5)
        assert out.spec.origin_x == 0.0 and out.spec.origin_y == 0.0

    def test_rejects_bad_windows(self):
        c2 = c2_raster([[1.0]], [[1.0]], [[0.0]], [[0.0]])
        with pytest.raises(ValueError):
            multilook(c2, 0, 1)
        with pytest.raises(ValueError):
            multilook(c2, 2, 1)  # wider than the raster


BANDS = ("c11", "c22", "c12_re", "c12_im")


def random_c2(rng, h, w, nodata=0.15):
    """Random PSD raster with a share of pixels NaN in one random band each."""
    c11, c22, re, im = random_psd(rng, h * w)
    c2 = c2_raster(*(b.reshape(h, w) for b in (c11, c22, re, im)))
    kill = rng.random(size=(h, w)) < nodata
    band = rng.integers(0, 4, size=(h, w))
    for k, name in enumerate(BANDS):
        getattr(c2, name)[kill & (band == k)] = np.nan
    return c2


def boxcar_oracle(c2, win):
    """Per-pixel float64 mean of the valid pixels in each clipped window."""
    h, w = c2.spec.height, c2.spec.width
    r = win // 2
    valid = c2.valid_mask()
    out = {name: np.full((h, w), np.nan) for name in BANDS}
    for row in range(h):
        for col in range(w):
            ys = slice(max(0, row - r), min(h, row + r + 1))
            xs = slice(max(0, col - r), min(w, col + r + 1))
            ok = valid[ys, xs]
            if ok.any():
                for name in BANDS:
                    vals = np.asarray(getattr(c2, name)[ys, xs], dtype=np.float64)
                    out[name][row, col] = np.mean(vals[ok])
    return out


def assert_matches_oracle(got, want):
    for name in BANDS:
        g = getattr(got, name)
        w = want[name]
        assert np.array_equal(np.isnan(g), np.isnan(w)), name
        # float32 output of sums taken through a summed-area table; the
        # off-diagonal bands change sign, so their means can cancel to ~0
        atol = 0.0
        if name.startswith("c12") and np.isfinite(w).any():
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
            c2.c22[rng.random(size=(h, w)) < 0.2] = np.nan
            assert_matches_oracle(boxcar_filter(c2, win), boxcar_oracle(c2, win))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (3, 3)])
    @pytest.mark.parametrize("win", [7, 31])
    def test_window_wider_than_the_raster(self, shape, win):
        c2 = random_c2(np.random.default_rng(61), *shape, nodata=0.3)
        out = boxcar_filter(c2, win)
        assert_matches_oracle(out, boxcar_oracle(c2, win))
        if max(shape) - 1 <= win // 2 and c2.valid_mask().any():
            # every window holds the whole raster: one mean everywhere
            for name in BANDS:
                assert np.all(getattr(out, name) == getattr(out, name)[0, 0])

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
        c2.c12_im[2:9, 3:10] = np.nan  # one band enough to void the pixel
        out = boxcar_filter(c2, 5)
        # a 5x5 window centred inside rows 4..6, cols 5..7 sees only the hole
        for name in BANDS:
            band = getattr(out, name)
            assert np.isnan(band[4:7, 5:8]).all()
            assert np.isfinite(band).sum() == band.size - 9
        assert_matches_oracle(out, boxcar_oracle(c2, 5))

    def test_window_one_is_identity(self):
        c2 = c2_raster([[1.0, 2.0]], [[0.5, 0.5]], [[0.1, 0.1]], [[0.0, 0.0]])
        out = boxcar_filter(c2, 1)
        assert out.c11.tobytes() == c2.c11.tobytes()

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
            pair = eigen_decompose(float(c2.c11.flat[i]), float(c2.c22.flat[i]),
                                   float(c2.c12_re.flat[i]), float(c2.c12_im.flat[i]))
            want = dprvi_from_eigen(pair)
            assert out.values.flat[i] == pytest.approx(want, rel=1e-6, abs=1e-7)

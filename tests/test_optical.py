"""Reflectance screening and the NDVI / SVHI / LAI products."""

import datetime as dt
import math

import numpy as np
import pytest

from conftest import save_with_nodata
from vinesar.optical import (BAND_NAMES, LAI_BAND_NAME, NDVI_BAND_NAME,
                             SVHI_BAND_NAME, BandSet, bandset_from_bundle,
                             ingest_lai, ndvi, svhi)
from vinesar.raster import AlignmentError, GridSpec, Raster, save_bundle


def grid(w=2, h=2):
    return GridSpec(width=w, height=h, origin_x=0.0, origin_y=0.0,
                    pixel_size_x=10.0, pixel_size_y=-10.0, crs="EPSG:32632")


def reflect(vals, name):
    return Raster(grid(*np.shape(vals)[::-1]),
                  np.asarray(vals, dtype=np.float32), band_name=name)


def bandset(b4, b5, b8, b11, b12, ts=dt.date(2023, 5, 26)):
    return BandSet(b4=reflect(b4, "B4"), b5=reflect(b5, "B5"),
                   b8=reflect(b8, "B8"), b11=reflect(b11, "B11"),
                   b12=reflect(b12, "B12"), timestamp=ts)


class TestBandSet:
    def test_rejects_misaligned_bands(self):
        good = reflect([[0.1, 0.2]], "B4")
        off = Raster(GridSpec(2, 1, 5.0, 0.0, 10.0, -10.0, "EPSG:32632"),
                     np.full((1, 2), 0.1, dtype=np.float32), band_name="B8")
        with pytest.raises(AlignmentError):
            BandSet(b4=good, b5=good, b8=off, b11=good, b12=good)

    def test_screens_out_of_range_reflectance(self, caplog):
        with caplog.at_level("WARNING"):
            bs = bandset([[0.2, 1.3]], [[0.2, 0.2]], [[0.5, -0.01]],
                         [[0.1, 0.1]], [[0.1, 0.1]])
        # 1.3 > 1.2 and -0.01 < 0 both become nodata
        assert math.isnan(bs.b4.values[0, 1])
        assert math.isnan(bs.b8.values[0, 1])
        assert bs.b4.values[0, 0] == np.float32(0.2)
        assert [r.getMessage() for r in caplog.records] == [
            "B4: 1 reflectance samples outside [0, 1.2] set to nodata",
            "B8: 1 reflectance samples outside [0, 1.2] set to nodata"]

    def test_out_of_range_warning_names_its_acquisition(self, tmp_path, caplog):
        for day, b4 in ((dt.date(2023, 5, 26), 0.2), (dt.date(2023, 6, 1), 1.3)):
            bands = [(n, np.full((1, 2), 0.2, dtype=np.float32)) for n in BAND_NAMES]
            bands[0][1][0, 1] = b4
            save_bundle(tmp_path / f"bands_{day}", grid(2, 1), bands, timestamp=day)
        with caplog.at_level("WARNING"):
            for day in ("2023-05-26", "2023-06-01"):
                bandset_from_bundle(tmp_path / f"bands_{day}")
        assert [r.getMessage() for r in caplog.records] == [
            "2023-06-01: B4: 1 reflectance samples outside [0, 1.2] set to nodata"]

    def test_boundary_values_survive(self):
        bs = bandset([[0.0, 1.2]], [[0.3, 0.3]], [[0.5, 0.5]],
                     [[0.1, 0.1]], [[0.1, 0.1]])
        assert bs.b4.values[0, 0] == 0.0
        assert bs.b4.values[0, 1] == np.float32(1.2)

    def test_from_bundle(self, tmp_path):
        g = grid(3, 2)
        rng = np.random.default_rng(9)
        bands = [(n, rng.uniform(0.01, 0.9, size=(2, 3)).astype(np.float32))
                 for n in BAND_NAMES]
        save_bundle(tmp_path / "bands_20230625", g, bands,
                    timestamp=dt.date(2023, 6, 25))
        bs = bandset_from_bundle(tmp_path / "bands_20230625")
        assert bs.timestamp == dt.date(2023, 6, 25)
        assert bs.b11.values.tobytes() == bands[3][1].tobytes()

    def test_header_sentinel_is_nodata(self, tmp_path, caplog):
        bands = [(n, np.full((1, 2), 0.2, dtype=np.float32)) for n in BAND_NAMES]
        bands[0][1][0, 0] = -9999.0  # B4
        save_with_nodata(tmp_path / "bands_s", grid(2, 1), bands, -9999.0)
        with caplog.at_level("WARNING"):
            out = ndvi(bandset_from_bundle(tmp_path / "bands_s"))
        assert math.isnan(out.values[0, 0]) and out.values[0, 1] == 0.0
        # nodata, not an out-of-range reflectance sample
        assert not caplog.records

    def test_from_bundle_requires_all_bands(self, tmp_path):
        g = grid()
        z = np.full((2, 2), 0.2, dtype=np.float32)
        save_bundle(tmp_path / "partial", g, [("B4", z), ("B8", z)])
        with pytest.raises(ValueError, match="B5"):
            bandset_from_bundle(tmp_path / "partial")


class TestNdvi:
    def test_frozen_value(self):
        bs = bandset([[0.1]], [[0.1]], [[0.4]], [[0.1]], [[0.1]])
        out = ndvi(bs)
        assert out.band_name == NDVI_BAND_NAME
        assert out.timestamp == bs.timestamp
        # (0.4 - 0.1) / (0.4 + 0.1) = 0.6
        assert out.values[0, 0] == pytest.approx(0.6, rel=1e-6)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(21)
        b4 = rng.uniform(0.0, 1.2, size=(6, 7)).astype(np.float32)
        b8 = rng.uniform(0.0, 1.2, size=(6, 7)).astype(np.float32)
        fill = np.full((6, 7), 0.2, dtype=np.float32)
        out = ndvi(bandset(b4, fill, b8, fill, fill))
        want = (b8.astype(np.float64) - b4) / (b8.astype(np.float64) + b4)
        ok = np.isfinite(out.values)
        assert np.allclose(out.values[ok], want[ok], rtol=1e-6)

    def test_zero_denominator_is_nodata(self):
        bs = bandset([[0.0]], [[0.1]], [[0.0]], [[0.1]], [[0.1]])
        assert math.isnan(ndvi(bs).values[0, 0])

    def test_nodata_propagates(self):
        bs = bandset([[1.5, 0.1]], [[0.1, 0.1]], [[0.4, 0.4]],
                     [[0.1, 0.1]], [[0.1, 0.1]])
        out = ndvi(bs)
        assert math.isnan(out.values[0, 0])
        assert np.isfinite(out.values[0, 1])


class TestSvhi:
    def test_frozen_value(self):
        # B8=0.5, S = 0.1+0.15+0.12+0.13 = 0.5
        # (4*0.5 - 0.5) / (4*0.5 + 0.5) = 1.5 / 2.5 = 0.6
        bs = bandset([[0.1]], [[0.15]], [[0.5]], [[0.12]], [[0.13]])
        out = svhi(bs)
        assert out.band_name == SVHI_BAND_NAME
        assert out.values[0, 0] == pytest.approx(0.6, rel=1e-6)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(22)
        arrs = [rng.uniform(0.01, 1.0, size=(5, 5)).astype(np.float32)
                for _ in range(5)]
        b4, b5, b8, b11, b12 = arrs
        out = svhi(bandset(b4, b5, b8, b11, b12))
        s = b4.astype(np.float64) + b5 + b11 + b12
        want = (4.0 * b8 - s) / (4.0 * b8 + s)
        assert np.allclose(out.values, want, rtol=1e-5)

    def test_any_missing_band_invalidates_pixel(self):
        bs = bandset([[0.1, 0.1]], [[0.15, 1.5]], [[0.5, 0.5]],
                     [[0.12, 0.12]], [[0.13, 0.13]])
        out = svhi(bs)
        assert np.isfinite(out.values[0, 0])
        assert math.isnan(out.values[0, 1])

    def test_bounded_by_one_for_physical_input(self):
        rng = np.random.default_rng(23)
        arrs = [rng.uniform(0.0, 1.2, size=400).reshape(20, 20).astype(np.float32)
                for _ in range(5)]
        out = svhi(bandset(*arrs))
        got = out.values[np.isfinite(out.values)]
        assert got.size
        assert np.all(got >= -1.0) and np.all(got <= 1.0)


class TestLai:
    def test_pass_through_and_screening(self, caplog):
        g = grid(2, 2)
        vals = np.array([[0.25, 2.46], [-0.5, 10.5]], dtype=np.float32)
        src = Raster(g, vals, band_name="estimate", timestamp=dt.date(2023, 4, 26))
        with caplog.at_level("WARNING"):
            out = ingest_lai(src)
        assert out.band_name == LAI_BAND_NAME
        assert out.timestamp == dt.date(2023, 4, 26)
        assert out.values[0, 0] == np.float32(0.25)
        assert out.values[0, 1] == np.float32(2.46)
        assert math.isnan(out.values[1, 0])  # negative leaf area
        assert math.isnan(out.values[1, 1])  # above the plausible cap
        assert [r.getMessage() for r in caplog.records] == [
            "2023-04-26: LAI: 2 samples outside [0, 10] set to nodata"]

    def test_bounds_inclusive(self):
        g = grid(2, 1)
        src = Raster(g, np.array([[0.0, 10.0]], dtype=np.float32))
        out = ingest_lai(src)
        assert out.values[0, 0] == 0.0
        assert out.values[0, 1] == np.float32(10.0)


def ratio_reference(num, den, valid):
    """The whole-raster ratio index in float64, cast once to float32."""
    out = np.full(num.shape, np.nan, dtype=np.float64)
    np.divide(num, den, out=out, where=valid & (den != 0))
    return out.astype(np.float32)


class TestBlockedIndices:
    def test_ndvi_and_svhi_are_byte_equal_to_whole_raster(self, block_shape):
        h, w = block_shape
        rng = np.random.default_rng(h * 1000 + w)
        arrs = [rng.uniform(-0.05, 1.25, size=(h, w)).astype(np.float32) for _ in range(5)]
        for a in arrs:
            a[rng.random(size=(h, w)) < 0.1] = np.nan
        zero = rng.random(size=(h, w)) < 0.1  # a zero NDVI denominator
        arrs[0][zero] = arrs[2][zero] = 0.0
        bs = bandset(*arrs)
        b4, b5, b8, b11, b12 = (getattr(bs, n).values.astype(np.float64)
                                for n in ("b4", "b5", "b8", "b11", "b12"))
        valid = {n: np.isfinite(getattr(bs, n).values)
                 for n in ("b4", "b5", "b8", "b11", "b12")}
        want_ndvi = ratio_reference(b8 - b4, b8 + b4, valid["b8"] & valid["b4"])
        absorb = b4 + b5 + b11 + b12
        want_svhi = ratio_reference(4.0 * b8 - absorb, 4.0 * b8 + absorb,
                                    np.logical_and.reduce(list(valid.values())))
        assert ndvi(bs).values.tobytes() == want_ndvi.tobytes()
        assert svhi(bs).values.tobytes() == want_svhi.tobytes()

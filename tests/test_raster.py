"""Grid, bundle IO, resampling and alignment contracts."""

import datetime as dt
import json
import math
import struct

import numpy as np
import pytest

from vinesar.raster import (AlignmentError, BundleError, GridSpec, Orbit,
                            Raster, ResampleMethod, assert_aligned,
                            load_bundle, load_raster, resample, save_bundle,
                            save_raster)


def grid(w=2, h=2, ox=0.0, oy=0.0, px=10.0, py=-10.0, crs="EPSG:32632"):
    return GridSpec(width=w, height=h, origin_x=ox, origin_y=oy,
                    pixel_size_x=px, pixel_size_y=py, crs=crs)


class TestGridSpec:
    def test_alignment_is_field_equality(self):
        assert grid() == grid()
        assert grid() != grid(ox=5.0)
        assert grid() != grid(crs="EPSG:4326")

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            grid(w=0)
        with pytest.raises(ValueError):
            grid(px=0.0)

    def test_pixel_center_convention(self):
        g = grid(w=3, h=2, ox=100.0, oy=50.0, px=10.0, py=-10.0)
        assert g.x_centers().tolist() == [105.0, 115.0, 125.0]
        assert g.y_centers().tolist() == [45.0, 35.0]


class TestBundleIO:
    def test_round_trip_values(self, tmp_path):
        g = grid()
        save_bundle(tmp_path / "t", g, [("x", np.array([[1, 2], [3, 4]], dtype=np.float32))])
        b = load_bundle(tmp_path / "t")
        assert b.spec == g
        assert b.band_names == ["x"]
        assert b.values[0].tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        for k in range(25):
            w, h, nb = rng.integers(1, 9), rng.integers(1, 9), rng.integers(1, 4)
            g = grid(w=int(w), h=int(h), ox=float(rng.normal()), oy=float(rng.normal()))
            bands = []
            for i in range(int(nb)):
                vals = rng.normal(size=(int(h), int(w))).astype(np.float32)
                vals[rng.random(size=vals.shape) < 0.2] = np.nan
                bands.append((f"b{i}", vals))
            ts = dt.date(2023, 3, 28) if k % 2 else None
            orbit = Orbit.ASCENDING if k % 3 == 0 else None
            save_bundle(tmp_path / f"r{k}", g, bands, timestamp=ts, orbit=orbit)
            back = load_bundle(tmp_path / f"r{k}")
            assert back.spec == g
            assert back.timestamp == ts
            assert back.orbit == orbit
            for i, (name, vals) in enumerate(bands):
                assert back.band_names[i] == name
                assert back.values[i].tobytes() == vals.tobytes()

    def test_binary_layout_is_plain_f32le(self, tmp_path):
        g = grid(w=3, h=3)
        save_bundle(tmp_path / "c", g, [("k", np.full((3, 3), 0.5, dtype=np.float32))])
        raw = (tmp_path / "c.bin").read_bytes()
        assert raw == struct.pack("<f", 0.5) * 9

    def test_header_is_json_with_pinned_fields(self, tmp_path):
        g = grid()
        save_bundle(tmp_path / "h", g, [("k", np.zeros((2, 2), dtype=np.float32))],
                    timestamp=dt.date(2023, 8, 20), orbit=Orbit.DESCENDING)
        doc = json.loads((tmp_path / "h.json").read_text())
        assert doc["width"] == 2 and doc["height"] == 2
        assert doc["dtype"] == "f32le"
        assert doc["bands"] == [{"name": "k"}]
        assert doc["nodata"] is None  # null stands for the NaN sentinel
        assert doc["timestamp"] == "2023-08-20"
        assert doc["orbit"] == "DES"

    def test_save_leaves_only_the_bundle(self, tmp_path):
        vals = np.arange(12, dtype=np.float64).reshape(4, 3).T  # not C-contiguous
        save_bundle(tmp_path / "t", grid(w=4, h=3), [("k", vals)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.bin", "t.json"]
        back = load_bundle(tmp_path / "t")
        assert back.values[0].tobytes() == vals.astype("<f4").tobytes()

    def test_failed_save_leaves_no_header(self, tmp_path, monkeypatch):
        from vinesar import raster

        def fail(src, dst):
            raise OSError("disk full")

        z = np.zeros((2, 2), dtype=np.float32)
        monkeypatch.setattr(raster.os, "replace", fail)
        with pytest.raises(OSError):
            save_bundle(tmp_path / "new", grid(), [("k", z)])
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()

        # a failed overwrite keeps the previous bundle whole
        save_bundle(tmp_path / "old", grid(), [("k", z)])
        monkeypatch.setattr(raster.os, "replace", fail)
        with pytest.raises(OSError):
            save_bundle(tmp_path / "old", grid(), [("k", z + 1.0)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.bin", "old.json"]
        assert load_bundle(tmp_path / "old").values[0].tolist() == z.tolist()

    def test_size_mismatch_is_flagged(self, tmp_path):
        g = grid()
        save_bundle(tmp_path / "bad", g, [("k", np.zeros((2, 2), dtype=np.float32))])
        (tmp_path / "bad.bin").write_bytes(b"\x00" * 12)
        with pytest.raises(BundleError):
            load_bundle(tmp_path / "bad")

    def test_missing_files_and_garbage_header(self, tmp_path):
        with pytest.raises(BundleError):
            load_bundle(tmp_path / "nope")
        (tmp_path / "g.json").write_text("{not json")
        (tmp_path / "g.bin").write_bytes(b"")
        with pytest.raises(BundleError):
            load_bundle(tmp_path / "g")

    def test_single_band_helpers(self, tmp_path):
        r = Raster(grid(), np.array([[1, 2], [3, math.nan]], dtype=np.float32),
                   band_name="DpRVI", timestamp=dt.date(2023, 6, 20),
                   orbit=Orbit.DESCENDING)
        save_raster(r, tmp_path / "one")
        back = load_raster(tmp_path / "one")
        assert back.band_name == "DpRVI"
        assert back.timestamp == r.timestamp and back.orbit == r.orbit
        assert np.array_equal(back.values, r.values, equal_nan=True)
        # NaN nodata masks exactly the NaN pixel
        assert back.valid_mask().tolist() == [[True, True], [True, False]]

    def test_load_raster_rejects_multiband(self, tmp_path):
        z = np.zeros((2, 2), dtype=np.float32)
        save_bundle(tmp_path / "multi", grid(), [("a", z), ("b", z)])
        with pytest.raises(BundleError):
            load_raster(tmp_path / "multi")

    def test_non_nan_sentinel(self, tmp_path):
        g = grid()
        vals = np.array([[1.0, -9999.0], [2.0, 3.0]], dtype=np.float32)
        r = Raster(g, vals, band_name="k", nodata=-9999.0)
        assert r.valid_mask().tolist() == [[True, False], [True, True]]
        save_raster(r, tmp_path / "s")
        back = load_raster(tmp_path / "s")
        assert back.nodata == -9999.0
        assert back.valid_mask().tolist() == [[True, False], [True, True]]


class TestAssertAligned:
    def test_accepts_matching_stack(self):
        rs = [Raster(grid(), np.zeros((2, 2), dtype=np.float32), band_name=f"b{i}")
              for i in range(12)]
        assert_aligned(rs)

    def test_names_the_offender(self):
        a = Raster(grid(), np.zeros((2, 2), dtype=np.float32), band_name="good")
        b = Raster(grid(ox=1.0), np.zeros((2, 2), dtype=np.float32), band_name="bad",
                   timestamp=dt.date(2023, 4, 21))
        with pytest.raises(AlignmentError, match="bad"):
            assert_aligned([a, b])


class TestResample:
    def test_nearest_identity_is_bitwise(self):
        rng = np.random.default_rng(11)
        g = grid(w=7, h=5)
        r = Raster(g, rng.normal(size=(5, 7)).astype(np.float32))
        out = resample(r, g, ResampleMethod.NEAREST)
        assert out.values.tobytes() == r.values.tobytes()

    def test_bilinear_midpoint_upsample(self):
        # two 20 m pixels [0, 1]; a 10 m pixel centered midway between the
        # source centers must blend to exactly 0.5
        src = Raster(grid(w=2, h=1, px=20.0, py=-20.0),
                     np.array([[0.0, 1.0]], dtype=np.float32))
        target = grid(w=1, h=1, ox=15.0, oy=0.0, px=10.0, py=-20.0)
        out = resample(src, target, ResampleMethod.BILINEAR)
        assert out.values[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_constant_invariance_both_methods(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w, h = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            src = Raster(grid(w=w, h=h), np.full((h, w), 3.25, dtype=np.float32))
            tw, th = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            target = grid(w=tw, h=th,
                          ox=float(rng.uniform(-5, w * 10 - 5)),
                          oy=float(rng.uniform(5 - h * 10, 5)),
                          px=float(rng.choice([5.0, 10.0, 20.0])),
                          py=-float(rng.choice([5.0, 10.0, 20.0])))
            for method in ResampleMethod:
                out = resample(src, target, method)
                got = out.values[np.isfinite(out.values)]
                assert np.all(got == np.float32(3.25))

    def test_bilinear_never_overshoots(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            w, h = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            vals = rng.normal(size=(h, w)).astype(np.float32)
            src = Raster(grid(w=w, h=h), vals)
            target = grid(w=int(rng.integers(1, 14)), h=int(rng.integers(1, 14)),
                          ox=float(rng.uniform(-15, w * 10)),
                          oy=float(rng.uniform(-h * 10, 15)),
                          px=float(rng.choice([3.0, 7.0, 10.0, 25.0])),
                          py=-float(rng.choice([3.0, 7.0, 10.0, 25.0])))
            try:
                out = resample(src, target, ResampleMethod.BILINEAR)
            except ValueError:
                continue  # disjoint draw
            got = out.values[np.isfinite(out.values)]
            if got.size:
                assert got.min() >= vals.min() - 1e-6
                assert got.max() <= vals.max() + 1e-6

    def test_bilinear_falls_back_to_nearest_beside_nodata(self):
        vals = np.array([[1.0, math.nan], [3.0, 4.0]], dtype=np.float32)
        src = Raster(grid(w=2, h=2), vals)
        # center at (6, -6) is nearest pixel (0, 0) but its 4-neighborhood
        # includes the NaN, so the blend must collapse to the nearest value
        target = GridSpec(1, 1, 1.0, -1.0, 10.0, -10.0, "EPSG:32632")
        out = resample(src, target, ResampleMethod.BILINEAR)
        assert out.values[0, 0] == np.float32(1.0)
        # and when the nearest pixel is itself nodata the output is nodata
        target2 = GridSpec(1, 1, 11.0, -1.0, 8.0, -8.0, "EPSG:32632")
        out2 = resample(src, target2, ResampleMethod.BILINEAR)
        assert math.isnan(out2.values[0, 0])

    def test_outside_extent_is_nodata(self):
        src = Raster(grid(w=2, h=2), np.ones((2, 2), dtype=np.float32))
        target = grid(w=4, h=1, ox=-20.0, oy=-5.0, px=10.0, py=-10.0)
        out = resample(src, target, ResampleMethod.NEAREST)
        assert np.isnan(out.values[0, :2]).all()
        assert np.isfinite(out.values[0, 2:]).all()

    def test_crs_mismatch_and_disjoint_error(self):
        src = Raster(grid(), np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="CRS"):
            resample(src, grid(crs="EPSG:4326"))
        with pytest.raises(ValueError, match="disjoint"):
            resample(src, grid(ox=1000.0))

"""Grid, bundle IO, resampling and alignment contracts."""

import datetime as dt
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vinesar.raster import (AlignmentError, BundleError, GridSpec, Orbit,
                            Raster, ResampleMethod, assert_aligned,
                            load_bundle, load_raster, read_header, resample,
                            save_bundle, save_raster)


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

    def test_read_header_reads_no_payload(self, tmp_path, monkeypatch):
        save_bundle(tmp_path / "h", grid(w=3, h=2), [("k", np.zeros((2, 3)))],
                    timestamp=dt.date(2023, 5, 27), orbit=Orbit.ASCENDING)
        monkeypatch.setattr(np, "fromfile", None)
        head = read_header(tmp_path / "h")
        assert head.spec == grid(w=3, h=2) and head.band_names == ["k"]
        assert (head.timestamp, head.orbit) == (dt.date(2023, 5, 27), Orbit.ASCENDING)
        # the payload size is still checked
        (tmp_path / "h.bin").write_bytes(b"\x00" * 20)
        with pytest.raises(BundleError, match="20 bytes"):
            read_header(tmp_path / "h")

    @pytest.mark.parametrize("width", [2.5, True, "2", None])
    def test_header_width_must_be_an_integer(self, tmp_path, width):
        save_bundle(tmp_path / "h", grid(), [("k", np.zeros((2, 2)))])
        doc = json.loads((tmp_path / "h.json").read_text())
        (tmp_path / "h.json").write_text(json.dumps(dict(doc, width=width)))
        with pytest.raises(BundleError, match="'width' must be an integer"):
            load_bundle(tmp_path / "h")
        (tmp_path / "h.json").write_text(json.dumps(dict(doc, width=2.0)))
        assert load_bundle(tmp_path / "h").spec == grid()

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


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def bundles(draw):
    """Keyword arguments of save_bundle; payload bits drawn as raw uint32, so
    NaNs with any payload, +-inf, -0.0 and subnormals all occur."""
    h, w, nb = (draw(st.integers(1, 6)) for _ in range(3))
    spec = GridSpec(width=w, height=h, origin_x=draw(finite), origin_y=draw(finite),
                    pixel_size_x=draw(finite.filter(bool)),
                    pixel_size_y=draw(finite.filter(bool)), crs=draw(st.text(max_size=12)))
    bits = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=nb * h * w,
                         max_size=nb * h * w))
    values = np.array(bits, dtype=np.uint32).view(np.float32).reshape(nb, h, w)
    names = draw(st.lists(st.text(max_size=8), min_size=nb, max_size=nb))
    return dict(spec=spec, bands=list(zip(names, values)),
                nodata=draw(st.floats(allow_infinity=True, allow_nan=True)),
                timestamp=draw(st.none() | st.dates()),
                orbit=draw(st.none() | st.sampled_from(Orbit)))


def same_nodata(a, b):
    return math.isnan(a) and math.isnan(b) or repr(a) == repr(b)


class TestBundleProperties:
    @settings(max_examples=80, deadline=None)
    @given(bundles())
    def test_round_trip_is_bitwise_exact(self, kw):
        with tempfile.TemporaryDirectory() as d:
            save_bundle(Path(d) / "b", **kw)
            back = load_bundle(Path(d) / "b")
        assert back.spec == kw["spec"]
        assert back.band_names == [name for name, _ in kw["bands"]]
        assert back.values.tobytes() == np.stack([v for _, v in kw["bands"]]).tobytes()
        assert same_nodata(back.nodata, kw["nodata"])
        assert (back.timestamp, back.orbit) == (kw["timestamp"], kw["orbit"])

    @settings(max_examples=40, deadline=None)
    @given(bundles())
    def test_read_header_agrees_with_load_bundle(self, kw):
        with tempfile.TemporaryDirectory() as d:
            save_bundle(Path(d) / "b", **kw)
            head = read_header(Path(d) / "b.json")
            full = load_bundle(Path(d) / "b")
        assert head.spec == full.spec
        assert head.band_names == full.band_names
        assert same_nodata(head.nodata, full.nodata)
        assert (head.timestamp, head.orbit) == (full.timestamp, full.orbit)


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


def resample_oracle(src: Raster, target: GridSpec, method: ResampleMethod) -> np.ndarray:
    """resample one target pixel at a time in scalar arithmetic."""
    s = src.spec

    def value(row, col):
        v = float(src.values[row, col])
        return v if math.isfinite(v) else None

    out = np.full((target.height, target.width), np.nan)
    for tr in range(target.height):
        frow = (target.origin_y + (tr + 0.5) * target.pixel_size_y - s.origin_y) / s.pixel_size_y
        for tc in range(target.width):
            fcol = ((target.origin_x + (tc + 0.5) * target.pixel_size_x - s.origin_x)
                    / s.pixel_size_x)
            row, col = math.floor(frow), math.floor(fcol)
            if not (0 <= row < s.height and 0 <= col < s.width):
                continue
            if method is ResampleMethod.BILINEAR:
                gx = min(max(fcol - 0.5, 0.0), float(s.width - 1))
                gy = min(max(frow - 0.5, 0.0), float(s.height - 1))
                i0, j0 = math.floor(gx), math.floor(gy)
                i1, j1 = min(i0 + 1, s.width - 1), min(j0 + 1, s.height - 1)
                wx, wy = gx - i0, gy - j0
                corners = [value(j0, i0), value(j0, i1), value(j1, i0), value(j1, i1)]
                if None not in corners:
                    v00, v01, v10, v11 = corners
                    out[tr, tc] = ((1 - wy) * ((1 - wx) * v00 + wx * v01)
                                   + wy * ((1 - wx) * v10 + wx * v11))
                    continue
            nearest = value(row, col)
            if nearest is not None:
                out[tr, tc] = nearest
    return out.astype(np.float32)


class TestResampleOracle:
    @pytest.mark.parametrize("method", list(ResampleMethod))
    def test_nan_neighbour_and_target_past_the_source(self, method):
        vals = np.array([[1.0, 2.0, 3.0],
                         [4.0, math.nan, 6.0],
                         [7.0, 8.0, 9.0]], dtype=np.float32)
        src = Raster(grid(w=3, h=3), vals)
        # 4 m pixels from 6 m west and north of the source to 6 m past it
        target = grid(w=10, h=10, ox=-6.0, oy=6.0, px=4.0, py=-4.0)
        out = resample(src, target, method)
        want = resample_oracle(src, target, method)
        np.testing.assert_array_equal(out.values, want)
        # the outer ring of target centers lies past the source
        assert np.isnan(out.values[[0, -1]]).all() and np.isnan(out.values[:, [0, -1]]).all()
        # centers inside the NaN pixel stay nodata under either method
        assert np.isnan(out.values[4:6, 4:6]).all()
        assert np.isfinite(out.values[1:-1, 1:-1]).sum() == 60

    def test_random_grids(self):
        rng = np.random.default_rng(19)
        done = 0
        for _ in range(60):
            w, h = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            vals = rng.normal(size=(h, w)).astype(np.float32)
            vals[rng.random(size=vals.shape) < 0.2] = np.nan
            src = Raster(grid(w=w, h=h, px=10.0, py=float(rng.choice([-10.0, 10.0]))), vals)
            target = grid(w=int(rng.integers(1, 14)), h=int(rng.integers(1, 14)),
                          ox=float(rng.uniform(-25, w * 10)),
                          oy=float(rng.uniform(-h * 10, 25)),
                          px=float(rng.choice([3.0, 7.0, 10.0, 25.0])),
                          py=-float(rng.choice([3.0, 7.0, 10.0, 25.0])))
            for method in ResampleMethod:
                try:
                    out = resample(src, target, method)
                except ValueError:
                    break  # disjoint draw
                np.testing.assert_array_equal(out.values,
                                              resample_oracle(src, target, method))
                done += 1
        assert done > 40

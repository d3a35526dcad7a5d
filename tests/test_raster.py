"""Grid, bundle IO, resampling and alignment contracts."""

import datetime as dt
import json
import math
import struct
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import save_with_nodata
from vinesar.raster import (AlignmentError, Bundle, BundleError, GridSpec, Orbit,
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

    @pytest.mark.parametrize("kw", [dict(w=64, px=3.6317033027521537e306),
                                    dict(h=3, py=-8.98846567431158e307),
                                    dict(w=2, ox=1.7e308, px=1e307)])
    def test_rejects_an_extent_that_overflows(self, kw):
        with pytest.raises(ValueError, match="grid extent overflows"):
            grid(**kw)

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

    def test_bundle_checks_its_shape_and_stores_float32(self):
        g = grid(w=3, h=2)
        b = Bundle(g, ["x", "y"], np.arange(12, dtype=np.float64).reshape(2, 2, 3) / 3)
        assert b.values.dtype == np.float32
        assert b.values.tobytes() == (np.arange(12).reshape(2, 2, 3) / 3).astype(
            np.float32).tobytes()
        for shape in ((3, 2, 3), (2, 3, 2), (2, 6), (2, 2, 3, 1)):
            with pytest.raises(ValueError, match="does not match 2 bands on grid 2x3"):
                Bundle(g, ["x", "y"], np.zeros(shape, dtype=np.float32))

    def test_save_leaves_only_the_bundle(self, tmp_path):
        vals = np.arange(12, dtype=np.float64).reshape(4, 3).T  # not C-contiguous
        save_bundle(tmp_path / "t", grid(w=4, h=3), [("k", vals)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.bin", "t.json"]
        back = load_bundle(tmp_path / "t")
        assert back.values[0].tobytes() == vals.astype("<f4").tobytes()

    def test_failed_save_leaves_no_header(self, tmp_path, monkeypatch):
        from vinesar import tables

        def fail(src, dst):
            raise OSError("disk full")

        z = np.zeros((2, 2), dtype=np.float32)
        monkeypatch.setattr(tables.os, "replace", fail)
        with pytest.raises(OSError):
            save_bundle(tmp_path / "new", grid(), [("k", z)])
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()

        # a failed overwrite keeps the previous bundle whole
        save_bundle(tmp_path / "old", grid(), [("k", z)])
        monkeypatch.setattr(tables.os, "replace", fail)
        with pytest.raises(OSError):
            save_bundle(tmp_path / "old", grid(), [("k", z + 1.0)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.bin", "old.json"]
        assert load_bundle(tmp_path / "old").values[0].tolist() == z.tolist()

    def test_failed_header_rename_leaves_no_header(self, tmp_path, monkeypatch):
        # an overwrite whose payload is renamed but whose header is not: the
        # old header must not describe the new payload
        from vinesar import tables

        z = np.zeros((2, 2), dtype=np.float32)
        save_bundle(tmp_path / "b", grid(), [("k", z)], timestamp=dt.date(2023, 3, 28))
        replace, calls = tables.os.replace, []

        def fail_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(tables.os, "replace", fail_second)
        with pytest.raises(OSError):
            save_bundle(tmp_path / "b", grid(), [("k", z + 1.0)],
                        timestamp=dt.date(2023, 6, 1))
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.bin"]
        with pytest.raises(BundleError, match="missing header"):
            load_bundle(tmp_path / "b")

    def test_threads_saving_one_bundle_never_share_a_temporary(self, tmp_path):
        g = grid(4, 3)
        values = [np.full((3, 4), k, dtype=np.float32) for k in range(8)]
        errors = []

        def save(k):
            try:
                for _ in range(25):
                    save_bundle(tmp_path / "shared", g, [("v", values[k])])
            except Exception as e:  # reported by the assertion below
                errors.append(e)

        threads = [threading.Thread(target=save, args=(k,)) for k in range(len(values))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # the bundle is whole: one writer's payload, and no temporary left
        got = load_bundle(tmp_path / "shared").values[0]
        assert any(np.array_equal(got, v) for v in values)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["shared.bin", "shared.json"]

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

    @pytest.mark.parametrize("key, value", [
        ("bands", ["k"]), ("bands", {"name": "k"}), ("pixel_size_x", [10.0]),
        ("nodata", [0.0]), ("timestamp", 20230527), ("origin_x", math.nan),
        ("pixel_size_x", math.inf), ("crs", 5), ("origin_x", "a"),
        ("timestamp", "2023-13-01"),
        pytest.param("timestamp", "20230527", id="timestamp-compact-date"),
        pytest.param("timestamp", "2023-W21-6", id="timestamp-week-date"),
        pytest.param("bands", [{"name": n} for n in ("B4", "B4", "B5", "B8", "B11", "B12")],
                     id="bands-repeated-name")])
    def test_wrong_typed_header_field_names_the_header(self, tmp_path, key, value):
        save_bundle(tmp_path / "h", grid(), [("k", np.zeros((2, 2)))],
                    timestamp=dt.date(2023, 5, 27))
        doc = json.loads((tmp_path / "h.json").read_text())
        (tmp_path / "h.json").write_text(json.dumps(dict(doc, **{key: value})))
        with pytest.raises(BundleError) as err:
            read_header(tmp_path / "h")
        assert str(tmp_path / "h.json") in str(err.value)
        assert key in str(err.value)

    @pytest.mark.parametrize("kw", [
        pytest.param(dict(bands=[("a", np.zeros((2, 2))), ("a", np.ones((2, 2)))]),
                     id="repeated-band-name"),
        pytest.param(dict(bands=[]), id="no-band"),
        pytest.param(dict(spec=grid(ox=math.nan)), id="nan-origin"),
        pytest.param(dict(spec=grid(oy=-math.inf)), id="infinite-origin"),
        pytest.param(dict(timestamp=dt.datetime(2023, 3, 28)), id="datetime-timestamp"),
        pytest.param(dict(spec=grid(crs=32632)), id="integer-crs")])
    def test_save_refuses_what_read_header_refuses(self, tmp_path, kw):
        kw = {"spec": grid(), "bands": [("k", np.zeros((2, 2)))], **kw}
        with pytest.raises(BundleError) as err:
            save_bundle(tmp_path / "h", **kw)
        assert str(tmp_path / "h.json") in str(err.value)
        assert list(tmp_path.iterdir()) == []

    def test_single_band_helpers(self, tmp_path):
        r = Raster(grid(), np.array([[1, 2], [3, math.nan]], dtype=np.float32),
                   band_name="DpRVI", timestamp=dt.date(2023, 6, 20),
                   orbit=Orbit.DESCENDING)
        save_raster(r, tmp_path / "one")
        back = load_raster(tmp_path / "one")
        assert back.band_name == "DpRVI"
        assert back.timestamp == r.timestamp and back.orbit == r.orbit
        assert np.array_equal(back.values, r.values, equal_nan=True)
        # NaN marks exactly the nodata pixel
        assert np.isfinite(back.values).tolist() == [[True, True], [True, False]]

    def test_load_raster_rejects_multiband(self, tmp_path):
        z = np.zeros((2, 2), dtype=np.float32)
        save_bundle(tmp_path / "multi", grid(), [("a", z), ("b", z)])
        with pytest.raises(BundleError):
            load_raster(tmp_path / "multi")

    def test_non_nan_sentinel(self, tmp_path):
        vals = np.array([[1.0, -9999.0], [2.0, 3.0]], dtype=np.float32)
        save_with_nodata(tmp_path / "s", grid(), [("k", vals)], -9999.0)
        assert read_header(tmp_path / "s").nodata == -9999.0
        back = load_raster(tmp_path / "s")
        assert np.isfinite(back.values).tolist() == [[True, False], [True, True]]
        # written back, the sentinel pixel is NaN and the header's nodata null
        save_raster(back, tmp_path / "w")
        assert json.loads((tmp_path / "w.json").read_text())["nodata"] is None
        assert load_raster(tmp_path / "w").values.tobytes() == back.values.tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False)


def drawn_grid(**fields) -> GridSpec:
    """The GridSpec of drawn ``fields``; a draw whose extent overflows is
    no grid, and hypothesis discards it."""
    try:
        return GridSpec(**fields)
    except ValueError:
        reject()


@st.composite
def bundles(draw):
    """Keyword arguments of save_bundle; payload bits drawn as raw uint32, so
    NaNs with any payload, +-inf, -0.0 and subnormals all occur. Band names
    are distinct, as read_header requires."""
    h, w, nb = (draw(st.integers(1, 6)) for _ in range(3))
    spec = drawn_grid(width=w, height=h, origin_x=draw(finite), origin_y=draw(finite),
                      pixel_size_x=draw(finite.filter(bool)),
                      pixel_size_y=draw(finite.filter(bool)), crs=draw(st.text(max_size=12)))
    bits = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=nb * h * w,
                         max_size=nb * h * w))
    values = np.array(bits, dtype=np.uint32).view(np.float32).reshape(nb, h, w)
    names = draw(st.lists(st.text(max_size=8), min_size=nb, max_size=nb, unique=True))
    return dict(spec=spec, bands=list(zip(names, values)),
                timestamp=draw(st.none() | st.dates()),
                orbit=draw(st.none() | st.sampled_from(Orbit)))


@st.composite
def header_fields(draw):
    """Keyword arguments of save_bundle whose header fields read_header may
    refuse: band names that repeat or none at all, an origin that is NaN or
    +-inf, a timestamp that is a date or a datetime, a crs that is a str or
    an int."""
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    spec = drawn_grid(width=w, height=h, origin_x=draw(st.floats()),
                      origin_y=draw(st.floats()), pixel_size_x=draw(finite.filter(bool)),
                      pixel_size_y=draw(finite.filter(bool)),
                      crs=draw(st.sampled_from(["EPSG:32632", "", 32632])))
    names = draw(st.lists(st.sampled_from(["a", "b", "c", ""]), max_size=3))
    bits = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=len(names) * h * w,
                         max_size=len(names) * h * w))
    values = np.array(bits, dtype=np.uint32).view(np.float32).reshape(len(names), h, w)
    return dict(spec=spec, bands=list(zip(names, values)),
                timestamp=draw(st.none() | st.dates() | st.datetimes()),
                orbit=draw(st.none() | st.sampled_from(Orbit)))


class TestBundleProperties:
    @settings(max_examples=80)
    @given(bundles())
    def test_round_trip_is_bitwise_exact(self, kw):
        with tempfile.TemporaryDirectory() as d:
            save_bundle(Path(d) / "b", **kw)
            nodata = read_header(Path(d) / "b").nodata
            back = load_bundle(Path(d) / "b")
        assert math.isnan(nodata)  # vinesar writes null
        assert back.spec == kw["spec"]
        assert back.band_names == [name for name, _ in kw["bands"]]
        assert back.values.tobytes() == np.stack([v for _, v in kw["bands"]]).tobytes()
        assert (back.timestamp, back.orbit) == (kw["timestamp"], kw["orbit"])

    @settings(max_examples=80)
    @given(bundles(), st.floats() | st.integers(-2 ** 53, 2 ** 53), st.data())
    def test_header_sentinel_loads_as_nan(self, kw, sentinel, data):
        """A hand-written header's numeric nodata: NaN exactly where the
        payload equals float32(sentinel), every other bit unchanged."""
        values = np.stack([v for _, v in kw["bands"]])
        with np.errstate(over="ignore"):
            s32 = np.float32(sentinel)
        # plant the sentinel at some pixels, as -0.0 for some zero sentinels
        at = data.draw(st.lists(st.booleans(), min_size=values.size, max_size=values.size))
        values[np.reshape(at, values.shape)] = (
            -s32 if s32 == 0 and data.draw(st.booleans()) else s32)
        names = [name for name, _ in kw["bands"]]
        with tempfile.TemporaryDirectory() as d:
            save_with_nodata(Path(d) / "b", kw["spec"], list(zip(names, values)), sentinel)
            nodata = read_header(Path(d) / "b").nodata
            back = load_bundle(Path(d) / "b")
        if math.isnan(sentinel):
            assert math.isnan(nodata)
        else:
            assert repr(nodata) == repr(float(sentinel))
        hit = values == s32
        assert np.array_equal(np.isnan(back.values), hit | np.isnan(values))
        assert back.values[~hit].tobytes() == values[~hit].tobytes()

    @settings(max_examples=40)
    @given(bundles())
    def test_read_header_agrees_with_load_bundle(self, kw):
        with tempfile.TemporaryDirectory() as d:
            save_bundle(Path(d) / "b", **kw)
            head = read_header(Path(d) / "b.json")
            full = load_bundle(Path(d) / "b")
        assert head.spec == full.spec
        assert head.band_names == full.band_names
        assert (head.timestamp, head.orbit) == (full.timestamp, full.orbit)

    @settings(max_examples=150)
    @given(header_fields())
    def test_save_refuses_exactly_what_read_header_refuses(self, kw):
        spec, names = kw["spec"], [name for name, _ in kw["bands"]]
        values = np.array([v for _, v in kw["bands"]], dtype="<f4").reshape(
            len(names), spec.height, spec.width)
        doc = {"width": spec.width, "height": spec.height, "origin_x": spec.origin_x,
               "origin_y": spec.origin_y, "pixel_size_x": spec.pixel_size_x,
               "pixel_size_y": spec.pixel_size_y, "crs": spec.crs,
               "bands": [{"name": n} for n in names], "dtype": "f32le", "nodata": None}
        if kw["timestamp"] is not None:
            doc["timestamp"] = kw["timestamp"].isoformat()
        if kw["orbit"] is not None:
            doc["orbit"] = kw["orbit"].value
        with tempfile.TemporaryDirectory() as d:
            (Path(d) / "b.json").write_text(json.dumps(doc))
            (Path(d) / "b.bin").write_bytes(values.tobytes())
            try:
                read_header(Path(d) / "b")
                refused = False
            except BundleError:
                refused = True
        with tempfile.TemporaryDirectory() as d:
            if refused:
                with pytest.raises(BundleError):
                    save_bundle(Path(d) / "b", **kw)
                assert list(Path(d).iterdir()) == []
                return
            save_bundle(Path(d) / "b", **kw)
            back = load_bundle(Path(d) / "b")
        assert back.spec == spec and back.band_names == names
        assert back.values.tobytes() == values.tobytes()
        assert (back.timestamp, back.orbit) == (kw["timestamp"], kw["orbit"])


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

    def test_header_sentinel_is_nodata(self, tmp_path):
        vals = np.array([[1.0, -9999.0], [3.0, 4.0]], dtype=np.float32)
        save_with_nodata(tmp_path / "s", grid(w=2, h=2), [("k", vals)], -9999.0)
        src = load_raster(tmp_path / "s")
        # the blend beside the sentinel falls back to the nearest value
        target = GridSpec(1, 1, 1.0, -1.0, 10.0, -10.0, "EPSG:32632")
        assert resample(src, target, ResampleMethod.BILINEAR).values[0, 0] == np.float32(1.0)
        # and the sentinel's own pixel resamples to nodata
        for method in ResampleMethod:
            assert math.isnan(resample(src, grid(w=2, h=2), method).values[0, 1])

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


class TestBlockedResample:
    @pytest.mark.parametrize("method", list(ResampleMethod))
    def test_byte_equal_to_the_per_pixel_oracle(self, block_shape, method):
        # the target has the case's shape; the source has half the
        # resolution, NaN pixels, and ends a few target pixels early
        h, w = block_shape
        rng = np.random.default_rng(h * 1000 + w)
        sh, sw = max(1, (h - 2) // 2), max(1, (w - 2) // 2)
        vals = rng.normal(size=(sh, sw)).astype(np.float32)
        vals[rng.random(size=vals.shape) < 0.15] = np.nan
        src = Raster(grid(w=sw, h=sh, px=20.0, py=-20.0), vals)
        target = grid(w=w, h=h, ox=-5.0, oy=5.0)
        got = resample(src, target, method).values
        assert got.tobytes() == resample_oracle(src, target, method).tobytes()

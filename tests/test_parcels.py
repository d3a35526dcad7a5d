"""Parcel loading, rasterization, erosion and zonal statistics."""

import datetime as dt
import json
import math

import numpy as np
import pytest

from vinesar import parcels
from vinesar.parcels import (EmptyStatsError, Orientation, Parcel, ParcelMask,
                             ZonalStats, erode, load_parcels, rasterize,
                             read_zonal_csv, write_zonal_csv, zonal_stats)
from vinesar.raster import AlignmentError, GridSpec, Orbit, Raster


def grid(w=10, h=10, ox=0.0, oy=0.0, px=1.0, py=-1.0):
    return GridSpec(width=w, height=h, origin_x=ox, origin_y=oy,
                    pixel_size_x=px, pixel_size_y=py, crs="EPSG:32632")


def pmask(arr, g=None, pid="m"):
    arr = np.asarray(arr, dtype=bool)
    if g is None:
        g = grid(arr.shape[1], arr.shape[0])
    return ParcelMask(parcel_id=pid, spec=g, mask=arr)


def ring(*pts):
    pts = list(pts)
    if pts[0] != pts[-1]:
        pts.append(pts[0])
    return [list(p) for p in pts]


def feature(pid, rings, orientation=None):
    props = {"id": pid}
    if orientation is not None:
        props["orientation"] = orientation
    return {"type": "Feature", "properties": props,
            "geometry": {"type": "Polygon", "coordinates": rings}}


def collection(*features):
    return {"type": "FeatureCollection", "features": list(features)}


def write_geojson(path, doc):
    path.write_text(json.dumps(doc))
    return path


def point_in_rings_oracle(x, y, rings):
    """Even-odd rule, scalar loop, counting all rings together."""
    inside = False
    for r in rings:
        n = len(r) - 1  # closing vertex repeats the first
        j = n - 1
        for i in range(n):
            xi, yi = r[i]
            xj, yj = r[j]
            if (yi > y) != (yj > y):
                x_at = (xj - xi) * (y - yi) / (yj - yi) + xi
                if x < x_at:
                    inside = not inside
            j = i
    return inside


def erode_oracle(mask, n):
    out = np.asarray(mask, dtype=bool).copy()
    h, w = out.shape
    for _ in range(n):
        src = out
        out = np.zeros_like(src)
        for r in range(h):
            for c in range(w):
                if not src[r, c]:
                    continue
                neigh = True
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    rr, cc = r + dr, c + dc
                    if rr < 0 or rr >= h or cc < 0 or cc >= w or not src[rr, cc]:
                        neigh = False
                        break
                out[r, c] = neigh
    return out


class TestLoadParcels:
    def test_reads_ids_and_orientation(self, tmp_path):
        doc = collection(
            feature("A1", [ring((0, 0), (4, 0), (4, 2), (0, 2))], "EW"),
            feature("B2", [ring((5, 0), (7, 0), (7, 4), (5, 4))], "NS"),
            feature("C3", [ring((8, 0), (9, 0), (9, 1), (8, 1))]),
        )
        parcels = load_parcels(write_geojson(tmp_path / "p.geojson", doc))
        assert [p.id for p in parcels] == ["A1", "B2", "C3"]
        assert parcels[0].orientation == Orientation.EW
        assert parcels[1].orientation == Orientation.NS
        assert parcels[2].orientation == Orientation.OTHER

    def test_rejects_missing_id(self, tmp_path):
        doc = collection({"type": "Feature", "properties": {},
                          "geometry": {"type": "Polygon",
                                       "coordinates": [ring((0, 0), (1, 0), (1, 1))]}})
        with pytest.raises(ValueError, match="id"):
            load_parcels(write_geojson(tmp_path / "p.geojson", doc))

    def test_rejects_duplicate_ids(self, tmp_path):
        f = feature("dup", [ring((0, 0), (1, 0), (1, 1))])
        with pytest.raises(ValueError, match="dup"):
            load_parcels(write_geojson(tmp_path / "p.geojson", collection(f, f)))

    def test_rejects_non_polygon(self, tmp_path):
        doc = collection({"type": "Feature", "properties": {"id": "x"},
                          "geometry": {"type": "Point", "coordinates": [0, 0]}})
        with pytest.raises(ValueError, match="Polygon"):
            load_parcels(write_geojson(tmp_path / "p.geojson", doc))

    @pytest.mark.parametrize("doc", [
        {"type": "FeatureCollection", "features": [1]},
        {"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {"id": "a"}, "geometry": {"type": "Polygon"}}]},
        {"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {"id": "a"},
             "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0]], [[0]]]}}]},
        {"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {"id": "a"},
             "geometry": {"type": "Polygon", "coordinates": [[{"x": 0}]]}}]},
        {"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": ["a"], "geometry": "Polygon"}]},
    ])
    def test_malformed_feature_names_file_and_index(self, tmp_path, doc):
        path = write_geojson(tmp_path / "p.geojson", doc)
        with pytest.raises(ValueError, match="feature #0") as exc:
            load_parcels(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("doc", [[], {"type": "FeatureCollection", "features": {}}])
    def test_malformed_collection_names_file(self, tmp_path, doc):
        path = write_geojson(tmp_path / "p.geojson", doc)
        with pytest.raises(ValueError, match="p.geojson"):
            load_parcels(path)

    def test_rejects_open_or_tiny_ring(self):
        with pytest.raises(ValueError):
            Parcel(id="x", rings=[np.array([[0, 0], [1, 0], [1, 1], [0.5, 0.5]],
                                           dtype=float)])
        with pytest.raises(ValueError):
            Parcel(id="x", rings=[np.array([[0, 0], [1, 0], [0, 0]], dtype=float)])

    def test_rejects_self_intersection(self):
        bow = np.array([[0, 0], [2, 2], [2, 0], [0, 2], [0, 0]], dtype=float)
        with pytest.raises(ValueError, match="intersect"):
            Parcel(id="bow", rings=[bow])


class TestRasterize:
    def test_unit_square_centers(self):
        # square [0,2]x[-2,0] on a 1 m grid covers exactly the 4 pixels whose
        # centers fall inside
        p = Parcel(id="sq", rings=[np.array(ring((0, 0), (2, 0), (2, -2), (0, -2)),
                                            dtype=float)])
        m = rasterize(p, grid(4, 4))
        assert m.count == 4
        assert m.mask[:2, :2].all()
        assert not m.mask[2:, :].any() and not m.mask[:, 2:].any()

    def test_hole_is_subtracted(self):
        outer = np.array(ring((0, 0), (6, 0), (6, -6), (0, -6)), dtype=float)
        hole = np.array(ring((2, -2), (4, -2), (4, -4), (2, -4)), dtype=float)
        p = Parcel(id="donut", rings=[outer, hole])
        m = rasterize(p, grid(6, 6))
        assert m.mask[0, 0] and m.mask[5, 5]
        assert not m.mask[2, 2] and not m.mask[3, 3]
        assert m.count == 36 - 4

    def test_matches_scalar_oracle_on_random_polygons(self):
        rng = np.random.default_rng(31)
        g = grid(16, 16)
        xs = g.x_centers()
        ys = g.y_centers()
        for k in range(40):
            # random simple polygon: vertices sorted by angle about the centroid
            npts = int(rng.integers(3, 6))
            pts = np.column_stack([rng.uniform(-1, 17, size=npts),
                                   rng.uniform(-17, 1, size=npts)])
            c = pts.mean(axis=0)
            order = np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))
            pts = pts[order]
            closed = np.vstack([pts, pts[:1]])
            try:
                p = Parcel(id=f"r{k}", rings=[closed])
            except ValueError:
                continue  # degenerate draw
            m = rasterize(p, g)
            for row in range(16):
                for col in range(16):
                    want = point_in_rings_oracle(xs[col], ys[row], [closed])
                    assert m.mask[row, col] == want

    def test_outside_grid_is_empty(self):
        p = Parcel(id="far", rings=[np.array(ring((100, 100), (110, 100),
                                                  (110, 90), (100, 90)), dtype=float)])
        m = rasterize(p, grid())
        assert m.is_empty


class TestErode:
    def test_frozen_blocks(self):
        out3 = erode(pmask(np.ones((3, 3))), 1)
        assert out3.mask.tolist() == [[False, False, False],
                                      [False, True, False],
                                      [False, False, False]]
        out54 = erode(pmask(np.ones((4, 5))), 1)
        assert out54.count == 6  # interior 2 x 3 block
        assert out54.mask[1:3, 1:4].all()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            mask = rng.random(size=(h, w)) < 0.7
            n = int(rng.integers(0, 4))
            got = erode(pmask(mask), n)
            assert np.array_equal(got.mask, erode_oracle(mask, n))
            assert got.erosion_applied == n

    def test_composition(self):
        rng = np.random.default_rng(34)
        mask = rng.random(size=(15, 14)) < 0.85
        once = erode(pmask(mask), 3)
        twice = erode(erode(pmask(mask), 2), 1)
        assert np.array_equal(once.mask, twice.mask)
        assert twice.erosion_applied == 3

    def test_zero_is_identity(self):
        pm = pmask(np.eye(4, dtype=bool))
        out = erode(pm, 0)
        assert np.array_equal(out.mask, pm.mask)
        assert out.mask is not pm.mask  # caller's mask must stay untouched

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            erode(pmask(np.ones((2, 2))), -1)


class TestZonalStats:
    def test_frozen_values(self):
        g = grid(2, 2)
        r = Raster(g, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32),
                   band_name="DpRVI", timestamp=dt.date(2023, 6, 20),
                   orbit=Orbit.DESCENDING)
        s = zonal_stats(r, pmask(np.ones((2, 2)), g))
        assert s.count == 4
        assert s.mean == pytest.approx(2.5, abs=1e-15)
        assert s.std == pytest.approx(math.sqrt(1.25), rel=1e-15)
        assert s.min == 1.0 and s.max == 4.0
        assert s.band_name == "DpRVI"
        assert s.timestamp == dt.date(2023, 6, 20)
        assert s.orbit == Orbit.DESCENDING

    def test_against_fsum_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(60):
            h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            g = grid(w, h)
            vals = rng.normal(scale=10.0, size=(h, w)).astype(np.float32)
            vals[rng.random(size=(h, w)) < 0.2] = np.nan
            mask = rng.random(size=(h, w)) < 0.5
            r = Raster(g, vals, band_name="b")
            sel = [float(vals[i, j]) for i in range(h) for j in range(w)
                   if mask[i, j] and math.isfinite(vals[i, j])]
            if not sel:
                with pytest.raises(EmptyStatsError):
                    zonal_stats(r, pmask(mask, g))
                continue
            s = zonal_stats(r, pmask(mask, g))
            n = len(sel)
            mean = math.fsum(sel) / n
            var = math.fsum((v - mean) ** 2 for v in sel) / n
            assert s.count == n
            assert s.min == min(sel) and s.max == max(sel)
            assert s.mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
            assert s.std == pytest.approx(math.sqrt(var), rel=1e-9, abs=1e-12)

    def test_nodata_excluded(self):
        g = grid(2, 1)
        r = Raster(g, np.array([[5.0, math.nan]], dtype=np.float32), band_name="b")
        s = zonal_stats(r, pmask([[True, True]], g))
        assert s.count == 1 and s.mean == 5.0 and s.std == 0.0

    def test_grid_mismatch_rejected(self):
        r = Raster(grid(2, 2), np.ones((2, 2), dtype=np.float32), band_name="b")
        with pytest.raises(AlignmentError):
            zonal_stats(r, pmask(np.ones((2, 2)), grid(2, 2, ox=99.0)))

    def test_empty_mask_raises(self):
        g = grid(2, 2)
        r = Raster(g, np.ones((2, 2), dtype=np.float32), band_name="b")
        with pytest.raises(EmptyStatsError):
            zonal_stats(r, pmask(np.zeros((2, 2)), g))


class TestZonalCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            ZonalStats("p1", "DpRVI", dt.date(2023, 3, 28), Orbit.DESCENDING,
                       117, 0.123456789012345, 0.01, 0.1, 0.15),
            ZonalStats("p2", "NDVI", dt.date(2023, 3, 27), None,
                       40, -0.5, 0.0, -0.5, -0.5),
        ]
        path = tmp_path / "zonal.csv"
        write_zonal_csv(rows, path)
        text = path.read_text()
        assert text.splitlines()[0] == ("parcel_id,band,timestamp,orbit,"
                                        "count,mean,std,min,max")
        back = read_zonal_csv(path)
        assert back == rows

    def test_float_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(36)
        rows = [ZonalStats(f"p{i}", "SVHI", dt.date(2023, 7, 25), Orbit.ASCENDING,
                           int(rng.integers(1, 500)), float(rng.normal()),
                           float(abs(rng.normal())), float(rng.normal()),
                           float(rng.normal()))
                for i in range(20)]
        path = tmp_path / "zonal.csv"
        write_zonal_csv(rows, path)
        back = read_zonal_csv(path)
        for a, b in zip(rows, back):
            assert a.mean == b.mean and a.std == b.std
            assert a.min == b.min and a.max == b.max


def centers_within(centers, lo, hi):
    return int(np.count_nonzero((centers >= lo) & (centers <= hi)))


def star_ring(rng, cx, cy, radius, n):
    """Closed star-shaped ring: random radii at sorted random angles."""
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=n))
    radii = rng.uniform(0.3, 1.0, size=n) * radius
    pts = np.column_stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)])
    return np.vstack([pts, pts[:1]])


class TestWindowPath:
    """Masks are stored as parcel windows; results match full-grid oracles."""

    def check_rasterize(self, parcel, g):
        m = rasterize(parcel, g)
        xs, ys = g.x_centers(), g.y_centers()
        rings = [r.tolist() for r in parcel.rings]
        want = np.array([[point_in_rings_oracle(x, y, rings) for x in xs] for y in ys])
        assert np.array_equal(m.mask, want), parcel.id
        assert m.count == int(want.sum())
        minx, miny, maxx, maxy = parcel.bounds()
        assert m.local.shape[0] <= centers_within(ys, miny, maxy) + 2
        assert m.local.shape[1] <= centers_within(xs, minx, maxx) + 2
        assert np.array_equal(m.mask[m.window], m.local)
        return m

    def test_parcels_crossing_each_grid_edge(self):
        g = grid(12, 10)  # x in [0, 12], y in [-10, 0]
        shapes = {
            "west": ring((-3.2, -2.1), (4.3, -3.4), (3.6, -7.7), (-1.4, -6.2)),
            "east": ring((9.1, -1.3), (15.0, -2.6), (14.2, -8.9), (8.3, -6.1)),
            "north": ring((2.4, 3.1), (8.7, 2.2), (7.9, -4.6), (3.3, -3.8)),
            "south": ring((2.2, -7.3), (9.6, -6.4), (8.1, -13.5), (1.7, -12.2)),
            "corner": ring((-2.5, 2.5), (3.5, 1.5), (2.5, -3.5), (-1.5, -2.5)),
        }
        for pid, r in shapes.items():
            m = self.check_rasterize(Parcel(id=pid, rings=[np.array(r, dtype=float)]), g)
            assert not m.is_empty

    def test_parcel_touching_border_row_and_column(self):
        g = grid(12, 10)
        p = Parcel(id="edge", rings=[np.array(
            ring((0.0, 0.0), (5.2, 0.0), (4.1, -3.7), (0.0, -4.4)), dtype=float)])
        m = self.check_rasterize(p, g)
        assert m.mask[0, 0] and (m.row0, m.col0) == (0, 0)
        far = Parcel(id="far_edge", rings=[np.array(
            ring((12.0, -10.0), (6.3, -10.0), (7.7, -6.2), (12.0, -5.1)), dtype=float)])
        m = self.check_rasterize(far, g)
        assert m.mask[-1, -1]
        assert m.window[0].stop == g.height and m.window[1].stop == g.width

    def test_parcel_with_hole_on_the_edge(self):
        g = grid(12, 10)
        outer = np.array(ring((-2.0, 1.0), (7.5, 1.0), (7.5, -7.5), (-2.0, -7.5)), dtype=float)
        hole = np.array(ring((1.2, -1.3), (4.6, -1.8), (4.1, -5.2), (0.8, -4.4)), dtype=float)
        m = self.check_rasterize(Parcel(id="donut", rings=[outer, hole]), g)
        assert not m.mask[3, 2] and m.mask[0, 0]

    def test_south_up_grid(self):
        g = grid(12, 10, py=1.0)  # y in [0, 10], row 0 at the bottom
        rng = np.random.default_rng(41)
        for k in range(20):
            r = star_ring(rng, rng.uniform(-2, 14), rng.uniform(-2, 12),
                          rng.uniform(1.0, 6.0), int(rng.integers(5, 12)))
            self.check_rasterize(Parcel(id=f"s{k}", rings=[r]), g)

    def test_random_parcels_anywhere_on_and_off_the_grid(self):
        rng = np.random.default_rng(42)
        for k in range(40):
            g = grid(int(rng.integers(1, 15)), int(rng.integers(1, 15)),
                     ox=float(rng.uniform(-1, 1)), oy=float(rng.uniform(-1, 1)))
            r = star_ring(rng, rng.uniform(-4, 18), rng.uniform(-18, 4),
                          rng.uniform(0.4, 8.0), int(rng.integers(3, 14)))
            self.check_rasterize(Parcel(id=f"r{k}", rings=[r]), g)

    def test_halo_keeps_a_center_that_rounding_counts_inside(self):
        # the center (2.5, -0.5) lies beyond the parcel's max x, yet the
        # rounded crossing of the first edge falls just right of it
        xi, yi = -2.553901485879616, -7.983742871827422
        xj, yj = 2.4999999999999996, -0.49999999999999956
        rings = [np.array([[xj, yj], [xi, yi], [xi - 0.5, yj], [xj, yj]])]
        m = self.check_rasterize(Parcel(id="sliver", rings=rings), grid(3, 9))
        assert m.mask[0, 2] and rings[0][:, 0].max() < 2.5

    def test_constructor_crops_to_set_pixels(self):
        full = np.zeros((9, 11), dtype=bool)
        full[2:5, 3:4] = True
        full[6, 8] = True
        m = pmask(full)
        assert (m.row0, m.col0) == (2, 3) and m.local.shape == (5, 6)
        assert np.array_equal(m.mask, full) and m.count == 4
        empty = pmask(np.zeros((4, 4)))
        assert empty.is_empty and empty.count == 0 and empty.local.shape == (0, 0)
        assert not empty.mask.any() and empty.mask.shape == (4, 4)

    @pytest.mark.parametrize("corner", [(0, 0), (0, -1), (-1, 0), (-1, -1)])
    def test_erode_at_raster_corner(self, corner):
        rng = np.random.default_rng(43)
        h, w = 13, 11
        for _ in range(10):
            full = np.zeros((h, w), dtype=bool)
            bh, bw = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            rows = slice(0, bh) if corner[0] == 0 else slice(h - bh, h)
            cols = slice(0, bw) if corner[1] == 0 else slice(w - bw, w)
            full[rows, cols] = rng.random((bh, bw)) < 0.85
            m = pmask(full)
            for n in range(4):
                got = erode(m, n)
                assert np.array_equal(got.mask, erode_oracle(m.mask, n))
                assert got.local.shape[0] <= m.local.shape[0]
                assert got.local.shape[1] <= m.local.shape[1]

    @pytest.mark.parametrize("corner", [(0, 0), (-1, -1)])
    def test_zonal_on_corner_window(self, corner):
        rng = np.random.default_rng(44)
        h, w = 17, 19
        g = grid(w, h)
        for _ in range(20):
            vals = rng.normal(scale=5.0, size=(h, w)).astype(np.float32)
            vals[rng.random((h, w)) < 0.2] = np.nan
            full = np.zeros((h, w), dtype=bool)
            rows = slice(0, 6) if corner[0] == 0 else slice(h - 6, h)
            cols = slice(0, 5) if corner[1] == 0 else slice(w - 5, w)
            full[rows, cols] = rng.random((6, 5)) < 0.6
            r = Raster(g, vals, band_name="b")
            sel = full & np.isfinite(vals)
            if not sel.any():
                with pytest.raises(EmptyStatsError):
                    zonal_stats(r, pmask(full, g))
                continue
            s = zonal_stats(r, pmask(full, g))
            # the full-grid selection sees the same elements in the same order
            want = vals[sel].astype(np.float64)
            assert s.count == want.size
            assert s.mean == float(want.mean()) and s.std == float(want.std())
            assert s.min == float(want.min()) and s.max == float(want.max())

    def test_zonal_honours_finite_nodata_value(self):
        g = grid(3, 2)
        vals = np.array([[1.0, -9999.0, 3.0], [4.0, np.inf, 6.0]], dtype=np.float32)
        r = Raster(g, vals, band_name="b", nodata=-9999.0)
        s = zonal_stats(r, pmask(np.ones((2, 3)), g))
        assert s.count == 4 and s.mean == 3.5


def segments_touch_oracle(p, q, r, s):
    """True when segments pq and rs share a point (scalar reference)."""
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if v == 0 else (1 if v > 0 else -1)

    def on_segment(a, b, c):
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    o1, o2 = orient(p, q, r), orient(p, q, s)
    o3, o4 = orient(r, s, p), orient(r, s, q)
    if o1 != o2 and o3 != o4:
        return True
    return ((o1 == 0 and on_segment(p, q, r)) or (o2 == 0 and on_segment(p, q, s))
            or (o3 == 0 and on_segment(r, s, p)) or (o4 == 0 and on_segment(r, s, q)))


def ring_self_intersects_oracle(ring):
    """Scalar pairwise loop over non-adjacent segments of the open ring."""
    pts = ring[:-1]
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue
            if segments_touch_oracle(a, b, pts[j], pts[(j + 1) % n]):
                return True
    return False


class TestRingCheck:
    def closed(self, *pts):
        return np.array(ring(*pts), dtype=float)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_rejected_before_the_check(self, bad):
        r = self.closed((0, 0), (4, 0), (4, bad), (0, -4))
        with pytest.raises(ValueError, match="non-finite"):
            Parcel(id="nf", rings=[r])

    def test_named_contacts(self):
        cases = {
            "square": (self.closed((0, 0), (2, 0), (2, 2), (0, 2)), False),
            "bow_tie": (self.closed((0, 0), (2, 2), (2, 0), (0, 2)), True),
            "t_contact": (self.closed((0, 0), (4, 0), (4, 2), (2, 0), (0, 2)), True),
            "collinear_overlap": (self.closed((0, 0), (3, 0), (3, 1), (1, 0),
                                              (2, 0), (0, 1)), True),
            "repeated_vertex": (self.closed((0, 0), (2, 0), (2, 0), (2, 2), (0, 2)), True),
            "spike_back": (self.closed((0, 0), (3, 0), (1, 0), (1, 2)), True),
            "triangle": (self.closed((0, 0), (1, 0), (0, 1)), False),
        }
        for name, (r, want) in cases.items():
            assert ring_self_intersects_oracle(r) is want, name
            assert parcels._ring_self_intersects(r) is want, name

    @pytest.mark.parametrize("chunk", [parcels._PAIR_CHUNK, 5, 23])
    def test_matches_scalar_oracle_on_lattice_rings(self, chunk, monkeypatch):
        # integer vertices on a 5x5 lattice give collinear overlaps,
        # T-contacts and repeated vertices often
        monkeypatch.setattr(parcels, "_PAIR_CHUNK", chunk)
        rng = np.random.default_rng(45)
        seen = set()
        for _ in range(400):
            pts = rng.integers(0, 5, size=(int(rng.integers(3, 12)), 2)).astype(float)
            r = np.vstack([pts, pts[:1]])
            want = ring_self_intersects_oracle(r)
            seen.add(want)
            assert parcels._ring_self_intersects(r) is want, r.tolist()
        assert seen == {True, False}

    def test_matches_scalar_oracle_on_star_rings(self):
        rng = np.random.default_rng(46)
        for _ in range(60):
            r = star_ring(rng, 0.0, 0.0, 10.0, int(rng.integers(3, 40)))
            if rng.random() < 0.5:  # swapping two vertices folds the ring
                k = int(rng.integers(0, len(r) - 2))
                r[[k, k + 1]] = r[[k + 1, k]]
                r[-1] = r[0]
            assert parcels._ring_self_intersects(r) is ring_self_intersects_oracle(r)

    def test_fold_found_at_every_position_across_chunks(self, monkeypatch):
        monkeypatch.setattr(parcels, "_PAIR_CHUNK", 100)  # 2 segments per chunk
        n = 40
        angles = np.sort(np.random.default_rng(48).uniform(0.0, 2.0 * math.pi, size=n))
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        convex = np.vstack([pts, pts[:1]])
        assert parcels._ring_self_intersects(convex) is False
        for k in range(n - 1):  # segments k - 1 and k + 1 cross, nothing else
            folded = convex.copy()
            folded[[k, k + 1]] = folded[[k + 1, k]]
            folded[-1] = folded[0]
            assert parcels._ring_self_intersects(folded) is True, k

    def test_ring_larger_than_one_chunk(self):
        n = 400
        assert n * (n - 3) // 2 > parcels._PAIR_CHUNK
        angles = np.sort(np.random.default_rng(47).uniform(0.0, 2.0 * math.pi, size=n))
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        convex = np.vstack([pts, pts[:1]])
        assert parcels._ring_self_intersects(convex) is False
        assert ring_self_intersects_oracle(convex) is False
        for k in (3, n - 5):  # a fold found in the first and in the last chunk
            folded = convex.copy()
            folded[[k, k + 1]] = folded[[k + 1, k]]
            assert parcels._ring_self_intersects(folded) is True
            assert ring_self_intersects_oracle(folded) is True

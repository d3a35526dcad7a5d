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


def self_intersects(ring):
    """The batched ring check on one ring."""
    return bool(parcels._self_intersecting([ring])[0])


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
            assert self_intersects(r) is want, name

    @pytest.mark.parametrize("chunk", [parcels._PAIR_CHUNK, 5, 23])
    def test_matches_scalar_oracle_on_lattice_rings(self, chunk, monkeypatch):
        # integer vertices on a 5x5 lattice give collinear overlaps,
        # T-contacts and repeated vertices often
        monkeypatch.setattr(parcels, "_PAIR_CHUNK", chunk)
        rng = np.random.default_rng(45)
        rings, wants = [], []
        for _ in range(400):
            pts = rng.integers(0, 5, size=(int(rng.integers(3, 12)), 2)).astype(float)
            r = np.vstack([pts, pts[:1]])
            want = ring_self_intersects_oracle(r)
            assert self_intersects(r) is want, r.tolist()
            rings.append(r)
            wants.append(want)
        assert set(wants) == {True, False}
        assert parcels._self_intersecting(rings).tolist() == wants

    def test_matches_scalar_oracle_on_star_rings(self):
        rng = np.random.default_rng(46)
        rings, wants = [], []
        for _ in range(60):
            r = star_ring(rng, 0.0, 0.0, 10.0, int(rng.integers(3, 40)))
            if rng.random() < 0.5:  # swapping two vertices folds the ring
                k = int(rng.integers(0, len(r) - 2))
                r[[k, k + 1]] = r[[k + 1, k]]
                r[-1] = r[0]
            want = ring_self_intersects_oracle(r)
            assert self_intersects(r) is want
            rings.append(r)
            wants.append(want)
        assert parcels._self_intersecting(rings).tolist() == wants

    def test_fold_found_at_every_position_across_chunks(self, monkeypatch):
        monkeypatch.setattr(parcels, "_PAIR_CHUNK", 100)  # 2 segments per chunk
        n = 40
        angles = np.sort(np.random.default_rng(48).uniform(0.0, 2.0 * math.pi, size=n))
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        convex = np.vstack([pts, pts[:1]])
        assert self_intersects(convex) is False
        for k in range(n - 1):  # segments k - 1 and k + 1 cross, nothing else
            folded = convex.copy()
            folded[[k, k + 1]] = folded[[k + 1, k]]
            folded[-1] = folded[0]
            assert self_intersects(folded) is True, k

    def test_ring_larger_than_one_chunk(self):
        n = 400
        assert n * (n - 3) // 2 > parcels._PAIR_CHUNK
        angles = np.sort(np.random.default_rng(47).uniform(0.0, 2.0 * math.pi, size=n))
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        convex = np.vstack([pts, pts[:1]])
        assert self_intersects(convex) is False
        assert ring_self_intersects_oracle(convex) is False
        for k in (3, n - 5):  # a fold found in the first and in the last chunk
            folded = convex.copy()
            folded[[k, k + 1]] = folded[[k + 1, k]]
            assert self_intersects(folded) is True
            assert ring_self_intersects_oracle(folded) is True


def mixed_rings(rng, count):
    """Star rings of 4-300 vertices, about half folded by one vertex swap."""
    rings = []
    for _ in range(count):
        n = int(np.exp(rng.uniform(np.log(3), np.log(299))))
        r = star_ring(rng, rng.uniform(-50, 50), rng.uniform(-50, 50), 10.0, n)
        if rng.random() < 0.5:
            k = int(rng.integers(0, n - 1))
            r[[k, k + 1]] = r[[k + 1, k]]
            r[-1] = r[0]
        rings.append(r)
    return rings


@pytest.fixture(scope="module")
def mixed_file_rings():
    """Rings of a mixed parcel file with their scalar-oracle verdicts."""
    rings = mixed_rings(np.random.default_rng(49), 40)
    rings.append(star_ring(np.random.default_rng(50), 0.0, 0.0, 10.0, 299))
    return rings, [ring_self_intersects_oracle(r) for r in rings]


class TestBatchedRingCheck:
    """One batched check per parcel file gives the per-ring verdicts and the
    first error in file order."""

    @pytest.mark.parametrize("chunk", [parcels._PAIR_CHUNK, 7, 97, 1000])
    def test_mixed_sizes_match_the_oracle(self, chunk, mixed_file_rings, monkeypatch):
        monkeypatch.setattr(parcels, "_PAIR_CHUNK", chunk)
        rings, wants = mixed_file_rings
        assert {len(r) for r in rings} >= {300} and set(wants) == {True, False}
        assert parcels._self_intersecting(rings).tolist() == wants
        bad = [k for k, w in enumerate(wants) if w]
        assert parcels._first_crossing(rings) == bad[0]
        assert parcels._first_crossing([r for r, w in zip(rings, wants) if not w]) is None

    @pytest.mark.parametrize("chunk", [parcels._PAIR_CHUNK, 7, 97])
    def test_load_names_the_first_bad_ring_of_a_mixed_file(self, chunk, mixed_file_rings,
                                                           tmp_path, monkeypatch):
        monkeypatch.setattr(parcels, "_PAIR_CHUNK", chunk)
        rings, wants = mixed_file_rings
        first = wants.index(True)
        doc = collection(*[feature(f"p{k}", [r.tolist()]) for k, r in enumerate(rings)])
        path = write_geojson(tmp_path / "p.geojson", doc)
        with pytest.raises(ValueError) as exc:
            load_parcels(path)
        assert str(exc.value) == (f"{path}: feature #{first}: parcel 'p{first}' "
                                  "ring 0 self-intersects")
        good = [r for r, w in zip(rings, wants) if not w]
        doc = collection(*[feature(f"p{k}", [r.tolist()]) for k, r in enumerate(good)])
        loaded = load_parcels(write_geojson(tmp_path / "good.geojson", doc))
        assert [len(pc.rings[0]) for pc in loaded] == [len(r) for r in good]

    def test_empty_list_and_triangles(self):
        assert parcels._self_intersecting([]).tolist() == []
        tri = np.array(ring((0, 0), (1, 0), (0, 1)), dtype=float)
        assert parcels._self_intersecting([tri, tri]).tolist() == [False, False]

    @pytest.mark.parametrize("pts", [
        ((0, 0), (4, 0), (4, 2), (2, 0), (0, 2)),                  # T-contact
        ((0, 0), (3, 0), (3, 1), (1, 0), (2, 0), (0, 1)),          # collinear overlap
        ((0, 0), (2, 0), (2, 0), (2, 2), (0, 2)),                  # repeated vertex
    ])
    def test_contacts_caught_among_simple_rings(self, pts, tmp_path):
        square = ring((10, 10), (12, 10), (12, 12), (10, 12))
        bad = ring(*pts)
        doc = collection(feature("a", [square]), feature("b", [square, bad]),
                         feature("c", [square]))
        path = write_geojson(tmp_path / "p.geojson", doc)
        with pytest.raises(ValueError, match="feature #1: parcel 'b' ring 1 self-intersects"):
            load_parcels(path)

    def test_collinear_split_edge_is_simple(self):
        # a straight edge split at non-representable points: the rounded
        # orientation signs of its two outer pieces may disagree, but their
        # bounding boxes are disjoint, so they cannot touch
        rng = np.random.default_rng(51)
        rings = []
        for _ in range(200):
            p0, p1 = rng.uniform(-100, 100, 2), rng.uniform(-100, 100, 2)
            t0, t1 = np.sort(rng.uniform(0.05, 0.95, 2))
            apex = (p0 + p1) / 2 + np.array([p0[1] - p1[1], p1[0] - p0[0]])
            rings.append(np.array([p0, p0 + (p1 - p0) * t0, p0 + (p1 - p0) * t1,
                                   p1, apex, p0]))
        assert not parcels._self_intersecting(rings).any()

    UNCLOSED = [[0, 0], [2, 0], [2, 2], [0, 2], [0, 1]]
    BOW_TIE = [[0, 0], [2, 2], [2, 0], [0, 2], [0, 0]]

    def order_file(self, tmp_path, bad2, bad5):
        square = ring((0, 0), (1, 0), (1, 1), (0, 1))
        feats = [feature(f"p{k}", [square]) for k in range(7)]
        feats[2] = feature("p2", [square, bad2])
        feats[5] = feature("p5", [bad5])
        return write_geojson(tmp_path / "p.geojson", collection(*feats))

    def test_crossing_before_a_shape_error_is_reported(self, tmp_path):
        path = self.order_file(tmp_path, self.BOW_TIE, self.UNCLOSED)
        with pytest.raises(ValueError) as exc:
            load_parcels(path)
        assert str(exc.value) == f"{path}: feature #2: parcel 'p2' ring 1 self-intersects"

    def test_shape_error_before_a_crossing_is_reported(self, tmp_path):
        path = self.order_file(tmp_path, self.UNCLOSED, self.BOW_TIE)
        with pytest.raises(ValueError) as exc:
            load_parcels(path)
        assert str(exc.value) == (f"{path}: feature #2: parcel 'p2' ring 1 is not closed "
                                  "(first vertex must repeat last)")

    def test_crossing_before_a_feature_error_is_reported(self, tmp_path):
        path = self.order_file(tmp_path, self.BOW_TIE, self.UNCLOSED)
        doc = json.loads(path.read_text())
        doc["features"][5] = {"type": "Feature", "properties": {},
                              "geometry": doc["features"][5]["geometry"]}
        write_geojson(path, doc)
        with pytest.raises(ValueError, match="feature #2: parcel 'p2' ring 1 self-intersects"):
            load_parcels(path)

    def test_direct_parcel_reports_rings_in_order(self):
        bow, unclosed = np.array(self.BOW_TIE, float), np.array(self.UNCLOSED, float)
        square = np.array(ring((0, 0), (1, 0), (1, 1), (0, 1)), dtype=float)
        with pytest.raises(ValueError, match="^parcel 'x' ring 1 self-intersects$"):
            Parcel(id="x", rings=[square, bow, unclosed])
        with pytest.raises(ValueError, match="^parcel 'x' ring 1 is not closed"):
            Parcel(id="x", rings=[square, unclosed, bow])
        with pytest.raises(ValueError, match="^parcel 'x' has no rings$"):
            Parcel(id="x", rings=[])


def rasterize_reference(parcel, spec):
    """Full-grid mask from the one-edge-at-a-time even-odd loop over the
    centers in the parcel's bounding box plus a one-pixel halo."""
    full = np.zeros((spec.height, spec.width), dtype=bool)
    minx, miny, maxx, maxy = parcel.bounds()
    gx0, gx1 = spec.x_range()
    gy0, gy1 = spec.y_range()
    if maxx < gx0 or minx > gx1 or maxy < gy0 or miny > gy1:
        return full
    xs, ys = spec.x_centers(), spec.y_centers()
    cols = parcels._halo_span(xs, minx, maxx, abs(spec.pixel_size_x))
    rows = parcels._halo_span(ys, miny, maxy, abs(spec.pixel_size_y))
    X, Y = xs[None, cols], ys[rows, None]
    inside = np.zeros((Y.shape[0], X.shape[1]), dtype=bool)
    for r in parcel.rings:
        pts = r[:-1]
        n = len(pts)
        j = n - 1
        for i in range(n):
            xi, yi = pts[i]
            xj, yj = pts[j]
            crosses = (yi > Y) != (yj > Y)
            with np.errstate(invalid="ignore", divide="ignore"):
                x_at = (xj - xi) * (Y - yi) / (yj - yi) + xi
            inside ^= crosses & (X < x_at)
            j = i
    full[rows, cols] = inside
    return full


def snap(pts, step):
    """Vertices moved to the nearest multiple of ``step`` (pixel centers and
    edges for a half-pixel step on a grid with integer origin)."""
    return np.round(pts / step) * step


def rectilinear(pts):
    """Ring through ``pts`` with a corner between each pair: only horizontal
    and vertical edges."""
    out = []
    for (x0, y0), (x1, _) in zip(pts[:-1], pts[1:]):
        out += [(x0, y0), (x1, y0)]
    out.append(tuple(pts[0]))
    return np.array(out)


def random_parcels(rng, g, count):
    """Random parcels on and around grid ``g``: star rings, rings snapped to
    pixel centers and edges, rectilinear rings, and rings with a hole."""
    (x0, x1), (y0, y1) = g.x_range(), g.y_range()
    made = []
    while len(made) < count:
        k = len(made)
        cx, cy = rng.uniform(x0 - 3, x1 + 3), rng.uniform(y0 - 3, y1 + 3)
        radius = rng.uniform(0.5, 0.6 * max(x1 - x0, y1 - y0))
        r = star_ring(rng, cx, cy, radius, int(rng.integers(3, 40)))
        kind = k % 4
        if kind == 1:
            r = snap(r, 0.5)
        elif kind == 2:
            r = snap(r, 0.5)
            r = rectilinear(np.vstack([r[:-1:2], r[:1]]))
        rings = [r]
        if kind == 3:
            rings.append(star_ring(rng, cx, cy, 0.25 * radius, int(rng.integers(3, 12))))
        try:
            made.append(Parcel(id=f"r{k}", rings=rings))
        except ValueError:
            continue  # a snapped or rectilinear draw that touches itself
    return made


class TestEdgeChunkedRasterize:
    """``rasterize`` takes a chunk of edges per numpy pass; its masks are
    byte-equal to the one-edge-at-a-time loop."""

    @pytest.mark.parametrize("block", [parcels.BLOCK_PX, 1, 40, 333])
    def test_byte_equal_to_reference(self, block, monkeypatch):
        monkeypatch.setattr(parcels, "BLOCK_PX", block)
        rng = np.random.default_rng(52)
        for _ in range(6):
            g = grid(int(rng.integers(4, 24)), int(rng.integers(4, 24)),
                     ox=float(rng.integers(-2, 3)), oy=float(rng.integers(-2, 3)),
                     py=float(rng.choice([-1.0, 1.0])))
            for p in random_parcels(rng, g, 24):
                got = rasterize(p, g)
                assert got.mask.tobytes() == rasterize_reference(p, g).tobytes(), p.rings

    def test_features_are_covered(self):
        rng = np.random.default_rng(52)
        g = grid(16, 16)
        ps = random_parcels(rng, g, 48)
        edges = np.concatenate([np.diff(r, axis=0) for p in ps for r in p.rings])
        verts = np.concatenate([r for p in ps for r in p.rings])
        assert (edges[:, 0] == 0).any() and (edges[:, 1] == 0).any()
        assert np.isin(verts[:, 0], g.x_centers()).any()
        assert any(len(p.rings) == 2 for p in ps)
        (x0, x1), (y0, y1) = g.x_range(), g.y_range()
        partly_off = [p for p in ps if p.bounds()[0] < x0 < p.bounds()[2]
                      or p.bounds()[1] < y0 < p.bounds()[3]]
        assert partly_off

    def test_vertex_on_the_halo_edge(self, monkeypatch):
        # the bounding box ends exactly on a center, so the next center out
        # lies exactly one pixel away, on the halo edge
        monkeypatch.setattr(parcels, "BLOCK_PX", 2)
        g = grid(10, 10)
        for pts in [((2.5, -2.5), (6.5, -2.5), (6.5, -6.5), (2.5, -6.5)),
                    ((2.5, -2.5), (7.0, -4.5), (4.5, -7.5)),
                    ((0.5, -0.5), (9.5, -0.5), (5.0, -9.5))]:
            p = Parcel(id="h", rings=[np.array(ring(*pts), dtype=float)])
            assert rasterize(p, g).mask.tobytes() == rasterize_reference(p, g).tobytes()

    def test_ring_longer_than_one_chunk(self, monkeypatch):
        g = grid(40, 40)
        p = Parcel(id="big", rings=[star_ring(np.random.default_rng(53), 20.0, -20.0,
                                              18.0, 300)])
        want = rasterize_reference(p, g)
        for block in (1, 50, 1000):
            monkeypatch.setattr(parcels, "BLOCK_PX", block)
            assert rasterize(p, g).mask.tobytes() == want.tobytes()


def bits(v):
    return np.float64(v).tobytes()


class TestLeanZonalStats:
    """``zonal_stats`` equals numpy's mean, std(ddof=0), min and max of the
    valid float64 values, bit for bit."""

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 127, 128, 129, 8192, 8193, 20000])
    @pytest.mark.parametrize("nodata", [math.nan, -9999.0])
    @pytest.mark.parametrize("dirty", [False, True])
    def test_bit_equal_to_numpy(self, size, nodata, dirty):
        rng = np.random.default_rng(size)
        # magnitudes over 14 decades, so float64 sums round and their order shows
        good = (rng.normal(loc=3.0, scale=50.0, size=size)
                * 10.0 ** rng.uniform(-8, 6, size=size)).astype(np.float32)
        good[rng.random(size) < 0.05] = -0.0
        good[rng.random(size) < 0.05] = 0.0
        vals = good
        if dirty:
            bad = np.array([math.nan, math.inf, -math.inf, nodata], dtype=np.float32)
            extra = rng.choice(bad, size=max(1, size // 10))
            vals = np.insert(good, rng.integers(0, size + 1, extra.size), extra)
        width = 200
        h = -(-vals.size // width)
        padded = np.full(h * width, 7.0, dtype=np.float32)
        padded[:vals.size] = vals
        mask = np.zeros(h * width, dtype=bool)
        mask[:vals.size] = True
        g = grid(width, h)
        r = Raster(g, padded.reshape(h, width), band_name="b", nodata=nodata)
        s = zonal_stats(r, pmask(mask.reshape(h, width), g))
        want = good.astype(np.float64)
        assert s.count == size
        assert bits(s.mean) == bits(np.mean(want))
        assert bits(s.std) == bits(np.std(want, ddof=0))
        assert bits(s.min) == bits(want.min()) and bits(s.max) == bits(want.max())

    def test_all_nodata_window_raises(self):
        g = grid(4, 2)
        vals = np.array([[math.nan, math.inf, -math.inf, -9999.0]] * 2, dtype=np.float32)
        r = Raster(g, vals, band_name="b", nodata=-9999.0)
        with pytest.raises(EmptyStatsError):
            zonal_stats(r, pmask(np.ones((2, 4)), g))

    def test_is_empty_follows_the_cropped_window(self):
        m = pmask(np.zeros((5, 5)))
        assert m.is_empty and m.local.size == 0
        full = np.zeros((5, 5), dtype=bool)
        full[4, 4] = True
        assert not pmask(full).is_empty and erode(pmask(full), 1).is_empty

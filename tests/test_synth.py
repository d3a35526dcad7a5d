"""Deterministic speckle simulation: counter stream, coloring, scenes."""

import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest

from vinesar.raster import GridSpec, Orbit
from vinesar.sar import C2_BAND_NAMES, _not_psd, dprvi_raster
from vinesar import synth
from vinesar.synth import (Region, SceneSpec, _box_muller, _cholesky2, _colour,
                           _counter_uniforms, derive_seed, generate_scene,
                           scene_from_dict)


def grid(w, h):
    return GridSpec(width=w, height=h, origin_x=500000.0, origin_y=5000000.0,
                    pixel_size_x=10.0, pixel_size_y=-10.0, crs="EPSG:32632")


def counter_normals(seed, counters):
    """CN(0, 1) values, one per consecutive counter pair, through the
    sampler's Box-Muller step; ``counters`` keeps its last axis of pairs."""
    u = _counter_uniforms(seed, np.array(counters, dtype=np.uint64)).reshape(-1, 2)
    return _box_muller(u[:, 0], u[:, 1]).reshape(counters.shape[:-1] + (-1,))


MASK64 = (1 << 64) - 1


def splitmix64(x):
    """The SplitMix64 finalizer over a Python int."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & MASK64
    return x ^ (x >> 31)


class TestCounterNormals:
    def test_deterministic(self):
        c = np.arange(64, dtype=np.uint64)
        a = counter_normals(123, c)
        b = counter_normals(123, c)
        assert a.tobytes() == b.tobytes()

    def test_value_depends_only_on_counter_pair(self):
        # the stream is addressed by counter, not by array position: asking
        # for a window of the counter range must reproduce the same values
        whole = counter_normals(9, np.arange(16, dtype=np.uint64))
        window = counter_normals(9, np.arange(4, 12, dtype=np.uint64))
        assert window.tolist() == whole[2:6].tolist()

    def test_shape_is_preserved(self):
        u = _counter_uniforms(5, np.arange(24, dtype=np.uint64)).reshape(3, 4, 2)
        out = _box_muller(u[..., 0], u[..., 1])
        assert out.shape == (3, 4) and out.dtype == np.complex128
        flat = counter_normals(5, np.arange(24, dtype=np.uint64))
        assert out.reshape(-1).tolist() == flat.tolist()

    def test_seed_changes_stream(self):
        c = np.arange(32, dtype=np.uint64)
        assert not np.array_equal(counter_normals(1, c), counter_normals(2, c))

    def test_uniforms_lie_in_the_half_open_unit_interval(self):
        u = _counter_uniforms(17, np.arange(200000, dtype=np.uint64))
        assert float(u.min()) > 0.0 and float(u.max()) <= 1.0
        assert abs(float(u.mean()) - 0.5) < 0.005
        window = _counter_uniforms(17, np.arange(100, 110, dtype=np.uint64))
        assert window.tolist() == u[100:110].tolist()

    def test_moments(self):
        n = 200000
        z = counter_normals(2023, np.arange(2 * n, dtype=np.uint64))
        out = np.concatenate([z.real, z.imag]) * math.sqrt(2.0)
        assert np.all(np.isfinite(out))
        assert abs(out.mean()) < 0.01
        assert abs(out.std() - 1.0) < 0.01
        assert abs(float(np.mean(z.real * z.imag))) < 0.01  # circular
        # lag-1 sample correlation of an independent stream stays tiny
        a, b = out[:-1], out[1:]
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.015

    def test_uniforms_are_the_splitmix64_stream(self):
        seed = 0xDEADBEEFCAFE
        counters = [0, 1, 2, 77, 2 ** 40 + 3, 2 ** 64 - 1]
        state = splitmix64((seed + 0x9E3779B97F4A7C15) & MASK64)
        want = [((splitmix64((c * 0x9E3779B97F4A7C15 + state + 0x9E3779B97F4A7C15)
                             & MASK64) >> 11) + 1) * 2.0 ** -53 for c in counters]
        got = _counter_uniforms(seed, np.array(counters, dtype=np.uint64))
        assert got.tolist() == want
        assert derive_seed(seed, 4) == splitmix64((seed + 5 * 0x9E3779B97F4A7C15) & MASK64)

    def test_counters_are_hashed_into_the_given_buffer(self):
        counters = np.arange(10, 20, dtype=np.uint64)
        out = np.empty(10)
        got = _counter_uniforms(3, counters, out)
        assert got is out
        assert out.tolist() == _counter_uniforms(3, np.arange(10, 20, dtype=np.uint64)).tolist()


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        children = [derive_seed(77, i) for i in range(1000)]
        assert children == [derive_seed(77, i) for i in range(1000)]
        assert len(set(children)) == 1000
        assert all(0 <= c < 2 ** 64 for c in children)

    def test_parent_matters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            derive_seed(1, -1)


class TestSceneSpec:
    def test_validation(self):
        g = grid(4, 4)
        with pytest.raises(ValueError):
            SceneSpec(spec=g, background=(1.0, 0.5, 0.0, 0.0), looks=0)
        with pytest.raises(ValueError):
            SceneSpec(spec=g, background=(1.0, 1.0, 2.0, 0.0))  # |c12|^2 > c11 c22
        with pytest.raises(ValueError, match="positive trace"):
            SceneSpec(spec=g, background=(0.0, 0.0, 0.0, 0.0))  # no power at all
        with pytest.raises(ValueError):
            SceneSpec(spec=g, background=(1.0, 0.5, 0.0, 0.0),
                      regions=[Region((2, 2, 2, 4), (1.0, 0.5, 0.0, 0.0))])
        with pytest.raises(ValueError):
            SceneSpec(spec=g, background=(1.0, 0.5, 0.0, 0.0),
                      regions=[Region((0, 0, 2, 2), (1.0, 1.0, 5.0, 0.0))])

    def test_integer_fields_follow_the_json_rule(self):
        # int() would paint 1.9 from column 1 and take 2.9 looks as 2
        g = grid(4, 4)
        with pytest.raises(ValueError, match="rect"):
            SceneSpec(spec=g, background=(1.0, 0.5, 0.0, 0.0),
                      regions=[Region((1.9, 1, 5, 5), (1.0, 0.5, 0.0, 0.0))])
        with pytest.raises(ValueError, match="looks"):
            SceneSpec(spec=g, background=(1.0, 0.5, 0.0, 0.0), looks=2.9)
        spec = SceneSpec(spec=g, background=(1.0, 0.5, 0.0, 0.0), looks=3.0,
                         regions=[Region((1.0, 1, 3, 3), (1.0, 0.5, 0.0, 0.0))])
        assert spec.looks == 3 and spec.regions[0].rect == (1, 1, 3, 3)
        assert type(spec.looks) is int and type(spec.regions[0].rect[0]) is int

    @pytest.mark.parametrize("rect", [(1, 1, 5), (1, 1, 3, 3, 5)])
    def test_rect_of_the_wrong_length_names_the_region(self, rect):
        with pytest.raises(ValueError, match=r"region #1: 'rect' must hold 4 integers"):
            SceneSpec(spec=grid(4, 4), background=(1.0, 0.5, 0.0, 0.0),
                      regions=[Region((0, 0, 1, 1), (1.0, 0.5, 0.0, 0.0)),
                               Region(rect, (1.0, 0.5, 0.0, 0.0))])


class TestGenerateScene:
    def test_bitwise_deterministic(self):
        spec = SceneSpec(spec=grid(40, 30), background=(1.0, 0.5, 0.1, -0.1),
                         regions=[Region((5, 5, 20, 25), (2.0, 0.4, 0.0, 0.2))],
                         looks=5, seed=31415)
        a = generate_scene(spec)
        b = generate_scene(spec)
        assert a.band_names == list(C2_BAND_NAMES)
        for k in range(4):
            assert a.values[k].tobytes() == b.values[k].tobytes()

    def test_seed_changes_scene(self):
        base = dict(spec=grid(10, 10), background=(1.0, 0.5, 0.0, 0.0), looks=3)
        a = generate_scene(SceneSpec(seed=1, **base))
        b = generate_scene(SceneSpec(seed=2, **base))
        assert not np.array_equal(a.values[0], b.values[0])

    def test_metadata_passthrough(self):
        spec = SceneSpec(spec=grid(4, 4), background=(1.0, 0.5, 0.0, 0.0),
                         looks=2, seed=7, timestamp=dt.date(2023, 4, 21),
                         orbit=Orbit.DESCENDING)
        out = generate_scene(spec)
        assert out.timestamp == dt.date(2023, 4, 21)
        assert out.orbit == Orbit.DESCENDING
        assert out.spec == spec.spec
        assert out.values.dtype == np.float32

    def test_scene_mean_matches_truth(self):
        true = (1.0, 0.6, 0.3, -0.2)
        spec = SceneSpec(spec=grid(80, 80), background=true, looks=9, seed=99)
        out = generate_scene(spec)
        c11, c22, re, im = out.values
        assert float(c11.mean()) == pytest.approx(true[0], abs=0.03)
        assert float(c22.mean()) == pytest.approx(true[1], abs=0.03)
        assert float(re.mean()) == pytest.approx(true[2], abs=0.03)
        assert float(im.mean()) == pytest.approx(true[3], abs=0.03)

    def test_regions_paint_their_rectangles(self):
        reg = Region((10, 10, 30, 30), (4.0, 0.2, 0.0, 0.0))
        spec = SceneSpec(spec=grid(40, 40), background=(1.0, 0.5, 0.0, 0.0),
                         regions=[reg], looks=25, seed=6)
        out = generate_scene(spec)
        c11 = out.values[0]
        inside = c11[10:30, 10:30]
        outside_mean = (float(c11.sum()) - float(inside.sum())) / (1600 - 400)
        assert float(inside.mean()) == pytest.approx(4.0, abs=0.2)
        assert outside_mean == pytest.approx(1.0, abs=0.1)

    def test_first_listed_region_wins_overlap(self, caplog):
        first = Region((0, 0, 4, 4), (100.0, 50.0, 0.0, 0.0))
        second = Region((2, 0, 6, 4), (0.01, 0.005, 0.0, 0.0))
        spec = SceneSpec(spec=grid(8, 4), background=(1.0, 0.5, 0.0, 0.0),
                         regions=[first, second], looks=64, seed=12)
        with caplog.at_level("WARNING"):
            out = generate_scene(spec)
        assert float(out.values[0][:, 2:4].mean()) > 10.0  # first region's power
        assert float(out.values[0][:, 4:6].mean()) < 1.0   # second region alone
        assert any("more than one region" in r.message for r in caplog.records)

    def test_out_of_grid_region_is_ignored(self, caplog):
        reg = Region((100, 100, 120, 120), (9.0, 9.0, 0.0, 0.0))
        spec = SceneSpec(spec=grid(10, 10), background=(1.0, 0.5, 0.0, 0.0),
                         regions=[reg], looks=16, seed=3)
        with caplog.at_level("WARNING"):
            out = generate_scene(spec)
        assert float(out.values[0].mean()) == pytest.approx(1.0, abs=0.15)
        assert any("outside" in r.message for r in caplog.records)

    def test_single_look_index_is_exactly_zero(self):
        spec = SceneSpec(spec=grid(30, 30), background=(1.0, 0.4, 0.3, 0.1),
                         looks=1, seed=2023)
        out = dprvi_raster(generate_scene(spec))
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("looks", [1, 4, 49])
    def test_samples_stay_psd(self, looks):
        spec = SceneSpec(spec=grid(20, 20), background=(2.0, 0.8, 0.9, -0.4),
                         looks=looks, seed=90)
        out = generate_scene(spec)
        assert not np.any(_not_psd(*out.values.astype(np.float64)))


class TestSamplerMoments:
    """Scaled complex Wishart moments of a one-covariance scene.

    For C = W / L with W ~ CW(L, S): E[C] = S, Var(c11) = s11^2 / L,
    Var(c22) = s22^2 / L and E|c12 - s12|^2 = s11 s22 / L. With n = 40000
    pixels a mean is checked to 4 standard errors and a second moment to 6%
    relative, about four times its relative standard error at one look.
    """

    TRUE = (2.0, 0.8, 0.9, -0.4)

    @pytest.mark.parametrize("looks", [1, 4, 49])
    def test_moments_match_the_wishart(self, looks):
        s11, s22, s_re, s_im = self.TRUE
        out = generate_scene(SceneSpec(spec=grid(200, 200), background=self.TRUE,
                                       looks=looks, seed=4096 + looks))
        c11, c22, re, im = out.values.astype(np.float64).reshape(4, -1)
        n = c11.size
        off = s11 * s22 / looks
        for got, want, var in ((c11, s11, s11 ** 2 / looks), (c22, s22, s22 ** 2 / looks),
                               (re, s_re, off / 2), (im, s_im, off / 2)):
            assert abs(float(got.mean()) - want) <= 4.0 * math.sqrt(var / n)
        assert float(c11.var()) == pytest.approx(s11 ** 2 / looks, rel=0.06)
        assert float(c22.var()) == pytest.approx(s22 ** 2 / looks, rel=0.06)
        err = float(np.mean((re - s_re) ** 2 + (im - s_im) ** 2))
        assert err == pytest.approx(off, rel=0.06)

    def test_many_looks_do_not_underflow(self):
        # a product of 2000 uniforms underflows to 0; the sum of their logs does not
        out = generate_scene(SceneSpec(spec=grid(8, 8), background=self.TRUE,
                                       looks=2000, seed=5))
        c11, c22 = out.values[:2]
        assert np.isfinite(c11).all() and np.isfinite(c22).all()
        assert float(c11.mean()) == pytest.approx(2.0, rel=0.02)
        assert float(c22.mean()) == pytest.approx(0.8, rel=0.02)


class TestOrderIndependence:
    def test_rows_do_not_depend_on_scene_height(self):
        # at 49 looks a pixel chunk spans about ten 64 px rows and ends
        # mid-row, and the last chunk of each scene holds a different count
        base = dict(background=(1.0, 0.5, 0.1, -0.1), looks=49, seed=808,
                    regions=[Region((10, 3, 40, 30), (3.0, 0.4, 0.2, 0.3))])
        short = generate_scene(SceneSpec(spec=grid(64, 25), **base))
        tall = generate_scene(SceneSpec(spec=grid(64, 70), **base))
        for k in range(4):
            assert short.values[k].tobytes() == tall.values[k][:25].tobytes()

    def test_background_pixel_ignores_regions_elsewhere(self):
        base = dict(spec=grid(30, 20), background=(1.0, 0.5, 0.1, -0.1), looks=9, seed=77)
        plain = generate_scene(SceneSpec(**base))
        painted = generate_scene(SceneSpec(
            regions=[Region((5, 4, 12, 15), (4.0, 2.0, 0.0, 1.0))], **base))
        outside = np.ones((20, 30), dtype=bool)
        outside[4:15, 5:12] = False
        for a, b in zip(plain.values, painted.values):
            assert a[outside].tobytes() == b[outside].tobytes()
            assert not np.array_equal(a[~outside], b[~outside])


def generate_scene_reference(scene):
    """The row-chunked sampler: at least one row per chunk, the exponentials
    and the Box-Muller pair hashed in two passes, each into new arrays."""
    h, w, looks = scene.spec.height, scene.spec.width, scene.looks
    owner = np.full((h, w), -1, dtype=np.int64)
    for idx, reg in enumerate(scene.regions):
        x0, y0, x1, y1 = reg.rect
        x0, x1, y0, y1 = max(0, x0), min(w, x1), max(0, y0), min(h, y1)
        if x0 < x1 and y0 < y1:
            block = owner[y0:y1, x0:x1]
            block[block < 0] = idx
    matrices = [scene.background] + [reg.c2 for reg in scene.regions]
    l11, l21, l22 = (np.array(v) for v in zip(*(_cholesky2(m) for m in matrices)))

    def uniforms(counters):
        return _counter_uniforms(scene.seed, np.array(counters, dtype=np.uint64))

    bands = np.empty((4, h, w), dtype=np.float32)
    per_pixel = 2 * looks + 2
    chunk = max(1, synth._CHUNK_COUNTERS // (w * per_pixel))
    for row0 in range(0, h, chunk):
        row1 = min(h, row0 + chunk)
        draws = np.arange(row0 * w * per_pixel, row1 * w * per_pixel, dtype=np.uint64)
        draws = draws.reshape(-1, per_pixel)
        expo = -np.log(uniforms(draws[:, :2 * looks]))
        t11 = np.sqrt(expo[:, :looks].sum(axis=1))
        t22 = np.sqrt(expo[:, looks:2 * looks - 1].sum(axis=1))
        flat = uniforms(draws[:, 2 * looks:]).reshape(-1, 2)
        radius = np.sqrt(-2.0 * np.log(flat[:, 0]))
        angle = 2.0 * math.pi * flat[:, 1]
        z = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
        t21 = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)
        own = owner[row0:row1].reshape(-1) + 1
        out = _colour(l11[own], l21[own], l22[own], t11, t21, t22, looks)
        bands[:, row0:row1] = np.reshape(out, (4, row1 - row0, w))
    return bands


def random_c2(rng):
    """A random PSD covariance; a quarter of them are exactly rank one."""
    c11, c22 = (float(v) for v in rng.uniform(0.0, 3.0, 2))
    coherence = 1.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 1.0))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    mag = coherence * math.sqrt(c11 * c22)
    return (c11 + 0.01, c22 + 0.01 * (coherence < 1.0), mag * math.cos(phase),
            mag * math.sin(phase))


class TestSamplerMatchesReference:
    """The pixel-chunked, in-place sampler against the row-chunked one."""

    def assert_same(self, scene):
        got = generate_scene(scene).values
        assert got.tobytes() == generate_scene_reference(scene).tobytes()

    def test_random_specs_are_bitwise_equal(self, monkeypatch, caplog):
        rng = np.random.default_rng(20231019)
        for case in range(120):
            # the default chunk, or one that is smaller than a row, straddles
            # rows or covers several rows at once
            chunk = [None, 41, 97, 333, 4097][case % 5]
            if chunk is not None:
                monkeypatch.setattr(synth, "_CHUNK_COUNTERS", chunk)
            else:
                monkeypatch.undo()
            w, h = int(rng.integers(1, 71)), int(rng.integers(1, 41))
            looks = [1, 2, int(rng.integers(1, 401))][case % 3]
            regions = []
            for _ in range(int(rng.integers(0, 4))):
                x0, y0 = int(rng.integers(-5, w + 3)), int(rng.integers(-5, h + 3))
                rect = (x0, y0, x0 + int(rng.integers(1, 30)), y0 + int(rng.integers(1, 20)))
                regions.append(Region(rect, random_c2(rng)))
            self.assert_same(SceneSpec(spec=grid(w, h), background=random_c2(rng),
                                       regions=regions, looks=looks,
                                       seed=int(rng.integers(0, 2 ** 63))))

    @pytest.mark.parametrize("looks, chunk_counters", [
        (1, 4 * 5),     # one look: t22 is an empty sum
        (2, 6 * 13),    # two looks: one exponential each for t11 and t22
        (9, 20 * 3),    # three pixels per chunk, less than one 11-pixel row
        (9, 20 * 17),   # 17 pixels per chunk straddle the 11-pixel rows
        (49, 1),        # below one pixel's counters: one pixel per chunk
    ])
    def test_edge_chunks_are_bitwise_equal(self, monkeypatch, looks, chunk_counters):
        monkeypatch.setattr(synth, "_CHUNK_COUNTERS", chunk_counters)
        self.assert_same(SceneSpec(
            spec=grid(11, 7), background=(1.0, 0.5, 0.1, -0.2), looks=looks, seed=4242,
            regions=[Region((3, 1, 9, 6), (2.0, 0.3, 0.4, 0.1))]))

    def test_memory_does_not_grow_with_row_width_times_looks(self):
        # a row-chunked sampler holds a whole 256-pixel row of 1000 looks,
        # about 2 MB per temporary; a pixel chunk keeps each buffer near 512 KB
        scene = SceneSpec(spec=grid(256, 2), background=(1.0, 0.5, 0.1, -0.2),
                          looks=1000, seed=3)
        tracemalloc.start()
        try:
            generate_scene(scene)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestSceneFromDict:
    def doc(self):
        return {
            "width": 12, "height": 8,
            "origin_x": 500000.0, "origin_y": 5000000.0,
            "pixel_size_x": 10.0, "pixel_size_y": -10.0,
            "crs": "EPSG:32632",
            "background": [1.0, 0.5, 0.0, 0.0],
            "regions": [{"rect": [2, 2, 6, 6], "c2": [2.0, 0.4, 0.1, 0.0]}],
            "looks": 4,
            "seed": 42,
            "timestamp": "2023-03-28",
            "orbit": "DES",
        }

    def test_full_document(self):
        spec = scene_from_dict(self.doc())
        assert spec.spec == grid(12, 8)
        assert spec.background == (1.0, 0.5, 0.0, 0.0)
        assert spec.regions == [Region((2, 2, 6, 6), (2.0, 0.4, 0.1, 0.0))]
        assert spec.looks == 4 and spec.seed == 42
        assert spec.timestamp == dt.date(2023, 3, 28)
        assert spec.orbit == Orbit.DESCENDING

    def test_keyword_overrides(self):
        spec = scene_from_dict(self.doc(), seed=7)
        assert spec.seed == 7
        assert spec.timestamp == dt.date(2023, 3, 28)
        assert spec.orbit == Orbit.DESCENDING

    def test_missing_field_is_named(self):
        doc = self.doc()
        del doc["background"]
        with pytest.raises(ValueError, match="background"):
            scene_from_dict(doc)

    def test_seed_keyword_covers_missing_doc_seed(self):
        doc = self.doc()
        del doc["seed"]
        assert scene_from_dict(doc, seed=5).seed == 5
        with pytest.raises(ValueError, match="seed"):
            scene_from_dict(doc)

    def test_defaults(self):
        doc = self.doc()
        del doc["regions"], doc["looks"], doc["timestamp"], doc["orbit"]
        spec = scene_from_dict(doc)
        assert spec.regions == [] and spec.looks == 1
        assert spec.timestamp is None and spec.orbit is None

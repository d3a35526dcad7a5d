"""Deterministic speckle simulation: counter stream, coloring, scenes."""

import datetime as dt
import json
import math

import numpy as np
import pytest

from vinesar.raster import GridSpec, Orbit
from vinesar.sar import dprvi_raster, eigen_decompose
from vinesar.synth import (Region, SceneSpec, _counter_normals,
                           _counter_uniforms, derive_seed, generate_scene,
                           load_scene, sample_c2, scene_from_dict)


def grid(w, h):
    return GridSpec(width=w, height=h, origin_x=500000.0, origin_y=5000000.0,
                    pixel_size_x=10.0, pixel_size_y=-10.0, crs="EPSG:32632")


class TestCounterNormals:
    def test_deterministic(self):
        c = np.arange(64, dtype=np.uint64)
        a = _counter_normals(123, c)
        b = _counter_normals(123, c)
        assert a.tobytes() == b.tobytes()

    def test_value_depends_only_on_counter_pair(self):
        # the stream is addressed by counter, not by array position: asking
        # for a window of the counter range must reproduce the same values
        whole = _counter_normals(9, np.arange(16, dtype=np.uint64))
        window = _counter_normals(9, np.arange(4, 12, dtype=np.uint64))
        assert window.tolist() == whole[4:12].tolist()

    def test_shape_is_preserved(self):
        c = np.arange(24, dtype=np.uint64).reshape(3, 4, 2)
        out = _counter_normals(5, c)
        assert out.shape == (3, 4, 2)
        flat = _counter_normals(5, np.arange(24, dtype=np.uint64))
        assert out.reshape(-1).tolist() == flat.tolist()

    def test_seed_changes_stream(self):
        c = np.arange(32, dtype=np.uint64)
        assert not np.array_equal(_counter_normals(1, c), _counter_normals(2, c))

    def test_uniforms_lie_in_the_half_open_unit_interval(self):
        u = _counter_uniforms(17, np.arange(200000, dtype=np.uint64))
        assert float(u.min()) > 0.0 and float(u.max()) <= 1.0
        assert abs(float(u.mean()) - 0.5) < 0.005
        window = _counter_uniforms(17, np.arange(100, 110, dtype=np.uint64))
        assert window.tolist() == u[100:110].tolist()

    def test_moments(self):
        n = 200000
        out = _counter_normals(2023, np.arange(n, dtype=np.uint64))
        assert np.all(np.isfinite(out))
        assert abs(out.mean()) < 0.01
        assert abs(out.std() - 1.0) < 0.01
        # lag-1 sample correlation of an independent stream stays tiny
        a, b = out[:-1], out[1:]
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.015


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


class TestSampleC2:
    def test_mean_converges_to_truth(self):
        true = (1.0, 0.6, 0.3, -0.2)
        rng = np.random.default_rng(88)
        n = 20000
        acc = np.zeros(4)
        for _ in range(n):
            acc += np.asarray(sample_c2(true, 1, rng))
        got = acc / n
        assert np.allclose(got, true, atol=0.04)

    def test_single_look_is_rank_one(self):
        rng = np.random.default_rng(89)
        trues = [(1.0, 0.5, 0.2, 0.1), (0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.99, 0.0)]
        for true in trues * 200:
            c11, c22, re, im = sample_c2(true, 1, rng)
            det = c11 * c22 - (re * re + im * im)
            assert abs(det) <= 1e-12 * (c11 + c22) ** 2
            assert c11 >= 0.0 and c22 >= 0.0

    def test_samples_stay_psd(self):
        rng = np.random.default_rng(90)
        for looks in (1, 4, 49):
            for _ in range(100):
                c11, c22, re, im = sample_c2((2.0, 0.8, 0.9, -0.4), looks, rng)
                pair = eigen_decompose(c11, c22, re, im)
                assert pair.lambda2 >= 0.0

    def test_validation(self):
        rng = np.random.default_rng(91)
        with pytest.raises(ValueError):
            sample_c2((1.0, 1.0, 0.0, 0.0), 0, rng)
        with pytest.raises(ValueError):
            sample_c2((1.0, 1.0, 2.0, 0.0), 1, rng)  # |c12|^2 > c11 c22
        with pytest.raises(ValueError):
            sample_c2((0.0, 0.0, 0.0, 0.0), 1, rng)  # no power at all


class TestSceneSpec:
    def test_validation(self):
        g = grid(4, 4)
        with pytest.raises(ValueError):
            SceneSpec(spec=g, background=(1.0, 0.5, 0.0, 0.0), looks=0)
        with pytest.raises(ValueError):
            SceneSpec(spec=g, background=(1.0, 1.0, 2.0, 0.0))
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


class TestGenerateScene:
    def test_bitwise_deterministic(self):
        spec = SceneSpec(spec=grid(40, 30), background=(1.0, 0.5, 0.1, -0.1),
                         regions=[Region((5, 5, 20, 25), (2.0, 0.4, 0.0, 0.2))],
                         looks=5, seed=31415)
        a = generate_scene(spec)
        b = generate_scene(spec)
        for band in ("c11", "c22", "c12_re", "c12_im"):
            assert getattr(a, band).tobytes() == getattr(b, band).tobytes()

    def test_seed_changes_scene(self):
        base = dict(spec=grid(10, 10), background=(1.0, 0.5, 0.0, 0.0), looks=3)
        a = generate_scene(SceneSpec(seed=1, **base))
        b = generate_scene(SceneSpec(seed=2, **base))
        assert not np.array_equal(a.c11, b.c11)

    def test_metadata_passthrough(self):
        spec = SceneSpec(spec=grid(4, 4), background=(1.0, 0.5, 0.0, 0.0),
                         looks=2, seed=7, timestamp=dt.date(2023, 4, 21),
                         orbit=Orbit.DESCENDING)
        out = generate_scene(spec)
        assert out.timestamp == dt.date(2023, 4, 21)
        assert out.orbit == Orbit.DESCENDING
        assert out.spec == spec.spec
        assert out.c11.dtype == np.float32

    def test_scene_mean_matches_truth(self):
        true = (1.0, 0.6, 0.3, -0.2)
        spec = SceneSpec(spec=grid(80, 80), background=true, looks=9, seed=99)
        out = generate_scene(spec)
        assert float(out.c11.mean()) == pytest.approx(true[0], abs=0.03)
        assert float(out.c22.mean()) == pytest.approx(true[1], abs=0.03)
        assert float(out.c12_re.mean()) == pytest.approx(true[2], abs=0.03)
        assert float(out.c12_im.mean()) == pytest.approx(true[3], abs=0.03)

    def test_regions_paint_their_rectangles(self):
        reg = Region((10, 10, 30, 30), (4.0, 0.2, 0.0, 0.0))
        spec = SceneSpec(spec=grid(40, 40), background=(1.0, 0.5, 0.0, 0.0),
                         regions=[reg], looks=25, seed=6)
        out = generate_scene(spec)
        inside = out.c11[10:30, 10:30]
        outside_mean = (float(out.c11.sum()) - float(inside.sum())) / (1600 - 400)
        assert float(inside.mean()) == pytest.approx(4.0, abs=0.2)
        assert outside_mean == pytest.approx(1.0, abs=0.1)

    def test_first_listed_region_wins_overlap(self, caplog):
        first = Region((0, 0, 4, 4), (100.0, 50.0, 0.0, 0.0))
        second = Region((2, 0, 6, 4), (0.01, 0.005, 0.0, 0.0))
        spec = SceneSpec(spec=grid(8, 4), background=(1.0, 0.5, 0.0, 0.0),
                         regions=[first, second], looks=64, seed=12)
        with caplog.at_level("WARNING"):
            out = generate_scene(spec)
        assert float(out.c11[:, 2:4].mean()) > 10.0  # first region's power
        assert float(out.c11[:, 4:6].mean()) < 1.0   # second region alone
        assert any("more than one region" in r.message for r in caplog.records)

    def test_out_of_grid_region_is_ignored(self, caplog):
        reg = Region((100, 100, 120, 120), (9.0, 9.0, 0.0, 0.0))
        spec = SceneSpec(spec=grid(10, 10), background=(1.0, 0.5, 0.0, 0.0),
                         regions=[reg], looks=16, seed=3)
        with caplog.at_level("WARNING"):
            out = generate_scene(spec)
        assert float(out.c11.mean()) == pytest.approx(1.0, abs=0.15)
        assert any("outside" in r.message for r in caplog.records)

    def test_single_look_index_is_exactly_zero(self):
        spec = SceneSpec(spec=grid(30, 30), background=(1.0, 0.4, 0.3, 0.1),
                         looks=1, seed=2023)
        out = dprvi_raster(generate_scene(spec))
        assert np.all(out.values == 0.0)


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
        c11, c22, re, im = (getattr(out, b).astype(np.float64).ravel()
                            for b in ("c11", "c22", "c12_re", "c12_im"))
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
        assert np.isfinite(out.c11).all() and np.isfinite(out.c22).all()
        assert float(out.c11.mean()) == pytest.approx(2.0, rel=0.02)
        assert float(out.c22.mean()) == pytest.approx(0.8, rel=0.02)


class TestOrderIndependence:
    def test_rows_do_not_depend_on_scene_height(self):
        # 64 px rows at 49 looks span more than one row chunk, and the last
        # chunk of each scene holds a different number of rows
        base = dict(background=(1.0, 0.5, 0.1, -0.1), looks=49, seed=808,
                    regions=[Region((10, 3, 40, 30), (3.0, 0.4, 0.2, 0.3))])
        short = generate_scene(SceneSpec(spec=grid(64, 25), **base))
        tall = generate_scene(SceneSpec(spec=grid(64, 70), **base))
        for band in ("c11", "c22", "c12_re", "c12_im"):
            assert getattr(short, band).tobytes() == getattr(tall, band)[:25].tobytes()

    def test_background_pixel_ignores_regions_elsewhere(self):
        base = dict(spec=grid(30, 20), background=(1.0, 0.5, 0.1, -0.1), looks=9, seed=77)
        plain = generate_scene(SceneSpec(**base))
        painted = generate_scene(SceneSpec(
            regions=[Region((5, 4, 12, 15), (4.0, 2.0, 0.0, 1.0))], **base))
        outside = np.ones((20, 30), dtype=bool)
        outside[4:15, 5:12] = False
        for band in ("c11", "c22", "c12_re", "c12_im"):
            a, b = getattr(plain, band), getattr(painted, band)
            assert a[outside].tobytes() == b[outside].tobytes()
            assert not np.array_equal(a[~outside], b[~outside])


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
        spec = scene_from_dict(self.doc(), timestamp=dt.date(2023, 8, 20),
                               orbit=Orbit.ASCENDING, seed=7)
        assert spec.timestamp == dt.date(2023, 8, 20)
        assert spec.orbit == Orbit.ASCENDING
        assert spec.seed == 7

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

    def test_load_scene_round_trip(self, tmp_path):
        p = tmp_path / "scene.json"
        p.write_text(json.dumps(self.doc()))
        spec = load_scene(p)
        assert spec == scene_from_dict(self.doc())
        out1 = generate_scene(spec)
        out2 = generate_scene(scene_from_dict(self.doc()))
        assert out1.c11.tobytes() == out2.c11.tobytes()

"""End-to-end behavior of the file-based command line pipeline."""

import csv
import datetime as dt
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (GRID, OPTICAL_DATES, PARCELS, SAR_CDD, SAR_DATES,
                      build_campaign_workspace, run_cli, seasonal_shape,
                      weather_rows, write_campaign_json, write_config,
                      write_optical_inputs, write_parcels_geojson)
from vinesar import cli, optical, raster, sar, schema, synth
from vinesar.optical import BAND_NAMES
from vinesar.raster import Bundle, GridSpec, Orbit, load_raster, save_bundle
from vinesar.sar import C2_BAND_NAMES, dprvi_from_eigen, eigen_decompose, load_c2, save_c2
from vinesar.synth import Region, SceneSpec, derive_seed, generate_scene, scene_from_dict


def c2_bundle(spec, bands, **kw):
    """A covariance bundle from its four (height, width) bands."""
    return Bundle(spec, list(C2_BAND_NAMES), np.stack(bands), **kw)


# a campaign whose one entry gives its own background, regions and looks
CAMPAIGN_OVERRIDDEN = {
    "grid": GRID, "background": [1.0, 0.5, 0.0, 0.0], "looks": 1, "regions": [],
    "scenes": [{"date": "2023-04-01", "orbit": "ASC", "background": [1.0, 0.5, 0.0, 0.0],
                "looks": 1, "regions": []}]}


def scene_doc(seed=3, looks=2, date="2023-04-21", orbit="DES"):
    return {
        "width": 8, "height": 6,
        "origin_x": 500000.0, "origin_y": 5000000.0,
        "pixel_size_x": 10.0, "pixel_size_y": -10.0, "crs": "EPSG:32632",
        "background": [1.0, 0.5, 0.0, 0.0],
        "regions": [{"rect": [1, 1, 5, 5], "c2": [2.0, 0.2, 0.0, 0.0]}],
        "looks": looks, "seed": seed,
        "timestamp": date, "orbit": orbit,
    }


class TestSynthCommand:
    def test_single_scene(self, tmp_path):
        doc = scene_doc()
        (tmp_path / "scene.json").write_text(json.dumps(doc))
        assert run_cli("synth", str(tmp_path / "scene.json"),
                       "--out", str(tmp_path / "out")) == 0
        c2 = load_c2(tmp_path / "out" / "c2_2023-04-21_DES")
        direct = generate_scene(scene_from_dict(doc))
        assert c2.values[0].tobytes() == direct.values[0].tobytes()
        assert c2.timestamp == dt.date(2023, 4, 21)
        assert c2.orbit == Orbit.DESCENDING

    def test_seed_flag_overrides_document(self, tmp_path):
        doc = scene_doc(seed=3)
        (tmp_path / "scene.json").write_text(json.dumps(doc))
        assert run_cli("synth", str(tmp_path / "scene.json"),
                       "--out", str(tmp_path / "out"), "--seed", "77") == 0
        c2 = load_c2(tmp_path / "out" / "c2_2023-04-21_DES")
        direct = generate_scene(scene_from_dict(doc, seed=77))
        assert c2.values[0].tobytes() == direct.values[0].tobytes()

    def test_campaign_writes_every_acquisition(self, tmp_path):
        write_campaign_json(tmp_path / "campaign.json", looks=1, seed=11)
        assert run_cli("synth", str(tmp_path / "campaign.json"),
                       "--out", str(tmp_path / "out")) == 0
        names = sorted(p.name for p in (tmp_path / "out").glob("c2_*.json"))
        want = sorted(f"c2_{d.isoformat()}_{orbit}.json" for d, orbit in SAR_DATES)
        assert names == want

    def test_campaign_scene_seeds_derive_from_top_seed(self, tmp_path):
        write_campaign_json(tmp_path / "campaign.json", looks=1, seed=999)
        assert run_cli("synth", str(tmp_path / "campaign.json"),
                       "--out", str(tmp_path / "out")) == 0
        campaign = json.loads((tmp_path / "campaign.json").read_text())
        idx = 2
        entry = campaign["scenes"][idx]
        scene = scene_from_dict(
            dict(campaign["grid"],
                 background=campaign["background"],
                 regions=entry["regions"],
                 looks=campaign["looks"],
                 seed=derive_seed(999, idx),
                 timestamp=entry["date"], orbit=entry["orbit"]))
        direct = generate_scene(scene)
        d, orbit = SAR_DATES[idx]
        got = load_c2(tmp_path / "out" / f"c2_{d.isoformat()}_{orbit}")
        assert got.values[0].tobytes() == direct.values[0].tobytes()

    def test_missing_background_fails(self, tmp_path):
        doc = {"grid": GRID, "looks": 1, "seed": 1,
               "scenes": [{"date": "2023-03-28", "orbit": "DES", "regions": []}]}
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        assert run_cli("synth", str(tmp_path / "bad.json"),
                       "--out", str(tmp_path / "out")) == 1


    def test_duplicate_date_and_orbit_is_one_error_line(self, tmp_path, caplog):
        scene = {"date": "2023-03-28", "orbit": "DES", "regions": []}
        doc = {"grid": GRID, "looks": 1, "seed": 1, "background": [1.0, 0.5, 0.0, 0.0],
               "scenes": [scene, dict(scene, orbit="ASC"), scene]}
        (tmp_path / "dup.json").write_text(json.dumps(doc))
        assert run_cli("synth", str(tmp_path / "dup.json"),
                       "--out", str(tmp_path / "out")) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert "c2_2023-03-28_DES" in errors[0]
        assert "#0" in errors[0] and "#2" in errors[0]
        assert not list(tmp_path.glob("out/c2_*"))

    @pytest.mark.parametrize("doc", [
        {"grid": GRID, "background": [1.0, 0.5, 0.0, 0.0], "scenes": [1]},
        {"background": [1.0, 0.5, 0.0, 0.0], "scenes": [{"date": "2023-03-28"}]},
        {"grid": GRID, "background": [1.0, 0.5, 0.0, 0.0], "scenes": {"a": 1}},
        {"grid": GRID, "background": [1.0, 0.5, 0.0, 0.0],
         "scenes": [{"date": "2023-03-28"}, {"date": "2023-04-01", "regions": [1]}]},
        {"grid": GRID, "background": [1.0, 0.5, 0.0, 0.0],
         "scenes": [{"date": "2023-03-28"}, {"date": "2023-04-01", "looks": None}]},
        {"grid": GRID, "background": [1.0, 0.5, 0.0, 0.0], "seed": [1],
         "scenes": [{"date": "2023-03-28"}]},
        dict(scene_doc(), seed=[1]),
        [1, 2],
        # integer fields: int() would read 2.9 as 2, true as 1 and 4.7 as 4
        dict(scene_doc(), looks=2.9),
        dict(scene_doc(), looks=True),
        dict(scene_doc(), width=4.7),
        dict(scene_doc(), height="6"),
        dict(scene_doc(), seed=1.5),
        dict(scene_doc(), regions=[{"rect": [1, 1, 5.5, 5], "c2": [2.0, 0.2, 0.0, 0.0]}]),
        {"grid": GRID, "background": [1.0, 0.5, 0.0, 0.0], "looks": 2.9,
         "scenes": [{"date": "2023-03-28"}]},
        {"grid": GRID, "background": [1.0, 0.5, 0.0, 0.0],
         "scenes": [{"date": "2023-03-28"}, {"date": "2023-04-01", "seed": True}]},
        {"grid": dict(GRID, width=100.5), "background": [1.0, 0.5, 0.0, 0.0],
         "scenes": [{"date": "2023-03-28"}]},
        {"grid": GRID, "background": [1.0, 0.5, 0.0, 0.0], "seed": 3.5,
         "scenes": [{"date": "2023-03-28"}]},
        # the grid follows the bundle header's rules, so synth writes no
        # bundle that sar-index would refuse
        dict(scene_doc(), origin_x=float("nan")),
        dict(scene_doc(), crs=5),
        # covariance entries are JSON numbers, exactly four of them: float()
        # would read "1" and true as 1.0
        dict(scene_doc(), background=["1", "0.5", "0", "0"]),
        dict(scene_doc(), background=[True, 0.5, 0, 0]),
        dict(scene_doc(), background=[1.0, 0.5, 0.0]),
        dict(scene_doc(), regions=[{"rect": [1, 1, 5, 5], "c2": [2.0, "0.2", 0.0, 0.0]}]),
        # one pixel's draws fit in one sampler chunk: 2 * looks + 2 <= 2^16
        dict(scene_doc(), looks=32768),
        dict(scene_doc(), looks=10 ** 30),
        {"grid": GRID, "background": [1.0, 0.5, 0.0, 0.0],
         "scenes": [{"date": "2023-03-28"}, {"date": "2023-04-01", "looks": 32768}]},
        dict(scene_doc(), regions=[{"rect": [1, 1, 5], "c2": [2.0, 0.2, 0.0, 0.0]}]),
        # the campaign's own background, regions and looks are checked even
        # when every entry gives its own
        dict(CAMPAIGN_OVERRIDDEN, background="x"),
        dict(CAMPAIGN_OVERRIDDEN, looks=2.9),
        dict(CAMPAIGN_OVERRIDDEN, regions=5),
    ])
    def test_malformed_campaign_is_one_error_line(self, tmp_path, caplog, doc):
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        assert run_cli("synth", str(tmp_path / "bad.json"),
                       "--out", str(tmp_path / "out")) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "bad.json" in errors[0]
        # every scene is checked before the first one is generated
        assert not list(tmp_path.glob("out/*"))

    @pytest.mark.parametrize("field, doc", [
        ("date", {"grid": GRID, "background": [1.0, 0.5, 0.0, 0.0],
                  "scenes": [{"date": False, "orbit": "DES"}]}),
        ("orbit", {"grid": GRID, "background": [1.0, 0.5, 0.0, 0.0],
                   "scenes": [{"date": "2023-03-28", "orbit": 0}]}),
        ("timestamp", dict(scene_doc(), timestamp=[])),
        ("date", {"grid": GRID, "background": [1.0, 0.5, 0.0, 0.0],
                  "scenes": [{"date": 20230101}]}),
        ("regions", {"grid": GRID, "background": [1.0, 0.5, 0.0, 0.0],
                     "scenes": [{"date": "2023-03-28", "regions": [5]}]}),
    ])
    def test_wrong_type_is_one_error_line_naming_the_field(self, tmp_path, caplog, field,
                                                           doc):
        """A date or orbit of the wrong JSON type is an error, never an
        absent one, and the error names the field as the file spells it."""
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        assert run_cli("synth", str(tmp_path / "bad.json"),
                       "--out", str(tmp_path / "out")) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "bad.json" in errors[0] and f"'{field}'" in errors[0]
        assert not list(tmp_path.glob("out/*"))

    def test_a_key_error_is_a_fault_not_an_error_line(self, tmp_path, monkeypatch, caplog):
        """No KeyError comes from parsed input, so one from a kernel is a
        fault of the program: it propagates, and no error line hides it."""
        def broken(scene):
            raise KeyError("C11")

        monkeypatch.setattr(synth, "generate_scene", broken)
        (tmp_path / "scene.json").write_text(json.dumps(scene_doc()))
        with pytest.raises(KeyError, match="C11"):
            run_cli("synth", str(tmp_path / "scene.json"), "--out", str(tmp_path / "out"))
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    def test_integral_float_fields_are_integers(self, tmp_path):
        doc = scene_doc(looks=3)
        floats = dict(doc, looks=3.0, width=8.0, seed=3.0,
                      regions=[{"rect": [1.0, 1, 5, 5.0], "c2": [2.0, 0.2, 0.0, 0.0]}])
        for name, d in (("ints", doc), ("floats", floats)):
            (tmp_path / f"{name}.json").write_text(json.dumps(d))
            assert run_cli("synth", str(tmp_path / f"{name}.json"),
                           "--out", str(tmp_path / name)) == 0
        a, b = (tmp_path / name / "c2_2023-04-21_DES.bin" for name in ("ints", "floats"))
        assert a.read_bytes() == b.read_bytes()

    def test_campaign_writes_the_same_bytes_on_one_thread_and_on_three(
            self, tmp_path, monkeypatch, caplog):
        caplog.set_level(logging.INFO)
        ws = build_campaign_workspace(tmp_path / "w")
        outs, logs = {}, {}
        for threads in (1, 3):
            monkeypatch.setattr(cli, "_pool_size", lambda n, size: min(threads, n))
            out = tmp_path / f"threads{threads}"
            caplog.clear()
            assert run_cli("synth", str(ws["campaign"]), "--config", str(ws["config"]),
                           "--out", str(out)) == 0
            outs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
            logs[threads] = [r.getMessage() for r in caplog.records]
        assert len(outs[1]) == 2 * len(SAR_DATES)
        assert outs[1] == outs[3]
        # the wrote lines come in scene order whatever the pool size
        want = [f"wrote c2_{d.isoformat()}_{orbit} (100x100, 49 looks)"
                for d, orbit in SAR_DATES]
        assert logs[1] == logs[3] == want

    def test_pool_is_sized_by_pixel_looks(self, tmp_path, monkeypatch):
        sizes = []
        monkeypatch.setattr(cli, "_pool_size", lambda n, size: sizes.append((n, size)) or 1)
        write_campaign_json(tmp_path / "campaign.json", looks=3, seed=5)
        assert run_cli("synth", str(tmp_path / "campaign.json"),
                       "--out", str(tmp_path / "out")) == 0
        assert sizes == [(len(SAR_DATES), GRID["width"] * GRID["height"] * 3)]

    def test_pooled_scene_warnings_name_their_scene(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(cli, "_pool_size", lambda n, size: min(3, n))
        outside = {"rect": [500, 500, 510, 510], "c2": [1.0, 0.5, 0.0, 0.0]}
        scenes = [{"date": f"2023-05-0{day}", "orbit": "DES",
                   "regions": [outside] if day in (2, 3) else []} for day in range(1, 5)]
        doc = {"grid": GRID, "looks": 2, "seed": 1, "background": [1.0, 0.5, 0.0, 0.0],
               "scenes": scenes}
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert run_cli("synth", str(tmp_path / "c.json"), "--out", str(tmp_path / "out")) == 0
        warnings = sorted(r.getMessage() for r in caplog.records if r.levelname == "WARNING")
        assert warnings == [f"2023-05-0{day} DES: region #0 (500, 500, 510, 510) lies "
                            "outside the 100x100 grid" for day in (2, 3)]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_failed_save_is_one_error_line(self, tmp_path, monkeypatch, caplog, threads):
        monkeypatch.setattr(cli, "_pool_size", lambda n, size: min(threads, n))
        write_campaign_json(tmp_path / "campaign.json", looks=2, seed=5)
        d, orbit = SAR_DATES[4]
        blocked = tmp_path / "out" / f"c2_{d.isoformat()}_{orbit}.bin"
        blocked.mkdir(parents=True)
        assert run_cli("synth", str(tmp_path / "campaign.json"),
                       "--out", str(tmp_path / "out")) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and blocked.name in errors[0], errors
        assert blocked.is_dir()
        assert (tmp_path / "out" / f"c2_{SAR_DATES[3][0].isoformat()}_ASC.bin").is_file()


class TestSarIndexCommand:
    def test_produces_index_bundles(self, tmp_path):
        for date, orbit, seed in (("2023-03-28", "DES", 1), ("2023-03-29", "ASC", 2)):
            doc = scene_doc(seed=seed, looks=8, date=date, orbit=orbit)
            p = tmp_path / f"scene_{seed}.json"
            p.write_text(json.dumps(doc))
            assert run_cli("synth", str(p), "--out", str(tmp_path / "out")) == 0
        assert run_cli("sar-index", "--out", str(tmp_path / "out"),
                       "--multilook", "2x2") == 0
        out = load_raster(tmp_path / "out" / "dprvi_2023-03-28_DES")
        assert out.spec.width == 4 and out.spec.height == 3
        assert out.spec.pixel_size_x == 20.0
        assert out.orbit == Orbit.DESCENDING
        vals = out.values[np.isfinite(out.values)]
        assert vals.size and np.all((vals >= 0.0) & (vals <= 1.0))
        assert (tmp_path / "out" / "dprvi_2023-03-29_ASC.json").exists()

    def test_boxcar_changes_output(self, tmp_path):
        doc = scene_doc(seed=5, looks=2)
        (tmp_path / "scene.json").write_text(json.dumps(doc))
        assert run_cli("synth", str(tmp_path / "scene.json"),
                       "--out", str(tmp_path / "a")) == 0
        assert run_cli("sar-index", "--out", str(tmp_path / "a"),
                       "--multilook", "1x1") == 0
        plain = load_raster(tmp_path / "a" / "dprvi_2023-04-21_DES").values
        assert run_cli("synth", str(tmp_path / "scene.json"),
                       "--out", str(tmp_path / "b")) == 0
        assert run_cli("sar-index", "--out", str(tmp_path / "b"),
                       "--multilook", "1x1", "--boxcar", "3") == 0
        smooth = load_raster(tmp_path / "b" / "dprvi_2023-04-21_DES").values
        assert not np.array_equal(plain, smooth)

    def test_each_scene_is_indexed_on_its_own_grid(self, tmp_path, caplog):
        wide = scene_doc(seed=2, date="2023-05-27")
        wide["width"] = 12
        for doc in (scene_doc(seed=1), wide):
            (tmp_path / "s.json").write_text(json.dumps(doc))
            assert run_cli("synth", str(tmp_path / "s.json"), "--out", str(tmp_path / "a")) == 0
            alone = tmp_path / doc["timestamp"]
            assert run_cli("synth", str(tmp_path / "s.json"), "--out", str(alone)) == 0
            assert run_cli("sar-index", "--out", str(alone), "--multilook", "2x2") == 0
        caplog.clear()
        assert run_cli("sar-index", "--out", str(tmp_path / "a"), "--multilook", "2x2") == 0
        assert not [r for r in caplog.records if r.levelname in ("WARNING", "ERROR")]
        for date, width in (("2023-04-21", 4), ("2023-05-27", 6)):
            name = f"dprvi_{date}_DES"
            assert load_raster(tmp_path / "a" / name).spec.width == width
            for suffix in (".json", ".bin"):
                assert (tmp_path / "a" / name).with_suffix(suffix).read_bytes() == \
                    (tmp_path / date / name).with_suffix(suffix).read_bytes()

    def test_misaligned_stack_fails(self, tmp_path, caplog):
        """A stack on two grids no longer fails as a whole: only its scene too
        narrow for the multilook window fails, with one error line, and the
        wider scene is indexed on its own grid."""
        wide = scene_doc(seed=2, date="2023-05-27")
        wide["width"] = 12
        for name, doc in (("a", scene_doc(seed=1)), ("b", wide)):
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(doc))
            assert run_cli("synth", str(p), "--out", str(tmp_path / "out")) == 0
        caplog.clear()
        assert run_cli("sar-index", "--out", str(tmp_path / "out"),
                       "--multilook", "10x1") == 0
        narrow = tmp_path / "out" / "c2_2023-04-21_DES.json"
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"skipping {narrow}: window 10x1 exceeds raster 8x6"]
        assert sorted(p.name for p in (tmp_path / "out").glob("dprvi_*.json")) == [
            "dprvi_2023-05-27_DES.json"]
        assert load_raster(tmp_path / "out" / "dprvi_2023-05-27_DES").spec.width == 1

    @pytest.mark.parametrize("fault", ["misaligned"])
    def test_bad_bundle_sorted_last_stops_before_any_output(self, tmp_path, caplog, fault):
        """A bundle on another grid sorted last once stopped the stage before
        any output; it is now indexed on its own grid after the others."""
        rng = np.random.default_rng(4)
        spec = GridSpec(6, 5, 500000.0, 5000000.0, 10.0, -10.0, "EPSG:32632")
        wide = GridSpec(7, 5, 500000.0, 5000000.0, 10.0, -10.0, "EPSG:32632")
        for date, s in (("2023-04-21", spec), ("2023-05-27", spec), ("2023-12-31", wide)):
            c11 = rng.uniform(0.5, 2.0, size=(s.height, s.width))
            save_c2(c2_bundle(s, (c11, 0.5 * c11, 0.1 * c11, 0.0 * c11),
                              timestamp=dt.date.fromisoformat(date)),
                    tmp_path / f"c2_{date}_DES")
        caplog.set_level(logging.INFO)
        assert run_cli("sar-index", "--out", str(tmp_path), "--multilook", "1x1",
                       "--boxcar", "3") == 0
        assert not [r for r in caplog.records if r.levelname in ("WARNING", "ERROR")]
        wrote = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
        assert wrote == [f"wrote dprvi_{d}_DES" for d in ("2023-04-21", "2023-05-27",
                                                          "2023-12-31")]
        assert [load_raster(tmp_path / f"dprvi_{d}_DES").spec.width
                for d in ("2023-04-21", "2023-12-31")] == [6, 7]

    @pytest.mark.parametrize("fault", ["wrong bands", "truncated payload"])
    def test_bad_bundle_sorted_last_is_skipped(self, tmp_path, caplog, fault):
        rng = np.random.default_rng(4)
        spec = GridSpec(6, 5, 500000.0, 5000000.0, 10.0, -10.0, "EPSG:32632")

        def bands(s):
            c11 = rng.uniform(0.5, 2.0, size=(s.height, s.width))
            return c11, 0.5 * c11, 0.1 * c11, 0.0 * c11

        for date in ("2023-04-21", "2023-05-27"):
            save_c2(c2_bundle(spec, bands(spec), timestamp=dt.date.fromisoformat(date)),
                    tmp_path / f"c2_{date}_DES")
        last = tmp_path / "c2_2023-12-31_DES"
        if fault == "wrong bands":
            save_bundle(last, spec, list(zip(("C11", "C22", "C12_re", "X"), bands(spec))))
        else:
            save_c2(c2_bundle(spec, bands(spec)), last)
            with open(last.with_suffix(".bin"), "r+b") as f:
                f.truncate(4 * 6 * 5 * 4 - 4)
        assert run_cli("sar-index", "--out", str(tmp_path), "--multilook", "1x1",
                       "--boxcar", "3") == 0
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].startswith(f"skipping {last}.json: ")
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["skipped 1 acquisitions: c2_2023-12-31_DES.json"]
        assert sorted(p.name for p in tmp_path.glob("dprvi_*.json")) == [
            "dprvi_2023-04-21_DES.json", "dprvi_2023-05-27_DES.json"]

    def test_no_bundles_fails(self, tmp_path):
        (tmp_path / "out").mkdir()
        assert run_cli("sar-index", "--out", str(tmp_path / "out")) == 1

    @staticmethod
    def write_small_stack(tmp_path, dates):
        spec = GridSpec(6, 5, 500000.0, 5000000.0, 10.0, -10.0, "EPSG:32632")
        c11 = np.full((5, 6), 1.5)
        for date in dates:
            save_c2(c2_bundle(spec, (c11, 0.5 * c11, 0.1 * c11, 0.0 * c11),
                              timestamp=dt.date.fromisoformat(date)), tmp_path / f"c2_{date}_DES")

    @pytest.mark.parametrize("threads", [1, 3])
    def test_scenes_failing_to_load_are_skipped(self, tmp_path, caplog, monkeypatch,
                                                threads):
        dates = [f"2023-0{m}-01" for m in range(3, 8)]
        self.write_small_stack(tmp_path, dates)
        # the payloads of scenes 1 and 3 cannot be read; on the pool, scene 1
        # fails only after scene 3 has failed, so it is last in time but first
        # in sorted order
        real_load = sar.load_bundle
        attempted = []
        scene3_failed = threading.Event()

        def load(path):
            attempted.append(dates.index(Path(path).stem.split("_")[1]))
            if dates[1] in str(path) and threads > 1:
                assert scene3_failed.wait(timeout=30)
            if dates[1] in str(path) or dates[3] in str(path):
                if dates[3] in str(path):
                    scene3_failed.set()
                binary = Path(path).with_suffix(".bin")
                raise PermissionError(13, "Permission denied", str(binary))
            return real_load(path)

        monkeypatch.setattr(sar, "load_bundle", load)
        monkeypatch.setattr(cli, "_pool_size", lambda n, px: min(threads, n))
        assert run_cli("sar-index", "--out", str(tmp_path), "--multilook", "1x1") == 0
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert [e.split(":")[0] for e in errors] == [
            f"skipping {tmp_path / f'c2_{dates[k]}_DES.json'}" for k in (1, 3)], errors
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"skipped 2 acquisitions: c2_{dates[1]}_DES.json, "
                            f"c2_{dates[3]}_DES.json"]
        assert sorted(attempted) == [0, 1, 2, 3, 4]
        assert sorted(p.name for p in tmp_path.glob("dprvi_*.json")) == [
            f"dprvi_{dates[k]}_DES.json" for k in (0, 2, 4)]

    def test_scenes_not_started_are_cancelled_after_a_failure(self, tmp_path, monkeypatch,
                                                              caplog):
        dates = [f"2023-05-0{day}" for day in range(1, 9)]
        self.write_small_stack(tmp_path, dates)
        # a folder where scene 0's index payload goes: its save fails, which
        # ends the stage
        blocked = tmp_path / f"dprvi_{dates[0]}_DES.bin"
        blocked.mkdir()
        shutting_down = threading.Event()

        class Pool(cli.ThreadPoolExecutor):
            """Tells the scenes when the stage has stopped handing out work."""

            def shutdown(self, *args, **kwargs):
                shutting_down.set()
                super().shutdown(*args, **kwargs)

        real_load = sar.load_bundle
        attempted = []

        def load(path):
            attempted.append(dates.index(Path(path).stem.split("_")[1]))
            if dates[0] not in str(path):
                # every other scene holds its thread until the stage has read
                # the failure and cancelled what had not started
                assert shutting_down.wait(timeout=30)
            return real_load(path)

        monkeypatch.setattr(sar, "load_bundle", load)
        monkeypatch.setattr(cli, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(cli, "_pool_size", lambda n, px: 2)
        assert run_cli("sar-index", "--out", str(tmp_path), "--multilook", "1x1") == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and str(blocked) in errors[0], errors
        assert blocked.is_dir()
        # scene 1 runs on the second thread; the first thread may take scene 2
        # before the failure is read; scenes 3 to 7 never start
        assert {0, 1} <= set(attempted) <= {0, 1, 2}, attempted

    def test_non_psd_pixel_becomes_nodata(self, tmp_path):
        rng = np.random.default_rng(8)
        c11 = rng.uniform(0.5, 2.0, size=(4, 4))
        c22 = rng.uniform(0.1, 1.0, size=(4, 4))
        re = 0.5 * np.sqrt(c11 * c22)
        im = np.zeros((4, 4))
        re[1, 1] = 5.0  # |c12|^2 > c11 * c22
        c2 = c2_bundle(GridSpec(4, 4, 500000.0, 5000000.0, 10.0, -10.0, "EPSG:32632"),
                       (c11, c22, re, im), timestamp=dt.date(2023, 4, 21),
                       orbit=Orbit.DESCENDING)
        save_c2(c2, tmp_path / "c2_2023-04-21_DES")
        assert run_cli("sar-index", "--out", str(tmp_path),
                       "--multilook", "1x1") == 0
        out = load_raster(tmp_path / "dprvi_2023-04-21_DES").values
        assert np.isnan(out[1, 1])
        assert np.isfinite(out).sum() == 15

        assert run_cli("sar-index", "--out", str(tmp_path),
                       "--multilook", "2x2") == 0
        out = load_raster(tmp_path / "dprvi_2023-04-21_DES").values
        good = [(0, 0), (0, 1), (1, 0)]
        mean = [float(np.mean([band[rc] for rc in good], dtype=np.float64))
                for band in c2.values]
        want = dprvi_from_eigen(eigen_decompose(*(float(np.float32(v)) for v in mean)))
        assert out[0, 0] == np.float32(want)
        assert np.isfinite(out).all()


class TestOpticalCommand:
    def test_split_resolution_products(self, campaign_run):
        out = campaign_run["out"]
        for date in OPTICAL_DATES:
            tag = date.isoformat()
            for prefix in ("ndvi", "svhi", "lai"):
                assert (out / f"{prefix}_{tag}.json").exists()
        # constant-reflectance scene: check one date against the formulas
        date = OPTICAL_DATES[0]
        s = seasonal_shape(date)
        b4, b8 = 0.25 - 0.18 * s, 0.20 + 0.30 * s
        ndvi = load_raster(out / f"ndvi_{date.isoformat()}")
        assert ndvi.spec.width == GRID["width"]  # products on the 10 m grid
        assert float(ndvi.values[0, 0]) == pytest.approx(
            (b8 - b4) / (b8 + b4), rel=1e-5)
        b5, b11, b12 = 0.9 * b4 + 0.02, 0.20 - 0.06 * s, 0.15 - 0.04 * s
        ssum = b4 + b5 + b11 + b12
        svhi = load_raster(out / f"svhi_{date.isoformat()}")
        assert float(svhi.values[0, 0]) == pytest.approx(
            (4 * b8 - ssum) / (4 * b8 + ssum), rel=1e-5)
        lai = load_raster(out / f"lai_{date.isoformat()}")
        assert float(lai.values[0, 0]) == pytest.approx(0.25 + 2.21 * s, rel=1e-6)
        assert ndvi.timestamp == date

    def test_no_inputs_fails(self, tmp_path):
        (tmp_path / "out").mkdir()
        assert run_cli("optical-index", "--out", str(tmp_path / "out")) == 1

    def test_orphan_half_is_skipped(self, tmp_path):
        ws = build_campaign_workspace(tmp_path / "w")
        write_optical_inputs(ws["out"])
        # drop one 20 m bundle; its date is skipped, the others still produce
        (ws["out"] / "bands20_2023-04-26.json").unlink()
        assert run_cli("optical-index", "--out", str(ws["out"])) == 0
        assert not (ws["out"] / "ndvi_2023-04-26.json").exists()
        assert (ws["out"] / "ndvi_2023-03-27.json").exists()

    @staticmethod
    def optical_workspace(root, keep):
        """Optical inputs under root/raw, only the bundles whose stem ``keep``
        accepts, and a config writing to root/out."""
        (root / "raw").mkdir(parents=True)
        write_optical_inputs(root / "raw")
        for p in (root / "raw").iterdir():
            if not keep(p.stem):
                p.unlink()
        (root / "config.json").write_text(json.dumps({"rasters_dir": "raw",
                                                      "out_dir": "out"}))
        return root / "config.json"

    def test_lai_alone_is_written(self, tmp_path, caplog):
        config = self.optical_workspace(tmp_path, lambda stem: stem.startswith("lai_"))
        assert run_cli("optical-index", "--config", str(config)) == 0
        assert not [r for r in caplog.records if r.levelname in ("WARNING", "ERROR")]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
            f"lai_{d.isoformat()}{suffix}" for d in OPTICAL_DATES for suffix in (".bin", ".json"))

    def test_every_acquisition_skipped_writes_nothing_and_fails(self, tmp_path, caplog):
        tag = OPTICAL_DATES[0].isoformat()
        config = self.optical_workspace(tmp_path, lambda stem: stem == f"bands10_{tag}")
        assert run_cli("optical-index", "--config", str(config)) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"skipping {tmp_path / 'raw' / f'bands10_{tag}.json'}: missing "
                          f"header {tmp_path / 'raw' / f'bands20_{tag}.json'}"]
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"skipped 1 acquisitions: bands10_{tag}.json"]
        assert not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("paired, rc", [(True, 0), (False, 1)])
    def test_lone_bands20_is_one_skip_line(self, tmp_path, caplog, paired, rc):
        """A bands20_* bundle without its bands10_* half is skipped with one
        error line; beside nothing else, the stage exits 1."""
        tag, lone = (d.isoformat() for d in OPTICAL_DATES[:2])
        keep = {f"bands20_{lone}"} | ({f"bands10_{tag}", f"bands20_{tag}"} if paired else set())
        config = self.optical_workspace(tmp_path, keep.__contains__)
        assert run_cli("optical-index", "--config", str(config)) == rc
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"skipping {tmp_path / 'raw' / f'bands20_{lone}.json'}: "
                          f"no bands10_{lone}.json beside it"]
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"skipped 1 acquisitions: bands20_{lone}.json"]
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == (sorted(f"{kind}_{tag}{suffix}" for kind in ("ndvi", "svhi")
                                  for suffix in (".bin", ".json")) if paired else [])

    def test_single_grid_bundle_gives_the_indices_of_its_bands(self, tmp_path):
        date = OPTICAL_DATES[2]
        spec = GridSpec(**dict(GRID, width=8, height=6))
        rng = np.random.default_rng(5)
        config = self.optical_workspace(tmp_path, lambda stem: False)
        bundle = save_bundle(tmp_path / "raw" / f"bands_{date}", spec,
                             [(name, rng.uniform(0.05, 0.6, (6, 8)).astype(np.float32))
                              for name in BAND_NAMES], timestamp=date)
        assert run_cli("optical-index", "--config", str(config)) == 0
        bands = optical.bandset_from_bundle(bundle)
        for prefix, index in (("ndvi", optical.ndvi), ("svhi", optical.svhi)):
            got, want = load_raster(tmp_path / "out" / f"{prefix}_{date}"), index(bands)
            assert (got.spec, got.band_name, got.timestamp) == (
                want.spec, want.band_name, want.timestamp)
            np.testing.assert_array_equal(got.values, want.values)
        assert len(list((tmp_path / "out").iterdir())) == 4

    @pytest.mark.parametrize("threads", [1, 3])
    def test_single_and_split_bundles_of_one_suffix_are_refused(
            self, tmp_path, caplog, monkeypatch, threads):
        ws = build_campaign_workspace(tmp_path / "w")
        write_optical_inputs(ws["out"])
        tag = OPTICAL_DATES[1].isoformat()
        spec = GridSpec(**GRID)
        save_bundle(ws["out"] / f"bands_{tag}", spec,
                    [(name, np.full((spec.height, spec.width), 0.2, dtype=np.float32))
                     for name in BAND_NAMES], timestamp=OPTICAL_DATES[1])
        monkeypatch.setattr(cli, "_pool_size", lambda n, px: min(threads, n))
        # both would write ndvi_<tag> and svhi_<tag>
        assert run_cli("optical-index", "--out", str(ws["out"])) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1, errors
        assert f"bands_{tag}" in errors[0] and f"bands10_{tag}" in errors[0]
        assert not list(ws["out"].glob("ndvi_*")) and not list(ws["out"].glob("svhi_*"))


def test_index_stages_write_the_same_bytes_on_one_thread_and_on_three(
        tmp_path, monkeypatch):
    ws = build_campaign_workspace(tmp_path / "w")
    assert run_cli("synth", str(ws["campaign"]), "--config", str(ws["config"])) == 0
    write_optical_inputs(ws["out"])
    outs = {}
    for threads in (1, 3):
        monkeypatch.setattr(cli, "_pool_size", lambda n, px: min(threads, n))
        out = shutil.copytree(ws["out"], tmp_path / f"threads{threads}")
        for stage in ("sar-index", "optical-index"):
            assert run_cli(stage, "--config", str(ws["config"]), "--out", str(out)) == 0
        outs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len([n for n in outs[1] if n.startswith(("dprvi_", "ndvi_", "svhi_"))]) == 2 * (
        len(SAR_DATES) + 2 * len(OPTICAL_DATES))
    assert outs[1] == outs[3]


def _fault_bundle(stem: Path, fault: str) -> None:
    """Break the bundle ``stem`` (a path without suffix) in the way ``fault`` names."""
    header = stem.with_suffix(".json")
    if fault == "truncated payload":
        with open(stem.with_suffix(".bin"), "r+b") as f:
            f.truncate(stem.with_suffix(".bin").stat().st_size - 4)
    elif fault == "bad header field":
        header.write_text(json.dumps(dict(json.loads(header.read_text()), dtype="f64le")))
    elif fault == "wrong bands":
        b = raster.load_bundle(stem)
        save_bundle(stem, b.spec, [("X", b.values[0]), ("Y", b.values[0])],
                    timestamp=b.timestamp, orbit=b.orbit)
    else:  # unreadable file
        header.unlink()
        header.mkdir()


# stage -> (input folder, the bundles copied into it from the campaign run,
# the bad acquisition's bundles, the one the fault breaks, an output's prefix)
SKIP_CASES = {
    "sar-index": ("raw", ["c2_2023-03-28_DES", "c2_2023-05-27_DES", "c2_2023-07-20_DES"],
                  ["c2_2023-05-27_DES"], "c2_2023-05-27_DES", "dprvi_"),
    "optical-index": ("raw", [f"{kind}_{day}" for kind in ("bands10", "bands20", "lai")
                              for day in ("2023-03-27", "2023-04-26", "2023-05-26")],
                      ["bands10_2023-04-26", "bands20_2023-04-26"], "bands10_2023-04-26",
                      "svhi_"),
    "zonal": ("out", ["dprvi_2023-03-28_DES", "dprvi_2023-05-27_DES", "ndvi_2023-04-26",
                      "lai_2023-04-26"], ["dprvi_2023-05-27_DES"], "dprvi_2023-05-27_DES",
              "zonal.csv"),
}


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("fault", ["truncated payload", "bad header field", "wrong bands",
                                   "unreadable file"])
@pytest.mark.parametrize("stage", sorted(SKIP_CASES))
def test_bad_acquisition_is_skipped(campaign_run, tmp_path, monkeypatch, caplog, stage,
                                    fault, threads):
    """One bad file in a per-acquisition stage gives one error line and a
    closing skip list; every other output is as from a folder without that
    acquisition, whatever the pool size."""
    folder, bundles, acquisition, bad, written = SKIP_CASES[stage]
    # a scene size of 0 (zonal, whose bundles share the mask cache) keeps
    # one thread, as in _pool_size
    monkeypatch.setattr(cli, "_pool_size", lambda n, size: min(threads, n) if size else 1)
    outs = {}
    for case in ("with", "without"):
        root = tmp_path / case
        (root / "raw").mkdir(parents=True)
        (root / "out").mkdir()
        write_parcels_geojson(root / "parcels.geojson")
        (root / "config.json").write_text(json.dumps({
            "rasters_dir": "raw", "out_dir": "out", "parcels": "parcels.geojson",
            "multilook": [2, 2], "boxcar": 3}))
        for name in bundles:
            if case == "with" or name not in acquisition:
                for suffix in (".json", ".bin"):
                    shutil.copy(campaign_run["out"] / f"{name}{suffix}", root / folder)
        if case == "with":
            _fault_bundle(root / folder / bad, fault)
        caplog.clear()
        assert run_cli(stage, "--config", str(root / "config.json")) == 0
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        skips = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        if case == "with":
            assert len(errors) == 1, errors
            assert errors[0].startswith(f"skipping {root / folder / bad}.json: "), errors
            assert skips == [f"skipped 1 acquisitions: {bad}.json"]
        else:
            assert errors == [] and skips == []
        outs[case] = {p.name: p.read_bytes() for p in (root / "out").iterdir()
                      if p.is_file() and not p.name.startswith(bad)}
    assert outs["with"] == outs["without"]
    assert any(name.startswith(written) for name in outs["with"])


class TestScenePool:
    def test_pool_size_is_capped_by_max_jobs_and_scene_count(self, monkeypatch):
        before = threading.active_count()
        cpus = len(os.sched_getaffinity(0))
        big = raster.BLOCK_PX + 1
        assert cli._pool_size(10 ** 6, big) == min(cpus, cli._MAX_JOBS)
        assert cli._pool_size(1, big) == 1
        assert cli._pool_size(0, big) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(10 ** 9))
        assert cli._pool_size(3, big) == 3
        assert cli._pool_size(10 ** 6, big) == cli._MAX_JOBS
        # a scene that fits in one kernel block runs on the calling thread
        assert cli._pool_size(10 ** 6, raster.BLOCK_PX) == 1
        assert threading.active_count() == before

    def test_pool_of_a_huge_host_is_clamped_to_the_scene_count(self, tmp_path, monkeypatch):
        sizes = []

        class InlinePool:
            """Runs the tasks on the calling thread; records the pool size."""

            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", InlinePool)
        for seed, date in ((1, "2023-03-28"), (2, "2023-04-21"), (3, "2023-05-27")):
            (tmp_path / "s.json").write_text(json.dumps(scene_doc(seed=seed, date=date)))
            assert run_cli("synth", str(tmp_path / "s.json"), "--out", str(tmp_path)) == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(10 ** 9))
        before = threading.active_count()
        # 8x6 scenes fit in one block: no pool
        assert run_cli("sar-index", "--out", str(tmp_path), "--multilook", "1x1") == 0
        assert sizes == []
        monkeypatch.setattr(raster, "BLOCK_PX", 16)
        assert run_cli("sar-index", "--out", str(tmp_path), "--multilook", "1x1") == 0
        assert threading.active_count() == before
        assert sizes == [3]
        assert len(list(tmp_path.glob("dprvi_*.json"))) == 3


# the one error line of each stage that reads, run on an empty source folder
NO_INPUT_LINES = {
    "sar-index": "no c2_*.json under {}",
    "optical-index": "no bands_*.json, bands10_*.json, bands20_*.json, lai_*.json under {}",
    "zonal": "no dprvi_*.json, ndvi_*.json, svhi_*.json, lai_*.json under {}",
    "trend": "no zonal.csv under {}",
    "report": "no trend.csv, trend_groups.csv, correlation.csv under {}",
}


@pytest.mark.parametrize("stage", [name for name, row in cli.STAGES.items() if row.reads])
def test_reads_that_match_nothing_are_one_error_line(campaign_run, tmp_path, caplog, stage):
    """Each stage with reads, its config otherwise complete (parcels and
    weather set), exits 1 with one error line naming its empty source
    folder, and writes nothing."""
    for name in ("weather.csv", "parcels.geojson"):
        shutil.copy(campaign_run["root"] / name, tmp_path / name)
    write_config(tmp_path / "config.json", tmp_path / "out")
    doc = json.loads((tmp_path / "config.json").read_text())
    (tmp_path / "config.json").write_text(json.dumps(dict(doc, rasters_dir="raw")))
    for folder in ("raw", "out"):
        (tmp_path / folder).mkdir()
    source = tmp_path / ("raw" if stage in ("sar-index", "optical-index") else "out")
    assert run_cli(stage, "--config", str(tmp_path / "config.json")) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [NO_INPUT_LINES[stage].format(source)]
    assert not list((tmp_path / "out").iterdir())


def read_rows(path):
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def trend_workspace(campaign_run, root):
    """A workspace holding the campaign's zonal.csv, weather and parcels."""
    (root / "out").mkdir(parents=True)
    for name in ("weather.csv", "parcels.geojson"):
        shutil.copy(campaign_run["root"] / name, root / name)
    shutil.copy(campaign_run["out"] / "zonal.csv", root / "out" / "zonal.csv")
    write_config(root / "config.json", root / "out")
    return root


class TestZonalCommand:
    def test_row_population(self, campaign_run):
        rows = read_rows(campaign_run["out"] / "zonal.csv")
        # 12 radar acquisitions + 3 optical products on 6 dates, 12 parcels
        assert len(rows) == 12 * 12 + 3 * 6 * 12
        bands = {r["band"] for r in rows}
        assert bands == {"DpRVI", "NDVI", "SVHI", "LAI"}
        dprvi = [r for r in rows if r["band"] == "DpRVI"]
        assert len(dprvi) == 144
        assert {r["orbit"] for r in dprvi} == {"ASC", "DES"}
        assert {r["parcel_id"] for r in dprvi} == {p[0] for p in PARCELS}
        # multilooked 20 m grid, eroded 1 px: EW 10x5 -> 8x3, NS 5x10 -> 3x8
        assert {int(r["count"]) for r in dprvi} == {24}
        for r in dprvi:
            assert 0.0 <= float(r["mean"]) <= 1.0

    def test_requires_parcels(self, tmp_path):
        (tmp_path / "out").mkdir()
        assert run_cli("zonal", "--out", str(tmp_path / "out")) == 1

    def test_parcel_over_nodata_only_is_a_warning(self, campaign_run, tmp_path, caplog):
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(campaign_run["root"] / "parcels.geojson", tmp_path)
        write_config(tmp_path / "config.json", out)
        spec = GridSpec(**GRID)
        values = np.full((spec.height, spec.width), 0.5, dtype=np.float32)
        pid, _, x0, y0, x1, y1 = PARCELS[0]
        values[y0:y1, x0:x1] = np.nan
        date = dt.date(2023, 4, 21)
        save_bundle(out / f"dprvi_{date}_DES", spec, [("DpRVI", values)], timestamp=date,
                    orbit=Orbit.DESCENDING)
        assert run_cli("zonal", "--config", str(tmp_path / "config.json")) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"parcel {pid}: only nodata under the mask in dprvi_{date}_DES.json"]
        rows = read_rows(out / "zonal.csv")
        assert [r["parcel_id"] for r in rows] == sorted(p[0] for p in PARCELS[1:])

    def test_stdout_echo(self, campaign_run, capsys):
        cfg = str(campaign_run["config"])
        assert run_cli("zonal", "--config", cfg, "--stdout") == 0
        got = capsys.readouterr().out
        assert got.splitlines()[0] == ("parcel_id,band,timestamp,orbit,"
                                       "count,mean,std,min,max")
        assert got == (campaign_run["out"] / "zonal.csv").read_text()

    def test_rows_are_in_path_order_on_any_pool(self, campaign_run, tmp_path, monkeypatch):
        written = {}
        for threads in (1, 3):
            monkeypatch.setattr(cli, "_pool_size", lambda n, size: threads)
            out = shutil.copytree(campaign_run["out"], tmp_path / f"threads{threads}")
            assert run_cli("zonal", "--config", str(campaign_run["config"]),
                           "--out", str(out)) == 0
            written[threads] = (out / "zonal.csv").read_bytes()
        assert written[3] == written[1] == (campaign_run["out"] / "zonal.csv").read_bytes()


class TestDegreeDaysCommand:
    def test_hits_pinned_accumulations(self, campaign_run):
        rows = read_rows(campaign_run["out"] / "degree_days.csv")
        assert rows[0]["date"] == "2023-01-01"
        assert rows[-1]["date"] == "2023-09-30"
        assert len(rows) == 273
        by_date = {r["date"]: float(r["cdd"]) for r in rows}
        for (date, _), cdd in zip(SAR_DATES, SAR_CDD):
            assert by_date[date.isoformat()] == pytest.approx(cdd, abs=1e-9)
        cdds = [float(r["cdd"]) for r in rows]
        assert all(b >= a for a, b in zip(cdds, cdds[1:]))

    def test_requires_weather(self, tmp_path):
        (tmp_path / "out").mkdir()
        assert run_cli("degree-days", "--out", str(tmp_path / "out")) == 1

    @pytest.mark.parametrize("stage", ["degree-days", "trend"])
    @pytest.mark.parametrize("edit, n_cells", [(lambda cells: cells[:2], 2),
                                               (lambda cells: cells + ["0.0"], 5)],
                             ids=["short-row", "long-row"])
    def test_malformed_weather_row_is_one_error_line(self, campaign_run, tmp_path, caplog,
                                                     stage, edit, n_cells):
        root = trend_workspace(campaign_run, tmp_path)
        weather = root / "weather.csv"
        lines = weather.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        weather.write_text("\n".join(lines) + "\n")
        assert run_cli(stage, "--config", str(root / "config.json")) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{weather}, line 3: {n_cells} cells, expected 4"]

    @pytest.mark.parametrize("stage", ["degree-days", "trend"])
    @pytest.mark.parametrize("value", ["nan", "1e400"])
    def test_non_finite_precipitation_is_one_error_line(self, campaign_run, tmp_path,
                                                        caplog, stage, value):
        root = trend_workspace(campaign_run, tmp_path)
        weather = root / "weather.csv"
        lines = weather.read_text().splitlines()
        assert lines[0].split(",")[3] == "precip_mm"
        lines[2] = ",".join(lines[2].split(",")[:3] + [value])
        weather.write_text("\n".join(lines) + "\n")
        assert run_cli(stage, "--config", str(root / "config.json")) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{weather}, line 3: 2023-01-02: precipitation must be finite"]

    @pytest.mark.parametrize("stage", ["degree-days", "trend"])
    def test_degree_day_overflow_names_the_weather_file(self, campaign_run, tmp_path,
                                                        caplog, stage):
        root = trend_workspace(campaign_run, tmp_path)
        weather = root / "weather.csv"
        lines = weather.read_text().splitlines()
        assert lines[3].startswith("2023-01-03,")
        lines[3] = "2023-01-03,1e308,1e308,0.0"
        weather.write_text("\n".join(lines) + "\n")
        assert run_cli(stage, "--config", str(root / "config.json")) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{weather}: 2023-01-03: cumulative degree days exceed "
                          "the float range"]


class TestTrendCommand:
    def test_trend_logs_the_degree_day_diagnostic(self, campaign_run, tmp_path, caplog):
        root = trend_workspace(campaign_run, tmp_path)
        caplog.set_level(logging.INFO)
        for stage in ("degree-days", "trend"):
            assert run_cli(stage, "--config", str(root / "config.json")) == 0
        infos = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
        assert infos[0] == "wrote degree_days.csv (273 days)"
        assert infos[1] == "degree days: quadratic-in-time diagnostic r = 0.9943"

    def test_trend_rows(self, campaign_run):
        rows = read_rows(campaign_run["out"] / "trend.csv")
        assert len(rows) == 24  # 12 parcels x 2 orbits
        for row in rows:
            assert row["orbit"] in ("ASC", "DES")
            assert int(row["n"]) == 6
            assert float(row["fit_r"]) > 0.9
            peak = dt.date.fromisoformat(row["peak_date"])
            want = dt.date(2023, 6, 20) if row["orbit"] == "DES" else dt.date(2023, 6, 21)
            assert peak == want
            # fitted vertex lands near the planted one in thermal time
            assert float(row["vertex_x"]) == pytest.approx(99.5, abs=25.0)
            assert float(row["a"]) < 0.0  # concave season

    def test_acquisition_outside_weather_record_is_dropped(self, campaign_run, tmp_path,
                                                           caplog):
        from vinesar.parcels import read_zonal_csv, write_zonal_csv
        # the record ends 2023-08-19: the ASC radar date of 08-20 and the
        # optical date of 08-24 lie past it
        end = dt.date(2023, 8, 19)
        lines = ["date,tmin_c,tmax_c,precip_mm"] + [
            f"{d},{lo!r},{hi!r},{p!r}" for d, lo, hi, p in weather_rows()
            if dt.date.fromisoformat(d) <= end]
        stats = read_zonal_csv(campaign_run["out"] / "zonal.csv")
        inside = [s for s in stats if s.timestamp <= end]
        outputs = ("trend.csv", "trend_groups.csv", "correlation.csv", "scatter.csv")
        got = {}
        for name, rows in (("all", stats), ("inside", inside)):
            root = tmp_path / name
            (root / "out").mkdir(parents=True)
            (root / "weather.csv").write_text("\n".join(lines) + "\n")
            write_parcels_geojson(root / "parcels.geojson")
            write_config(root / "config.json", root / "out")
            write_zonal_csv(rows, root / "out" / "zonal.csv")
            caplog.clear()
            assert run_cli("trend", "--config", str(root / "config.json")) == 0
            warnings = [r.getMessage() for r in caplog.records
                        if "outside the weather record" in r.getMessage()]
            got[name] = [(root / "out" / f).read_bytes() for f in outputs]
            if name == "all":
                assert len(warnings) == 1
                assert f"dropped {len(stats) - len(inside)} zonal rows" in warnings[0]
                assert "2023-08-20, 2023-08-24" in warnings[0]
            else:
                assert not warnings
        # every other acquisition is fitted as if the dropped rows never existed
        assert got["all"] == got["inside"]
        rows = list(csv.DictReader(io.StringIO(got["all"][0].decode())))
        assert len(rows) == 24
        assert {int(r["n"]) for r in rows if r["orbit"] == "ASC"} == {5}
        assert {int(r["n"]) for r in rows if r["orbit"] == "DES"} == {6}

    def test_undated_acquisition_is_dropped(self, campaign_run, tmp_path, caplog):
        """A c2 scene with no timestamp or orbit is indexed and summarized
        with an empty date; trend drops its rows with one warning, on both
        abscissas, and writes the tables of a campaign without it."""
        outputs = ("trend.csv", "trend_groups.csv", "correlation.csv", "scatter.csv")
        got = {}
        for case in ("with", "without"):
            root = tmp_path / case
            shutil.copytree(campaign_run["root"], root)
            if case == "with":
                first = sorted((root / "out").glob("c2_*.json"))[0]
                doc = json.loads(first.read_text())
                del doc["timestamp"], doc["orbit"]
                (root / "out" / "c2_scene.json").write_text(json.dumps(doc))
                shutil.copy(first.with_suffix(".bin"), root / "out" / "c2_scene.bin")
            write_config(root / "config.json", root / "out")
            for stage in ("sar-index", "zonal"):
                assert run_cli(stage, "--config", str(root / "config.json")) == 0
            for abscissa in ("cdd", "doy"):
                write_config(root / "config.json", root / "out", abscissa=abscissa)
                caplog.clear()
                assert run_cli("trend", "--config", str(root / "config.json")) == 0
                warnings = [r.getMessage() for r in caplog.records
                            if r.levelname == "WARNING"]
                assert warnings == (["dropped 12 zonal rows with no date: DpRVI"]
                                    if case == "with" else [])
                got[case, abscissa] = [(root / "out" / f).read_bytes() for f in outputs]
        for abscissa in ("cdd", "doy"):
            assert got["with", abscissa] == got["without", abscissa]

    def test_no_dated_zonal_row_fails(self, campaign_run, tmp_path, caplog):
        root = trend_workspace(campaign_run, tmp_path)
        zonal_csv = root / "out" / "zonal.csv"
        lines = zonal_csv.read_text().splitlines()
        undated = [re.sub(r",2023-[0-9-]+,", ",,", line, count=1) for line in lines[1:]]
        zonal_csv.write_text("\n".join(lines[:1] + undated) + "\n")
        assert run_cli("trend", "--config", str(root / "config.json")) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{zonal_csv}: no zonal row has a date"]
        assert not (root / "out" / "trend.csv").exists()

    def _trend_on_record_ending(self, campaign_run, tmp_path, caplog, end):
        rows = [r for r in weather_rows() if r[0] < end]
        (tmp_path / "weather.csv").write_text("\n".join(
            ["date,tmin_c,tmax_c,precip_mm"] + [",".join(map(str, r)) for r in rows]) + "\n")
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "zonal.csv").write_bytes(
            (campaign_run["out"] / "zonal.csv").read_bytes())
        write_config(tmp_path / "config.json", tmp_path / "out")
        write_parcels_geojson(tmp_path / "parcels.geojson")
        assert run_cli("trend", "--config", str(tmp_path / "config.json")) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "inside the weather record" in errors[0]
        assert not (tmp_path / "out" / "trend.csv").exists()

    def test_no_acquisition_inside_weather_record_fails(self, campaign_run, tmp_path,
                                                        caplog):
        self._trend_on_record_ending(campaign_run, tmp_path, caplog, "2023-03-01")

    # a record of two days is too short for the degree-day diagnostic's fit,
    # whose error must not stand in for this one
    def test_no_acquisition_inside_two_day_weather_record_fails(self, campaign_run,
                                                                 tmp_path, caplog):
        self._trend_on_record_ending(campaign_run, tmp_path, caplog, "2023-01-03")

    def test_degree_day_diagnostic_too_short_to_fit_is_a_warning(self, tmp_path, caplog):
        from vinesar.parcels import ZonalStats, write_zonal_csv
        # a two-day record holds both acquisitions, but too few days for the
        # diagnostic's quadratic fit
        rows = [r for r in weather_rows() if r[0] < "2023-01-03"]
        weather = tmp_path / "weather.csv"
        weather.write_text("\n".join(
            ["date,tmin_c,tmax_c,precip_mm"] + [",".join(map(str, r)) for r in rows]) + "\n")
        (tmp_path / "out").mkdir()
        write_zonal_csv([ZonalStats("EW1", "DpRVI", dt.date(2023, 1, day), Orbit.DESCENDING,
                                    24, 0.3 + 0.1 * day, 0.01, 0.2, 0.6) for day in (1, 2)],
                        tmp_path / "out" / "zonal.csv")
        write_config(tmp_path / "config.json", tmp_path / "out")
        write_parcels_geojson(tmp_path / "parcels.geojson")
        assert run_cli("trend", "--config", str(tmp_path / "config.json")) == 0
        assert not [r for r in caplog.records if r.levelname == "ERROR"]
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert f"{weather}: no degree-day diagnostic: quadratic fit needs >= 3 distinct " \
            "x values, got 2" in warnings
        for name in self.OUTPUTS:
            assert (tmp_path / "out" / name).is_file(), name

    def test_group_rows(self, campaign_run):
        with (campaign_run["out"] / "trend_groups.csv").open(newline="") as f:
            reader = csv.DictReader(f)
            assert reader.fieldnames == ["orientation", "orbit", "mean_fit_r", "n_parcels"]
            rows = list(reader)
        assert {(r["orientation"], r["orbit"]) for r in rows} == {
            ("EW", "ASC"), ("EW", "DES"), ("NS", "ASC"), ("NS", "DES")}
        for r in rows:
            assert int(r["n_parcels"]) == 6
            assert float(r["mean_fit_r"]) > 0.9

    def test_correlation_rows(self, campaign_run):
        rows = read_rows(campaign_run["out"] / "correlation.csv")
        # per parcel: DpRVI x {LAI, NDVI, SVHI} on two orbits, plus NDVI x SVHI
        assert len(rows) == 12 * 7
        pairs = {(r["index_a"], r["index_b"]) for r in rows}
        assert pairs == {("DpRVI", "LAI"), ("DpRVI", "NDVI"),
                         ("DpRVI", "SVHI"), ("NDVI", "SVHI")}
        for r in rows:
            if (r["index_a"], r["index_b"]) == ("NDVI", "SVHI"):
                assert float(r["r"]) > 0.95
                assert int(r["n"]) == 6

    def test_scatter_rows(self, campaign_run):
        rows = read_rows(campaign_run["out"] / "scatter.csv")
        assert len(rows) == 12 * 2 * 6  # parcels x orbits x season dates
        assert {r["index_b"] for r in rows} == {"LAI"}
        assert {r["month"] for r in rows} == {"Mar", "Apr", "May", "Jun",
                                              "Jul", "Aug"}
        for r in rows:
            gap = abs((dt.date.fromisoformat(r["date_a"])
                       - dt.date.fromisoformat(r["date_b"])).days)
            assert gap <= 7

    def test_requires_zonal_csv(self, tmp_path):
        (tmp_path / "out").mkdir()
        assert run_cli("trend", "--out", str(tmp_path / "out")) == 1

    def test_header_only_zonal_csv_fails(self, campaign_run, tmp_path, caplog):
        root = trend_workspace(campaign_run, tmp_path)
        zonal = root / "out" / "zonal.csv"
        zonal.write_text(zonal.read_text().splitlines()[0] + "\n")
        assert run_cli("trend", "--config", str(root / "config.json")) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{zonal} holds no rows"]
        assert sorted(p.name for p in (root / "out").iterdir()) == ["zonal.csv"]

    OUTPUTS = ("trend.csv", "trend_groups.csv", "correlation.csv", "scatter.csv")

    def test_reads_parcel_orientations_without_checking_rings(self, campaign_run, tmp_path,
                                                              monkeypatch):
        from vinesar import parcels

        def no_ring_check(ring):
            raise AssertionError("trend checked parcel rings")

        monkeypatch.setattr(parcels, "_self_intersecting", no_ring_check)
        root = trend_workspace(campaign_run, tmp_path)
        assert run_cli("trend", "--config", str(root / "config.json")) == 0
        for name in self.OUTPUTS:
            assert (root / "out" / name).read_bytes() == \
                (campaign_run["out"] / name).read_bytes(), name

    @pytest.mark.parametrize("props, problem", [
        ({"orientation": "diagonal"}, ": 'diagonal' is not a valid Orientation"),
        ({"id": ""}, " lacks properties.id"),
        ({"id": [1, 2]}, ": properties.id must be a string or an integer, got [1, 2]"),
    ])
    def test_bad_parcel_id_or_orientation_is_one_error_line(self, campaign_run, tmp_path,
                                                            caplog, props, problem):
        root = trend_workspace(campaign_run, tmp_path)
        doc = json.loads((root / "parcels.geojson").read_text())
        doc["features"][3]["properties"].update(props)
        (root / "parcels.geojson").write_text(json.dumps(doc))
        assert run_cli("trend", "--config", str(root / "config.json")) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{root / 'parcels.geojson'}: feature #3{problem}"]
        assert not (root / "out" / "trend.csv").exists()

    @pytest.mark.parametrize("edit, problem", [
        (lambda cells: cells[:-1], "8 cells, expected 9"),                  # short row
        (lambda cells: cells[:3] + [""] + cells[3:], "10 cells, expected 9"),  # shifted
        (lambda cells: cells[:2] + ["2023-02-30"] + cells[3:], "day is out of range"),
        (lambda cells: cells[:2] + ["20230421"] + cells[3:], "must be a YYYY-MM-DD date"),
        (lambda cells: cells[:2] + ["2023-W16-5"] + cells[3:], "must be a YYYY-MM-DD date"),
        (lambda cells: cells[:3] + ["EAST"] + cells[4:], "'EAST' is not a valid Orbit"),
        (lambda cells: cells[:4] + ["12.5"] + cells[5:], "invalid literal for int()"),
        (lambda cells: cells[:5] + [""] + cells[6:], "could not convert string to float"),
        (lambda cells: cells[:5] + ["nan"] + cells[6:], "statistics must be finite"),
        (lambda cells: cells[:5] + ["1e400"] + cells[6:], "statistics must be finite"),
        (lambda cells: cells[:6] + ["-nan"] + cells[7:], "statistics must be finite"),
        (lambda cells: cells[:8] + ["inf"], "statistics must be finite"),
        (lambda cells: cells[:4] + ["-3"] + cells[5:], "count must be at least 1, got -3"),
        (lambda cells: cells[:4] + ["0"] + cells[5:], "count must be at least 1, got 0"),
    ], ids=["short-row", "shifted-row", "bad-date", "compact-date", "week-date", "bad-orbit",
            "fractional-count", "empty-mean", "nan-mean", "infinite-mean", "nan-std",
            "infinite-max", "negative-count", "zero-count"])
    def test_malformed_zonal_row_is_one_error_line(self, campaign_run, tmp_path, caplog,
                                                   edit, problem):
        root = trend_workspace(campaign_run, tmp_path)
        zonal = root / "out" / "zonal.csv"
        lines = zonal.read_text().splitlines()
        lines[6] = ",".join(edit(lines[6].split(",")))
        zonal.write_text("\n".join(lines) + "\n")
        assert run_cli("trend", "--config", str(root / "config.json")) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert errors[0].startswith(f"{zonal}, line 7: ") and problem in errors[0]
        assert not (root / "out" / "trend.csv").exists()


class ErrorLines(logging.Handler):
    """The messages of the ERROR records vinesar logs while attached."""

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.lines: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.lines.append(record.getMessage())


# one-cell mutations of a CSV row: (cells, index) -> cells
CELL_MUTATIONS = {
    "empty": lambda cells, k: cells[:k] + [""] + cells[k + 1:],
    "abc": lambda cells, k: cells[:k] + ["abc"] + cells[k + 1:],
    "nan": lambda cells, k: cells[:k] + ["nan"] + cells[k + 1:],
    "1e400": lambda cells, k: cells[:k] + ["1e400"] + cells[k + 1:],
    "drop": lambda cells, k: cells[:k] + cells[k + 1:],
    "extra": lambda cells, k: cells[:k + 1] + ["1"] + cells[k + 1:],
    # over csv's field size limit of 131072 characters
    "long": lambda cells, k: cells[:k] + ["1" * 200000] + cells[k + 1:],
}


# the tables a stage reads, by the name the CSV property test gives them:
# (file under the workspace, the stages that read it)
CSV_READERS = {
    "weather": ("weather.csv", ("degree-days", "trend")),
    "weather-no-precip": ("weather.csv", ("degree-days", "trend")),
    "zonal": ("out/zonal.csv", ("trend",)),
    "trend": ("out/trend.csv", ("report",)),
    "trend_groups": ("out/trend_groups.csv", ("report",)),
    "correlation": ("out/correlation.csv", ("report",)),
}


def assert_exit_0_or_one_error_line(argv, names):
    """Run the CLI on ``argv`` and check that it exits 0 with no error line,
    or 1 with exactly one error line naming one of ``names``."""
    handler = ErrorLines()
    logger = logging.getLogger("vinesar")
    logger.addHandler(handler)
    try:
        rc = run_cli(*argv)
    finally:
        logger.removeHandler(handler)
    if rc == 0:
        assert handler.lines == [], (argv, handler.lines)
    else:
        assert rc == 1, (argv, rc)
        assert len(handler.lines) == 1, (argv, handler.lines)
        assert any(str(name) in handler.lines[0] for name in names), (argv, handler.lines)


class TestCsvBoundaries:
    """A one-cell mutation of a table a later stage reads gives exit 0, or
    exit 1 with exactly one error line naming the file; never a traceback.
    weather.csv is read by degree-days and trend, with and without its
    optional precip_mm column; zonal.csv is read by trend; trend.csv,
    trend_groups.csv and correlation.csv are read by report."""

    @pytest.fixture(scope="class")
    def workspace(self, campaign_run, tmp_path_factory):
        root = trend_workspace(campaign_run, tmp_path_factory.mktemp("csv-boundaries"))
        for name in ("trend.csv", "trend_groups.csv", "correlation.csv"):
            shutil.copy(campaign_run["out"] / name, root / "out" / name)
        return root, {file: (root / file).read_text() for file, _ in CSV_READERS.values()}

    @settings(max_examples=150)
    @given(table=st.sampled_from(sorted(CSV_READERS)),
           line=st.integers(0, 10 ** 6), cell=st.integers(0, 100),
           mutation=st.sampled_from(sorted(CELL_MUTATIONS)))
    @example(table="weather-no-precip", line=2, cell=2, mutation="drop")
    @example(table="zonal", line=6, cell=5, mutation="nan")
    @example(table="weather", line=2, cell=3, mutation="1e400")
    @example(table="weather", line=2, cell=2, mutation="long")
    @example(table="weather", line=0, cell=1, mutation="long")
    def test_one_cell_mutation(self, workspace, table, line, cell, mutation):
        root, texts = workspace
        file, stages = CSV_READERS[table]
        rows = [r.split(",") for r in texts[file].splitlines()]
        if table == "weather-no-precip":
            rows = [r[:-1] for r in rows]
        k = line % len(rows)
        rows[k] = CELL_MUTATIONS[mutation](rows[k], cell % len(rows[k]))
        for name, text in texts.items():
            (root / name).write_text(text)
        (root / file).write_text("\n".join(",".join(r) for r in rows) + "\n")
        for stage in stages:
            assert_exit_0_or_one_error_line([stage, "--config", str(root / "config.json")],
                                            [root / file])


# any JSON value: strings are plain names, so that a path key stays inside
# the workspace; a few valid values of the enumerated keys are mixed in
NAME_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(NAME_CHARS, max_size=12)
    | st.sampled_from(["cdd", "doy", "nearest", "bilinear", "2x2", "ASC", "DES",
                       "2023-04-21", "<f4", "EPSG:32632"]),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(NAME_CHARS, max_size=6), children,
                                        max_size=4)),
    max_leaves=8)

BUNDLE_HEADER_FIELDS = ("width", "height", "origin_x", "origin_y", "pixel_size_x",
                        "pixel_size_y", "crs", "bands", "dtype", "nodata", "timestamp",
                        "orbit")


class TestJsonBoundaries:
    """Any JSON value for one config key or one bundle-header field gives exit
    0, or exit 1 with exactly one error line naming the file; never a
    traceback. Config keys go through degree-days, trend and report, header
    fields through sar-index (a covariance bundle) and zonal (an index
    bundle)."""

    @pytest.fixture(scope="class")
    def workspace(self, campaign_run, tmp_path_factory):
        root = trend_workspace(campaign_run, tmp_path_factory.mktemp("json-boundaries"))
        c2 = next(campaign_run["out"].glob("c2_*.json"))
        dprvi = next(campaign_run["out"].glob("dprvi_*.json"))
        for src, dst in ((c2, root / "raw"), (dprvi, root / "index")):
            dst.mkdir()
            shutil.copy(src, dst)
            shutil.copy(src.with_suffix(".bin"), dst)
        doc = json.loads((root / "config.json").read_text())
        (root / "headers.json").write_text(json.dumps(dict(doc, rasters_dir="raw")))
        return root, doc, root / "raw" / c2.name, root / "index" / dprvi.name

    @settings(max_examples=150)
    @given(key=st.sampled_from(sorted(schema.CONFIG_KEYS)), value=JSON_VALUES)
    @example(key="t_base", value=-1e308)
    @example(key="out_dir", value="elsewhere")
    @example(key="out_dir", value=None)
    @example(key="erode", value=10 ** 400)
    def test_config_value(self, campaign_run, workspace, key, value):
        root, doc, _, _ = workspace
        config = root / "fuzz.json"
        config.write_text(json.dumps(dict(doc, **{key: value})))
        # a path value may name a missing file or folder instead, and a null
        # leaves the key's default: "out" under the working directory, or an
        # unset parcels or weather path, which the error names by its key
        names = [config] + ([root / value] if isinstance(value, str) else []) \
            + ([f'"{key}"'] if value is None else [])
        cwd = os.getcwd()
        os.chdir(root)
        try:
            for stage in ("degree-days", "trend", "report"):
                # a trend that exits 1 removes its tables, so each stage
                # starts from the campaign's
                for name in ("trend.csv", "trend_groups.csv", "correlation.csv"):
                    shutil.copy(campaign_run["out"] / name, root / "out" / name)
                assert_exit_0_or_one_error_line([stage, "--config", str(config)], names)
        finally:
            os.chdir(cwd)

    @settings(max_examples=150)
    @given(stage=st.sampled_from(["sar-index", "zonal"]),
           field=st.sampled_from(BUNDLE_HEADER_FIELDS), value=JSON_VALUES)
    @example(stage="zonal", field="pixel_size_x", value=1e300)
    @example(stage="sar-index", field="bands", value=[{"name": "C11"}])
    # grids whose far edge overflows: the header names the input, and its
    # acquisition is skipped
    @example(stage="sar-index", field="pixel_size_x", value=8.98846567431158e307)
    @example(stage="zonal", field="pixel_size_x", value=3.6317033027521537e306)
    # an integer beyond the float range
    @example(stage="sar-index", field="width", value=10 ** 400)
    def test_header_value(self, workspace, stage, field, value):
        root, _, c2, dprvi = workspace
        bundle = c2 if stage == "sar-index" else dprvi
        text = bundle.read_text()
        # zonal reads and writes its out folder; sar-index writes elsewhere
        out = root / "sar-out" if stage == "sar-index" else bundle.parent
        try:
            bundle.write_text(json.dumps(dict(json.loads(text), **{field: value})))
            # the .bin of a payload size error shares the header's stem
            assert_exit_0_or_one_error_line(
                [stage, "--config", str(root / "headers.json"), "--out", str(out)],
                [bundle.with_suffix("")])
        finally:
            bundle.write_text(text)


# a value of each JSON type, some close to a valid one of another type
JSON_TYPE_VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.sampled_from([0, 1, 2.0, -1.5]),
    "string": st.sampled_from(["", "2", "DES", "2023-04-21"]),
    "list": st.lists(st.integers(0, 2), max_size=4),
    "object": st.dictionaries(st.sampled_from(["rect", "c2"]), st.integers(0, 2), max_size=2),
}

# the JSON type of each field of a scene file or campaign entry
SCENE_FIELD_TYPES = {
    "width": "number", "height": "number", "origin_x": "number", "origin_y": "number",
    "pixel_size_x": "number", "pixel_size_y": "number", "crs": "string",
    "background": "list", "regions": "list", "looks": "number", "seed": "number",
    "timestamp": "string", "date": "string", "orbit": "string",
}

SMALL_GRID = dict(GRID, width=8, height=6)
FIELD_CAMPAIGN = {
    "grid": SMALL_GRID, "seed": 7, "looks": 1, "background": [1.0, 0.5, 0.0, 0.0],
    "regions": [{"rect": [0, 0, 2, 2], "c2": [2.0, 0.2, 0.0, 0.0]}],
    "scenes": [{"date": "2023-03-28", "orbit": "DES"},
               {"date": "2023-04-01", "orbit": "ASC", "seed": 5, "looks": 3,
                "background": [1.5, 0.5, 0.1, 0.0],
                "regions": [{"rect": [2, 1, 6, 4], "c2": [0.5, 0.4, 0.0, 0.1]}]}],
}
# (form, field): a field of the scene file, or of the campaign's second entry
SCENE_FIELDS = [("scene", f) for f in SCENE_FIELD_TYPES if f != "date"] + [
    ("campaign", f) for f in ("date", "orbit", "seed", "background", "regions", "looks")]
DELETED = object()


def expected_scenes(form, field, value):
    """The scenes a scene file (scene_doc()) or FIELD_CAMPAIGN holds after
    ``field`` of the scene, or of the campaign's second entry, is set to
    ``value`` (a value of another JSON type) or DELETED; None when that makes
    the file invalid. Of the values only a null date or orbit is valid, and
    it reads as none. A deleted field is valid unless it is a scene file's
    grid field or background: it reads as its default (no regions, 1 look,
    the config's seed 0, no date or orbit) or, in a campaign entry, as the
    campaign's value or the derived seed."""
    absent = value is DELETED or (value is None and field in ("timestamp", "date", "orbit"))
    if not absent or (form == "scene" and field not in ("regions", "looks", "seed",
                                                          "timestamp", "orbit")):
        return None

    def scene(fields, seed, date):
        return SceneSpec(GridSpec(**SMALL_GRID), tuple(fields["background"]),
                         [Region(tuple(r["rect"]), tuple(r["c2"])) for r in fields["regions"]],
                         fields["looks"], seed,
                         date and dt.date.fromisoformat(date),
                         fields["orbit"] and Orbit(fields["orbit"]))

    if form == "scene":
        doc = dict(scene_doc(), **{field: {"regions": [], "looks": 1, "seed": 0}.get(field)})
        return [scene(doc, doc["seed"], doc["timestamp"])]
    first, second = FIELD_CAMPAIGN["scenes"]
    second = dict(second, **{field: {"background": FIELD_CAMPAIGN["background"],
                                     "regions": FIELD_CAMPAIGN["regions"],
                                     "looks": FIELD_CAMPAIGN["looks"],
                                     "seed": derive_seed(7, 1)}.get(field)})
    return [scene(dict(FIELD_CAMPAIGN, **first), derive_seed(7, 0), first["date"]),
            scene(dict(FIELD_CAMPAIGN, **second), second["seed"], second["date"])]


class TestSceneFields:
    """One field of a scene file or of a campaign entry set to a value of
    each other JSON type, or deleted: the file is still valid and synth
    writes the bundles its meaning gives, or it is one error line naming
    the file and the field as written, exit 1 and no bundle."""

    @settings(max_examples=25)
    @given(form_field=st.sampled_from(SCENE_FIELDS),
           values=st.fixed_dictionaries(JSON_TYPE_VALUES))
    @example(form_field=("campaign", "date"), values={
        "null": None, "boolean": False, "number": 20230101, "string": "",
        "list": [], "object": {}})
    def test_other_json_type_or_deletion(self, tmp_path_factory, form_field, values):
        form, field = form_field
        root = tmp_path_factory.mktemp("scene-fields")
        base = scene_doc() if form == "scene" else FIELD_CAMPAIGN
        kinds = [k for k in JSON_TYPE_VALUES if k != SCENE_FIELD_TYPES[field]]
        for value in [values[k] for k in kinds] + [DELETED]:
            doc = json.loads(json.dumps(base))
            fields = doc if form == "scene" else doc["scenes"][1]
            if value is DELETED:
                del fields[field]
            else:
                fields[field] = value
            path, out = root / "bad.json", root / "out"
            shutil.rmtree(out, ignore_errors=True)
            path.write_text(json.dumps(doc))
            handler = ErrorLines()
            logging.getLogger("vinesar").addHandler(handler)
            try:
                rc = run_cli("synth", str(path), "--out", str(out))
            finally:
                logging.getLogger("vinesar").removeHandler(handler)
            want = expected_scenes(form, field, value)
            if want is None:
                assert rc == 1 and len(handler.lines) == 1, (field, value, handler.lines)
                assert "bad.json" in handler.lines[0] and f"'{field}'" in handler.lines[0], \
                    (field, value, handler.lines)
                assert not list(out.glob("*"))
                continue
            assert rc == 0 and handler.lines == [], (field, value, handler.lines)
            names = ["_".join(["c2", s.timestamp.isoformat() if s.timestamp else "scene"]
                              + ([s.orbit.value] if s.orbit else [])) for s in want]
            assert sorted(p.name for p in out.iterdir()) == sorted(
                n + ext for n in names for ext in (".bin", ".json"))
            for name, scene in zip(names, want):
                got = load_c2(out / name)
                assert (got.timestamp, got.orbit) == (scene.timestamp, scene.orbit)
                assert got.values.tobytes() == generate_scene(scene).values.tobytes(), \
                    (field, value, name)


class TestReportCommand:
    def test_report_content(self, campaign_run, capsys):
        assert run_cli("report", "--config", str(campaign_run["config"]),
                       "--stdout") == 0
        text = capsys.readouterr().out
        assert (campaign_run["out"] / "report.txt").read_text() == text
        for pid, *_ in PARCELS:
            assert pid in text
        assert "DpRVI vs LAI" in text
        assert "EW" in text and "NS" in text

    def test_requires_trend_outputs(self, tmp_path):
        (tmp_path / "out").mkdir()
        assert run_cli("report", "--out", str(tmp_path / "out")) == 1

    @pytest.mark.parametrize("name, column", [("trend.csv", "fit_r"),
                                              ("trend_groups.csv", "mean_fit_r"),
                                              ("correlation.csv", "r")])
    def test_bad_cell_is_one_error_line(self, campaign_run, tmp_path, caplog, name,
                                        column):
        out = tmp_path / "out"
        out.mkdir()
        for table in ("trend.csv", "trend_groups.csv", "correlation.csv"):
            shutil.copy(campaign_run["out"] / table, out / table)
        lines = (out / name).read_text().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index(column)] = "abc"
        lines[2] = ",".join(cells)
        (out / name).write_text("\n".join(lines) + "\n")
        assert run_cli("report", "--out", str(out)) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{out / name}, line 3: could not convert string to float: 'abc'"]
        assert not (out / "report.txt").exists()


class TestConfigHandling:
    def parse(self, *argv):
        return cli.build_parser().parse_args(list(argv))

    def test_defaults(self):
        cfg = cli.load_config(self.parse("sar-index"))
        assert cfg.out_dir == cli.Path("out")
        assert cfg.multilook == (4, 1)
        assert cfg.boxcar is None
        assert cfg.erode_px == 1
        assert cfg.t_base_c == 10.0
        assert cfg.max_gap_days == 7
        assert cfg.abscissa == "cdd"

    def test_file_paths_resolve_relative_to_config(self, tmp_path):
        sub = tmp_path / "cfgdir"
        sub.mkdir()
        (sub / "cfg.json").write_text(json.dumps(
            {"out_dir": "products", "parcels": "p.geojson",
             "weather": "w.csv", "multilook": "2x2", "boxcar": 5}))
        cfg = cli.load_config(self.parse("zonal", "--config", str(sub / "cfg.json")))
        assert cfg.out_dir == sub / "products"
        assert cfg.parcels_path == sub / "p.geojson"
        assert cfg.weather_path == sub / "w.csv"
        assert cfg.multilook == (2, 2)
        assert cfg.boxcar == 5

    def test_flags_beat_file(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"out_dir": "products", "multilook": [4, 1], "erode": 2}))
        cfg = cli.load_config(self.parse(
            "zonal", "--config", str(tmp_path / "cfg.json"),
            "--out", "elsewhere", "--multilook", "8x2", "--erode", "0"))
        assert cfg.out_dir == cli.Path("elsewhere")
        assert cfg.multilook == (8, 2)
        assert cfg.erode_px == 0

    def test_boxcar_zero_means_off(self):
        cfg = cli.load_config(self.parse("sar-index", "--boxcar", "0"))
        assert cfg.boxcar is None

    def test_rejections(self, tmp_path):
        with pytest.raises(ValueError, match="unknown"):
            (tmp_path / "bad.json").write_text(json.dumps({"multilok": "4x1"}))
            cli.load_config(self.parse("zonal", "--config",
                                       str(tmp_path / "bad.json")))
        with pytest.raises(ValueError):
            cli.load_config(self.parse("sar-index", "--multilook", "4y1"))
        with pytest.raises(ValueError, match="odd"):
            cli.load_config(self.parse("sar-index", "--boxcar", "4"))
        with pytest.raises(ValueError, match="64"):
            cli.load_config(self.parse("synth", "x.json", "--seed",
                                       str(2 ** 64)))
        with pytest.raises(ValueError, match="'--seed' is beyond the float range"):
            cli.load_config(self.parse("synth", "x.json", "--seed", str(10 ** 400)))
        # int() reads "4_0" as 40 and a fullwidth digit as its ASCII one
        for window in ("4_0x1", "\uff14x1", " 4x1"):
            with pytest.raises(ValueError, match="must look like 4x1"):
                cli.load_config(self.parse("sar-index", "--multilook", window))

    def test_integral_float_is_an_integer(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"erode": 3.0, "boxcar": 5,
                                                       "multilook": [2.0, 1]}))
        cfg = cli.load_config(self.parse("zonal", "--config", str(tmp_path / "cfg.json")))
        assert cfg.erode_px == 3 and type(cfg.erode_px) is int
        assert cfg.boxcar == 5
        assert cfg.multilook == (2, 1) and all(type(w) is int for w in cfg.multilook)
        assert cli.load_config(self.parse("zonal", "--multilook", "3X2")).multilook == (3, 2)

    def test_fatal_errors_exit_one_via_main(self, tmp_path, monkeypatch):
        # main creates the default out_dir, "out", before synth reads its scene
        monkeypatch.chdir(tmp_path)
        assert run_cli("sar-index", "--multilook", "nope") == 1
        (tmp_path / "garbage.json").write_text("{")
        assert run_cli("synth", str(tmp_path / "garbage.json")) == 1

    @pytest.mark.parametrize("doc", [{"multilook": 5}, {"multilook": [2]},
                                     {"multilook": [4, 1, 1]}, {"multilook": [4.5, 1]},
                                     {"boxcar": [3]}, {"t_base": {}},
                                     {"erode": 2.9}, {"boxcar": True}, {"max_gap_days": 7.5},
                                     {"seed": False}, {"seed": "12"}, {"erode": float("nan")},
                                     [{"a": 1}], [], "x", {"seed": -1}, {"seed": 2 ** 64},
                                     {"seed": 1e30}, {"out_dir": 5}, {"parcels": []},
                                     {"t_base": True}, {"t_base": float("nan")},
                                     {"abscissa": 5}, {"abscissa": ["cdd"]},
                                     {"resample": "cubic"}, {"boxcar": 4}, {"erode": -1},
                                     {"max_gap_days": -2}, {"t_base": -1e308},
                                     {"t_base": 100.5}, {"erode": 10 ** 400},
                                     {"multilook": "4_0x1"}, {"multilook": "\uff14x1"},
                                     {"multilook": ["4", "1"]},
                                     {"multilook": "1" + "0" * 5000 + "x1"}])
    def test_wrong_typed_value_is_one_error_line(self, tmp_path, caplog, doc):
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert run_cli("sar-index", "--config", str(tmp_path / "cfg.json")) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        # the key at fault, or for a document that is no object, what it must be
        want = next(iter(doc)) if isinstance(doc, dict) else "must hold a JSON object"
        assert want in errors[0].getMessage()
        assert "cfg.json" in errors[0].getMessage()

    def test_deeply_nested_file_is_one_error_line(self, tmp_path, caplog):
        config = tmp_path / "cfg.json"
        config.write_text('{"a": ' + "[" * 100000 + "]" * 100000 + "}")
        assert run_cli("sar-index", "--config", str(config)) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{config} nests too deeply to read"]

    @pytest.mark.parametrize("key", sorted(k for k, (_, _, dest) in schema.CONFIG_KEYS.items()
                                           if dest))
    def test_flag_and_file_value(self, tmp_path, caplog, key):
        """A flag beats the file; a bad flag value is an error naming the
        flag; a bad file value is one error line naming the file even under a
        good flag; an empty string flag leaves the file's value."""
        flag, file_value, file_parsed, good, good_parsed, bad, bad_in_file = FLAG_CASES[key]
        attr = schema.CONFIG_KEYS[key][0]
        cfg_json = tmp_path / "cfg.json"
        cfg_json.write_text(json.dumps({key: file_value}))
        config = ["zonal", "--config", str(cfg_json)]
        cfg = cli.load_config(self.parse(*config, f"{flag}={good}"))
        assert getattr(cfg, attr) == good_parsed
        if bad is not None:
            with pytest.raises(ValueError, match=re.escape(f"'{flag}'")):
                cli.load_config(self.parse(*config, f"{flag}={bad}"))
        if isinstance(file_value, str):
            cfg = cli.load_config(self.parse(*config, f"{flag}="))
            assert getattr(cfg, attr) == (tmp_path / file_parsed if attr == "out_dir"
                                          else file_parsed)

        cfg_json.write_text(json.dumps({key: bad_in_file}))
        assert run_cli(*config, f"{flag}={good}") == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert str(cfg_json) in errors[0] and repr(key) in errors[0]


# config key -> (flag, file value, its parsed value, good flag value, its
# parsed value, bad flag value or None, bad file value)
FLAG_CASES = {
    "out_dir": ("--out", "products", Path("products"), "elsewhere", Path("elsewhere"),
                None, 5),
    "multilook": ("--multilook", "2x2", (2, 2), "8x2", (8, 2), "4y1", "5"),
    "boxcar": ("--boxcar", 5, 5, "3", 3, "4", 4),
    "erode": ("--erode", 2, 2, "0", 0, "-1", -1),
    "t_base": ("--tbase", 8.0, 8.0, "12.5", 12.5, "150", 150.0),
    "max_gap_days": ("--max-gap", 5, 5, "9", 9, "-2", -2),
    "seed": ("--seed", 4, 4, "77", 77, "-1", -1),
}


def fresh_python(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter that imports vinesar from this tree."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_config_loads_without_numpy(tmp_path):
    doc = {"out_dir": "out", "rasters_dir": "raw", "parcels": "p.geojson",
           "weather": "w.csv", "multilook": "2x2", "boxcar": 3, "erode": 1, "t_base": 10.0,
           "max_gap_days": 7, "abscissa": "doy", "seed": 5, "resample": "bilinear"}
    assert set(doc) == set(schema.CONFIG_KEYS)
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    probe = ("import argparse, sys; from vinesar import schema, tables; "
             "cfg = schema.load_config(argparse.Namespace(config='cfg.json')); "
             "print(cfg.boxcar, cfg.abscissa.value, 'numpy' in sys.modules)")
    proc = fresh_python(tmp_path, "-c", probe)
    assert proc.stdout.split() == ["3", "doy", "False"]


def test_module_entry_point_runs(tmp_path):
    proc = fresh_python(tmp_path, "-m", "vinesar", "--help")
    assert "sar-index" in proc.stdout


def test_package_import_loads_no_submodule_and_no_numpy(tmp_path):
    probe = ("import sys, vinesar; print(sorted(m for m in sys.modules "
             "if m.startswith('vinesar.') or m.split('.')[0] == 'numpy'))")
    proc = fresh_python(tmp_path, "-c", probe)
    assert proc.stdout.strip() == "[]"


def test_phenology_import_loads_no_numpy(tmp_path):
    probe = "import sys, vinesar.phenology; print('numpy' in sys.modules)"
    assert fresh_python(tmp_path, "-c", probe).stdout.split() == ["False"]


class TestStageImports:
    """Which vinesar modules each stage executes, in a fresh interpreter.

    ``import vinesar.cli`` registers the seven stage modules lazily; a module
    counts as executed once it is in ``sys.modules`` and no longer lazy."""

    # runs the stage named by argv, then prints the vinesar modules executed
    # and whether numpy was imported
    STAGE_PROBE = """
import importlib.util, json, sys
import vinesar.cli
rc = vinesar.cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "numpy": "numpy" in sys.modules, "executed": sorted(
    name for name, m in sys.modules.items() if name.split(".")[0] == "vinesar"
    and type(m) is not importlib.util._LazyModule)}))
"""

    # the stage with its pool forced to two threads; prints the stage modules
    # still lazy when the pool was sized that executed after it
    POOL_PROBE = """
import importlib.util, json, sys
import vinesar.cli as cli

def lazy():
    return {name for name, m in sys.modules.items()
            if type(m) is importlib.util._LazyModule}

at_pool = []

def recording_pool_size(n, size):
    at_pool.append(lazy())
    return min(2, n)

cli._pool_size = recording_pool_size
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "pools": len(at_pool),
                  "late": sorted(at_pool[0] - lazy()) if at_pool else []}))
"""

    BASE = {"vinesar", "vinesar.cli", "vinesar.schema", "vinesar.tables"}

    @pytest.fixture(scope="class")
    def workspace(self, campaign_run, tmp_path_factory):
        """A copy of the campaign run: every stage's inputs are in place."""
        root = tmp_path_factory.mktemp("stage-imports") / "campaign"
        shutil.copytree(campaign_run["root"], root)
        write_config(root / "config.json", root / "out")
        return root

    def stage_argv(self, root: Path, stage: str) -> list[str]:
        scene = [str(root / "campaign.json")] if stage == "synth" else []
        return [stage, *scene, "--config", str(root / "config.json")]

    @pytest.mark.parametrize("stage, modules, numpy", [
        ("synth", {"synth", "sar", "raster"}, True),
        ("sar-index", {"sar", "raster"}, True),
        ("optical-index", {"optical", "raster"}, True),
        ("zonal", {"parcels", "raster"}, True),
        ("degree-days", {"phenology"}, False),
        ("trend", {"trend", "parcels", "raster", "phenology"}, True),
        ("report", set(), False),
    ])
    def test_stage_executes_only_the_modules_it_calls(self, workspace, stage, modules,
                                                      numpy):
        proc = fresh_python(workspace, "-c", self.STAGE_PROBE,
                            *self.stage_argv(workspace, stage))
        got = json.loads(proc.stdout)
        assert got["rc"] == 0, proc.stderr
        assert set(got["executed"]) == self.BASE | {f"vinesar.{m}" for m in modules}
        assert got["numpy"] is numpy

    @pytest.mark.parametrize("stage", ["synth", "sar-index", "optical-index"])
    def test_no_stage_module_executes_first_in_a_pool_worker(self, workspace, stage):
        proc = fresh_python(workspace, "-c", self.POOL_PROBE,
                            *self.stage_argv(workspace, stage))
        got = json.loads(proc.stdout)
        assert got["rc"] == 0, proc.stderr
        assert got["pools"] == 1
        assert got["late"] == []

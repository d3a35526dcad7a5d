"""End-to-end behavior of the file-based command line pipeline."""

import csv
import datetime as dt
import io
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import (GRID, OPTICAL_DATES, PARCELS, SAR_CDD, SAR_DATES,
                      build_campaign_workspace, run_cli, seasonal_shape,
                      weather_rows, write_campaign_json, write_config,
                      write_optical_inputs, write_parcels_geojson)
from vinesar import cli, raster, sar
from vinesar.optical import BAND_NAMES
from vinesar.raster import GridSpec, Orbit, load_raster, save_bundle
from vinesar.sar import C2Raster, dprvi_from_eigen, eigen_decompose, load_c2, save_c2
from vinesar.synth import derive_seed, generate_scene, scene_from_dict


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
        assert c2.c11.tobytes() == direct.c11.tobytes()
        assert c2.timestamp == dt.date(2023, 4, 21)
        assert c2.orbit == Orbit.DESCENDING

    def test_seed_flag_overrides_document(self, tmp_path):
        doc = scene_doc(seed=3)
        (tmp_path / "scene.json").write_text(json.dumps(doc))
        assert run_cli("synth", str(tmp_path / "scene.json"),
                       "--out", str(tmp_path / "out"), "--seed", "77") == 0
        c2 = load_c2(tmp_path / "out" / "c2_2023-04-21_DES")
        direct = generate_scene(scene_from_dict(doc, seed=77))
        assert c2.c11.tobytes() == direct.c11.tobytes()

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
        assert got.c11.tobytes() == direct.c11.tobytes()

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
    ])
    def test_malformed_campaign_is_one_error_line(self, tmp_path, caplog, doc):
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        assert run_cli("synth", str(tmp_path / "bad.json"),
                       "--out", str(tmp_path / "out")) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "bad.json" in errors[0]
        # every scene is checked before the first one is generated
        assert not list(tmp_path.glob("out/*"))

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

    def test_misaligned_stack_fails(self, tmp_path):
        doc_a = scene_doc(seed=1)
        doc_b = scene_doc(seed=2, date="2023-05-27")
        doc_b["width"] = 12
        for name, doc in (("a", doc_a), ("b", doc_b)):
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(doc))
            assert run_cli("synth", str(p), "--out", str(tmp_path / "out")) == 0
        assert run_cli("sar-index", "--out", str(tmp_path / "out")) == 1

    @pytest.mark.parametrize("fault", ["misaligned", "wrong bands", "truncated payload"])
    def test_bad_bundle_sorted_last_stops_before_any_output(self, tmp_path, caplog, fault):
        # scenes are processed one at a time, so every header is checked
        # first: a bad last bundle must not leave the earlier indices behind
        from vinesar.raster import save_bundle
        rng = np.random.default_rng(4)
        spec = GridSpec(6, 5, 500000.0, 5000000.0, 10.0, -10.0, "EPSG:32632")

        def bands(s):
            c11 = rng.uniform(0.5, 2.0, size=(s.height, s.width))
            return c11, 0.5 * c11, 0.1 * c11, 0.0 * c11

        for date in ("2023-04-21", "2023-05-27"):
            save_c2(C2Raster(spec, *bands(spec), timestamp=dt.date.fromisoformat(date)),
                    tmp_path / f"c2_{date}_DES")
        last = tmp_path / "c2_2023-12-31_DES"
        if fault == "misaligned":
            wide = GridSpec(7, 5, 500000.0, 5000000.0, 10.0, -10.0, "EPSG:32632")
            save_c2(C2Raster(wide, *bands(wide)), last)
        elif fault == "wrong bands":
            save_bundle(last, spec, list(zip(("C11", "C22", "C12_re", "X"), bands(spec))))
        else:
            save_c2(C2Raster(spec, *bands(spec)), last)
            with open(last.with_suffix(".bin"), "r+b") as f:
                f.truncate(4 * 6 * 5 * 4 - 4)
        assert run_cli("sar-index", "--out", str(tmp_path), "--multilook", "1x1",
                       "--boxcar", "3") == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "c2_2023-12-31_DES" in errors[0]
        assert not list(tmp_path.glob("dprvi_*"))

    def test_no_bundles_fails(self, tmp_path):
        (tmp_path / "out").mkdir()
        assert run_cli("sar-index", "--out", str(tmp_path / "out")) == 1

    @staticmethod
    def write_small_stack(tmp_path, dates):
        spec = GridSpec(6, 5, 500000.0, 5000000.0, 10.0, -10.0, "EPSG:32632")
        c11 = np.full((5, 6), 1.5)
        for date in dates:
            save_c2(C2Raster(spec, c11, 0.5 * c11, 0.1 * c11, 0.0 * c11,
                             timestamp=dt.date.fromisoformat(date)), tmp_path / f"c2_{date}_DES")

    @pytest.mark.parametrize("threads", [1, 3])
    def test_first_scene_failing_after_the_header_pass_is_the_one_error(
            self, tmp_path, caplog, monkeypatch, threads):
        dates = [f"2023-0{m}-01" for m in range(3, 8)]
        self.write_small_stack(tmp_path, dates)
        # the payloads of scenes 1 and 3 become unreadable once their headers
        # have passed; on the pool, scene 1 fails only after scene 3 has failed,
        # so it is last in time but first in sorted order
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
        assert run_cli("sar-index", "--out", str(tmp_path), "--multilook", "1x1") == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and f"c2_{dates[1]}_DES" in errors[0], errors
        assert (tmp_path / f"dprvi_{dates[0]}_DES.json").exists()
        if threads == 1:
            assert attempted == [0, 1]
        else:
            # scene 4 may start on a thread freed before the failure is read
            assert {0, 1, 2, 3} <= set(attempted) <= {0, 1, 2, 3, 4}, attempted

    def test_scenes_not_started_are_cancelled_after_a_failure(self, tmp_path, monkeypatch):
        dates = [f"2023-05-0{day}" for day in range(1, 9)]
        self.write_small_stack(tmp_path, dates)
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
            if dates[0] in str(path):
                raise OSError(f"cannot read {path}")
            # every other scene holds its thread until the stage has read the
            # failure and cancelled what had not started
            assert shutting_down.wait(timeout=30)
            return real_load(path)

        monkeypatch.setattr(sar, "load_bundle", load)
        monkeypatch.setattr(cli, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(cli, "_pool_size", lambda n, px: 2)
        assert run_cli("sar-index", "--out", str(tmp_path), "--multilook", "1x1") == 1
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
        c2 = C2Raster(GridSpec(4, 4, 500000.0, 5000000.0, 10.0, -10.0, "EPSG:32632"),
                      c11, c22, re, im, timestamp=dt.date(2023, 4, 21),
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
                for band in (c2.c11, c2.c22, c2.c12_re, c2.c12_im)]
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


def read_rows(path):
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


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

    def test_stdout_echo(self, campaign_run, capsys):
        cfg = str(campaign_run["config"])
        assert run_cli("zonal", "--config", cfg, "--stdout") == 0
        got = capsys.readouterr().out
        assert got.splitlines()[0] == ("parcel_id,band,timestamp,orbit,"
                                       "count,mean,std,min,max")
        assert got == (campaign_run["out"] / "zonal.csv").read_text()


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


class TestTrendCommand:
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

    def test_no_acquisition_inside_weather_record_fails(self, campaign_run, tmp_path,
                                                        caplog):
        rows = [r for r in weather_rows() if r[0] < "2023-03-01"]
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

    def test_integral_float_is_an_integer(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"erode": 3.0, "boxcar": 5}))
        cfg = cli.load_config(self.parse("zonal", "--config", str(tmp_path / "cfg.json")))
        assert cfg.erode_px == 3 and type(cfg.erode_px) is int
        assert cfg.boxcar == 5

    def test_fatal_errors_exit_one_via_main(self, tmp_path):
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
                                     {"resample": "cubic"}])
    def test_wrong_typed_value_is_one_error_line(self, tmp_path, caplog, doc):
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert run_cli("sar-index", "--config", str(tmp_path / "cfg.json")) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        # the key at fault, or for a document that is no object, what it must be
        want = next(iter(doc)) if isinstance(doc, dict) else "must hold a JSON object"
        assert want in errors[0].getMessage()
        assert "cfg.json" in errors[0].getMessage()


def test_module_entry_point_runs(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "vinesar", "--help"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "sar-index" in proc.stdout

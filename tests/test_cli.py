"""End-to-end behavior of the file-based command line pipeline."""

import csv
import datetime as dt
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (GRID, OPTICAL_DATES, PARCELS, SAR_CDD, SAR_DATES,
                      build_campaign_workspace, run_cli, seasonal_shape,
                      write_campaign_json, write_optical_inputs)
from vinesar import cli
from vinesar.raster import GridSpec, Orbit, load_raster
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

    def test_no_bundles_fails(self, tmp_path):
        (tmp_path / "out").mkdir()
        assert run_cli("sar-index", "--out", str(tmp_path / "out")) == 1

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


class TestZonalCommand:
    def test_row_population(self, campaign_run):
        rows = list(csv.DictReader(
            (campaign_run["out"] / "zonal.csv").open()))
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
        rows = list(csv.DictReader(
            (campaign_run["out"] / "degree_days.csv").open()))
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
        rows = list(csv.DictReader((campaign_run["out"] / "trend.csv").open()))
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

    def test_group_rows(self, campaign_run):
        reader = csv.DictReader((campaign_run["out"] / "trend_groups.csv").open())
        assert reader.fieldnames == ["orientation", "orbit", "mean_fit_r", "n_parcels"]
        rows = list(reader)
        assert {(r["orientation"], r["orbit"]) for r in rows} == {
            ("EW", "ASC"), ("EW", "DES"), ("NS", "ASC"), ("NS", "DES")}
        for r in rows:
            assert int(r["n_parcels"]) == 6
            assert float(r["mean_fit_r"]) > 0.9

    def test_correlation_rows(self, campaign_run):
        rows = list(csv.DictReader(
            (campaign_run["out"] / "correlation.csv").open()))
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
        rows = list(csv.DictReader((campaign_run["out"] / "scatter.csv").open()))
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

    def test_fatal_errors_exit_one_via_main(self, tmp_path):
        assert run_cli("sar-index", "--multilook", "nope") == 1
        (tmp_path / "garbage.json").write_text("{")
        assert run_cli("synth", str(tmp_path / "garbage.json")) == 1

    @pytest.mark.parametrize("doc", [{"multilook": 5}, {"multilook": [2]},
                                     {"multilook": [4, 1, 1]}, {"multilook": [4.5, 1]},
                                     {"boxcar": [3]}, {"t_base": {}}])
    def test_wrong_typed_value_is_one_error_line(self, tmp_path, caplog, doc):
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert run_cli("sar-index", "--config", str(tmp_path / "cfg.json")) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert next(iter(doc)) in errors[0].getMessage()


def test_module_entry_point_runs(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "vinesar", "--help"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "sar-index" in proc.stdout

"""Tests of the benchmark itself: tracer coverage, output checks, inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench

The traced-run tests use shrunken copies of the workloads, so they exercise
every stage in a few seconds.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

import checks
import inputs
import layers
import run
import tracer

TINY = {
    "campaign-synth": dict(grid=48, cells=2),
    "parcel-season": dict(grid=96, cells=4),
    "sar-stack": dict(grid=96, cells=2),
}


def tiny(name: str) -> inputs.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **TINY[name])


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One traced pipeline per tiny workload: (season, workspace, result)."""
    out = {}
    for name in TINY:
        ws = tmp_path_factory.mktemp(name)
        season = inputs.plan(tiny(name), seed=7)
        inputs.write_inputs(season, ws, run.RASTERS, run.OUT)
        out[name] = (season, ws, run.Runner(ws, season).pipeline(traced=True))
    return out


@pytest.fixture
def vinesar_tracer():
    import vinesar.cli  # noqa: F401  (loads every vinesar module)
    tr = tracer.Tracer()
    yield tr
    tr.restore()


def test_tracer_patches_every_binding(vinesar_tracer):
    vinesar_tracer.install()
    assert vinesar_tracer.missing == []
    assert tracer.unpatched_bindings(vinesar_tracer.originals) == []
    homes = {"vinesar." + name for name in tracer.TRACED}
    assert homes <= set(vinesar_tracer.patched)


def test_binding_the_tracer_cannot_patch_is_reported(vinesar_tracer, monkeypatch):
    import vinesar.parcels
    import vinesar.trend
    monkeypatch.setattr(vinesar.parcels, "_READERS",
                        {"zonal": vinesar.parcels.read_zonal_csv}, raising=False)

    def fit(series, fitter=vinesar.trend.fit_parabola):
        return fitter(series)

    monkeypatch.setattr(vinesar.trend, "_fit_with_default", fit, raising=False)
    vinesar_tracer.install()
    assert tracer.unpatched_bindings(vinesar_tracer.originals) == [
        "vinesar.parcels._READERS -> parcels.read_zonal_csv",
        "vinesar.trend._fit_with_default -> trend.fit_parabola",
    ]


def test_moved_function_is_reported_missing(vinesar_tracer, monkeypatch):
    import vinesar.trend
    monkeypatch.delattr(vinesar.trend, "peak")
    vinesar_tracer.install()
    assert vinesar_tracer.missing == ["trend.peak"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_records_every_expected_function(traced_runs, name):
    season, ws, res = traced_runs[name]
    assert not any(res["rcs"].values()), (ws / "stages.log").read_text()
    profile = layers.pipeline_profile(res["docs"], res["wall"])
    assert run.coverage_problems(season.workload, res["docs"], [profile]) == []
    attempted, failed, notes = checks.check_outputs(season, ws / run.OUT)
    assert attempted > 0 and failed == 0, notes
    metrics = layers.per_layer_metrics([profile], [res], len(season.parcels))
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in listed}


def test_checks_catch_a_wrong_zonal_mean(traced_runs):
    season, ws, _ = traced_runs["campaign-synth"]
    path = ws / run.OUT / "zonal.csv"
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    victim = checks.oracle_parcels(season)[0].id
    for row in rows:
        if row["parcel_id"] == victim and row["band"] == "NDVI":
            row["mean"] = repr(float(row["mean"]) * (1 + 1e-6))
            break
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    _, failed, notes = checks.check_outputs(season, ws / run.OUT)
    assert failed == 1 and victim in notes[0]


def test_benchmark_json_lists_what_the_runner_emits():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {fn for fn, *_ in layers.RATES.values()} <= set(layers.FUNCTIONS)
    assert [m["name"] for m in doc["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_inputs_depend_only_on_the_seed():
    wl = tiny("parcel-season")
    a, b, c = inputs.plan(wl, 3), inputs.plan(wl, 3), inputs.plan(wl, 4)
    assert a == b and a != c
    vertices = [sorted(len(p.ring) for p in s.parcels if p.ring) for s in (a, c)]
    assert vertices[0] == vertices[1]


def test_weather_reaches_the_pinned_degree_days():
    total, cdd_on = 0.0, {}
    for day, tmin, tmax, _ in inputs.weather_rows(seed=5):
        total += max(0.0, (tmin + tmax) / 2.0 - 10.0)
        cdd_on[day] = total
    for day, _, cdd in inputs.SAR_DATES:
        assert math.isclose(cdd_on[day.isoformat()], cdd, rel_tol=1e-9)


def test_sampler_matches_wishart_moments():
    wl = dataclasses.replace(tiny("sar-stack"), grid=400)
    season = inputs.plan(wl, 1)
    c2 = inputs.sample_c2(season, 100.0, np.random.default_rng(0)).astype(np.float64)
    owner = np.ones((wl.grid, wl.grid), dtype=bool)
    for p in season.parcels:
        x0, y0, x1, y1 = p.rect
        owner[y0:y1, x0:x1] = False
    c11, c22 = c2[0][owner], c2[1][owner]
    assert abs(c11.mean() - 1.0) < 0.01 and abs(c22.mean() - 0.05) < 0.0005
    assert abs(c11.var() - 1.0 / inputs.LOOKS) < 0.002

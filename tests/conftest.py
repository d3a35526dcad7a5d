"""Shared builders for the synthetic campaign used by CLI and acceptance tests.

The campaign mirrors a single season: two 6-date orbit stacks, a weather
record whose accumulation hits pinned cumulative degree-day values on the
acquisition dates, twelve rectangular parcels in two orientation groups, and
per-date true covariances whose index follows a parabola in thermal time.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from vinesar import cli, raster
from vinesar.raster import GridSpec, save_bundle

# Property tests run without hypothesis' per-example deadline: a slow or busy
# host must not turn a correct example into a flaky failure.
settings.register_profile("vinesar", deadline=None)
settings.load_profile("vinesar")

# (date, orbit) of the two interleaved radar stacks
SAR_DATES = [
    (dt.date(2023, 3, 28), "DES"), (dt.date(2023, 3, 29), "ASC"),
    (dt.date(2023, 4, 21), "DES"), (dt.date(2023, 4, 22), "ASC"),
    (dt.date(2023, 5, 27), "DES"), (dt.date(2023, 5, 28), "ASC"),
    (dt.date(2023, 6, 20), "DES"), (dt.date(2023, 6, 21), "ASC"),
    (dt.date(2023, 7, 20), "DES"), (dt.date(2023, 7, 21), "ASC"),
    (dt.date(2023, 8, 19), "DES"), (dt.date(2023, 8, 20), "ASC"),
]

# cumulative degree days the weather record is built to reach on those dates
SAR_CDD = [21.0, 21.0, 39.0, 40.0, 75.0, 76.0, 99.0, 100.0,
           135.0, 136.0, 159.0, 160.0]

OPTICAL_DATES = [dt.date(2023, 3, 27), dt.date(2023, 4, 26), dt.date(2023, 5, 26),
                 dt.date(2023, 6, 25), dt.date(2023, 7, 25), dt.date(2023, 8, 24)]

# index parabola planted in thermal time: value = PEAK - CURV * (cdd - VERTEX)^2
PLANT_PEAK = 0.78
PLANT_CURV = 6.25e-5
PLANT_VERTEX_CDD = 99.5
BACKGROUND_C2 = (1.0, 0.05, 0.0, 0.0)


def weather_rows(last: dt.date = dt.date(2023, 9, 30)) -> list[tuple[str, float, float, float]]:
    """Daily rows whose accumulated degree days hit SAR_CDD on SAR_DATES.

    Between anchors the daily contribution is spread evenly; a +-4 C swing
    around the implied mean keeps tmin < tmax everywhere.
    """
    anchors = list(zip([d for d, _ in SAR_DATES], SAR_CDD))
    anchors.append((last, SAR_CDD[-1] + 30.0))
    rows = []
    prev_date = dt.date(2023, 1, 1) - dt.timedelta(days=1)
    prev_cdd = 0.0
    for a_date, a_cdd in anchors:
        days = (a_date - prev_date).days
        daily = (a_cdd - prev_cdd) / days
        tmean = 10.0 + daily if daily > 0 else 8.0
        day = prev_date + dt.timedelta(days=1)
        while day <= a_date:
            rows.append((day.isoformat(), tmean - 4.0, tmean + 4.0, 0.0))
            day += dt.timedelta(days=1)
        prev_date, prev_cdd = a_date, a_cdd
    return rows


def write_weather_csv(path: Path) -> None:
    lines = ["date,tmin_c,tmax_c,precip_mm"]
    for date, tmin, tmax, precip in weather_rows():
        lines.append(f"{date},{tmin!r},{tmax!r},{precip!r}")
    path.write_text("\n".join(lines) + "\n")


def planted_dprvi(cdd: float) -> float:
    return PLANT_PEAK - PLANT_CURV * (cdd - PLANT_VERTEX_CDD) ** 2


def q_for_dprvi(d: float) -> float:
    """Eigenvalue ratio whose index equals d, inverting q(q+3)/(q+1)^2."""
    if not 0.0 <= d < 1.0:
        raise ValueError(f"index {d} out of the invertible range")
    if d == 0.0:
        return 0.0
    return ((3.0 - 2.0 * d) - math.sqrt(9.0 - 8.0 * d)) / (2.0 * (d - 1.0))


# parcel layout in 10 m pixel coordinates: (id, orientation, x0, y0, x1, y1)
PARCELS = [
    ("EW1", "EW", 4, 4, 24, 14), ("EW2", "EW", 28, 4, 48, 14), ("EW3", "EW", 52, 4, 72, 14),
    ("EW4", "EW", 4, 18, 24, 28), ("EW5", "EW", 28, 18, 48, 28), ("EW6", "EW", 52, 18, 72, 28),
    ("NS1", "NS", 4, 34, 14, 54), ("NS2", "NS", 28, 34, 38, 54), ("NS3", "NS", 52, 34, 62, 54),
    ("NS4", "NS", 4, 58, 14, 78), ("NS5", "NS", 28, 58, 38, 78), ("NS6", "NS", 52, 58, 62, 78),
]

# (height, width, BLOCK_PX) for the row-blocked kernels: one row, one column,
# rows wider than a block, a height that does not divide into blocks, and the
# real block size over uneven blocks
BLOCK_CASES = [(1, 37, 16), (29, 1, 16), (5, 40, 16), (23, 7, 16), (300, 257, None)]


@pytest.fixture(params=BLOCK_CASES, ids=lambda c: "{}x{}-block{}".format(*c))
def block_shape(request, monkeypatch) -> tuple[int, int]:
    """(height, width) of a raster for a blocked kernel, with BLOCK_PX set
    for the case."""
    h, w, block_px = request.param
    if block_px is not None:
        monkeypatch.setattr(raster, "BLOCK_PX", block_px)
    return h, w


GRID = dict(width=100, height=100, origin_x=500000.0, origin_y=5000000.0,
            pixel_size_x=10.0, pixel_size_y=-10.0, crs="EPSG:32632")


def parcel_polygon(x0: int, y0: int, x1: int, y1: int) -> list[list[float]]:
    gx = lambda c: GRID["origin_x"] + c * GRID["pixel_size_x"]
    gy = lambda r: GRID["origin_y"] + r * GRID["pixel_size_y"]
    return [[gx(x0), gy(y0)], [gx(x1), gy(y0)], [gx(x1), gy(y1)],
            [gx(x0), gy(y1)], [gx(x0), gy(y0)]]


def write_parcels_geojson(path: Path) -> None:
    features = []
    for pid, orient, x0, y0, x1, y1 in PARCELS:
        features.append({
            "type": "Feature",
            "properties": {"id": pid, "orientation": orient},
            "geometry": {"type": "Polygon",
                         "coordinates": [parcel_polygon(x0, y0, x1, y1)]},
        })
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))


def write_campaign_json(path: Path, looks: int = 49, seed: int = 20230328) -> None:
    scenes = []
    for (date, orbit), cdd in zip(SAR_DATES, SAR_CDD):
        q = q_for_dprvi(planted_dprvi(cdd))
        regions = [{"rect": [x0, y0, x1, y1], "c2": [1.0, q, 0.0, 0.0]}
                   for _, _, x0, y0, x1, y1 in PARCELS]
        scenes.append({"date": date.isoformat(), "orbit": orbit, "regions": regions})
    doc = {"grid": GRID, "looks": looks, "seed": seed,
           "background": list(BACKGROUND_C2), "scenes": scenes}
    path.write_text(json.dumps(doc))


def seasonal_shape(day: dt.date) -> float:
    """Smooth 0..1 bump peaking near the summer solstice."""
    doy = day.timetuple().tm_yday
    return max(0.0, 1.0 - ((doy - 172.0) / 140.0) ** 2)


def save_with_nodata(path: Path, spec: GridSpec, bands, nodata: float, **kw) -> Path:
    """save_bundle's bundle with ``nodata`` as the header's sentinel, as
    another tool might write it (vinesar writes null); returns the header."""
    header = save_bundle(path, spec, bands, **kw)
    header.write_text(json.dumps(dict(json.loads(header.read_text()), nodata=nodata)))
    return header


def write_optical_inputs(out_dir: Path) -> None:
    """Reflectance bundles (split 10 m / 20 m) plus LAI, built so that NDVI,
    SVHI and LAI all ride the same seasonal bump."""
    spec10 = GridSpec(**GRID)
    spec20 = GridSpec(width=GRID["width"] // 2, height=GRID["height"] // 2,
                      origin_x=GRID["origin_x"], origin_y=GRID["origin_y"],
                      pixel_size_x=20.0, pixel_size_y=-20.0, crs=GRID["crs"])

    def flat(spec: GridSpec, value: float) -> np.ndarray:
        return np.full((spec.height, spec.width), value, dtype=np.float32)

    for date in OPTICAL_DATES:
        s = seasonal_shape(date)
        b4 = 0.25 - 0.18 * s
        b8 = 0.20 + 0.30 * s
        b5 = 0.9 * b4 + 0.02
        b11 = 0.20 - 0.06 * s
        b12 = 0.15 - 0.04 * s
        lai = 0.25 + 2.21 * s
        tag = date.isoformat()
        save_bundle(out_dir / f"bands10_{tag}", spec10,
                    [("B4", flat(spec10, b4)), ("B8", flat(spec10, b8))],
                    timestamp=date)
        save_bundle(out_dir / f"bands20_{tag}", spec20,
                    [("B5", flat(spec20, b5)), ("B11", flat(spec20, b11)),
                     ("B12", flat(spec20, b12))], timestamp=date)
        save_bundle(out_dir / f"lai_{tag}", spec10, [("LAI", flat(spec10, lai))],
                    timestamp=date)


def write_config(path: Path, out_dir: Path, *, multilook=(2, 2), erode=1,
                 abscissa="cdd", max_gap_days=7) -> None:
    doc = {
        "out_dir": str(out_dir),
        "parcels": "parcels.geojson",
        "weather": "weather.csv",
        "multilook": list(multilook),
        "erode": erode,
        "t_base": 10.0,
        "max_gap_days": max_gap_days,
        "abscissa": abscissa,
    }
    path.write_text(json.dumps(doc))


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


def build_campaign_workspace(root: Path, looks: int = 49, seed: int = 20230328) -> dict:
    """Write every campaign input under ``root`` and return the paths."""
    root.mkdir(parents=True, exist_ok=True)
    out = root / "out"
    out.mkdir(exist_ok=True)
    write_parcels_geojson(root / "parcels.geojson")
    write_weather_csv(root / "weather.csv")
    write_campaign_json(root / "campaign.json", looks=looks, seed=seed)
    write_config(root / "config.json", out)
    return {"root": root, "out": out, "config": root / "config.json",
            "campaign": root / "campaign.json"}


def run_full_pipeline(ws: dict) -> None:
    """synth -> sar-index -> optical-index -> zonal -> degree-days -> trend."""
    cfgflag = ("--config", str(ws["config"]))
    assert run_cli("synth", str(ws["campaign"]), *cfgflag) == 0
    assert run_cli("sar-index", *cfgflag) == 0
    write_optical_inputs(ws["out"])
    assert run_cli("optical-index", *cfgflag) == 0
    assert run_cli("zonal", *cfgflag) == 0
    assert run_cli("degree-days", *cfgflag) == 0
    assert run_cli("trend", *cfgflag) == 0
    assert run_cli("report", *cfgflag) == 0


@pytest.fixture(scope="session")
def campaign_run(tmp_path_factory):
    """One full pipeline run, shared by the tests that only inspect outputs."""
    root = tmp_path_factory.mktemp("campaign")
    ws = build_campaign_workspace(root)
    run_full_pipeline(ws)
    return ws

"""Seeded season inputs for the benchmark workloads.

Everything the pipeline reads is generated here from a workload description
and a seed: the campaign JSON, GeoJSON parcels, a weather CSV, split 10 m /
20 m optical bundles with leaf-area bundles, and (for workloads that skip
``vinesar synth``) the covariance bundles. Nothing here imports vinesar or
the repository's tests, so later edits to either cannot change the inputs.

Every parcel sits inside its own planted region, whose radar index follows a
downward parabola in cumulative degree days with its vertex at VERTEX_CDD.
Region corners lie on even pixel coordinates, so a 2x2 multilook never mixes
a region pixel with background.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

PIXEL_M = 10.0
ORIGIN_X = 500000.0
ORIGIN_Y = 5000000.0
CRS = "EPSG:32632"

# descending passes and the cumulative degree days the weather pins on them;
# each ascending pass follows one day later and one degree day higher
_DES = [(dt.date(2023, 3, 28), 20.0), (dt.date(2023, 4, 21), 40.0),
        (dt.date(2023, 5, 27), 72.0), (dt.date(2023, 6, 20), 100.0),
        (dt.date(2023, 7, 20), 132.0), (dt.date(2023, 8, 19), 160.0)]
SAR_DATES: list[tuple[dt.date, str, float]] = sorted(
    [(d, "DES", c) for d, c in _DES]
    + [(d + dt.timedelta(days=1), "ASC", c + 1.0) for d, c in _DES])
OPTICAL_DATES = [dt.date(2023, 3, 26), dt.date(2023, 4, 25), dt.date(2023, 5, 25),
                 dt.date(2023, 6, 24), dt.date(2023, 7, 24), dt.date(2023, 8, 23)]
WEATHER_END = dt.date(2023, 9, 30)
WEATHER_TAIL_CDD = 30.0
VERTEX_CDD = 96.0
BACKGROUND_C2 = (1.0, 0.05, 0.0, 0.0)
ERODE_PX = 1
LOOKS = 49
RING_VERTICES = (8, 64)                # fewest and most vertices of a ring


@dataclass(frozen=True)
class Workload:
    """Sizes of one benchmark workload; the seed fills in everything else."""

    name: str
    grid: int                      # side of the square 10 m grid, pixels
    cells: int                     # parcels per grid side, one per cell
    ring_share: float              # share of parcels drawn as polygon rings
    multilook: tuple[int, int]
    boxcar: Optional[int]
    resample: str
    synth: bool                    # covariance comes from `vinesar synth`

    @property
    def cell(self) -> int:
        return (self.grid // self.cells) & ~1

    def sizes(self) -> dict:
        n = self.cells * self.cells
        n_rings = round(n * self.ring_share)
        return {
            "grid_px": [self.grid, self.grid],
            "parcels": n,
            "ring_parcels": n_rings,
            "ring_vertices": list(RING_VERTICES) if n_rings else [],
            "looks": LOOKS,
            "sar_dates": len(SAR_DATES),
            "optical_dates": len(OPTICAL_DATES),
            "multilook": "%dx%d" % self.multilook,
            "boxcar": self.boxcar,
            "resample": self.resample,
            "c2_source": "vinesar synth" if self.synth else "benchmark sampler",
        }


@dataclass(frozen=True)
class PlantedParcel:
    id: str
    orientation: str
    rect: tuple[int, int, int, int]          # [x0, x1) x [y0, y1), pixels
    ring: Optional[tuple[tuple[float, float], ...]]  # closed, pixel units
    peak: float
    curv: float

    def index_at(self, cdd: float) -> float:
        return self.peak - self.curv * (cdd - VERTEX_CDD) ** 2


@dataclass(frozen=True)
class Season:
    workload: Workload
    seed: int
    parcels: tuple[PlantedParcel, ...]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _ring(rect: tuple[int, int, int, int], n: int,
          rng: np.random.Generator) -> tuple[tuple[float, float], ...]:
    """Star-shaped ring about the rectangle's centre, inside its inscribed
    ellipse. Angles increase strictly, so the ring never self-intersects."""
    x0, y0, x1, y1 = rect
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    ax, ay = 0.98 * (x1 - x0) / 2.0, 0.98 * (y1 - y0) / 2.0
    theta = 2.0 * math.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    theta += rng.uniform(0.0, 2.0 * math.pi)
    radius = rng.uniform(0.85, 1.0, n)
    pts = [(cx + ax * r * math.cos(t), cy + ay * r * math.sin(t))
           for t, r in zip(theta, radius)]
    return tuple(pts + [pts[0]])


def plan(workload: Workload, seed: int) -> Season:
    """Lay out parcels and their planted seasons; deterministic in the seed.

    Parcel and ring-vertex counts are fixed by the workload and only their
    placement, shape and season vary with the seed, so every seed asks the
    pipeline for the same amount of work.
    """
    rng = _rng(seed, 1)
    cell = workload.cell
    n = workload.cells * workload.cells
    n_rings = round(n * workload.ring_share)
    is_ring = np.zeros(n, dtype=bool)
    is_ring[rng.permutation(n)[:n_rings]] = True
    lo, hi = RING_VERTICES
    vertices = list(rng.permutation(np.linspace(lo, hi, n_rings).round().astype(int)))

    parcels = []
    for k in range(n):
        row, col = divmod(k, workload.cells)
        ew = (row + col) % 2 == 0
        long_side = 2 * int(rng.integers(cell * 3 // 10, cell * 4 // 10 + 1))
        short_side = 2 * int(rng.integers(cell // 4, cell * 3 // 10 + 1))
        w, h = (long_side, short_side) if ew else (short_side, long_side)
        x0 = col * cell + 2 * int(rng.integers(1, (cell - w) // 2))
        y0 = row * cell + 2 * int(rng.integers(1, (cell - h) // 2))
        rect = (x0, y0, x0 + w, y0 + h)
        ring = _ring(rect, int(vertices.pop()), rng) if is_ring[k] else None
        parcels.append(PlantedParcel(
            id=f"P{k:04d}", orientation="EW" if ew else "NS", rect=rect, ring=ring,
            peak=float(rng.uniform(0.74, 0.80)), curv=float(rng.uniform(5.5e-5, 6.5e-5))))
    return Season(workload, seed, tuple(parcels))


def q_for_index(d: float) -> float:
    """Eigenvalue ratio q of diag(1, q) whose index q(q+3)/(q+1)^2 equals d."""
    if not 0.0 <= d < 1.0:
        raise ValueError(f"index {d} outside the invertible range [0, 1)")
    return ((3.0 - 2.0 * d) - math.sqrt(9.0 - 8.0 * d)) / (2.0 * (d - 1.0))


def _geo(x: float, y: float) -> list[float]:
    return [ORIGIN_X + x * PIXEL_M, ORIGIN_Y - y * PIXEL_M]


def write_bundle(stem: Path, pixel_m: float, bands: list[tuple[str, np.ndarray]],
                 date: Optional[dt.date] = None, orbit: Optional[str] = None) -> None:
    """Write a vinesar raster bundle: JSON header plus float32 LE payload."""
    h, w = bands[0][1].shape
    header = {"width": w, "height": h, "origin_x": ORIGIN_X, "origin_y": ORIGIN_Y,
              "pixel_size_x": pixel_m, "pixel_size_y": -pixel_m, "crs": CRS,
              "bands": [{"name": name} for name, _ in bands], "dtype": "f32le",
              "nodata": None}
    if date is not None:
        header["timestamp"] = date.isoformat()
    if orbit is not None:
        header["orbit"] = orbit
    stem.with_name(stem.name + ".json").write_text(json.dumps(header, indent=2) + "\n")
    payload = np.stack([np.asarray(a, dtype="<f4") for _, a in bands])
    payload.tofile(stem.with_name(stem.name + ".bin"))


def read_bundle(stem: Path) -> tuple[dict, np.ndarray]:
    """Header and (bands, height, width) payload of a bundle."""
    header = json.loads(stem.with_name(stem.name + ".json").read_text())
    shape = (len(header["bands"]), header["height"], header["width"])
    values = np.fromfile(stem.with_name(stem.name + ".bin"), dtype="<f4")
    return header, values.reshape(shape)


def write_parcels(season: Season, path: Path) -> None:
    features = []
    for p in season.parcels:
        if p.ring is None:
            x0, y0, x1, y1 = p.rect
            corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
        else:
            corners = p.ring
        features.append({
            "type": "Feature",
            "properties": {"id": p.id, "orientation": p.orientation},
            "geometry": {"type": "Polygon",
                         "coordinates": [[_geo(x, y) for x, y in corners]]},
        })
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))


def weather_rows(seed: int) -> list[tuple[str, float, float, float]]:
    """Daily rows whose accumulation reaches each pinned value on its date.

    Between anchors the daily degree days are an even split plus a seeded
    zero-sum wobble; the daily mean stays above the 10 C base so every day
    contributes exactly tmean - 10.
    """
    rng = _rng(seed, 2)
    anchors = [(d, c) for d, _, c in SAR_DATES]
    anchors.append((WEATHER_END, anchors[-1][1] + WEATHER_TAIL_CDD))
    rows = []
    prev_day, prev_cdd = dt.date(2023, 1, 1) - dt.timedelta(days=1), 0.0
    for day, cdd in anchors:
        n = (day - prev_day).days
        daily = (cdd - prev_cdd) / n
        wobble = rng.uniform(-0.3, 0.3, n) * daily
        gdd = daily + wobble - wobble.mean()
        for k in range(n):
            tmean = 10.0 + float(gdd[k])
            swing = float(rng.uniform(3.0, 6.0))
            rain = float(rng.exponential(2.0)) if rng.random() < 0.3 else 0.0
            rows.append(((prev_day + dt.timedelta(days=k + 1)).isoformat(),
                         tmean - swing, tmean + swing, rain))
        prev_day, prev_cdd = day, cdd
    return rows


def write_weather(seed: int, path: Path) -> None:
    lines = ["date,tmin_c,tmax_c,precip_mm"]
    lines += [f"{d},{lo!r},{hi!r},{p!r}" for d, lo, hi, p in weather_rows(seed)]
    path.write_text("\n".join(lines) + "\n")


def _seasonal_shape(day: dt.date) -> float:
    doy = day.timetuple().tm_yday
    return max(0.0, 1.0 - ((doy - 172.0) / 140.0) ** 2)


def write_optical(season: Season, out_dir: Path) -> None:
    """Split 10 m / 20 m reflectance bundles and LAI riding one seasonal bump,
    with seeded per-pixel noise that keeps every sample in range."""
    rng = _rng(season.seed, 3)
    n10 = season.workload.grid
    n20 = n10 // 2

    def band(n: int, level: float) -> np.ndarray:
        return (level + rng.uniform(-0.01, 0.01, (n, n))).astype(np.float32)

    for date in OPTICAL_DATES:
        s = _seasonal_shape(date)
        b4 = 0.25 - 0.18 * s
        tag = date.isoformat()
        write_bundle(out_dir / f"bands10_{tag}", PIXEL_M,
                     [("B4", band(n10, b4)), ("B8", band(n10, 0.20 + 0.30 * s))], date)
        write_bundle(out_dir / f"bands20_{tag}", 2 * PIXEL_M,
                     [("B5", band(n20, 0.9 * b4 + 0.02)), ("B11", band(n20, 0.20 - 0.06 * s)),
                      ("B12", band(n20, 0.15 - 0.04 * s))], date)
        lai = 0.25 + 2.21 * s + rng.uniform(-0.05, 0.05, (n10, n10))
        write_bundle(out_dir / f"lai_{tag}", PIXEL_M, [("LAI", lai)], date)


def _region_c2(p: PlantedParcel, cdd: float) -> list[float]:
    return [1.0, q_for_index(p.index_at(cdd)), 0.0, 0.0]


def write_campaign(season: Season, path: Path) -> None:
    scenes = [{"date": d.isoformat(), "orbit": orbit,
               "regions": [{"rect": list(p.rect), "c2": _region_c2(p, cdd)}
                           for p in season.parcels]}
              for d, orbit, cdd in SAR_DATES]
    n = season.workload.grid
    grid = {"width": n, "height": n, "origin_x": ORIGIN_X, "origin_y": ORIGIN_Y,
            "pixel_size_x": PIXEL_M, "pixel_size_y": -PIXEL_M, "crs": CRS}
    doc = {"grid": grid, "looks": LOOKS, "seed": season.seed,
           "background": list(BACKGROUND_C2), "scenes": scenes}
    path.write_text(json.dumps(doc))


def _cholesky(c2: list[float]) -> tuple[float, complex, float]:
    c11, c22, re, im = c2
    l11 = math.sqrt(c11)
    l21 = complex(re, -im) / l11
    return l11, l21, math.sqrt(max(c22 - abs(l21) ** 2, 0.0))


def sample_c2(season: Season, cdd: float, rng: np.random.Generator) -> np.ndarray:
    """One multi-look covariance scene as (4, h, w) bands C11, C22, C12 re/im.

    Each pixel is C = Lc W Lc^H / L with Lc the Cholesky factor of its true
    covariance and W = T T^H the complex Wishart Bartlett factor:
    |t11|^2 ~ Gamma(L), |t22|^2 ~ Gamma(L - 1), t21 ~ CN(0, 1).
    """
    n = season.workload.grid
    owner = np.zeros((n, n), dtype=np.int64)
    for k, p in enumerate(season.parcels, start=1):
        x0, y0, x1, y1 = p.rect
        owner[y0:y1, x0:x1] = k
    chol = [_cholesky(list(BACKGROUND_C2))] + [_cholesky(_region_c2(p, cdd))
                                               for p in season.parcels]
    l11 = np.array([c[0] for c in chol])[owner]
    l21 = np.array([c[1] for c in chol])[owner]
    l22 = np.array([c[2] for c in chol])[owner]

    t11 = np.sqrt(rng.standard_gamma(LOOKS, (n, n)))
    t22 = np.sqrt(rng.standard_gamma(LOOKS - 1, (n, n)))  # shape 0 gives 0: rank one
    t21 = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    a11 = l11 * t11
    a21 = l21 * t11 + l22 * t21
    a22 = l22 * t22
    c12 = a11 * np.conj(a21) / LOOKS
    return np.stack([a11 ** 2 / LOOKS, (np.abs(a21) ** 2 + a22 ** 2) / LOOKS,
                     c12.real, c12.imag]).astype(np.float32)


def write_c2(season: Season, out_dir: Path) -> None:
    rng = _rng(season.seed, 4)
    for d, orbit, cdd in SAR_DATES:
        bands = sample_c2(season, cdd, rng)
        write_bundle(out_dir / f"c2_{d.isoformat()}_{orbit}", PIXEL_M,
                     list(zip(("C11", "C22", "C12_re", "C12_im"), bands)), d, orbit)


def write_config(season: Season, path: Path, out_dir: str, rasters_dir: str) -> None:
    wl = season.workload
    doc = {"out_dir": out_dir, "rasters_dir": rasters_dir,
           "parcels": "parcels.geojson", "weather": "weather.csv",
           "multilook": list(wl.multilook), "boxcar": wl.boxcar, "erode": ERODE_PX,
           "t_base": 10.0, "max_gap_days": 7, "abscissa": "cdd",
           "resample": wl.resample, "seed": season.seed}
    path.write_text(json.dumps(doc))


def write_inputs(season: Season, root: Path, rasters_dir: str, out_dir: str) -> None:
    """Everything the timed stages read, under ``root``."""
    raw = root / rasters_dir
    raw.mkdir(parents=True, exist_ok=True)
    write_parcels(season, root / "parcels.geojson")
    write_weather(season.seed, root / "weather.csv")
    write_optical(season, raw)
    if season.workload.synth:
        write_campaign(season, root / "campaign.json")
    else:
        write_c2(season, raw)
    write_config(season, root / "config.json", out_dir, rasters_dir)

"""Output checks for one pipeline run, counted as operations.

Each check is one operation that passes or fails:

- each expected ``zonal.csv`` row (parcel, band, date, orbit) must be present;
- each parcel and orbit must have a ``trend.csv`` fit with r >= 0.95 whose
  peak lies within one acquisition of the planted vertex;
- for a seeded sample of rectangular parcels, every zonal mean must match,
  to 1e-9 relative, a numpy oracle that reads the index ``.bin`` directly and
  applies the benchmark's own eroded rectangle mask.

Stage exit codes are counted by the runner. Nothing here imports vinesar.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

import inputs

FIT_MIN_R = 0.95
ORACLE_RTOL = 1e-9
ORACLE_PARCELS = 8
INDEX_PREFIXES = {"dprvi": "DpRVI", "ndvi": "NDVI", "svhi": "SVHI", "lai": "LAI"}


def _read_csv(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def expected_rows(season: inputs.Season) -> set[tuple[str, str, str, str]]:
    keys = set()
    for p in season.parcels:
        for d, orbit, _ in inputs.SAR_DATES:
            keys.add((p.id, "DpRVI", d.isoformat(), orbit))
        for d in inputs.OPTICAL_DATES:
            for band in ("NDVI", "SVHI", "LAI"):
                keys.add((p.id, band, d.isoformat(), ""))
    return keys


def allowed_peaks() -> dict[str, set[str]]:
    """Per orbit, the acquisition nearest the planted vertex and its neighbours."""
    allowed = {}
    for orbit in ("ASC", "DES"):
        passes = [(d, c) for d, o, c in inputs.SAR_DATES if o == orbit]
        k = min(range(len(passes)), key=lambda i: abs(passes[i][1] - inputs.VERTEX_CDD))
        allowed[orbit] = {d.isoformat() for d, _ in passes[max(0, k - 1):k + 2]}
    return allowed


def oracle_parcels(season: inputs.Season) -> list[inputs.PlantedParcel]:
    rects = [p for p in season.parcels if p.ring is None]
    rng = np.random.default_rng([season.seed, 5])
    picks = rng.permutation(len(rects))[:ORACLE_PARCELS]
    return [rects[i] for i in sorted(picks)]


def oracle_mean(values: np.ndarray, header: dict, rect: tuple[int, int, int, int]) -> float:
    """Mean of the finite pixels whose centres lie in the rectangle after
    eroding it by ERODE_PX pixels of the raster's own grid."""
    fx = header["pixel_size_x"] / inputs.PIXEL_M
    fy = -header["pixel_size_y"] / inputs.PIXEL_M
    x0, y0, x1, y1 = rect
    e = inputs.ERODE_PX
    window = values[int(y0 / fy) + e:int(y1 / fy) - e, int(x0 / fx) + e:int(x1 / fx) - e]
    v = window[np.isfinite(window)].astype(np.float64)
    return float(v.mean())


def check_outputs(season: inputs.Season, out_dir: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, first few failure notes) for one pipeline run."""
    attempted = failed = 0
    notes: list[str] = []

    def record(ok: bool, note: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            if len(notes) < 5:
                notes.append(note)

    zonal = {(r["parcel_id"], r["band"], r["timestamp"], r["orbit"]): r
             for r in _read_csv(out_dir / "zonal.csv")}
    for key in sorted(expected_rows(season)):
        record(key in zonal, f"zonal row {key} missing")

    fits = {(r["parcel_id"], r["orbit"]): r for r in _read_csv(out_dir / "trend.csv")}
    allowed = allowed_peaks()
    for p in season.parcels:
        for orbit in ("ASC", "DES"):
            row = fits.get((p.id, orbit))
            if row is None or not row["fit_r"]:
                record(False, f"no fit for {p.id}/{orbit}")
                continue
            ok = float(row["fit_r"]) >= FIT_MIN_R and row["peak_date"] in allowed[orbit]
            record(ok, f"{p.id}/{orbit}: r={row['fit_r']} peak {row['peak_date']}")

    picks = oracle_parcels(season)
    for prefix, band in INDEX_PREFIXES.items():
        for header_path in sorted(out_dir.glob(f"{prefix}_*.json")):
            header, values = inputs.read_bundle(header_path.with_suffix(""))
            date = header.get("timestamp") or ""
            orbit = header.get("orbit") or ""
            for p in picks:
                row = zonal.get((p.id, band, date, orbit))
                if row is None:
                    record(False, f"oracle: no zonal row {p.id} {band} {date} {orbit}")
                    continue
                want = oracle_mean(values[0], header, p.rect)
                got = float(row["mean"])
                record(abs(got - want) <= ORACLE_RTOL * abs(want),
                       f"oracle: {p.id} {band} {date} {orbit} mean {got!r} != {want!r}")
    return attempted, failed, notes

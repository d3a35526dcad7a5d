"""Field parcels: GeoJSON input, pixel masks, and per-parcel statistics.

Parcels are simple polygons (optionally with holes) in the same projected
CRS as the rasters they are laid over. Masks follow the even-odd rule
evaluated at pixel centers, so a hole subtracts and a sliver that misses
every center rasterizes to an empty mask rather than a guessed one.
"""

from __future__ import annotations

import datetime as dt
import json
import logging
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .raster import AlignmentError, GridSpec, Orbit, Raster
from .tables import read_table, write_table

log = logging.getLogger(__name__)


class EmptyStatsError(Exception):
    """A statistics request found no valid pixels."""


class Orientation(str, Enum):
    EW = "EW"
    NS = "NS"
    OTHER = "Other"


@dataclass
class Parcel:
    """One field polygon. ``rings[0]`` is the exterior, the rest are holes.

    Rings are (n, 2) float arrays, closed (first vertex repeated last).
    """

    id: str
    rings: list[np.ndarray]
    orientation: Orientation = Orientation.OTHER

    def __post_init__(self) -> None:
        if not self.rings:
            raise ValueError(f"parcel {self.id!r} has no rings")
        cleaned = []
        for k, ring in enumerate(self.rings):
            r = np.asarray(ring, dtype=np.float64)
            if r.ndim != 2 or r.shape[1] != 2:
                raise ValueError(f"parcel {self.id!r} ring {k} is not a list of (x, y) pairs")
            if r.shape[0] < 4:
                raise ValueError(f"parcel {self.id!r} ring {k} has {r.shape[0]} vertices, "
                                 "a closed ring needs at least 4")
            if not np.array_equal(r[0], r[-1]):
                raise ValueError(f"parcel {self.id!r} ring {k} is not closed "
                                 "(first vertex must repeat last)")
            if _ring_self_intersects(r):
                raise ValueError(f"parcel {self.id!r} ring {k} self-intersects")
            cleaned.append(r)
        self.rings = cleaned

    def bounds(self) -> tuple[float, float, float, float]:
        pts = np.vstack(self.rings)
        return (float(pts[:, 0].min()), float(pts[:, 1].min()),
                float(pts[:, 0].max()), float(pts[:, 1].max()))


def _segments_cross(p: np.ndarray, q: np.ndarray, r: np.ndarray, s: np.ndarray) -> bool:
    """True when open segments pq and rs share a point."""
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
    if o1 == 0 and on_segment(p, q, r):
        return True
    if o2 == 0 and on_segment(p, q, s):
        return True
    if o3 == 0 and on_segment(r, s, p):
        return True
    if o4 == 0 and on_segment(r, s, q):
        return True
    return False


def _ring_self_intersects(ring: np.ndarray) -> bool:
    """Check the open ring (closure vertex dropped) for self-intersection.

    Adjacent segments legitimately share an endpoint and are skipped; any
    other contact between two segments makes the ring invalid.
    """
    pts = ring[:-1]
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = pts[j], pts[(j + 1) % n]
            if _segments_cross(a, b, c, d):
                return True
    return False


def load_parcels(path: str | Path) -> list[Parcel]:
    """Read a GeoJSON FeatureCollection of Polygon features.

    Each feature must carry ``properties.id``; ``properties.orientation``
    (``EW``, ``NS``, or ``Other``) defaults to ``Other``.
    """
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{p} is not valid JSON: {e}") from e
    if doc.get("type") != "FeatureCollection":
        raise ValueError(f"{p}: expected a FeatureCollection, got {doc.get('type')!r}")

    parcels = []
    for k, feature in enumerate(doc.get("features", [])):
        geom = feature.get("geometry") or {}
        if geom.get("type") != "Polygon":
            raise ValueError(f"{p}: feature #{k} is {geom.get('type')!r}, only "
                             "Polygon features are supported")
        props = feature.get("properties") or {}
        if "id" not in props or props["id"] in (None, ""):
            raise ValueError(f"{p}: feature #{k} lacks properties.id")
        orientation = Orientation(props.get("orientation", "Other"))
        rings = [np.asarray(ring, dtype=np.float64) for ring in geom["coordinates"]]
        parcels.append(Parcel(id=str(props["id"]), rings=rings, orientation=orientation))

    ids = [pc.id for pc in parcels]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{p}: duplicate parcel ids")
    return parcels


@dataclass
class ParcelMask:
    """Boolean pixel membership of one parcel on one grid."""

    parcel_id: str
    spec: GridSpec
    mask: np.ndarray
    erosion_applied: int = 0

    def __post_init__(self) -> None:
        m = np.asarray(self.mask, dtype=bool)
        if m.shape != (self.spec.height, self.spec.width):
            raise ValueError(f"mask shape {m.shape} does not match grid "
                             f"{self.spec.height}x{self.spec.width}")
        self.mask = m

    @property
    def is_empty(self) -> bool:
        return not bool(self.mask.any())

    @property
    def count(self) -> int:
        return int(self.mask.sum())


def rasterize(parcel: Parcel, spec: GridSpec) -> ParcelMask:
    """Mask of pixels whose centers fall inside the parcel, even-odd rule.

    Holes subtract because their ring flips the crossing parity again. A
    parcel that covers no pixel center yields an empty (flagged) mask.
    """
    xs = spec.x_centers()
    ys = spec.y_centers()

    minx, miny, maxx, maxy = parcel.bounds()
    gx0, gx1 = spec.x_range()
    gy0, gy1 = spec.y_range()
    if maxx < gx0 or minx > gx1 or maxy < gy0 or miny > gy1:
        log.info("parcel %s does not overlap the grid, mask is empty", parcel.id)
        return ParcelMask(parcel.id, spec, np.zeros((spec.height, spec.width), dtype=bool))

    X = xs[None, :]
    Y = ys[:, None]
    inside = np.zeros((spec.height, spec.width), dtype=bool)
    for ring in parcel.rings:
        pts = ring[:-1]
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

    m = ParcelMask(parcel.id, spec, inside)
    if m.is_empty:
        log.info("parcel %s rasterized to an empty mask", parcel.id)
    return m


def erode(mask: ParcelMask, pixels: int = 1) -> ParcelMask:
    """Shrink the mask by ``pixels`` rounds of 4-neighbor erosion.

    A pixel survives a round only if it and its four edge neighbors are all
    set; beyond the raster edge counts as unset. Used to pull parcel
    statistics away from mixed border pixels.
    """
    if pixels < 0:
        raise ValueError("erosion distance must be >= 0")
    m = mask.mask.copy()
    for _ in range(pixels):
        if not m.any():
            break
        inner = m.copy()
        inner[1:, :] &= m[:-1, :]
        inner[:-1, :] &= m[1:, :]
        inner[:, 1:] &= m[:, :-1]
        inner[:, :-1] &= m[:, 1:]
        # raster border has no outside neighbor, so it cannot survive
        inner[0, :] = False
        inner[-1, :] = False
        inner[:, 0] = False
        inner[:, -1] = False
        m = inner
    out = ParcelMask(mask.parcel_id, mask.spec, m,
                     erosion_applied=mask.erosion_applied + pixels)
    if out.is_empty and not mask.is_empty:
        log.info("parcel %s mask became empty after eroding %d px",
                 mask.parcel_id, out.erosion_applied)
    return out


@dataclass(frozen=True)
class ZonalStats:
    """Summary of one raster over one parcel mask."""

    parcel_id: str
    band_name: str
    timestamp: Optional[dt.date]
    orbit: Optional[Orbit]
    count: int
    mean: float
    std: float
    min: float
    max: float


def zonal_stats(raster: Raster, mask: ParcelMask) -> ZonalStats:
    """Statistics over the masked, valid pixels of ``raster``.

    Uses the population standard deviation: the mask enumerates the parcel's
    pixels, it is not a sample from something larger. Accumulation runs in
    float64. Raises EmptyStatsError when nothing is left to summarize.
    """
    if raster.spec != mask.spec:
        raise AlignmentError(f"raster grid {raster.spec} does not match "
                             f"mask grid {mask.spec}")
    sel = mask.mask & raster.valid_mask()
    n = int(sel.sum())
    if n == 0:
        raise EmptyStatsError(f"parcel {mask.parcel_id}: no valid pixels under the mask")
    vals = raster.values[sel].astype(np.float64)
    return ZonalStats(
        parcel_id=mask.parcel_id,
        band_name=raster.band_name,
        timestamp=raster.timestamp,
        orbit=raster.orbit,
        count=n,
        mean=float(vals.mean()),
        std=float(vals.std(ddof=0)),
        min=float(vals.min()),
        max=float(vals.max()),
    )


ZONAL_CSV_HEADER = ("parcel_id", "band", "timestamp", "orbit",
                    "count", "mean", "std", "min", "max")


def write_zonal_csv(stats: Sequence[ZonalStats], path: str | Path) -> None:
    write_table(path, ZONAL_CSV_HEADER, (
        (s.parcel_id, s.band_name, s.timestamp, s.orbit,
         s.count, s.mean, s.std, s.min, s.max) for s in stats))


def read_zonal_csv(path: str | Path) -> list[ZonalStats]:
    return [ZonalStats(
        parcel_id=row["parcel_id"],
        band_name=row["band"],
        timestamp=dt.date.fromisoformat(row["timestamp"]) if row["timestamp"] else None,
        orbit=Orbit(row["orbit"]) if row["orbit"] else None,
        count=int(row["count"]),
        mean=float(row["mean"]),
        std=float(row["std"]),
        min=float(row["min"]),
        max=float(row["max"]),
    ) for row in read_table(path, ZONAL_CSV_HEADER)]

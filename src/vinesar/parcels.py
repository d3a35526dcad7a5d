"""Field parcels: GeoJSON input, pixel masks, and per-parcel statistics.

Parcels are simple polygons (optionally with holes) in the same projected
CRS as the rasters they are laid over. Masks follow the even-odd rule
evaluated at pixel centers, so a hole subtracts and a sliver that misses
every center rasterizes to an empty mask rather than a guessed one.
"""

from __future__ import annotations

import datetime as dt
import functools
import json
import logging
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .raster import BLOCK_PX, AlignmentError, GridSpec, Orbit, Raster, valid_values
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
        rings, error = _shaped_rings(self.id, self.rings)
        k = _first_crossing(rings)
        if k is not None:
            raise ValueError(f"parcel {self.id!r} ring {k} self-intersects")
        if error is not None:
            raise error
        self.rings = rings

    @classmethod
    def _checked(cls, pid: str, rings: list[np.ndarray],
                 orientation: Orientation) -> "Parcel":
        """Parcel from rings that already passed the shape and ring checks."""
        out = cls.__new__(cls)
        out.id, out.rings, out.orientation = pid, rings, orientation
        return out

    def bounds(self) -> tuple[float, float, float, float]:
        pts = np.vstack(self.rings)
        return (float(pts[:, 0].min()), float(pts[:, 1].min()),
                float(pts[:, 0].max()), float(pts[:, 1].max()))


# Segment pairs the ring check tests per batch, gathered across the rings of
# a file (a ring with more segments than this gives each batch whole rows of
# its pairs): bounds the temporaries for rings of any size and number while
# keeping numpy calls few for files of many 5-100 vertex rings.
_PAIR_CHUNK = 1 << 16


def _orient(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Sign of the turn a -> b -> c for each row of (k, 2) point arrays."""
    return np.sign((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                   - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def _in_box(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Whether each point c lies in the bounding box of segment ab."""
    return np.all((np.minimum(a, b) <= c) & (c <= np.maximum(a, b)), axis=1)


def _segment_pairs(n: int, i0: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-adjacent pairs (i, j), i < j, of a ring's n segments for
    segments i in [i0, i0 + rows)."""
    di, j = np.triu_indices(min(rows, n - i0), k=i0 + 2, m=n)
    i = di + i0
    apart = (i != 0) | (j != n - 1)  # the last segment closes onto the first
    return i[apart], j[apart]


@functools.lru_cache(maxsize=64)
def _all_segment_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every non-adjacent pair of a ring's n segments, read-only: parcel
    files repeat a few vertex counts, and building the pairs is about a
    third of the check's cost for a small ring."""
    pairs = _segment_pairs(n, 0, n)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _shaped_rings(pid: str, rings: Sequence) -> tuple[list[np.ndarray], Optional[Exception]]:
    """The leading rings of a parcel that are closed (n >= 4, 2) float64
    arrays of finite vertices, and the error for the first ring that is not
    (None when every ring is)."""
    if not rings:
        return [], ValueError(f"parcel {pid!r} has no rings")
    out = []
    for k, ring in enumerate(rings):
        try:
            r = np.asarray(ring, dtype=np.float64)
        except (TypeError, ValueError) as e:
            return out, e
        if r.ndim != 2 or r.shape[1] != 2:
            problem = "is not a list of (x, y) pairs"
        elif not np.isfinite(r).all():
            problem = "has a non-finite coordinate"
        elif r.shape[0] < 4:
            problem = f"has {r.shape[0]} vertices, a closed ring needs at least 4"
        elif not np.array_equal(r[0], r[-1]):
            problem = "is not closed (first vertex must repeat last)"
        else:
            out.append(r)
            continue
        return out, ValueError(f"parcel {pid!r} ring {k} {problem}")
    return out, None


def _self_intersecting(rings: Sequence[np.ndarray]) -> np.ndarray:
    """Whether each closed ring touches itself, for every ring at once.

    Adjacent segments legitimately share an endpoint and are skipped; any
    other contact between two segments of a ring makes it invalid: a proper
    crossing, or an endpoint of one that is collinear with the other and
    within its extent (T-contacts, overlaps and repeated vertices). The
    non-adjacent segment pairs of all rings are tested together, about
    ``_PAIR_CHUNK`` pairs per batch of numpy calls. A pair whose closed
    bounding boxes are disjoint cannot touch and is dropped before the
    orientation tests.
    """
    bad = np.zeros(len(rings), dtype=bool)
    if not rings:
        return bad
    a = np.concatenate([r[:-1] for r in rings])  # segment k runs from a[k] to b[k]
    b = np.concatenate([r[1:] for r in rings])
    # box corners per coordinate: contiguous 1-D gathers beat an all(axis=1)
    (lox, loy), (hix, hiy) = np.minimum(a, b).T.copy(), np.maximum(a, b).T.copy()

    def check(batch: list[tuple[int, int, np.ndarray, np.ndarray]]) -> None:
        sizes = [i.size for _, _, i, _ in batch]
        shift = np.repeat([start for _, start, _, _ in batch], sizes)
        i = np.concatenate([i for _, _, i, _ in batch]) + shift
        j = np.concatenate([j for _, _, _, j in batch]) + shift
        near = np.flatnonzero((lox[i] <= hix[j]) & (lox[j] <= hix[i])
                              & (loy[i] <= hiy[j]) & (loy[j] <= hiy[i]))
        if near.size == 0:
            return
        i, j = i[near], j[near]
        p, q, r, s = a[i], b[i], a[j], b[j]
        o1, o2 = _orient(p, q, r), _orient(p, q, s)
        o3, o4 = _orient(r, s, p), _orient(r, s, q)
        touch = (((o1 != o2) & (o3 != o4))
                 | ((o1 == 0) & _in_box(p, q, r)) | ((o2 == 0) & _in_box(p, q, s))
                 | ((o3 == 0) & _in_box(r, s, p)) | ((o4 == 0) & _in_box(r, s, q)))
        owner = np.repeat([k for k, _, _, _ in batch], sizes)[near]
        bad[owner[touch]] = True

    batch: list[tuple[int, int, np.ndarray, np.ndarray]] = []
    pairs = start = 0
    for k, ring in enumerate(rings):
        n = len(ring) - 1
        rows = max(1, _PAIR_CHUNK // n)
        for i0 in range(0, n, rows):
            i, j = _all_segment_pairs(n) if rows >= n else _segment_pairs(n, i0, rows)
            batch.append((k, start, i, j))
            pairs += i.size
            if pairs >= _PAIR_CHUNK:
                check(batch)
                batch, pairs = [], 0
        start += n
    if batch:
        check(batch)
    return bad


def _first_crossing(rings: Sequence[np.ndarray]) -> Optional[int]:
    """Index of the first ring that touches itself, None if none does."""
    bad = np.flatnonzero(_self_intersecting(rings))
    return int(bad[0]) if bad.size else None


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
    kind = doc.get("type") if isinstance(doc, dict) else type(doc).__name__
    if kind != "FeatureCollection":
        raise ValueError(f"{p}: expected a FeatureCollection, got {kind!r}")
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise ValueError(f"{p}: \"features\" must be a list")

    # Every feature's rings are shape-checked in file order up to the first
    # error; the rings read before it then take one batched ring check, so the
    # error reported is the first in file order, as one check per ring gives.
    found = []
    rings: list[np.ndarray] = []
    owners: list[tuple[int, str, int]] = []  # (feature, parcel id, ring) of each ring
    error = None
    for k, feature in enumerate(features):
        try:
            pid, raw, orientation = _feature_parts(p, k, feature)
        except ValueError as e:
            error = e
            break
        shaped, bad = _shaped_rings(pid, raw)
        rings.extend(shaped)
        owners.extend((k, pid, j) for j in range(len(shaped)))
        if bad is not None:
            error = ValueError(f"{p}: feature #{k}: {bad}")
            break
        found.append((pid, shaped, orientation))
    first = _first_crossing(rings)
    if first is not None:
        k, pid, j = owners[first]
        raise ValueError(f"{p}: feature #{k}: parcel {pid!r} ring {j} self-intersects")
    if error is not None:
        raise error
    parcels = [Parcel._checked(*parts) for parts in found]

    ids = [pc.id for pc in parcels]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{p}: duplicate parcel ids")
    return parcels


def _feature_parts(p: Path, k: int, feature) -> tuple[str, list[np.ndarray], Orientation]:
    """Id, ring arrays and orientation of feature #k of file p; the rings'
    shapes are not checked yet."""
    if not isinstance(feature, dict):
        raise ValueError(f"{p}: feature #{k} is not a JSON object")
    geom = feature.get("geometry") or {}
    gtype = geom.get("type") if isinstance(geom, dict) else type(geom).__name__
    if gtype != "Polygon":
        raise ValueError(f"{p}: feature #{k} is {gtype!r}, only "
                         "Polygon features are supported")
    props = feature.get("properties") or {}
    if not isinstance(props, dict) or props.get("id") in (None, ""):
        raise ValueError(f"{p}: feature #{k} lacks properties.id")
    if not isinstance(geom.get("coordinates"), list):
        raise ValueError(f"{p}: feature #{k} lacks a coordinates list")
    try:
        orientation = Orientation(props.get("orientation", "Other"))
        rings = [np.asarray(ring, dtype=np.float64) for ring in geom["coordinates"]]
    except (TypeError, ValueError) as e:
        raise ValueError(f"{p}: feature #{k}: {e}") from None
    return str(props["id"]), rings, orientation


class ParcelMask:
    """Boolean pixel membership of one parcel on one grid.

    Stored as a window: ``local`` is the membership of grid rows
    ``row0 : row0 + local.shape[0]`` and columns ``col0 : col0 +
    local.shape[1]``, cropped to the set pixels, so a mask costs memory and
    time in proportion to the parcel, not the grid. An empty mask has a
    0x0 window. The constructor takes a full-grid mask.
    """

    def __init__(self, parcel_id: str, spec: GridSpec, mask: np.ndarray,
                 erosion_applied: int = 0) -> None:
        m = np.asarray(mask, dtype=bool)
        if m.shape != (spec.height, spec.width):
            raise ValueError(f"mask shape {m.shape} does not match grid "
                             f"{spec.height}x{spec.width}")
        self._set(parcel_id, spec, 0, 0, m, erosion_applied)

    @classmethod
    def _from_window(cls, parcel_id: str, spec: GridSpec, row0: int, col0: int,
                     local: np.ndarray, erosion_applied: int = 0) -> "ParcelMask":
        """Mask whose set pixels all lie in ``local`` placed at (row0, col0)."""
        out = cls.__new__(cls)
        out._set(parcel_id, spec, row0, col0, local, erosion_applied)
        return out

    def _set(self, parcel_id: str, spec: GridSpec, row0: int, col0: int,
             local: np.ndarray, erosion_applied: int) -> None:
        self.parcel_id = parcel_id
        self.spec = spec
        self.erosion_applied = erosion_applied
        rows = np.flatnonzero(local.any(axis=1))
        if rows.size == 0:
            self.row0, self.col0 = 0, 0
            self.local = np.zeros((0, 0), dtype=bool)
            return
        cols = np.flatnonzero(local.any(axis=0))
        r0, c0 = int(rows[0]), int(cols[0])
        self.row0, self.col0 = row0 + r0, col0 + c0
        self.local = local[r0:int(rows[-1]) + 1, c0:int(cols[-1]) + 1].copy()

    @property
    def window(self) -> tuple[slice, slice]:
        """Row and column slices of the grid that ``local`` covers."""
        h, w = self.local.shape
        return slice(self.row0, self.row0 + h), slice(self.col0, self.col0 + w)

    @property
    def mask(self) -> np.ndarray:
        """Full-grid membership, built on each access."""
        full = np.zeros((self.spec.height, self.spec.width), dtype=bool)
        full[self.window] = self.local
        return full

    @property
    def is_empty(self) -> bool:
        return self.local.size == 0  # the window is cropped to the set pixels

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.local))


def _halo_span(centers: np.ndarray, lo: float, hi: float, step: float) -> slice:
    """Indices of the centers within one pixel of [lo, hi] (empty if none)."""
    near = np.flatnonzero((centers >= lo - step) & (centers <= hi + step))
    return slice(int(near[0]), int(near[-1]) + 1) if near.size else slice(0, 0)


def rasterize(parcel: Parcel, spec: GridSpec) -> ParcelMask:
    """Mask of pixels whose centers fall inside the parcel, even-odd rule.

    Holes subtract because their ring flips the crossing parity again. A
    parcel that covers no pixel center yields an empty (flagged) mask. Only
    centers inside the parcel's bounding box plus a one-pixel halo are
    tested: the halo takes the centers a rounded crossing could still count.
    """
    minx, miny, maxx, maxy = parcel.bounds()
    gx0, gx1 = spec.x_range()
    gy0, gy1 = spec.y_range()
    if maxx < gx0 or minx > gx1 or maxy < gy0 or miny > gy1:
        log.info("parcel %s does not overlap the grid, mask is empty", parcel.id)
        return ParcelMask._from_window(parcel.id, spec, 0, 0, np.zeros((0, 0), dtype=bool))

    xs = spec.x_centers()
    ys = spec.y_centers()
    cols = _halo_span(xs, minx, maxx, abs(spec.pixel_size_x))
    rows = _halo_span(ys, miny, maxy, abs(spec.pixel_size_y))
    X = xs[None, cols]
    Y = ys[rows, None]
    inside = np.zeros((Y.shape[0], X.shape[1]), dtype=bool)
    # edges per pass: an (edges, rows, cols) crossing array of about one block
    step = max(1, BLOCK_PX // max(1, inside.size))
    for ring in parcel.rings:
        pi = ring[:-1]  # edge k runs from vertex k - 1 (pj) to vertex k (pi)
        pj = np.roll(pi, 1, axis=0)
        for e0 in range(0, len(pi), step):
            xi, yi = pi[e0:e0 + step, 0, None, None], pi[e0:e0 + step, 1, None, None]
            xj, yj = pj[e0:e0 + step, 0, None, None], pj[e0:e0 + step, 1, None, None]
            crosses = (yi > Y) != (yj > Y)
            with np.errstate(invalid="ignore", divide="ignore"):
                x_at = (xj - xi) * (Y - yi) / (yj - yi) + xi
            # an edge that does not cross a row counts for no center of it
            x_at[~crosses] = -np.inf
            inside ^= np.logical_xor.reduce(X < x_at, axis=0)

    m = ParcelMask._from_window(parcel.id, spec, rows.start, cols.start, inside)
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
    m = mask.local
    for _ in range(pixels):
        if not m.any():
            break
        inner = m.copy()
        inner[1:, :] &= m[:-1, :]
        inner[:-1, :] &= m[1:, :]
        inner[:, 1:] &= m[:, :-1]
        inner[:, :-1] &= m[:, 1:]
        # the window holds every set pixel, so its edge has an unset outside
        # neighbor, the raster border included
        inner[0, :] = False
        inner[-1, :] = False
        inner[:, 0] = False
        inner[:, -1] = False
        m = inner
    out = ParcelMask._from_window(mask.parcel_id, mask.spec, mask.row0, mask.col0, m,
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
    vals = raster.values[mask.window][mask.local]
    ok = valid_values(vals, raster.nodata)
    n = int(np.count_nonzero(ok))
    if n == 0:
        raise EmptyStatsError(f"parcel {mask.parcel_id}: no valid pixels under the mask")
    x = (vals if n == vals.size else vals[ok]).astype(np.float64)
    # numpy's mean and std(ddof=0), operation for operation, without their
    # per-call dispatch: the same pairwise sums, so the same bits
    total = np.add.reduce(x)
    lo, hi = np.minimum.reduce(x), np.maximum.reduce(x)
    np.subtract(x, total / n, out=x)
    np.multiply(x, x, out=x)
    return ZonalStats(
        parcel_id=mask.parcel_id,
        band_name=raster.band_name,
        timestamp=raster.timestamp,
        orbit=raster.orbit,
        count=n,
        mean=float(total / n),
        std=math.sqrt(np.add.reduce(x) / n),
        min=float(lo),
        max=float(hi),
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

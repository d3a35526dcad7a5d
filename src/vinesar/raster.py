"""Grid geometry, flat-binary raster interchange, resampling and alignment.

A raster bundle on disk is a pair of files sharing a basename: ``<name>.json``
holds the grid header and band list, ``<name>.bin`` holds the pixel values as
row-major, band-sequential little-endian float32. The format is deliberately
minimal so that any implementation can read it with nothing but a JSON parser
and a byte reader.
"""

from __future__ import annotations

import datetime as dt
import json
import logging
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .schema import (AlignmentError, BundleError, Orbit, ResampleMethod, iso_date,
                     json_float, json_int, read_json_object)
from .tables import atomic_open

log = logging.getLogger(__name__)

DTYPE_TAG = "f32le"

# Pixels an elementwise kernel handles at once: each of its float64
# temporaries then takes 256 KB whatever the raster size, so scenes
# processed side by side cost little more memory than one. On 640x640
# scenes, 2^15 ran as fast as 2^16 and 2^14 about 8% slower.
BLOCK_PX = 1 << 15


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a pixel grid.

    ``origin_x, origin_y`` locate the outer corner of pixel (0, 0); the
    center of pixel (col, row) sits at ``origin + (index + 0.5) * size``.
    ``pixel_size_y`` is negative for the usual north-up rasters. Two rasters
    are aligned iff their specs compare equal field for field.
    """

    width: int
    height: int
    origin_x: float
    origin_y: float
    pixel_size_x: float
    pixel_size_y: float
    crs: str

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.width}x{self.height}")
        if self.pixel_size_x == 0 or self.pixel_size_y == 0:
            raise ValueError("pixel sizes must be nonzero")
        # with a finite origin and pixel size (json_float refuses others in a
        # file), a finite far edge keeps every pixel center finite
        near = (self.origin_x, self.origin_y, self.pixel_size_x, self.pixel_size_y)
        far = (self.origin_x + self.width * self.pixel_size_x,
               self.origin_y + self.height * self.pixel_size_y)
        if all(map(math.isfinite, near)) and not all(map(math.isfinite, far)):
            raise ValueError(f"grid extent overflows: origin + size x pixel size is {far}")

    def x_centers(self) -> np.ndarray:
        return self.origin_x + (np.arange(self.width, dtype=np.float64) + 0.5) * self.pixel_size_x

    def y_centers(self) -> np.ndarray:
        return self.origin_y + (np.arange(self.height, dtype=np.float64) + 0.5) * self.pixel_size_y

    def x_range(self) -> tuple[float, float]:
        a = self.origin_x
        b = self.origin_x + self.width * self.pixel_size_x
        return (a, b) if a <= b else (b, a)

    def y_range(self) -> tuple[float, float]:
        a = self.origin_y
        b = self.origin_y + self.height * self.pixel_size_y
        return (a, b) if a <= b else (b, a)


@dataclass
class Raster:
    """One band of float32 samples on a grid.

    ``values`` has shape (height, width). Non-finite pixels (NaN is the
    nodata value) carry no measurement and are skipped by every statistic
    downstream.
    """

    spec: GridSpec
    values: np.ndarray
    band_name: str = ""
    timestamp: Optional[dt.date] = None
    orbit: Optional[Orbit] = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float32)
        if v.shape != (self.spec.height, self.spec.width):
            raise ValueError(f"value shape {v.shape} does not match grid "
                             f"{self.spec.height}x{self.spec.width}")
        self.values = v


@dataclass
class Bundle:
    """In-memory image of a raster bundle: one grid, one or more named bands.

    ``values`` has shape (bands, height, width) and is stored as float32.
    """

    spec: GridSpec
    band_names: list[str]
    values: np.ndarray
    timestamp: Optional[dt.date] = None
    orbit: Optional[Orbit] = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float32)
        shape = (len(self.band_names), self.spec.height, self.spec.width)
        if v.shape != shape:
            raise ValueError(f"value shape {v.shape} does not match {shape[0]} bands "
                             f"on grid {self.spec.height}x{self.spec.width}")
        self.values = v

    def band(self, name: str) -> Raster:
        try:
            i = self.band_names.index(name)
        except ValueError:
            raise BundleError(f"bundle has no band {name!r}; bands are {self.band_names}")
        return Raster(self.spec, self.values[i], name, self.timestamp, self.orbit)


def _bundle_paths(path: str | Path) -> tuple[Path, Path]:
    p = Path(path)
    if p.suffix == ".json":
        p = p.with_suffix("")
    return p.with_suffix(".json"), p.with_suffix(".bin")


def save_bundle(path: str | Path,
                spec: GridSpec,
                bands: Sequence[tuple[str, np.ndarray]],
                *,
                timestamp: Optional[dt.date] = None,
                orbit: Optional[Orbit] = None) -> Path:
    """Write a bundle; returns the header path.

    The header is checked by read_header's field rules before anything is
    written, so a bundle that read_header would refuse (no band, a repeated
    band name, a non-finite origin, a crs that is not a string, a timestamp
    that is not a date) raises BundleError naming the header and leaves no
    file. Band arrays must all be (height, width). Values are stored
    verbatim as little-endian float32, so a save/load round trip is bitwise
    exact. Both files are written through tables.atomic_open, payload
    renamed first, and an old header is removed between the two renames, so
    a failed or interrupted save never leaves a header beside a missing,
    partial or other bundle's payload: a failed payload rename keeps the old
    bundle, a failed header rename leaves no header. (No fsync: this guards
    against a failing process, not against a power loss.)
    """
    header_path, binary_path = _bundle_paths(path)
    header = dict(asdict(spec), bands=[{"name": name} for name, _ in bands], dtype=DTYPE_TAG,
                  nodata=None)  # NaN, the nodata value in memory, has no JSON literal
    if timestamp is not None:
        header["timestamp"] = timestamp.isoformat()
    if orbit is not None:
        header["orbit"] = orbit
    _parse_header(header, header_path)

    arrays = []
    for name, arr in bands:
        a = np.asarray(arr, dtype="<f4")
        if a.shape != (spec.height, spec.width):
            raise BundleError(f"band {name!r} has shape {a.shape}, grid wants "
                              f"({spec.height}, {spec.width})")
        arrays.append(a)

    with atomic_open(header_path) as h:
        with atomic_open(binary_path, "wb") as f:
            for a in arrays:
                a.tofile(f)  # row-major whatever the array's memory order
        # the new payload is in place: an old header must not outlive it
        header_path.unlink(missing_ok=True)
        h.write(json.dumps(header, indent=2) + "\n")
    return header_path


def grid_from_json(doc: dict) -> GridSpec:
    """The grid a JSON object's fields declare: integer ``width`` and
    ``height``, finite numbers for the origin and pixel sizes, a string
    ``crs``. A missing or wrong field is a ValueError naming it."""
    missing = [f.name for f in fields(GridSpec) if f.name not in doc]
    if missing:
        raise ValueError(f"{missing[0]!r} is missing")
    if not isinstance(doc["crs"], str):
        raise ValueError(f"'crs' must be a string, got {doc['crs']!r}")
    return GridSpec(
        width=json_int(doc["width"], "width"),
        height=json_int(doc["height"], "height"),
        origin_x=json_float(doc["origin_x"], "origin_x"),
        origin_y=json_float(doc["origin_y"], "origin_y"),
        pixel_size_x=json_float(doc["pixel_size_x"], "pixel_size_x"),
        pixel_size_y=json_float(doc["pixel_size_y"], "pixel_size_y"),
        crs=doc["crs"],
    )


@dataclass(frozen=True)
class BundleHeader:
    """What a bundle's header declares (``nodata`` NaN for null)."""

    spec: GridSpec
    band_names: list[str]
    nodata: float = math.nan
    timestamp: Optional[dt.date] = None
    orbit: Optional[Orbit] = None


def _parse_header(header: dict, header_path: Path) -> BundleHeader:
    """The fields of a header object, checked by the rules read_header
    gives; BundleError naming ``header_path`` when one is broken."""
    required = [f.name for f in fields(GridSpec)] + ["bands", "dtype"]
    missing = [k for k in required if k not in header]
    if missing:
        raise BundleError(f"header {header_path} lacks fields {missing}")
    if header["dtype"] != DTYPE_TAG:
        raise BundleError(f"header {header_path}: unsupported dtype {header['dtype']!r}, "
                          f"expected {DTYPE_TAG!r}")

    try:
        spec = grid_from_json(header)
        bands = header["bands"]
        if not (isinstance(bands, list) and all(isinstance(b, dict)
                                                and isinstance(b.get("name"), str)
                                                for b in bands)):
            raise ValueError(f"'bands' must be a list of objects with a string "
                             f"\"name\", got {bands!r}")
        nodata = header.get("nodata")
        nodata = math.nan if nodata is None else json_float(nodata, "nodata", finite=False)
        timestamp = header.get("timestamp")
        timestamp = None if timestamp is None else iso_date(timestamp, "timestamp")
        orbit = header.get("orbit")
        orbit = None if orbit is None else Orbit(orbit)
    except ValueError as e:
        raise BundleError(f"header {header_path}: {e}") from None
    band_names = [b["name"] for b in bands]
    if not band_names:
        raise BundleError(f"header {header_path} declares no bands")
    if len(set(band_names)) < len(band_names):
        raise BundleError(f"header {header_path}: 'bands' repeats a name: {band_names}")
    return BundleHeader(spec=spec, band_names=band_names, nodata=nodata,
                        timestamp=timestamp, orbit=orbit)


def read_header(path: str | Path) -> BundleHeader:
    """Parse and check a bundle's header without reading its payload.

    Raises BundleError on a missing file, an unparseable or incomplete
    header, an unknown dtype or orbit, a field of the wrong type, or a
    payload whose size does not match the declared grid and bands. The
    grid fields are integers (width, height), finite JSON numbers and a
    string crs; bands is a non-empty list of objects with distinct string
    names; nodata is a number or null; timestamp is a YYYY-MM-DD date string.
    """
    header_path, binary_path = _bundle_paths(path)
    if not header_path.exists():
        raise BundleError(f"missing header {header_path}")
    if not binary_path.exists():
        raise BundleError(f"missing binary payload {binary_path}")
    try:
        doc = read_json_object(header_path)
    except ValueError as e:
        raise BundleError(str(e)) from None
    header = _parse_header(doc, header_path)

    size = binary_path.stat().st_size
    expected = 4 * header.spec.width * header.spec.height * len(header.band_names)
    if size != expected:
        raise BundleError(f"{binary_path} holds {size} bytes, header implies {expected}")
    return header


def load_bundle(path: str | Path) -> Bundle:
    """Read a bundle back; raises BundleError on any header/payload mismatch.
    Samples equal to the header's numeric ``nodata`` (as float32, so -0.0
    matches 0.0) come back as NaN, the one nodata value in memory."""
    h = read_header(path)
    values = np.fromfile(_bundle_paths(path)[1], dtype="<f4").reshape(
        len(h.band_names), h.spec.height, h.spec.width)
    if not math.isnan(h.nodata):
        with np.errstate(over="ignore"):  # a sentinel beyond float32 is +-inf
            values[values == np.float32(h.nodata)] = np.nan
    return Bundle(spec=h.spec, band_names=h.band_names, values=values,
                  timestamp=h.timestamp, orbit=h.orbit)


def save_raster(raster: Raster, path: str | Path) -> Path:
    """Write a single-band bundle."""
    return save_bundle(path, raster.spec, [(raster.band_name or "band", raster.values)],
                       timestamp=raster.timestamp, orbit=raster.orbit)


def load_raster(path: str | Path) -> Raster:
    """Read a single-band bundle as a Raster."""
    b = load_bundle(path)
    if len(b.band_names) != 1:
        raise BundleError(f"{path} holds {len(b.band_names)} bands; "
                          "pick one via load_bundle().band(name)")
    return b.band(b.band_names[0])


def assert_aligned(rasters: Sequence[Raster]) -> None:
    """Raise AlignmentError naming the first raster whose grid deviates."""
    if not rasters:
        return
    ref = rasters[0].spec
    for i, r in enumerate(rasters[1:], start=1):
        if r.spec != ref:
            label = r.band_name or f"raster #{i}"
            if r.timestamp is not None:
                label += f" ({r.timestamp.isoformat()})"
            raise AlignmentError(f"{label} is on grid {r.spec}, expected {ref}")


def row_blocks(height: int, width: int) -> Iterator[slice]:
    """Row slices covering ``range(height)`` in order, each about BLOCK_PX
    pixels of a ``width``-pixel row (at least one row)."""
    step = max(1, BLOCK_PX // width)
    for r0 in range(0, height, step):
        yield slice(r0, min(r0 + step, height))


def _require_overlap(source: GridSpec, target: GridSpec) -> None:
    if source.crs != target.crs:
        raise ValueError(f"cannot resample across CRS ({source.crs!r} vs {target.crs!r})")
    sx0, sx1 = source.x_range()
    tx0, tx1 = target.x_range()
    sy0, sy1 = source.y_range()
    ty0, ty1 = target.y_range()
    if min(sx1, tx1) <= max(sx0, tx0) or min(sy1, ty1) <= max(sy0, ty0):
        raise ValueError("source and target extents are disjoint")


def resample(raster: Raster, target: GridSpec,
             method: ResampleMethod | str = ResampleMethod.NEAREST) -> Raster:
    """Resample onto ``target`` by Nearest or Bilinear.

    Nearest assigns each target pixel the value of the source pixel containing
    the target pixel center. Bilinear blends the four source pixel centers
    around the target center; whenever any of the four carries nodata the
    pixel falls back to Nearest so that no invented values leak out of gaps.
    Target centers outside the source extent come back as nodata (NaN).
    """
    method = ResampleMethod(method)
    src = raster.spec
    _require_overlap(src, target)

    xs = target.x_centers()
    ys = target.y_centers()
    # fractional source column/row of each target center, containing-pixel rule
    fcol = (xs - src.origin_x) / src.pixel_size_x
    frow = (ys - src.origin_y) / src.pixel_size_y
    col = np.floor(fcol).astype(np.int64)
    row = np.floor(frow).astype(np.int64)
    in_x = (col >= 0) & (col < src.width)
    in_y = (row >= 0) & (row < src.height)

    src_valid = np.isfinite(raster.values)
    col_c = np.clip(col, 0, src.width - 1)
    row_c = np.clip(row, 0, src.height - 1)
    if method is ResampleMethod.BILINEAR:
        # continuous index in source-center coordinates, clamped to the hull
        # of centers so the half-pixel rim reuses the edge value
        gx = np.clip(fcol - 0.5, 0.0, float(src.width - 1))
        gy = np.clip(frow - 0.5, 0.0, float(src.height - 1))
        i0 = np.floor(gx).astype(np.int64)
        j0 = np.floor(gy).astype(np.int64)
        i1 = np.minimum(i0 + 1, src.width - 1)
        j1 = np.minimum(j0 + 1, src.height - 1)
        wx = gx - i0
        wy = gy - j0

    # a block of target rows gathers the source rows it needs at the target
    # columns once, then takes whole rows of that; bilinear overwrites the
    # nearest value wherever all four of its source pixels are valid
    out = np.full((target.height, target.width), np.nan, dtype=np.float32)
    for rows in row_blocks(target.height, target.width):
        block = out[rows]
        inside = in_y[rows, None] & in_x
        near = row_c[rows]
        np.copyto(block, raster.values[near].take(col_c, axis=1),
                  where=src_valid[near].take(col_c, axis=1) & inside)
        if method is ResampleMethod.BILINEAR:
            need, at = np.unique(np.concatenate((j0[rows], j1[rows])), return_inverse=True)
            r0, r1 = np.split(at, 2)
            vals, ok = raster.values[need], src_valid[need]
            # each source row the block needs, blended across the target columns
            across = ((1 - wx) * vals.take(i0, axis=1).astype(np.float64)
                      + wx * vals.take(i1, axis=1))
            across_ok = ok.take(i0, axis=1) & ok.take(i1, axis=1)
            wyg = wy[rows, None]
            blend = (1 - wyg) * across.take(r0, axis=0) + wyg * across.take(r1, axis=0)
            np.copyto(block, blend, casting="same_kind",
                      where=across_ok.take(r0, axis=0) & across_ok.take(r1, axis=0) & inside)

    return replace(raster, spec=target, values=out)

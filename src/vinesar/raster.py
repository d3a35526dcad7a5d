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
import os
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

log = logging.getLogger(__name__)

DTYPE_TAG = "f32le"


class BundleError(Exception):
    """Malformed bundle: bad header, missing file, or size mismatch."""


class AlignmentError(Exception):
    """Rasters expected on a common grid are not."""


class Orbit(str, Enum):
    ASCENDING = "ASC"
    DESCENDING = "DES"


class ResampleMethod(str, Enum):
    NEAREST = "nearest"
    BILINEAR = "bilinear"


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

    ``values`` has shape (height, width). Pixels equal to ``nodata`` (NaN by
    default, matched with isnan) carry no measurement and are skipped by every
    statistic downstream.
    """

    spec: GridSpec
    values: np.ndarray
    band_name: str = ""
    nodata: float = math.nan
    timestamp: Optional[dt.date] = None
    orbit: Optional[Orbit] = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim == 1:
            if v.size != self.spec.width * self.spec.height:
                raise ValueError(
                    f"flat value array has {v.size} samples, grid wants "
                    f"{self.spec.width * self.spec.height}"
                )
            v = v.reshape(self.spec.height, self.spec.width)
        elif v.shape != (self.spec.height, self.spec.width):
            raise ValueError(f"value shape {v.shape} does not match grid "
                             f"{self.spec.height}x{self.spec.width}")
        self.values = v

    def valid_mask(self) -> np.ndarray:
        """Boolean mask of pixels that carry data."""
        return valid_values(self.values, self.nodata)


def valid_values(values: np.ndarray, nodata: float) -> np.ndarray:
    """Which of ``values`` carry data: finite and, unless NaN, not ``nodata``."""
    if math.isnan(nodata):
        return np.isfinite(values)
    return np.isfinite(values) & (values != np.float32(nodata))


@dataclass
class Bundle:
    """In-memory image of a raster bundle: one grid, one or more named bands."""

    spec: GridSpec
    band_names: list[str]
    values: np.ndarray  # (bands, height, width) float32
    nodata: float = math.nan
    timestamp: Optional[dt.date] = None
    orbit: Optional[Orbit] = None

    def band(self, name: str) -> Raster:
        try:
            i = self.band_names.index(name)
        except ValueError:
            raise BundleError(f"bundle has no band {name!r}; bands are {self.band_names}")
        return Raster(self.spec, self.values[i], band_name=name, nodata=self.nodata,
                      timestamp=self.timestamp, orbit=self.orbit)


def _bundle_paths(path: str | Path) -> tuple[Path, Path]:
    p = Path(path)
    if p.suffix == ".json":
        p = p.with_suffix("")
    return p.with_suffix(".json"), p.with_suffix(".bin")


def save_bundle(path: str | Path,
                spec: GridSpec,
                bands: Sequence[tuple[str, np.ndarray]],
                *,
                nodata: float = math.nan,
                timestamp: Optional[dt.date] = None,
                orbit: Optional[Orbit] = None) -> Path:
    """Write a bundle; returns the header path.

    Band arrays must all be (height, width). Values are stored verbatim as
    little-endian float32, so a save/load round trip is bitwise exact. Both
    files are written under temporary names in the target directory and then
    renamed over the targets, payload first, so a failed or interrupted save
    never leaves a header beside a missing or partial payload. (No fsync:
    this guards against a failing process, not against a power loss.)
    """
    if not bands:
        raise BundleError("a bundle needs at least one band")
    header_path, binary_path = _bundle_paths(path)
    header = {
        "width": spec.width,
        "height": spec.height,
        "origin_x": spec.origin_x,
        "origin_y": spec.origin_y,
        "pixel_size_x": spec.pixel_size_x,
        "pixel_size_y": spec.pixel_size_y,
        "crs": spec.crs,
        "bands": [{"name": name} for name, _ in bands],
        "dtype": DTYPE_TAG,
        # JSON has no NaN literal; null stands for the NaN sentinel
        "nodata": None if math.isnan(nodata) else nodata,
    }
    if timestamp is not None:
        header["timestamp"] = timestamp.isoformat()
    if orbit is not None:
        header["orbit"] = Orbit(orbit).value

    arrays = []
    for name, arr in bands:
        a = np.asarray(arr, dtype="<f4")
        if a.shape != (spec.height, spec.width):
            raise BundleError(f"band {name!r} has shape {a.shape}, grid wants "
                              f"({spec.height}, {spec.width})")
        arrays.append(a)

    tmp_binary, tmp_header = (q.with_name(f".{q.name}.{os.getpid()}.tmp")
                              for q in (binary_path, header_path))
    try:
        with open(tmp_binary, "wb") as f:
            for a in arrays:
                a.tofile(f)  # row-major whatever the array's memory order
        tmp_header.write_text(json.dumps(header, indent=2) + "\n")
        os.replace(tmp_binary, binary_path)
        os.replace(tmp_header, header_path)
    finally:
        tmp_binary.unlink(missing_ok=True)
        tmp_header.unlink(missing_ok=True)
    return header_path


def json_int(value, name: str) -> int:
    """A JSON integer field as an int.

    int() would truncate 2.9 and read true as 1, so a bool, a fraction or a
    non-number is rejected; an integral float such as 3.0 is read as 3.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not float(value).is_integer()):
        raise ValueError(f"{name!r} must be an integer, got {value!r}")
    return int(value)


def json_float(value, name: str, finite: bool = True) -> float:
    """A JSON number field as a float.

    float() would read true as 1.0 and "2" as 2.0, so a bool or a non-number
    is rejected, and so is a NaN or an infinity unless ``finite`` is false.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name!r} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{name!r} is beyond the float range") from None
    if finite and not math.isfinite(x):
        raise ValueError(f"{name!r} must be a finite number, got {value!r}")
    return x


def grid_from_json(doc: dict) -> GridSpec:
    """The grid a JSON object's fields declare: integer ``width`` and
    ``height``, finite numbers for the origin and pixel sizes, a string
    ``crs``. A missing field is a KeyError, a wrong one a ValueError."""
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
    """What a bundle's header declares; the payload size is already checked."""

    spec: GridSpec
    band_names: list[str]
    nodata: float = math.nan
    timestamp: Optional[dt.date] = None
    orbit: Optional[Orbit] = None


def read_header(path: str | Path) -> BundleHeader:
    """Parse and check a bundle's header without reading its payload.

    Raises BundleError on a missing file, an unparseable or incomplete
    header, an unknown dtype or orbit, a field of the wrong type, or a
    payload whose size does not match the declared grid and bands. The
    grid fields are integers (width, height), finite JSON numbers and a
    string crs; bands is a list of objects with a string name; nodata is a
    number or null; timestamp is an ISO date string.
    """
    header_path, binary_path = _bundle_paths(path)
    if not header_path.exists():
        raise BundleError(f"missing header {header_path}")
    if not binary_path.exists():
        raise BundleError(f"missing binary payload {binary_path}")
    try:
        header = json.loads(header_path.read_text())
    except json.JSONDecodeError as e:
        raise BundleError(f"unparseable header {header_path}: {e}") from e
    if not isinstance(header, dict):
        raise BundleError(f"header {header_path} is not a JSON object")

    required = ("width", "height", "origin_x", "origin_y",
                "pixel_size_x", "pixel_size_y", "crs", "bands", "dtype")
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
        if timestamp is not None:
            try:
                timestamp = dt.date.fromisoformat(timestamp)
            except (TypeError, ValueError):
                raise ValueError(f"'timestamp' must be an ISO date string, "
                                 f"got {timestamp!r}") from None
        orbit = header.get("orbit")
        orbit = None if orbit is None else Orbit(orbit)
    except ValueError as e:
        raise BundleError(f"header {header_path}: {e}") from None
    band_names = [b["name"] for b in bands]
    if not band_names:
        raise BundleError(f"header {header_path} declares no bands")

    size = binary_path.stat().st_size
    expected = 4 * spec.width * spec.height * len(band_names)
    if size != expected:
        raise BundleError(f"{binary_path} holds {size} bytes, header implies {expected}")
    return BundleHeader(spec=spec, band_names=band_names, nodata=nodata,
                        timestamp=timestamp, orbit=orbit)


def load_bundle(path: str | Path) -> Bundle:
    """Read a bundle back; raises BundleError on any header/payload mismatch."""
    h = read_header(path)
    values = np.fromfile(_bundle_paths(path)[1], dtype="<f4").reshape(
        len(h.band_names), h.spec.height, h.spec.width)
    return Bundle(spec=h.spec, band_names=h.band_names, values=values,
                  nodata=h.nodata, timestamp=h.timestamp, orbit=h.orbit)


def save_raster(raster: Raster, path: str | Path) -> Path:
    """Write a single-band bundle."""
    return save_bundle(path, raster.spec, [(raster.band_name or "band", raster.values)],
                       nodata=raster.nodata, timestamp=raster.timestamp, orbit=raster.orbit)


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
    inside = in_y[:, None] & in_x[None, :]

    values = np.full((target.height, target.width), np.nan, dtype=np.float64)
    src_valid = raster.valid_mask()
    src_vals = raster.values.astype(np.float64)

    col_c = np.clip(col, 0, src.width - 1)
    row_c = np.clip(row, 0, src.height - 1)
    # one take per axis copies whole rows, then whole columns: cheaper than
    # indexing every pixel of the grid through broadcast index arrays
    def grid_take(a: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return a.take(rows, axis=0).take(cols, axis=1)

    nearest = grid_take(src_vals, row_c, col_c)
    nearest_ok = grid_take(src_valid, row_c, col_c)

    if method is ResampleMethod.NEAREST:
        pick = inside & nearest_ok
        values[pick] = nearest[pick]
    else:
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

        v00 = grid_take(src_vals, j0, i0)
        v01 = grid_take(src_vals, j0, i1)
        v10 = grid_take(src_vals, j1, i0)
        v11 = grid_take(src_vals, j1, i1)
        ok = (grid_take(src_valid, j0, i0) & grid_take(src_valid, j0, i1)
              & grid_take(src_valid, j1, i0) & grid_take(src_valid, j1, i1))

        wxg = wx[None, :]
        wyg = wy[:, None]
        blend = ((1 - wyg) * ((1 - wxg) * v00 + wxg * v01)
                 + wyg * ((1 - wxg) * v10 + wxg * v11))

        use_blend = inside & ok
        use_near = inside & ~ok & nearest_ok
        values[use_blend] = blend[use_blend]
        values[use_near] = nearest[use_near]

    return Raster(target, values.astype(np.float32), band_name=raster.band_name,
                  nodata=math.nan, timestamp=raster.timestamp, orbit=raster.orbit)

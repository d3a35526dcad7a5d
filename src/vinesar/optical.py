"""Optical reflectance indices and leaf-area ingestion.

Band rasters hold surface reflectance on a common grid. Values outside the
plausible reflectance range are struck to nodata on construction rather than
propagated, so a stray fill value cannot masquerade as vegetation.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .raster import (Bundle, Raster, ResampleMethod, assert_aligned, load_bundle,
                     resample)

log = logging.getLogger(__name__)

BAND_NAMES = ("B4", "B5", "B8", "B11", "B12")

# tolerate minor over-unity calibration artifacts
REFLECTANCE_MAX = 1.2

LAI_RANGE = (0.0, 10.0)

NDVI_BAND_NAME = "NDVI"
SVHI_BAND_NAME = "SVHI"
LAI_BAND_NAME = "LAI"


def _sanitize_reflectance(raster: Raster) -> Raster:
    values = raster.values
    bad = raster.valid_mask() & ((values < 0.0) | (values > REFLECTANCE_MAX))
    n_bad = int(bad.sum())
    if n_bad:
        log.warning("%s: %d reflectance samples outside [0, %.1f] set to nodata",
                    raster.band_name or "band", n_bad, REFLECTANCE_MAX)
        values = np.where(bad, np.nan, values)
    return Raster(raster.spec, values, band_name=raster.band_name,
                  nodata=raster.nodata, timestamp=raster.timestamp, orbit=raster.orbit)


@dataclass
class BandSet:
    """The five reflectance bands one acquisition contributes to the indices.

    All bands must share a grid; out-of-range reflectance is masked to nodata
    when the set is built.
    """

    b4: Raster
    b5: Raster
    b8: Raster
    b11: Raster
    b12: Raster
    timestamp: Optional[dt.date] = None

    def __post_init__(self) -> None:
        assert_aligned([self.b4, self.b5, self.b8, self.b11, self.b12])
        self.b4 = _sanitize_reflectance(self.b4)
        self.b5 = _sanitize_reflectance(self.b5)
        self.b8 = _sanitize_reflectance(self.b8)
        self.b11 = _sanitize_reflectance(self.b11)
        self.b12 = _sanitize_reflectance(self.b12)
        if self.timestamp is None:
            self.timestamp = self.b4.timestamp


def _load_bands(path: str | Path, names: Sequence[str]) -> tuple[Bundle, list[Raster]]:
    """A bundle and the named bands of it; a missing band is a ValueError."""
    b = load_bundle(path)
    missing = [n for n in names if n not in b.band_names]
    if missing:
        raise ValueError(f"{path} lacks bands {missing}")
    return b, [b.band(n) for n in names]


def bandset_from_bundle(path: str | Path) -> BandSet:
    """Load a five-band reflectance bundle (bands B4, B5, B8, B11, B12)."""
    b, bands = _load_bands(path, BAND_NAMES)
    return BandSet(*bands, timestamp=b.timestamp)


def bandset_from_split(path10: str | Path, path20: str | Path,
                       method: ResampleMethod | str) -> BandSet:
    """Load an acquisition split by resolution: B4 and B8 from a 10 m bundle,
    and B5, B11 and B12 from a 20 m bundle resampled onto the 10 m grid."""
    b10, (b4, b8) = _load_bands(path10, ("B4", "B8"))
    _, bands20 = _load_bands(path20, ("B5", "B11", "B12"))
    b5, b11, b12 = (resample(r, b10.spec, method) for r in bands20)
    return BandSet(b4, b5, b8, b11, b12, timestamp=b10.timestamp)


def _ratio_index(num: np.ndarray, den: np.ndarray, valid: np.ndarray) -> np.ndarray:
    out = np.full(num.shape, np.nan, dtype=np.float64)
    ok = valid & (den != 0)
    np.divide(num, den, out=out, where=ok)
    return out


def ndvi(bands: BandSet) -> Raster:
    """Normalized difference of NIR and red, in [-1, 1]."""
    nir = bands.b8.values.astype(np.float64)
    red = bands.b4.values.astype(np.float64)
    valid = bands.b8.valid_mask() & bands.b4.valid_mask()
    values = _ratio_index(nir - red, nir + red, valid)
    return Raster(bands.b8.spec, values.astype(np.float32), band_name=NDVI_BAND_NAME,
                  timestamp=bands.timestamp)


def svhi(bands: BandSet) -> Raster:
    """Vegetation-health index contrasting NIR against red plus red-edge
    and the two shortwave infrared bands, in [-1, 1]."""
    nir = bands.b8.values.astype(np.float64)
    absorb = (bands.b4.values.astype(np.float64) + bands.b5.values.astype(np.float64)
              + bands.b11.values.astype(np.float64) + bands.b12.values.astype(np.float64))
    valid = (bands.b8.valid_mask() & bands.b4.valid_mask() & bands.b5.valid_mask()
             & bands.b11.valid_mask() & bands.b12.valid_mask())
    values = _ratio_index(4.0 * nir - absorb, 4.0 * nir + absorb, valid)
    return Raster(bands.b8.spec, values.astype(np.float32), band_name=SVHI_BAND_NAME,
                  timestamp=bands.timestamp)


def ingest_lai(raster: Raster) -> Raster:
    """Adopt an externally produced leaf-area-index raster.

    Samples outside the physically plausible range are struck to nodata and
    counted in one warning; everything else passes through untouched.
    """
    lo, hi = LAI_RANGE
    values = raster.values
    bad = raster.valid_mask() & ((values < lo) | (values > hi))
    n_bad = int(bad.sum())
    if n_bad:
        log.warning("LAI: %d samples outside [%g, %g] set to nodata", n_bad, lo, hi)
        values = np.where(bad, np.nan, values)
    return Raster(raster.spec, values, band_name=LAI_BAND_NAME,
                  nodata=raster.nodata, timestamp=raster.timestamp, orbit=raster.orbit)

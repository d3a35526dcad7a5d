"""Optical reflectance indices and leaf-area ingestion.

Band rasters hold surface reflectance on a common grid. Values outside the
plausible reflectance range are struck to nodata on construction rather than
propagated, so a stray fill value cannot masquerade as vegetation.
"""

from __future__ import annotations

import datetime as dt
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .raster import Bundle, Raster, assert_aligned, load_bundle, resample, row_blocks
from .schema import LAI_BAND_NAME, NDVI_BAND_NAME, SVHI_BAND_NAME, ResampleMethod

log = logging.getLogger(__name__)

BAND_NAMES = ("B4", "B5", "B8", "B11", "B12")

# tolerate minor over-unity calibration artifacts
REFLECTANCE_MAX = 1.2

LAI_RANGE = (0.0, 10.0)


def _strike_outside(raster: Raster, lo: float, hi: float, band_name: str,
                    samples: str) -> Raster:
    """``raster`` as band ``band_name``, its valid samples outside [lo, hi]
    struck to nodata and counted in one warning that calls them ``samples``,
    after the raster's date if it has one (pooled scenes log in any order)."""
    values = raster.values
    bad = np.isfinite(values) & ((values < lo) | (values > hi))
    n_bad = int(bad.sum())
    if n_bad:
        log.warning("%s%s: %d %s outside [%g, %g] set to nodata",
                    f"{raster.timestamp}: " if raster.timestamp else "",
                    band_name or "band", n_bad, samples, lo, hi)
        values = np.where(bad, np.nan, values)
    return replace(raster, values=values, band_name=band_name)


def _sanitize_reflectance(raster: Raster) -> Raster:
    return _strike_outside(raster, 0.0, REFLECTANCE_MAX, raster.band_name,
                           "reflectance samples")


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


def _ratio_index(rasters: Sequence[Raster], formula, band_name: str,
                 timestamp: Optional[dt.date]) -> Raster:
    """num / den with ``(num, den) = formula(*band blocks)``, one block of
    rows at a time; NaN where any band carries nodata or den is 0.

    ``formula`` gets the float32 blocks and returns float64 terms: it starts
    each sum from a float64 copy of its first band, and numpy widens the
    other float32 operands exactly, so no float64 copy of each band is made.
    """
    spec = rasters[0].spec
    out = np.empty((spec.height, spec.width), dtype=np.float32)
    for rows in row_blocks(spec.height, spec.width):
        num, den = formula(*(r.values[rows] for r in rasters))
        ok = den != 0
        for r in rasters:
            ok &= np.isfinite(r.values[rows])
        np.divide(num, den, out=num, where=ok)
        num[~ok] = np.nan
        out[rows] = num
    return Raster(spec, out, band_name=band_name, timestamp=timestamp)


def _ndvi_terms(nir, red):
    nir = nir.astype(np.float64)
    return nir - red, nir + red


def ndvi(bands: BandSet) -> Raster:
    """Normalized difference of NIR and red, in [-1, 1]."""
    return _ratio_index((bands.b8, bands.b4), _ndvi_terms, NDVI_BAND_NAME, bands.timestamp)


def _svhi_terms(nir, b4, b5, b11, b12):
    absorb = b4.astype(np.float64)
    absorb += b5
    absorb += b11
    absorb += b12
    nir4 = 4.0 * nir.astype(np.float64)
    return nir4 - absorb, nir4 + absorb


def svhi(bands: BandSet) -> Raster:
    """Vegetation-health index contrasting NIR against red plus red-edge
    and the two shortwave infrared bands, in [-1, 1]."""
    return _ratio_index((bands.b8, bands.b4, bands.b5, bands.b11, bands.b12), _svhi_terms,
                        SVHI_BAND_NAME, bands.timestamp)


def ingest_lai(raster: Raster) -> Raster:
    """Adopt an externally produced leaf-area-index raster.

    Samples outside the physically plausible range are struck to nodata and
    counted in one warning; everything else passes through untouched.
    """
    return _strike_outside(raster, *LAI_RANGE, LAI_BAND_NAME, "samples")

"""Dual-pol covariance handling and the polarimetric vegetation index.

A C2 raster stores the per-pixel 2x2 Hermitian covariance of the (VV, VH)
scattering vector as four real bands: the two diagonal powers and the real
and imaginary parts of the off-diagonal term. Everything here works on
linear power; inputs must never arrive in dB.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .raster import (BundleHeader, GridSpec, Orbit, Raster, load_bundle, read_header,
                     save_bundle)

log = logging.getLogger(__name__)

C2_BAND_NAMES = ("C11", "C22", "C12_re", "C12_im")

# A covariance sample is accepted as positive semidefinite when
# det >= -PSD_TOL * (trace/2)^2; float32 band storage perturbs an exactly
# singular determinant at about the 1e-7 relative level.
PSD_TOL = 1e-6

# Eigenvalue ratios below this are collapsed to rank one (lambda2 = 0).
# float32 storage cannot carry a genuine ratio this small, while single-look
# sample covariances are rank one by construction and must index to exactly 0.
RANK1_TOL = 1e-5

DPRVI_BAND_NAME = "DpRVI"


class CovarianceError(Exception):
    """Covariance input breaks positive semidefiniteness beyond tolerance."""


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues of a 2x2 Hermitian PSD matrix, descending order."""

    lambda1: float
    lambda2: float


@dataclass(frozen=True)
class DpParams:
    """Degree of polarization m, dominance beta, and eigenvalue ratio q."""

    m: float
    beta: float
    q: float


@dataclass
class C2Raster:
    """Per-pixel 2x2 covariance on a grid, stored as four float32 bands.

    A pixel is valid only when all four bands are finite; statistics and
    filters treat the matrix as a unit.
    """

    spec: GridSpec
    c11: np.ndarray
    c22: np.ndarray
    c12_re: np.ndarray
    c12_im: np.ndarray
    timestamp: Optional[dt.date] = None
    orbit: Optional[Orbit] = None

    def __post_init__(self) -> None:
        shape = (self.spec.height, self.spec.width)
        for name in ("c11", "c22", "c12_re", "c12_im"):
            arr = np.asarray(getattr(self, name), dtype=np.float32)
            if arr.shape != shape:
                raise ValueError(f"band {name} has shape {arr.shape}, grid wants {shape}")
            setattr(self, name, arr)

    def valid_mask(self) -> np.ndarray:
        return (np.isfinite(self.c11) & np.isfinite(self.c22)
                & np.isfinite(self.c12_re) & np.isfinite(self.c12_im))


def save_c2(c2: C2Raster, path: str | Path) -> Path:
    bands = list(zip(C2_BAND_NAMES, (c2.c11, c2.c22, c2.c12_re, c2.c12_im)))
    return save_bundle(path, c2.spec, bands, timestamp=c2.timestamp, orbit=c2.orbit)


def _require_c2_bands(path: str | Path, band_names: list[str]) -> None:
    if tuple(band_names) != C2_BAND_NAMES:
        raise ValueError(f"{path} holds bands {band_names}, "
                         f"a covariance bundle needs {list(C2_BAND_NAMES)}")


def read_c2_header(path: str | Path) -> BundleHeader:
    """Check a covariance bundle as load_c2 does, without reading its payload."""
    header = read_header(path)
    _require_c2_bands(path, header.band_names)
    return header


def load_c2(path: str | Path) -> C2Raster:
    """Read a covariance bundle.

    Finite pixels that fail the PSD check become nodata in all four bands
    and are counted in a single warning, so a bad matrix can never be
    averaged into its neighbours by multilook or boxcar.
    """
    b = load_bundle(path)
    _require_c2_bands(path, b.band_names)
    valid = np.isfinite(b.values).all(axis=0)
    bad = valid & _not_psd(*b.values.astype(np.float64))
    n_bad = int(bad.sum())
    if n_bad:
        log.warning("%s: %d of %d valid pixels violate the covariance constraints, "
                    "set to nodata", path, n_bad, int(valid.sum()))
        b.values[:, bad] = np.nan
    return C2Raster(b.spec, *b.values, timestamp=b.timestamp, orbit=b.orbit)


def _masked_mean(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """sums / counts where counts > 0, NaN where a window held no valid pixel."""
    out = np.full(sums.shape, np.nan, dtype=np.float64)
    np.divide(sums, counts, out=out, where=counts > 0)
    return out


def multilook(c2: C2Raster, win_x: int = 4, win_y: int = 1) -> C2Raster:
    """Average covariance matrices over non-overlapping win_x by win_y blocks.

    Output dimensions are the floor quotients; trailing rows and columns that
    do not fill a block are dropped. Pixel sizes scale by the window so the
    footprint stays put. Averaging PSD matrices keeps them PSD.
    """
    if win_x < 1 or win_y < 1:
        raise ValueError("multilook window must be at least 1x1")
    if win_x > c2.spec.width or win_y > c2.spec.height:
        raise ValueError(f"window {win_x}x{win_y} exceeds raster "
                         f"{c2.spec.width}x{c2.spec.height}")
    hh, ww = c2.spec.height // win_y, c2.spec.width // win_x

    def block_sums(a: np.ndarray) -> np.ndarray:
        return a[:hh * win_y, :ww * win_x].reshape(hh, win_y, ww, win_x).sum(axis=(1, 3))

    valid = c2.valid_mask()
    counts = block_sums(valid)  # one count per block, shared by the four bands
    bands = [_masked_mean(block_sums(np.where(valid, b.astype(np.float64), 0.0)),
                          counts).astype(np.float32)
             for b in (c2.c11, c2.c22, c2.c12_re, c2.c12_im)]
    out_spec = replace(c2.spec, width=ww, height=hh,
                       pixel_size_x=c2.spec.pixel_size_x * win_x,
                       pixel_size_y=c2.spec.pixel_size_y * win_y)
    return C2Raster(out_spec, *bands, timestamp=c2.timestamp, orbit=c2.orbit)


def _summed_area(a: np.ndarray) -> np.ndarray:
    """(h+1) x (w+1) table whose [r, c] entry sums a[:r, :c]."""
    h, w = a.shape
    table = np.zeros((h + 1, w + 1), dtype=a.dtype)
    table[1:, 1:] = a.cumsum(axis=0).cumsum(axis=1)
    return table


def _window_sums(table: np.ndarray, win: int) -> np.ndarray:
    """Sum over each pixel's win x win window clipped to the raster.

    ``table`` is a summed-area table from ``_summed_area``. Edge-padding it
    by win // 2 repeats its first and last rows and columns, so a window
    reaching past the raster reads the table at the raster edge: the plain
    slices below equal the table at the clipped window corners.
    """
    h, w = table.shape[0] - 1, table.shape[1] - 1
    t = np.pad(table, win // 2, mode="edge")
    return (t[win:win + h, win:win + w] - t[:h, win:win + w]
            - t[win:win + h, :w] + t[:h, :w])


def boxcar_filter(c2: C2Raster, win: int) -> C2Raster:
    """Square sliding-mean speckle filter with an odd window size.

    Each output pixel averages the valid pixels of its window clipped to
    the raster, NaN when there are none.
    """
    if win < 1 or win % 2 == 0:
        raise ValueError(f"boxcar window must be odd and positive, got {win}")
    if win == 1:
        return C2Raster(c2.spec, c2.c11.copy(), c2.c22.copy(),
                        c2.c12_re.copy(), c2.c12_im.copy(),
                        timestamp=c2.timestamp, orbit=c2.orbit)
    valid = c2.valid_mask()
    # one count table per scene, shared by the four bands
    counts = _window_sums(_summed_area(valid.astype(np.int64)), win)
    bands = []
    for b in (c2.c11, c2.c22, c2.c12_re, c2.c12_im):
        sums = _window_sums(_summed_area(np.where(valid, b.astype(np.float64), 0.0)), win)
        bands.append(_masked_mean(sums, counts).astype(np.float32))
    return C2Raster(c2.spec, *bands, timestamp=c2.timestamp, orbit=c2.orbit)


def _not_psd(c11, c22, c12_re, c12_im):
    """True where a covariance matrix is not PSD within PSD_TOL.

    Plain arithmetic, so it takes floats or float64 arrays alike; NaN
    entries compare false and are left to the caller's validity mask.
    """
    det = c11 * c22 - (c12_re ** 2 + c12_im ** 2)
    return (c11 < 0) | (c22 < 0) | (det < -PSD_TOL * (0.5 * (c11 + c22)) ** 2)


def _m_beta(l1, l2):
    """Degree of polarization m and dominance beta from descending
    eigenvalues; plain arithmetic over floats or arrays."""
    total = l1 + l2
    return (l1 - l2) / total, l1 / total


def _eigen_arrays(c11: np.ndarray, c22: np.ndarray,
                  c12_re: np.ndarray, c12_im: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized closed-form eigenvalues; returns (l1, l2, psd_violation).

    Inputs must be float64. NaNs flow through; the violation mask marks
    finite pixels whose matrix is not PSD within tolerance.
    """
    # checked first so its temporaries are freed before the eigenvalue ones
    bad = _not_psd(c11, c22, c12_re, c12_im)
    trace = c11 + c22
    off_sq = c12_re ** 2 + c12_im ** 2
    det = c11 * c22 - off_sq
    finite = np.isfinite(c11) & np.isfinite(c22) & np.isfinite(off_sq)
    bad &= finite

    # discriminant written as a sum of squares, immune to cancellation
    spread = np.sqrt((c11 - c22) ** 2 + 4.0 * off_sq)
    l1 = 0.5 * (trace + spread)
    with np.errstate(invalid="ignore", divide="ignore"):
        l2 = np.where(l1 > 0, np.maximum(det, 0.0) / np.where(l1 > 0, l1, 1.0), 0.0)
        # rank-one snap: ratios below tolerance are storage noise
        l2 = np.where(l2 < RANK1_TOL * l1, 0.0, l2)
    l1 = np.where(finite, l1, np.nan)
    l2 = np.where(finite, l2, np.nan)
    return l1, l2, bad


def eigen_decompose(c11: float, c22: float,
                    c12_re: float, c12_im: float) -> EigenPair:
    """Eigenvalues of [[c11, c12], [conj(c12), c22]] in closed form.

    Raises ValueError on non-finite input and CovarianceError when the
    matrix is not PSD within tolerance. A determinant that is negative
    inside tolerance is clamped so lambda2 never comes back below zero.
    """
    vals = (c11, c22, c12_re, c12_im)
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"covariance entries must be finite, got {vals}")
    arr = [np.asarray([float(v)], dtype=np.float64) for v in vals]
    l1, l2, bad = _eigen_arrays(*arr)
    if bad[0]:
        raise CovarianceError(
            f"matrix (c11={c11}, c22={c22}, c12={c12_re}{c12_im:+}j) "
            "is not positive semidefinite within tolerance")
    return EigenPair(float(l1[0]), float(l2[0]))


def dp_params(eigen: EigenPair) -> DpParams:
    """Degree of polarization and dominance from an eigenvalue pair."""
    total = eigen.lambda1 + eigen.lambda2
    if total <= 0:
        raise ValueError("zero total power, polarization parameters undefined")
    m, beta = _m_beta(eigen.lambda1, eigen.lambda2)
    q = eigen.lambda2 / eigen.lambda1
    return DpParams(m=m, beta=beta, q=q)


def dprvi_from_eigen(eigen: EigenPair) -> float:
    """Vegetation index 1 - m*beta; NaN when the pixel carries no power."""
    total = eigen.lambda1 + eigen.lambda2
    if total <= 0:
        return math.nan
    m, beta = _m_beta(eigen.lambda1, eigen.lambda2)
    return 1.0 - m * beta


def dprvi_grd(sigma_vh: float, sigma_vv: float) -> float:
    """Index from backscatter intensities when only GRD products exist.

    Uses the cross/co power ratio q = vh/vv, clamped into [0, 1]; the
    clamp keeps the index in range when vh noise exceeds vv. NaN when the
    co-pol power is zero.
    """
    if not (math.isfinite(sigma_vh) and math.isfinite(sigma_vv)):
        raise ValueError("backscatter intensities must be finite")
    if sigma_vh < 0 or sigma_vv < 0:
        raise ValueError("backscatter intensities are linear powers, must be >= 0")
    if sigma_vv == 0:
        return math.nan
    q = sigma_vh / sigma_vv
    if q > 1.0:
        log.debug("vh/vv ratio %.6g clamped to 1", q)
        q = 1.0
    return q * (q + 3.0) / ((q + 1.0) ** 2)


def dprvi_raster(c2: C2Raster) -> Raster:
    """Per-pixel index over a covariance raster.

    Nodata pixels stay nodata. Finite pixels that fail the PSD check are set
    to nodata and counted in a single warning instead of aborting the scene.
    """
    c11 = c2.c11.astype(np.float64)
    c22 = c2.c22.astype(np.float64)
    re = c2.c12_re.astype(np.float64)
    im = c2.c12_im.astype(np.float64)
    l1, l2, bad = _eigen_arrays(c11, c22, re, im)
    n_bad = int(bad.sum())
    if n_bad:
        log.warning("%d pixels violate the covariance constraints, set to nodata", n_bad)

    with np.errstate(invalid="ignore", divide="ignore"):
        m, beta = _m_beta(l1, l2)
        index = 1.0 - m * beta
    index = np.where((l1 + l2 > 0) & ~bad, index, np.nan)
    return Raster(c2.spec, index.astype(np.float32), band_name=DPRVI_BAND_NAME,
                  timestamp=c2.timestamp, orbit=c2.orbit)

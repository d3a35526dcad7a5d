"""Dual-pol covariance handling and the polarimetric vegetation index.

A covariance raster is a four-band ``raster.Bundle`` holding the per-pixel
2x2 Hermitian covariance of the (VV, VH) scattering vector: the two diagonal
powers and the real and imaginary parts of the off-diagonal term, in the
order of C2_BAND_NAMES. A pixel is valid only when all four bands are
finite; statistics and filters treat the matrix as a unit. Everything here
works on linear power; inputs must never arrive in dB.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .raster import Bundle, Raster, load_bundle, row_blocks, save_bundle
from .schema import DPRVI_BAND_NAME

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


def valid_mask(values: np.ndarray) -> np.ndarray:
    """Pixels of a (4, ...) covariance stack whose four bands are all finite.

    Bands are tested one at a time, so no four-band temporary is made."""
    valid = np.isfinite(values[0])
    for band in values[1:]:
        valid &= np.isfinite(band)
    return valid


def _require_c2_bands(path: str | Path, band_names: list[str]) -> None:
    if tuple(band_names) != C2_BAND_NAMES:
        raise ValueError(f"{path} holds bands {band_names}, "
                         f"a covariance bundle needs {list(C2_BAND_NAMES)}")


def save_c2(c2: Bundle, path: str | Path) -> Path:
    _require_c2_bands(path, c2.band_names)
    return save_bundle(path, c2.spec, list(zip(c2.band_names, c2.values)),
                       timestamp=c2.timestamp, orbit=c2.orbit)


def load_c2(path: str | Path) -> Bundle:
    """Read a covariance bundle.

    Finite pixels that fail the PSD check become nodata in all four bands
    and are counted in a single warning, so a bad matrix can never be
    averaged into its neighbours by multilook or boxcar.
    """
    b = load_bundle(path)
    _require_c2_bands(path, b.band_names)
    n_valid = n_bad = 0
    for rows in row_blocks(b.spec.height, b.spec.width):
        block = b.values[:, rows]  # a view: NaN is written into the bundle
        valid = valid_mask(block)
        bad = valid & _not_psd(*block.astype(np.float64))
        n_valid += int(valid.sum())
        n_bad += int(bad.sum())
        block[:, bad] = np.nan
    if n_bad:
        log.warning("%s: %d of %d valid pixels violate the covariance constraints, "
                    "set to nodata", path, n_bad, n_valid)
    return b


def _masked_mean(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """sums / counts where counts > 0, NaN where a window held no valid
    pixel; written over the float64 ``sums``, which is returned."""
    held = counts > 0
    np.divide(sums, counts, out=sums, where=held)
    sums[~held] = np.nan
    return sums


def multilook(c2: Bundle, win_x: int = 4, win_y: int = 1) -> Bundle:
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

    valid = valid_mask(c2.values)
    counts = block_sums(valid)  # one count per block, shared by the four bands
    out = np.empty((len(c2.values), hh, ww), dtype=np.float32)
    for band, b in zip(out, c2.values):
        band[:] = _masked_mean(block_sums(np.where(valid, b.astype(np.float64), 0.0)), counts)
    out_spec = replace(c2.spec, width=ww, height=hh,
                       pixel_size_x=c2.spec.pixel_size_x * win_x,
                       pixel_size_y=c2.spec.pixel_size_y * win_y)
    return replace(c2, spec=out_spec, values=out)


def _padded_summed_area(a: np.ndarray, dtype: type, pad: int,
                        keep: Optional[np.ndarray] = None) -> np.ndarray:
    """Summed-area table of ``a`` in ``dtype``, edge-padded by ``pad``.

    The table's [r, c] entry sums a[:r, :c], counting only pixels where
    ``keep`` is true when it is given. The pad repeats the table's first and
    last rows and columns, as ``np.pad(table, pad, mode="edge")`` would, so a
    window reaching past the raster reads the table at the raster edge. The
    table is built inside the padded array, and the column sums run over row
    blocks, each block's first row carrying the sum above it: this adds in
    the same order as one cumsum over the whole array.
    """
    h, w = a.shape
    t = np.zeros((h + 1 + 2 * pad, w + 1 + 2 * pad), dtype=dtype)
    inner = t[pad + 1:pad + 1 + h, pad + 1:pad + 1 + w]
    for rows in row_blocks(h, w):
        block = a[rows].astype(dtype)
        if keep is not None:
            block[~keep[rows]] = 0
        if rows.start:
            block[0] += inner[rows.start - 1]
        np.cumsum(block, axis=0, out=inner[rows])
    np.cumsum(inner, axis=1, out=inner)
    # the table's first row and column are zeros, and so is the pad before
    # them; the pad after repeats the last column, then the last row
    t[:, pad + 1 + w:] = t[:, pad + w:pad + w + 1]
    t[pad + 1 + h:] = t[pad + h]
    return t


def _window_sums(table: np.ndarray, win: int, rows: slice) -> np.ndarray:
    """Sums over the win x win windows, clipped to the raster, of the
    pixels in ``rows``.

    ``table`` is a summed-area table edge-padded by win // 2, so each
    clipped window sum is four plain slices.
    """
    w = table.shape[1] - win
    lo, hi = rows.start, rows.stop
    sums = table[win + lo:win + hi, win:win + w] - table[lo:hi, win:win + w]
    sums -= table[win + lo:win + hi, :w]
    sums += table[lo:hi, :w]
    return sums


def boxcar_filter(c2: Bundle, win: int) -> Bundle:
    """Square sliding-mean speckle filter with an odd window size.

    Each output pixel averages the valid pixels of its window clipped to
    the raster, NaN when there are none. Each band's means are taken over
    row blocks of its summed-area table.
    """
    if win < 1 or win % 2 == 0:
        raise ValueError(f"boxcar window must be odd and positive, got {win}")
    if win == 1:
        return replace(c2, values=c2.values.copy())
    h, w = c2.spec.height, c2.spec.width
    valid = valid_mask(c2.values)
    # one count per window, shared by the four bands
    counts = _window_sums(_padded_summed_area(valid, np.int64, win // 2), win, slice(0, h))
    out = np.empty_like(c2.values)
    for band, b in zip(out, c2.values):
        table = _padded_summed_area(b, np.float64, win // 2, keep=valid)
        for rows in row_blocks(h, w):
            band[rows] = _masked_mean(_window_sums(table, win, rows), counts[rows])
    return replace(c2, values=out)


def _not_psd(c11, c22, c12_re, c12_im):
    """True where a covariance matrix is not PSD within PSD_TOL.

    Plain arithmetic, so it takes floats or float64 arrays alike; NaN
    entries compare false and are left to the caller's validity mask.
    Squares are products: a float's ``x ** 2`` goes through C ``pow``,
    which can round differently from numpy's square of an array.
    """
    det = c11 * c22 - (c12_re * c12_re + c12_im * c12_im)
    half_trace = 0.5 * (c11 + c22)
    return (c11 < 0) | (c22 < 0) | (det < -PSD_TOL * (half_trace * half_trace))


def _m_beta(l1, l2):
    """Degree of polarization m and dominance beta from descending
    eigenvalues; plain arithmetic over floats or arrays."""
    total = l1 + l2
    return (l1 - l2) / total, l1 / total


def _eigen(c11, c22, c12_re, c12_im, sqrt):
    """Closed-form eigenvalues (lambda1, lambda2), descending, of
    [[c11, c12], [conj(c12), c22]].

    Plain arithmetic, so it takes floats with ``math.sqrt`` or float64
    arrays with ``np.sqrt`` alike; finiteness and the PSD check are the
    caller's. lambda2 is det / lambda1, set to 0 when that ratio is below
    RANK1_TOL (float32 storage noise on a rank-one matrix) or negative (a
    determinant negative within PSD_TOL). lambda1 <= 0 only for the zero
    matrix, whose lambda2 is 0, and for matrices _not_psd rejects, whose
    lambda2 means nothing. Squares are products, as in _not_psd.
    """
    off_sq = c12_re * c12_re + c12_im * c12_im
    det = c11 * c22 - off_sq
    diff = c11 - c22
    # discriminant written as a sum of squares, immune to cancellation
    l1 = 0.5 * ((c11 + c22) + sqrt(diff * diff + 4.0 * off_sq))
    # dividing by 1 where lambda1 <= 0 keeps a float caller clear of
    # ZeroDivisionError
    l2 = det / (l1 + (l1 <= 0))
    # a comparison multiplies as 0 or 1; adding 0.0 turns the -0.0 a
    # negative ratio leaves into 0.0
    return l1, l2 * (l2 >= RANK1_TOL * l1) + 0.0


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
    vals = tuple(float(v) for v in vals)
    if _not_psd(*vals):
        raise CovarianceError(
            f"matrix (c11={c11}, c22={c22}, c12={c12_re}{c12_im:+}j) "
            "is not positive semidefinite within tolerance")
    return EigenPair(*_eigen(*vals, math.sqrt))


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


def dprvi_raster(c2: Bundle) -> Raster:
    """Per-pixel index over a covariance raster, one block of rows at a time.

    Nodata pixels stay nodata. Finite pixels that fail the PSD check are set
    to nodata and counted in a single warning instead of aborting the scene.
    """
    out = np.empty((c2.spec.height, c2.spec.width), dtype=np.float32)
    n_bad = 0
    for rows in row_blocks(c2.spec.height, c2.spec.width):
        block = c2.values[:, rows]
        c11, c22, re, im = (b.astype(np.float64) for b in block)
        finite = valid_mask(block)
        keep = finite & ~_not_psd(c11, c22, re, im)
        n_bad += int(np.count_nonzero(finite & ~keep))
        with np.errstate(invalid="ignore", divide="ignore"):
            l1, l2 = _eigen(c11, c22, re, im, np.sqrt)
            m, beta = _m_beta(l1, l2)
            index = 1.0 - m * beta
        out[rows] = np.where((l1 + l2 > 0) & keep, index, np.nan)
    if n_bad:
        log.warning("%d pixels violate the covariance constraints, set to nodata", n_bad)
    return Raster(c2.spec, out, band_name=DPRVI_BAND_NAME,
                  timestamp=c2.timestamp, orbit=c2.orbit)

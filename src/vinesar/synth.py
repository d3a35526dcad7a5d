"""Synthetic dual-pol scenes with fully developed speckle.

Each pixel draws ``looks`` independent circular complex Gaussian scattering
vectors with the requested true covariance (via its Cholesky factor) and
stores their average outer product, i.e. a sample from the scaled complex
Wishart distribution. With one look the sample is rank one by construction.

Randomness is counter based: every (pixel, draw) index hashes to its own
value under the scene seed, so generation order, tiling, or chunk size can
never change the output.
"""

from __future__ import annotations

import datetime as dt
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .raster import GridSpec, Orbit
from .sar import C2Raster, _not_psd

log = logging.getLogger(__name__)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: a bijective avalanche over uint64."""
    x = x ^ (x >> np.uint64(30))
    x = x * _MIX1
    x = x ^ (x >> np.uint64(27))
    x = x * _MIX2
    x = x ^ (x >> np.uint64(31))
    return x


def _counter_normals(seed: int, counters: np.ndarray) -> np.ndarray:
    """Standard normals indexed by 64-bit counters, order independent.

    ``counters`` must have an even trailing dimension; consecutive counter
    pairs feed one Box-Muller transform.
    """
    c = counters.astype(np.uint64)
    # numpy warns on scalar uint64 overflow but wraps arrays silently, so the
    # seed state is mixed as a 1-element array
    seed_arr = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    state = _mix64(seed_arr + _GOLDEN)
    bits = _mix64(state + (c + np.uint64(1)) * _GOLDEN)
    # 53-bit mantissa uniforms; +1 keeps u1 in (0, 1] so the log is finite
    u = (bits >> np.uint64(11)).astype(np.float64)
    flat = u.reshape(-1, 2)
    u1 = (flat[:, 0] + 1.0) * 2.0 ** -53
    u2 = flat[:, 1] * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    out = np.empty_like(flat)
    out[:, 0] = radius * np.cos(angle)
    out[:, 1] = radius * np.sin(angle)
    return out.reshape(counters.shape)


def derive_seed(seed: int, index: int) -> int:
    """Decorrelated child seed for item ``index`` under a campaign seed."""
    if index < 0:
        raise ValueError("index must be >= 0")
    arr = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    step = np.array([(index + 1) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    child = _mix64(arr + step * _GOLDEN)
    return int(child[0])


class Region(NamedTuple):
    """Half-open pixel rectangle [x0, x1) x [y0, y1) with one true covariance."""

    rect: tuple[int, int, int, int]
    c2: tuple[float, float, float, float]


@dataclass
class SceneSpec:
    """Recipe for one synthetic acquisition."""

    spec: GridSpec
    background: tuple[float, float, float, float]
    regions: list[Region] = field(default_factory=list)
    looks: int = 1
    seed: int = 0
    timestamp: Optional[dt.date] = None
    orbit: Optional[Orbit] = None

    def __post_init__(self) -> None:
        if self.looks < 1:
            raise ValueError(f"looks must be >= 1, got {self.looks}")
        _check_true_c2(self.background, "background")
        regions = []
        for k, reg in enumerate(self.regions):
            reg = Region(tuple(int(v) for v in reg[0]), tuple(float(v) for v in reg[1]))
            x0, y0, x1, y1 = reg.rect
            if not (x0 < x1 and y0 < y1):
                raise ValueError(f"region #{k} rectangle {reg.rect} is empty")
            _check_true_c2(reg.c2, f"region #{k}")
            regions.append(reg)
        self.regions = regions


def _check_true_c2(c2: Sequence[float], label: str) -> None:
    c11, c22, re, im = (float(v) for v in c2)
    if not all(math.isfinite(v) for v in (c11, c22, re, im)):
        raise ValueError(f"{label}: covariance entries must be finite")
    if c11 < 0 or c22 < 0 or c11 + c22 <= 0:
        raise ValueError(f"{label}: diagonal powers must be >= 0 with positive trace")
    if _not_psd(c11, c22, re, im):
        raise ValueError(f"{label}: covariance is not positive semidefinite")


def _cholesky2(c2: Sequence[float]) -> tuple[float, complex, float]:
    """Lower Cholesky factor of [[c11, c12], [conj(c12), c22]].

    Returns (l11, l21, l22) with l11, l22 real. A slightly negative Schur
    complement from float noise clamps to zero.
    """
    c11, c22, re, im = (float(v) for v in c2)
    c12 = complex(re, im)
    l11 = math.sqrt(max(c11, 0.0))
    if l11 > 0.0:
        l21 = c12.conjugate() / l11
        l22 = math.sqrt(max(c22 - abs(l21) ** 2, 0.0))
    else:
        # first channel carries no power; PSD then forces c12 = 0
        l21 = complex(0.0, 0.0)
        l22 = math.sqrt(max(c22, 0.0))
    return l11, l21, l22


def _covariance_from_normals(chol: tuple[float, complex, float],
                             normals: np.ndarray) -> np.ndarray:
    """Average outer products of Cholesky-colored scattering vectors.

    ``normals`` has shape (..., looks, 4): per look the four standard
    normals making two unit-variance circular complex components. Returns
    (..., 4) stacked as (c11, c22, c12_re, c12_im), accumulated in float64.
    """
    l11, l21, l22 = chol
    z1 = (normals[..., 0] + 1j * normals[..., 1]) / math.sqrt(2.0)
    z2 = (normals[..., 2] + 1j * normals[..., 3]) / math.sqrt(2.0)
    k1 = l11 * z1
    k2 = l21 * z1 + l22 * z2
    c11 = (k1.real ** 2 + k1.imag ** 2).mean(axis=-1)
    c22 = (k2.real ** 2 + k2.imag ** 2).mean(axis=-1)
    c12 = (k1 * np.conjugate(k2)).mean(axis=-1)
    return np.stack([c11, c22, c12.real, c12.imag], axis=-1)


def sample_c2(true_c2: Sequence[float], looks: int,
              rng: np.random.Generator) -> tuple[float, float, float, float]:
    """One multi-look sample covariance drawn from ``rng``."""
    if looks < 1:
        raise ValueError(f"looks must be >= 1, got {looks}")
    _check_true_c2(true_c2, "true_c2")
    chol = _cholesky2(true_c2)
    normals = rng.standard_normal((looks, 4))
    out = _covariance_from_normals(chol, normals)
    return tuple(float(v) for v in out)


def generate_scene(scene: SceneSpec) -> C2Raster:
    """Simulate the scene; deterministic in (spec, seed) alone.

    Regions paint in listed order onto the background; where they overlap
    the first listed wins and the clash is logged. Every pixel consumes the
    counter range [pixel * 4 * looks, (pixel + 1) * 4 * looks), which makes
    the stream independent of traversal or tiling.
    """
    grid = scene.spec
    h, w = grid.height, grid.width
    looks = scene.looks

    # -1 marks background; region index otherwise, first listed wins
    owner = np.full((h, w), -1, dtype=np.int64)
    overlap = 0
    for idx, reg in enumerate(scene.regions):
        x0, y0, x1, y1 = reg.rect
        x0c, x1c = max(0, x0), min(w, x1)
        y0c, y1c = max(0, y0), min(h, y1)
        if x0c >= x1c or y0c >= y1c:
            log.warning("region #%d %s lies outside the %dx%d grid", idx, reg.rect, w, h)
            continue
        block = owner[y0c:y1c, x0c:x1c]
        overlap += int((block >= 0).sum())
        block[block < 0] = idx
    if overlap:
        log.warning("%d pixels claimed by more than one region, first listed wins", overlap)

    matrices = [scene.background] + [reg.c2 for reg in scene.regions]
    chols = [_cholesky2(m) for m in matrices]

    bands = np.empty((4, h, w), dtype=np.float32)
    draws_per_pixel = np.uint64(4 * looks)
    # chunk rows to bound the intermediate normals to a few tens of MB
    chunk = max(1, int(4_000_000 // max(1, w * looks)))
    for row0 in range(0, h, chunk):
        row1 = min(h, row0 + chunk)
        n_pix = (row1 - row0) * w
        base = (np.arange(row0 * w, row1 * w, dtype=np.uint64)[:, None]
                * draws_per_pixel)
        counters = base + np.arange(4 * looks, dtype=np.uint64)[None, :]
        normals = _counter_normals(scene.seed, counters).reshape(n_pix, looks, 4)

        own = owner[row0:row1].reshape(-1) + 1  # 0 = background
        out = np.empty((n_pix, 4), dtype=np.float64)
        for mat_idx, chol in enumerate(chols):
            sel = own == mat_idx
            if not sel.any():
                continue
            out[sel] = _covariance_from_normals(chol, normals[sel])
        block = out.reshape(row1 - row0, w, 4)
        for b in range(4):
            bands[b, row0:row1] = block[..., b].astype(np.float32)

    return C2Raster(grid, bands[0], bands[1], bands[2], bands[3],
                    timestamp=scene.timestamp, orbit=scene.orbit)


def scene_from_dict(doc: dict, *,
                    timestamp: Optional[dt.date] = None,
                    orbit: Optional[Orbit] = None,
                    seed: Optional[int] = None) -> SceneSpec:
    """Build a SceneSpec from its JSON form.

    The JSON object carries the grid fields at top level plus ``background``,
    ``regions`` (list of {rect, c2}), ``looks`` and ``seed``; ``timestamp``
    and ``orbit`` are optional and the keyword arguments override them.
    """
    try:
        grid = GridSpec(
            width=int(doc["width"]),
            height=int(doc["height"]),
            origin_x=float(doc["origin_x"]),
            origin_y=float(doc["origin_y"]),
            pixel_size_x=float(doc["pixel_size_x"]),
            pixel_size_y=float(doc["pixel_size_y"]),
            crs=str(doc["crs"]),
        )
        background = tuple(float(v) for v in doc["background"])
        regions = [Region(tuple(r["rect"]), tuple(r["c2"]))
                   for r in doc.get("regions", [])]
        looks = int(doc.get("looks", 1))
        seed_val = int(doc["seed"]) if seed is None else int(seed)
    except KeyError as e:
        raise ValueError(f"scene JSON lacks field {e.args[0]!r}") from e
    if timestamp is None and doc.get("timestamp"):
        timestamp = dt.date.fromisoformat(doc["timestamp"])
    if orbit is None and doc.get("orbit"):
        orbit = Orbit(doc["orbit"])
    return SceneSpec(spec=grid, background=background, regions=regions,
                     looks=looks, seed=seed_val, timestamp=timestamp, orbit=orbit)


def load_scene(path: str | Path) -> SceneSpec:
    doc = json.loads(Path(path).read_text())
    return scene_from_dict(doc)

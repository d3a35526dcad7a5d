"""Synthetic dual-pol scenes with fully developed speckle.

Each pixel is a scaled complex Wishart sample drawn through its Bartlett
factor (Goodman 1963): C = Lc T T^H Lc^H / looks, with Lc the Cholesky factor
of the true covariance, |t11|^2 ~ Gamma(looks), |t22|^2 ~ Gamma(looks - 1) and
t21 ~ CN(0, 1). With one look t22 = 0, so the sample is rank one by construction.

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

from .raster import GridSpec, Orbit, grid_from_json, json_int
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


def _counter_uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1] indexed by 64-bit counters, order independent."""
    # numpy warns on scalar uint64 overflow but wraps arrays silently, so the
    # seed state is mixed as a 1-element array
    seed_arr = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    state = _mix64(seed_arr + _GOLDEN)
    bits = _mix64(np.asarray(counters, dtype=np.uint64) * _GOLDEN + (state + _GOLDEN))
    # 53-bit mantissa uniforms; +1 keeps them in (0, 1] so a log is finite
    u = (bits >> np.uint64(11)).astype(np.float64)
    u += 1.0
    u *= 2.0 ** -53
    return u


def _counter_normals(seed: int, counters: np.ndarray) -> np.ndarray:
    """Standard normals indexed by 64-bit counters, order independent.

    ``counters`` must have an even trailing dimension; consecutive counter
    pairs feed one Box-Muller transform.
    """
    flat = _counter_uniforms(seed, counters).reshape(-1, 2)
    radius = np.sqrt(-2.0 * np.log(flat[:, 0]))
    angle = 2.0 * math.pi * flat[:, 1]
    out = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    return out.reshape(counters.shape)


def json_seed(value, name: str = "seed") -> int:
    """A seed field as an int: a JSON integer (the rule of json_int) that
    fits in 64 bits, so that no two seeds draw the same speckle."""
    seed = json_int(value, name)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"{name!r} must fit in 64 bits, got {value!r}")
    return seed


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
        self.looks = json_int(self.looks, "looks")
        if self.looks < 1:
            raise ValueError(f"looks must be >= 1, got {self.looks}")
        _check_true_c2(self.background, "background")
        regions = []
        for k, reg in enumerate(self.regions):
            reg = Region(tuple(json_int(v, "rect") for v in reg[0]),
                         tuple(float(v) for v in reg[1]))
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


def _colour(l11, l21, l22, t11, t21, t22, looks: int):
    """(c11, c22, c12_re, c12_im) of Lc T T^H Lc^H / looks.

    Lc = [[l11, 0], [l21, l22]] and T = [[t11, 0], [t21, t22]]; l21 and t21
    are complex, the rest real, each a scalar or an array of one shape."""
    a11 = l11 * t11
    a21 = l21 * t11 + l22 * t21
    a22 = l22 * t22
    c12 = a11 * np.conj(a21) / looks
    return (a11 * a11 / looks, (a21.real ** 2 + a21.imag ** 2 + a22 * a22) / looks,
            c12.real, c12.imag)


def sample_c2(true_c2: Sequence[float], looks: int,
              rng: np.random.Generator) -> tuple[float, float, float, float]:
    """One multi-look sample covariance drawn from ``rng``."""
    if looks < 1:
        raise ValueError(f"looks must be >= 1, got {looks}")
    _check_true_c2(true_c2, "true_c2")
    t11 = math.sqrt(rng.standard_gamma(looks))
    t22 = math.sqrt(rng.standard_gamma(looks - 1))  # shape 0 gives 0: rank one
    t21 = complex(*rng.standard_normal(2)) / math.sqrt(2.0)
    return tuple(float(v) for v in _colour(*_cholesky2(true_c2), t11, t21, t22, looks))


# Counters hashed per row chunk (at least one row): each temporary stays near
# 512 KB, which ran fastest of 2^13..2^22 on a 2-vCPU Xeon at 49 looks.
_CHUNK_COUNTERS = 1 << 16


def generate_scene(scene: SceneSpec) -> C2Raster:
    """Simulate the scene; deterministic in (spec, seed) alone.

    Regions paint in listed order onto the background; where they overlap
    the first listed wins and the clash is logged. Pixel p owns the counter
    range [p * (2 * looks + 2), (p + 1) * (2 * looks + 2)): the first
    ``looks`` counters give |t11|^2, the next ``looks - 1`` give |t22|^2, one
    is left unused and the last two are the Box-Muller pair of t21. So the
    stream is independent of traversal or tiling.
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
    l11, l21, l22 = (np.array(v) for v in zip(*(_cholesky2(m) for m in matrices)))

    bands = np.empty((4, h, w), dtype=np.float32)
    per_pixel = 2 * looks + 2
    chunk = max(1, _CHUNK_COUNTERS // (w * per_pixel))
    for row0 in range(0, h, chunk):
        row1 = min(h, row0 + chunk)
        draws = np.arange(row0 * w * per_pixel, row1 * w * per_pixel, dtype=np.uint64)
        draws = draws.reshape(-1, per_pixel)
        # unit exponentials -log u: summing them, never logging a product, cannot underflow
        expo = -np.log(_counter_uniforms(scene.seed, draws[:, :2 * looks]))
        t11 = np.sqrt(expo[:, :looks].sum(axis=1))
        t22 = np.sqrt(expo[:, looks:2 * looks - 1].sum(axis=1))
        z = _counter_normals(scene.seed, draws[:, 2 * looks:])
        t21 = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)

        own = owner[row0:row1].reshape(-1) + 1  # 0 = background
        out = _colour(l11[own], l21[own], l22[own], t11, t21, t22, looks)
        bands[:, row0:row1] = np.reshape(out, (4, row1 - row0, w))

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
        grid = grid_from_json(doc)
        background = tuple(float(v) for v in doc["background"])
        regions = [Region(tuple(r["rect"]), tuple(r["c2"])) for r in doc.get("regions", [])]
        seed_val = json_seed(doc["seed"] if seed is None else seed)
        if timestamp is None and doc.get("timestamp"):
            timestamp = dt.date.fromisoformat(doc["timestamp"])
        if orbit is None and doc.get("orbit"):
            orbit = Orbit(doc["orbit"])
        return SceneSpec(spec=grid, background=background, regions=regions,
                         looks=doc.get("looks", 1), seed=seed_val, timestamp=timestamp,
                         orbit=orbit)
    except KeyError as e:
        raise ValueError(f"scene JSON lacks field {e.args[0]!r}") from e
    except TypeError as e:
        raise ValueError(f"scene JSON has a field of the wrong type: {e}") from e


def load_scene(path: str | Path) -> SceneSpec:
    doc = json.loads(Path(path).read_text())
    return scene_from_dict(doc)

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
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .raster import Bundle, GridSpec, grid_from_json
from .sar import C2_BAND_NAMES, _not_psd
from .schema import Orbit, iso_date, json_choice, json_float, json_int, json_seed

log = logging.getLogger(__name__)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """SplitMix64 finalizer, a bijective avalanche over uint64, applied to
    ``x`` in place; returns ``x``. ``scratch``, a uint64 array of x's shape,
    holds the shifted terms (a new array when None)."""
    t = np.empty_like(x) if scratch is None else scratch
    x ^= np.right_shift(x, np.uint64(30), out=t)
    x *= _MIX1
    x ^= np.right_shift(x, np.uint64(27), out=t)
    x *= _MIX2
    x ^= np.right_shift(x, np.uint64(31), out=t)
    return x


def _counter_uniforms(seed: int, counters: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Uniforms in (0, 1] indexed by 64-bit counters, order independent.

    ``counters``, a uint64 array, is hashed in place, so the call consumes
    it. ``out``, a float64 array of its shape, receives the uniforms (a new
    array when None) and serves as the hash's scratch before that.
    """
    if out is None:
        out = np.empty(counters.shape, dtype=np.float64)
    # numpy warns on scalar uint64 overflow but wraps arrays silently, so the
    # seed state is mixed as a 1-element array
    state = _mix64(np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64) + _GOLDEN)
    counters *= _GOLDEN
    counters += state + _GOLDEN
    _mix64(counters, out.view(np.uint64))
    # 53-bit mantissa uniforms; +1 keeps them in (0, 1] so a log is finite.
    # Every value is below 2**53, so the int64 view converts exactly.
    counters >>= np.uint64(11)
    np.copyto(out, counters.view(np.int64))
    out += 1.0
    out *= 2.0 ** -53
    return out


def _box_muller(u0: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """Circular complex normals CN(0, 1), one per pair of uniforms in (0, 1]
    (a Box-Muller transform; the real and imaginary parts are its two normals)."""
    radius = np.sqrt(-2.0 * np.log(u0))
    angle = 2.0 * math.pi * u1
    return (radius * np.cos(angle) + 1j * (radius * np.sin(angle))) / math.sqrt(2.0)


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
        if self.looks > _MAX_LOOKS:
            raise ValueError(f"looks must be <= {_MAX_LOOKS}, got {self.looks}")
        self.background = _true_c2(self.background, "background")
        regions = []
        for k, reg in enumerate(self.regions):
            rect = tuple(json_int(v, "rect") for v in reg[0])
            if len(rect) != 4:
                raise ValueError(f"region #{k}: 'rect' must hold 4 integers (x0, y0, x1, y1), "
                                 f"got {len(rect)}")
            x0, y0, x1, y1 = rect
            if not (x0 < x1 and y0 < y1):
                raise ValueError(f"region #{k} rectangle {rect} is empty")
            regions.append(Region(rect, _true_c2(reg[1], f"region #{k}")))
        self.regions = regions


def _true_c2(c2: Sequence[float], label: str) -> tuple[float, float, float, float]:
    """The true covariance (c11, c22, c12 real, c12 imaginary) as floats:
    exactly four JSON numbers, finite, PSD, with a positive trace."""
    entries = tuple(c2)
    if len(entries) != 4:
        raise ValueError(f"{label}: a covariance has 4 entries (c11, c22, c12 real, "
                         f"c12 imaginary), got {len(entries)}")
    try:
        c11, c22, re, im = (json_float(v, "covariance entry", finite=False) for v in entries)
    except ValueError as e:
        raise ValueError(f"{label}: {e}") from None
    if not all(math.isfinite(v) for v in (c11, c22, re, im)):
        raise ValueError(f"{label}: covariance entries must be finite")
    if c11 < 0 or c22 < 0 or c11 + c22 <= 0:
        raise ValueError(f"{label}: diagonal powers must be >= 0 with positive trace")
    if _not_psd(c11, c22, re, im):
        raise ValueError(f"{label}: covariance is not positive semidefinite")
    return c11, c22, re, im


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
    """(c11, c22, c12_re, c12_im) of Lc T T^H Lc^H / looks, per pixel.

    Lc = [[l11, 0], [l21, l22]] and T = [[t11, 0], [t21, t22]] are given as
    arrays of one shape; l21 and t21 are complex, the rest real."""
    a11 = l11 * t11
    a21 = l21 * t11 + l22 * t21
    a22 = l22 * t22
    c12 = a11 * np.conj(a21) / looks
    return (a11 * a11 / looks, (a21.real ** 2 + a21.imag ** 2 + a22 * a22) / looks,
            c12.real, c12.imag)


# Counters hashed per pixel chunk: each buffer stays near 512 KB, which ran
# fastest of 2^13..2^22 on a 2-vCPU Xeon at 49 looks, and a scene's working
# set no longer grows with its width or look count.
_CHUNK_COUNTERS = 1 << 16
# Most looks a scene takes: one pixel's 2 * looks + 2 draws fit in a chunk,
# so the bound above holds for every look count.
_MAX_LOOKS = _CHUNK_COUNTERS // 2 - 1


def generate_scene(scene: SceneSpec) -> Bundle:
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

    # scenes generated side by side log in any order, so a dated scene's
    # warnings name its date and orbit
    where = " ".join(str(v) for v in (scene.timestamp, scene.orbit and scene.orbit.value) if v)
    where += ": " if where else ""

    # -1 marks background; region index otherwise, first listed wins
    owner = np.full((h, w), -1, dtype=np.int64)
    overlap = 0
    for idx, reg in enumerate(scene.regions):
        x0, y0, x1, y1 = reg.rect
        x0c, x1c = max(0, x0), min(w, x1)
        y0c, y1c = max(0, y0), min(h, y1)
        if x0c >= x1c or y0c >= y1c:
            log.warning("%sregion #%d %s lies outside the %dx%d grid", where, idx, reg.rect,
                        w, h)
            continue
        block = owner[y0c:y1c, x0c:x1c]
        overlap += int((block >= 0).sum())
        block[block < 0] = idx
    if overlap:
        log.warning("%s%d pixels claimed by more than one region, first listed wins",
                    where, overlap)

    matrices = [scene.background] + [reg.c2 for reg in scene.regions]
    l11, l21, l22 = (np.array(v) for v in zip(*(_cholesky2(m) for m in matrices)))

    bands = np.empty((4, h, w), dtype=np.float32)
    n_px = h * w
    per_pixel = 2 * looks + 2
    chunk = min(n_px, max(1, _CHUNK_COUNTERS // per_pixel))
    # one chunk's counters: a ramp added to the chunk's first counter, hashed
    # in place, then converted and logged in place in the uniform buffer
    ramp = np.arange(chunk * per_pixel, dtype=np.uint64)
    counters = np.empty_like(ramp)
    uniforms = np.empty(ramp.shape, dtype=np.float64)
    owner_px, bands_px = owner.reshape(-1), bands.reshape(4, -1)
    for p0 in range(0, n_px, chunk):
        p1 = min(n_px, p0 + chunk)
        m = (p1 - p0) * per_pixel
        draws = np.add(ramp[:m], np.uint64(p0 * per_pixel), out=counters[:m])
        u = _counter_uniforms(scene.seed, draws, uniforms[:m]).reshape(-1, per_pixel)
        t21 = _box_muller(u[:, -2], u[:, -1])  # before the log below overwrites u
        # unit exponentials are -log u, so each Gamma draw is minus a sum of
        # logs: summing, never logging a product, cannot underflow
        log_u = np.log(u, out=u)
        t11 = np.sqrt(-log_u[:, :looks].sum(axis=1))
        t22 = np.sqrt(-log_u[:, looks:2 * looks - 1].sum(axis=1))

        own = owner_px[p0:p1] + 1  # 0 = background
        out = _colour(l11[own], l21[own], l22[own], t11, t21, t22, looks)
        for band, values in zip(bands_px, out):
            band[p0:p1] = values

    return Bundle(grid, list(C2_BAND_NAMES), bands,
                  timestamp=scene.timestamp, orbit=scene.orbit)


def scenes_from_json(doc: dict, seed: int) -> list[SceneSpec]:
    """The scenes of a scene document (see scene_from_dict) or a campaign, in
    file order. Campaign entries share its ``grid``, and its ``background``,
    ``regions`` and ``looks`` unless they give their own, and a missing seed is
    ``derive_seed(seed, index)``. A missing or mistyped field is a ValueError."""
    if "scenes" not in doc:
        return [scene_from_dict(doc, seed=seed)]
    spec = grid_from_json(_field(doc, "grid", dict))
    # the campaign's background, regions and looks meet an entry's rules even
    # when every entry gives its own (a stand-in background if it has none)
    _scene(spec, {"background": [1.0, 0.0, 0.0, 0.0]} | doc, {}, seed, "date")
    scenes = []
    for idx, entry in enumerate(_field(doc, "scenes", list)):
        if not isinstance(entry, dict):
            raise ValueError(f"scene #{idx} is not a JSON object")
        try:
            entry_seed = json_seed(entry["seed"]) if "seed" in entry else derive_seed(seed, idx)
            scenes.append(_scene(spec, doc | entry, entry, entry_seed, "date"))
        except ValueError as e:
            raise ValueError(f"scene #{idx}: {e}") from None
    return scenes


def scene_from_dict(doc: dict, *, seed: Optional[int] = None) -> SceneSpec:
    """The scene of a document with the grid fields at top level (README lists
    the rest); a ``seed`` argument overrides the document's ``seed``."""
    seed = json_seed(_field(doc, "seed") if seed is None else seed)
    return _scene(grid_from_json(doc), doc, doc, seed, "timestamp")


def _scene(spec: GridSpec, shared: dict, own: dict, seed: int, date_field: str) -> SceneSpec:
    """Background, regions and looks from ``shared``; date and orbit (null: none) from ``own``."""
    regions = _field(shared, "regions", list) if "regions" in shared else []
    if not all(isinstance(r, dict) for r in regions):
        raise ValueError(f"'regions' must be a list of objects, got {regions!r}")
    regions = [Region(_field(r, "rect", list), _field(r, "c2", list)) for r in regions]
    date, orbit = own.get(date_field), own.get("orbit")
    return SceneSpec(spec=spec, background=_field(shared, "background", list),
                     regions=regions, looks=shared.get("looks", 1), seed=seed,
                     timestamp=None if date is None else iso_date(date, date_field),
                     orbit=None if orbit is None else json_choice(Orbit, orbit, "orbit"))


def _field(doc: dict, name: str, kind: type = object):
    """Field ``name`` of a JSON object; it must be there and be a ``kind``."""
    if name not in doc:
        raise ValueError(f"{name!r} is missing")
    if not isinstance(doc[name], kind):
        raise ValueError(f"{name!r} must be {'an object' if kind is dict else 'a list'}, "
                         f"got {doc[name]!r}")
    return doc[name]

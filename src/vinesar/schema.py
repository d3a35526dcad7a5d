"""The rules at the pipeline's file boundaries: shared errors and enums, table
headers, JSON field checks, and the config with the flags that override it.
Only the standard library is imported, so reading config and tables needs no
numpy."""

from __future__ import annotations

import argparse
import datetime as dt
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, Optional


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


class Abscissa(str, Enum):
    DOY = "doy"
    CDD = "cdd"


DEFAULT_BASE_TEMP_C = 10.0

# band names of the index rasters, as written in their bundles and zonal.csv
DPRVI_BAND_NAME = "DpRVI"
NDVI_BAND_NAME = "NDVI"
SVHI_BAND_NAME = "SVHI"
LAI_BAND_NAME = "LAI"

ZONAL_CSV_HEADER = ("parcel_id", "band", "timestamp", "orbit",
                    "count", "mean", "std", "min", "max")
DEGREE_DAYS_CSV_HEADER = ("date", "doy", "gdd", "cdd")
TREND_CSV_HEADER = ("parcel_id", "orbit", "peak_date", "fit_r", "fit_r2",
                    "a", "b", "c", "vertex_x", "n")
TREND_GROUPS_CSV_HEADER = ("orientation", "orbit", "mean_fit_r", "n_parcels")
CORRELATION_CSV_HEADER = ("index_a", "index_b", "parcel_id", "orbit",
                          "n", "r", "max_gap_days")
SCATTER_CSV_HEADER = ("parcel_id", "date_a", "date_b", "index_a", "value_a",
                      "index_b", "value_b", "month")


def json_int(value, name: str) -> int:
    """A JSON integer field as an int.

    int() would truncate 2.9 and read true as 1, so a bool, a fraction or a
    non-number is rejected; an integral float such as 3.0 is read as 3. An
    integer beyond the float range is rejected as json_float rejects it.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not json_float(value, name, finite=False).is_integer()):
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


def json_seed(value, name: str = "seed") -> int:
    """A seed field as an int: a JSON integer (the rule of json_int) that
    fits in 64 bits, so that no two seeds draw the same speckle."""
    seed = json_int(value, name)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"{name!r} must fit in 64 bits, got {value!r}")
    return seed


def iso_date(value, name: str) -> dt.date:
    """A date field written YYYY-MM-DD, the form vinesar writes; fromisoformat
    alone also takes 20230421 and 2023-W16-5, but only from Python 3.11 on."""
    if not (isinstance(value, str) and re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", value)):
        raise ValueError(f"{name!r} must be a YYYY-MM-DD date, got {value!r}")
    try:
        return dt.date.fromisoformat(value)
    except ValueError as e:
        raise ValueError(f"{name!r} {value!r}: {e}") from None


def read_json_object(path: Path) -> dict:
    """The JSON object in file ``path``; any other content is a ValueError
    naming the file, as is text that is not UTF-8, an integer of more digits
    than int() converts and a nesting deeper than the decoder recurses."""
    try:
        doc = json.loads(path.read_text())
    except ValueError as e:  # json.JSONDecodeError is one
        raise ValueError(f"{path} is not valid JSON: {e}") from e
    except RecursionError:
        raise ValueError(f"{path} nests too deeply to read") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


@dataclass
class PipelineConfig:
    """Pipeline settings: a JSON config file merged with CLI flags.

    Flags win over the file; the file wins over these defaults. Paths are
    resolved relative to the config file's directory when they come from the
    file, and relative to the working directory when they come from flags.
    """

    out_dir: Path = Path("out")
    rasters_dir: Optional[Path] = None  # defaults to out_dir when unset
    parcels_path: Optional[Path] = None
    weather_path: Optional[Path] = None
    multilook: tuple[int, int] = (4, 1)
    boxcar: Optional[int] = None
    erode_px: int = 1
    t_base_c: float = DEFAULT_BASE_TEMP_C
    max_gap_days: int = 7
    abscissa: Abscissa = Abscissa.CDD
    seed: int = 0
    resample_method: ResampleMethod = ResampleMethod.NEAREST

    def inputs_dir(self) -> Path:
        return self.rasters_dir if self.rasters_dir is not None else self.out_dir


def _json_path(value, name: str) -> Path:
    if not isinstance(value, str):
        raise ValueError(f"{name!r} must be a path string, got {value!r}")
    return Path(value)


def _parse_multilook(value, name: str) -> tuple[int, int]:
    """A window of two JSON integers, [4, 1], or of ASCII digits on each side
    of one x or X, "4x1"; int() alone would read "4_0" as 40 and "４" as 4."""
    window = value
    if isinstance(value, str) and re.fullmatch(r"[0-9]+[xX][0-9]+", value):
        try:
            window = [int(part) for part in re.split("[xX]", value)]
        except ValueError:  # more digits than int() converts
            raise ValueError(f"{name!r} is beyond the float range") from None
    elif not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"{name!r} must look like 4x1 or [4, 1], got {value!r}")
    wx, wy = (json_int(v, name) for v in window)
    if wx < 1 or wy < 1:
        raise ValueError(f"{name!r} must be positive, got {value!r}")
    return wx, wy


def _parse_boxcar(value, name: str) -> Optional[int]:
    """An odd boxcar window, or None (no filter) for a window of 0 or less."""
    win = json_int(value, name)
    if win <= 0:
        return None
    if win % 2 == 0:
        raise ValueError(f"{name!r} must be odd, got {win}")
    return win


def _parse_count(value, name: str) -> int:
    count = json_int(value, name)
    if count < 0:
        raise ValueError(f"{name!r} must be >= 0, got {count}")
    return count


def _parse_t_base(value, name: str) -> float:
    # far outside any climate, a base drives the degree-day sum past the float range
    t_base = json_float(value, name)
    if not -100.0 <= t_base <= 100.0:
        raise ValueError(f"{name!r} must be between -100 and 100 C, got {value!r}")
    return t_base


def json_choice(enum: type[Enum], value, name: str) -> Enum:
    choices = [m.value for m in enum]
    if value not in choices:
        raise ValueError(f"{name!r} must be one of {choices}, got {value!r}")
    return enum(value)


# config key -> (PipelineConfig field, parse(value, key), dest of the flag
# that overrides it); each parse checks type and range together
CONFIG_KEYS: dict[str, tuple[str, Callable, Optional[str]]] = {
    "out_dir": ("out_dir", _json_path, "out"),
    "rasters_dir": ("rasters_dir", _json_path, None),
    "parcels": ("parcels_path", _json_path, None),
    "weather": ("weather_path", _json_path, None),
    "multilook": ("multilook", _parse_multilook, "multilook"),
    "boxcar": ("boxcar", _parse_boxcar, "boxcar"),
    "erode": ("erode_px", _parse_count, "erode"),
    "t_base": ("t_base_c", _parse_t_base, "tbase"),
    "max_gap_days": ("max_gap_days", _parse_count, "max_gap"),
    "abscissa": ("abscissa", partial(json_choice, Abscissa), None),
    "seed": ("seed", json_seed, "seed"),
    "resample": ("resample_method", partial(json_choice, ResampleMethod), None),
}


def load_config(args: argparse.Namespace) -> PipelineConfig:
    """The defaults, then the ``--config`` file, then each flag given (neither
    None nor ""); a file value is checked even when a flag overrides it."""
    cfg = PipelineConfig()
    if args.config:
        cfg_path = Path(args.config)
        doc = read_json_object(cfg_path)
        unknown = set(doc) - set(CONFIG_KEYS)
        if unknown:
            raise ValueError(f"{cfg_path}: unknown config keys {sorted(unknown)}")
        for key, (attr, parse, _) in CONFIG_KEYS.items():
            if doc.get(key) is None:
                continue
            try:
                value = parse(doc[key], key)
            except ValueError as e:
                raise ValueError(f"{cfg_path}: {e}") from None
            if isinstance(value, Path):
                value = cfg_path.parent / value
            setattr(cfg, attr, value)

    for attr, parse, dest in CONFIG_KEYS.values():
        value = getattr(args, dest, None) if dest else None
        if value not in (None, ""):
            setattr(cfg, attr, parse(value, "--" + dest.replace("_", "-")))
    return cfg

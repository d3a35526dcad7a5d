"""Spans around the public functions of vinesar's modules.

The tracer replaces each listed function at every place a vinesar module
binds it (its home module and every module that imported the name), so a
call is recorded whichever name it goes through. Spans stay in memory until
the stage process exits. Work counters are computed from arguments and
results after the span has ended, so their cost is not charged to the span.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter
from typing import Any, Callable

TRACED = (
    "synth.generate_scene",
    "sar.load_c2", "sar.multilook", "sar.boxcar_filter", "sar.dprvi_raster", "sar.save_c2",
    "raster.load_bundle", "raster.save_bundle", "raster.load_raster",
    "raster.save_raster", "raster.resample",
    "optical.ndvi", "optical.svhi", "optical.ingest_lai",
    "parcels.load_parcels", "parcels.rasterize", "parcels.erode", "parcels.zonal_stats",
    "parcels.write_zonal_csv", "parcels.read_zonal_csv",
    "phenology.load_weather_csv", "phenology.accumulate_cdd",
    "phenology.fit_cdd_vs_doy", "phenology.write_degree_days_csv",
    "trend.assemble_series", "trend.fit_parabola", "trend.peak", "trend.correlate_series",
    "trend.pair_dates", "trend.write_trend_csv", "trend.write_correlation_csv",
    "trend.write_scatter_csv",
)

FIT_OK_R = 0.95


def _px(spec: Any) -> int:
    return spec.width * spec.height


# counters per function: (args, result) -> {counter: value}
COUNTERS: dict[str, Callable[[tuple, Any], dict]] = {
    "synth.generate_scene": lambda a, r: {"mlook_px": _px(a[0].spec) * a[0].looks},
    "sar.multilook": lambda a, r: {"px": _px(a[0].spec)},
    "sar.boxcar_filter": lambda a, r: {"px": _px(r.spec)},
    "sar.dprvi_raster": lambda a, r: {"px": _px(r.spec)},
    "raster.load_bundle": lambda a, r: {"bytes": r.values.nbytes},
    "raster.save_bundle": lambda a, r: {"bytes": 4 * _px(a[1]) * len(a[2])},
    "raster.resample": lambda a, r: {"px": _px(r.spec)},
    "optical.ndvi": lambda a, r: {"px": _px(r.spec)},
    "optical.svhi": lambda a, r: {"px": _px(r.spec)},
    "optical.ingest_lai": lambda a, r: {"px": _px(r.spec)},
    "parcels.rasterize": lambda a, r: {"mask_px": int(r.mask.sum()), "grid_px": r.mask.size},
    "parcels.zonal_stats": lambda a, r: {"mask_px": r.count, "grid_px": a[0].values.size},
    "trend.fit_parabola": lambda a, r: {"ok": int(r.r >= FIT_OK_R)},
}


def vinesar_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "vinesar" or name.startswith("vinesar.")) and m is not None]


class Tracer:
    """Records spans as [name, start, end, parent index, counters]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.patched: list[str] = []       # "module.attr" bindings replaced
        self.missing: list[str] = []       # listed names that no longer resolve
        self.originals: dict[str, Callable] = {}
        self._undo: list[tuple[object, str, Any]] = []

    def open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(rec)
                rec[4] = {"error": 1}
                raise
            self.close(rec)
            if counter is not None:
                rec[4] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every listed function in loaded vinesar modules."""
        mods = {m.__name__: m for m in vinesar_modules()}
        wrappers = {}
        for name in TRACED:
            home, attr = name.split(".")
            fn = getattr(mods.get("vinesar." + home), attr, None)
            if not isinstance(fn, types.FunctionType):
                self.missing.append(name)
                continue
            self.originals[name] = fn
            wrappers[id(fn)] = self._wrap(name, fn)
        for mod_name, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    self.patched.append(f"{mod_name}.{attr}")

    def restore(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()


def _references(value: Any) -> list[Any]:
    """Objects a module-level value can hand a function to at call time."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return list(value)
    if isinstance(value, functools.partial):
        return [value.func, *value.args, *value.keywords.values()]
    if isinstance(value, (staticmethod, classmethod)):
        return [value.__func__]
    if isinstance(value, types.FunctionType):
        return [*(value.__defaults__ or ()), *(value.__kwdefaults__ or {}).values()]
    if isinstance(value, type):
        return [v for v in vars(value).values()]
    return []


def unpatched_bindings(originals: dict[str, Callable]) -> list[str]:
    """Places in vinesar modules still holding an unwrapped listed function.

    Follows module attributes into containers, classes, methods, default
    arguments and partials, three references deep.
    """
    wanted = {id(fn): name for name, fn in originals.items()}
    found = set()
    for mod in vinesar_modules():
        for attr, value in vars(mod).items():
            if attr.startswith("__"):
                continue
            seen: set[int] = set()
            frontier = [value]
            for _ in range(4):
                nxt = []
                for obj in frontier:
                    if id(obj) in seen:
                        continue
                    seen.add(id(obj))
                    if id(obj) in wanted:
                        found.add(f"{mod.__name__}.{attr} -> {wanted[id(obj)]}")
                    nxt.extend(_references(obj))
                frontier = nxt
    return sorted(found)

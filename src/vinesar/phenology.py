"""Thermal time from daily weather: degree days, their accumulation, and a
square-root biomass proxy.

Daily growing degree days use the simple average method against a base
temperature (10 C for grapevine). Accumulation runs day by day from a start
date; days missing from the record contribute zero rather than aborting the
series, because a short station outage should not invalidate a season.
"""

from __future__ import annotations

import csv
import datetime as dt
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import trend
from .tables import write_table

log = logging.getLogger(__name__)

DEFAULT_BASE_TEMP_C = 10.0


@dataclass(frozen=True)
class WeatherRecord:
    """One day of station weather. Temperatures in Celsius, rain in mm."""

    date: dt.date
    tmin_c: float
    tmax_c: float
    precip_mm: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tmin_c) and math.isfinite(self.tmax_c)):
            raise ValueError(f"{self.date}: temperatures must be finite")
        if self.tmin_c > self.tmax_c:
            raise ValueError(f"{self.date}: tmin {self.tmin_c} exceeds tmax {self.tmax_c}")
        if self.precip_mm is not None and self.precip_mm < 0:
            raise ValueError(f"{self.date}: negative precipitation {self.precip_mm}")


WEATHER_CSV_HEADER = ("date", "tmin_c", "tmax_c", "precip_mm")


def load_weather_csv(path: str | Path) -> list[WeatherRecord]:
    """Read daily weather rows; dates must be strictly increasing."""
    records = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        need = {"date", "tmin_c", "tmax_c"}
        have = set(reader.fieldnames or [])
        if not need <= have:
            raise ValueError(f"{path}: weather CSV needs columns {sorted(need)}, "
                             f"found {reader.fieldnames}")
        for k, row in enumerate(reader, start=2):
            try:
                precip_raw = (row.get("precip_mm") or "").strip()
                rec = WeatherRecord(
                    date=dt.date.fromisoformat(row["date"].strip()),
                    tmin_c=float(row["tmin_c"]),
                    tmax_c=float(row["tmax_c"]),
                    precip_mm=float(precip_raw) if precip_raw else None,
                )
            except ValueError as e:
                raise ValueError(f"{path} line {k}: {e}") from e
            records.append(rec)
    for a, b in zip(records, records[1:]):
        if a.date >= b.date:
            raise ValueError(f"{path}: dates not strictly increasing at {b.date}")
    return records


def gdd(tmax_c: float, tmin_c: float, t_base_c: float = DEFAULT_BASE_TEMP_C) -> float:
    """Daily growing degree days, clipped at zero: cold days add nothing
    and must never subtract accumulated heat."""
    if tmin_c > tmax_c:
        raise ValueError(f"tmin {tmin_c} exceeds tmax {tmax_c}")
    return max(0.0, (tmax_c + tmin_c) / 2.0 - t_base_c)


class DegreeDayEntry(NamedTuple):
    date: dt.date
    doy: int
    gdd: float
    cdd: float


@dataclass
class DegreeDaySeries:
    """Cumulative degree days, one entry per calendar day from the start."""

    entries: list[DegreeDayEntry]
    t_base_c: float
    start: dt.date

    def covers(self, day: dt.date) -> bool:
        """Whether ``day`` lies within the accumulated range."""
        return bool(self.entries) and self.entries[0].date <= day <= self.entries[-1].date

    def cdd_on(self, day: dt.date) -> float:
        """Cumulative degree days on ``day``; errors outside the covered range."""
        if not self.entries:
            raise ValueError("empty degree-day series")
        first, last = self.entries[0].date, self.entries[-1].date
        if not self.covers(day):
            raise ValueError(f"{day} outside the accumulated range {first}..{last}")
        return self.entries[(day - first).days].cdd


def accumulate_cdd(records: Sequence[WeatherRecord],
                   t_base_c: float = DEFAULT_BASE_TEMP_C,
                   start: Optional[dt.date] = None) -> DegreeDaySeries:
    """Running sum of daily degree days from ``start`` through the records.

    ``start`` defaults to January 1 of the first record's year. Calendar
    days absent from the record contribute zero and are counted in a single
    gap warning. The cumulative series is non-decreasing by construction.
    """
    if not records:
        raise ValueError("no weather records to accumulate")
    for a, b in zip(records, records[1:]):
        if a.date >= b.date:
            raise ValueError(f"weather records not strictly increasing at {b.date}")
    if start is None:
        start = dt.date(records[0].date.year, 1, 1)
    last = records[-1].date
    if start > last:
        raise ValueError(f"start {start} is after the last record {last}")

    by_date = {r.date: r for r in records}
    entries = []
    total = 0.0
    gaps = 0
    day = start
    while day <= last:
        rec = by_date.get(day)
        if rec is None:
            daily = 0.0
            gaps += 1
        else:
            daily = gdd(rec.tmax_c, rec.tmin_c, t_base_c)
        total += daily
        entries.append(DegreeDayEntry(day, day.timetuple().tm_yday, daily, total))
        day += dt.timedelta(days=1)
    if gaps:
        log.warning("degree-day accumulation: %d days missing from the weather "
                    "record contributed 0", gaps)
    return DegreeDaySeries(entries=entries, t_base_c=t_base_c, start=start)


class BiomassEntry(NamedTuple):
    date: dt.date
    bb: float


@dataclass
class BiomassProxy:
    """Square-root-of-thermal-time biomass curve, bb = k * sqrt(cdd)."""

    k_biom: float
    entries: list[BiomassEntry]


def biomass_proxy(series: DegreeDaySeries, k_biom: float = 1.0) -> BiomassProxy:
    if not k_biom > 0:
        raise ValueError(f"k_biom must be positive, got {k_biom}")
    entries = [BiomassEntry(e.date, k_biom * math.sqrt(e.cdd)) for e in series.entries]
    return BiomassProxy(k_biom=k_biom, entries=entries)


def fit_cdd_vs_doy(series: DegreeDaySeries) -> "trend.ParabolicFit":
    """Quadratic fit of cumulative degree days against day of year.

    Over a season the accumulation behaves like the square of calendar time;
    the fit quality of this diagnostic says how closely a year follows that.
    """
    xs = [float(e.doy) for e in series.entries]
    ys = [e.cdd for e in series.entries]
    return trend.fit_quadratic(xs, ys)


DEGREE_DAYS_CSV_HEADER = ("date", "doy", "gdd", "cdd")


def write_degree_days_csv(series: DegreeDaySeries, path: str | Path) -> None:
    write_table(path, DEGREE_DAYS_CSV_HEADER, series.entries)

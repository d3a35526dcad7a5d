"""Thermal time from daily weather: degree days and their accumulation.

Daily growing degree days use the simple average method against a base
temperature (10 C for grapevine). Accumulation runs day by day from a start
date; days missing from the record contribute zero rather than aborting the
series, because a short station outage should not invalidate a season.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .schema import DEFAULT_BASE_TEMP_C, DEGREE_DAYS_CSV_HEADER, iso_date
from .tables import read_rows, read_table, write_table

log = logging.getLogger(__name__)

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
        if self.precip_mm is not None:
            if not math.isfinite(self.precip_mm):
                raise ValueError(f"{self.date}: precipitation must be finite")
            if self.precip_mm < 0:
                raise ValueError(f"{self.date}: negative precipitation {self.precip_mm}")


def load_weather_csv(path: str | Path) -> list[WeatherRecord]:
    """Read daily weather rows; dates must be strictly increasing.

    The header names ``date``, ``tmin_c`` and ``tmax_c``, and optionally
    ``precip_mm``, in any order, each once. Rows are read by ``read_table``
    under the file's own header, so every error names the file and line.
    """
    _, header = next(read_rows(path), (0, []))
    if len(set(header)) < len(header):
        raise ValueError(f"{path}: weather CSV names a column twice: {header}")
    need = {"date", "tmin_c", "tmax_c"}
    if not need <= set(header):
        raise ValueError(f"{path}: weather CSV needs columns {sorted(need)}, "
                         f"found {header}")
    col = {name: k for k, name in enumerate(header)}
    precip = col.get("precip_mm")

    def convert(cells: list[str]) -> WeatherRecord:
        precip_raw = "" if precip is None else cells[precip].strip()
        return WeatherRecord(
            date=iso_date(cells[col["date"]].strip(), "date"),
            tmin_c=float(cells[col["tmin_c"]]),
            tmax_c=float(cells[col["tmax_c"]]),
            precip_mm=float(precip_raw) if precip_raw else None,
        )

    records = read_table(path, header, convert)
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
    gap warning. The cumulative series is non-decreasing by construction; a
    total past the float range is a ValueError naming its day.
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
        if not math.isfinite(total):
            raise ValueError(f"{day}: cumulative degree days exceed the float range")
        entries.append(DegreeDayEntry(day, day.timetuple().tm_yday, daily, total))
        day += dt.timedelta(days=1)
    if gaps:
        log.warning("degree-day accumulation: %d days missing from the weather "
                    "record contributed 0", gaps)
    return DegreeDaySeries(entries)


def fit_cdd_vs_doy(series: DegreeDaySeries) -> "trend.ParabolicFit":
    """Quadratic fit of cumulative degree days against day of year.

    Over a season the accumulation behaves like the square of calendar time;
    the fit quality of this diagnostic says how closely a year follows that.
    The fit is ``trend``'s, imported here so that reading weather and
    accumulating degree days need no numpy.
    """
    from . import trend

    xs = [float(e.doy) for e in series.entries]
    ys = [e.cdd for e in series.entries]
    return trend.fit_quadratic(xs, ys)


def write_degree_days_csv(series: DegreeDaySeries, path: str | Path) -> None:
    write_table(path, DEGREE_DAYS_CSV_HEADER, series.entries)

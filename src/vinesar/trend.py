"""Seasonal trend analysis over per-parcel index series.

The seasonal model is a downward parabola of the index against thermal time
(or day of year): growth up to a vertex, then senescence. Fits come from
least squares on centred, scaled x; fit quality is the Pearson correlation
between observed and fitted values, reported both as r and r squared.
"""

from __future__ import annotations

import bisect
import datetime as dt
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .parcels import Orientation, ZonalStats
from .schema import (CORRELATION_CSV_HEADER, DPRVI_BAND_NAME, LAI_BAND_NAME, NDVI_BAND_NAME,
                     SCATTER_CSV_HEADER, SVHI_BAND_NAME, TREND_CSV_HEADER, Abscissa, Orbit)
from .tables import write_table

log = logging.getLogger(__name__)

MONTH_ABBR = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
              "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

# relative threshold below which a variance counts as zero
_VAR_EPS = 1e-24


class Sample(NamedTuple):
    date: dt.date
    doy: int
    x: float
    y: float


@dataclass
class TimeSeries:
    """One parcel's index values over a season, sorted by date."""

    parcel_id: str
    index_name: str
    orbit: Optional[Orbit]
    samples: list[Sample]

    def __post_init__(self) -> None:
        self.samples = sorted(self.samples, key=lambda s: s.date)
        for a, b in zip(self.samples, self.samples[1:]):
            if a.date == b.date:
                raise ValueError(f"{self.parcel_id}/{self.index_name}: "
                                 f"duplicate sample date {a.date}")

    def xs(self) -> list[float]:
        return [s.x for s in self.samples]

    def ys(self) -> list[float]:
        return [s.y for s in self.samples]


def assemble_series(stats: Sequence[ZonalStats],
                    abscissa: Abscissa | str = Abscissa.DOY,
                    cdd_series=None) -> TimeSeries:
    """Turn zonal rows for one parcel/index/orbit into a dated series.

    The abscissa is the day of year or, with a degree-day series supplied,
    the cumulative degree days on each acquisition date. Mixing parcels,
    bands, or orbits in one call is an error, as are duplicate dates.
    """
    abscissa = Abscissa(abscissa)
    if not stats:
        raise ValueError("no zonal statistics to assemble")
    first = stats[0]
    for s in stats:
        if (s.parcel_id, s.band_name, s.orbit) != (first.parcel_id, first.band_name,
                                                   first.orbit):
            raise ValueError(
                f"mixed series: ({s.parcel_id}, {s.band_name}, {s.orbit}) vs "
                f"({first.parcel_id}, {first.band_name}, {first.orbit})")
        if s.timestamp is None:
            raise ValueError(f"zonal row for {s.parcel_id}/{s.band_name} has no date")
    if abscissa is Abscissa.CDD and cdd_series is None:
        raise ValueError("CDD abscissa requested without a degree-day series")

    samples = []
    jan1: dict[int, int] = {}  # ordinal of 1 January, by year
    for s in stats:
        day = s.timestamp
        start = jan1.get(day.year)
        if start is None:
            start = jan1[day.year] = dt.date(day.year, 1, 1).toordinal()
        doy = day.toordinal() - start + 1
        x = float(doy) if abscissa is Abscissa.DOY else float(cdd_series.cdd_on(day))
        samples.append(Sample(day, doy, x, s.mean))
    return TimeSeries(parcel_id=first.parcel_id, index_name=first.band_name,
                      orbit=first.orbit, samples=samples)


@dataclass(frozen=True)
class ParabolicFit:
    """Least-squares quadratic y = a x^2 + b x + c and its quality."""

    a: float
    b: float
    c: float
    r: float
    r_squared: float
    vertex_x: Optional[float]


def fit_quadratic(xs: Sequence[float], ys: Sequence[float]) -> ParabolicFit:
    """Fit y = a x^2 + b x + c by least squares on raw arrays.

    Needs at least three distinct x values. Fit quality is pearson(y, yhat);
    when the observed values have no variance the fit is exact and r is 1 by
    convention (or 0 if somehow not exact), and when only the fitted values
    are flat r is 0. Both degenerate cases are logged.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    distinct = _distinct_count(x)
    if distinct < 3:
        raise ValueError(f"quadratic fit needs >= 3 distinct x values, got {distinct}")

    # fit y = p2 u^2 + p1 u + p0 on u = (x - x0) / s in [-1, 1], where the
    # basis is well conditioned, then expand back to the monomials in x
    n = len(x)
    x0 = float(np.add.reduce(x) / n)
    s = float(np.maximum.reduce(np.abs(x - x0)))
    u = (x - x0) / s
    basis = np.empty((n, 3))
    np.multiply(u, u, out=basis[:, 0])
    basis[:, 1] = u
    basis[:, 2] = 1.0
    # as Python floats: the same IEEE arithmetic as numpy scalars, cheaper
    p2, p1, p0 = np.linalg.lstsq(basis, y, rcond=None)[0].tolist()
    a = p2 / (s * s)
    b = p1 / s - 2.0 * a * x0
    c = p0 - p1 * x0 / s + a * x0 * x0

    yhat = (a * x + b) * x + c
    scale = max(1.0, float(np.maximum.reduce(np.abs(y))))
    var_y = _variance(y)
    var_hat = _variance(yhat)
    if var_y <= _VAR_EPS * scale * scale:
        exact = float(np.abs(y - yhat).max()) <= 1e-9 * scale
        r = 1.0 if exact else 0.0
        log.warning("fit against constant observations, r set to %g by convention", r)
    elif var_hat <= _VAR_EPS * scale * scale:
        r = 0.0
        log.warning("fitted curve is flat while observations vary, r set to 0")
    else:
        r = pearson(y, yhat)
    vertex_x = -b / (2.0 * a) if a != 0.0 else None
    return ParabolicFit(a=a, b=b, c=c, r=r, r_squared=r * r, vertex_x=vertex_x)


def fit_parabola(series: TimeSeries) -> ParabolicFit:
    """Quadratic fit of a parcel series against its abscissa."""
    return fit_quadratic(series.xs(), series.ys())


def _distinct_count(v: np.ndarray) -> int:
    """``len(np.unique(v))`` for a float array, NaNs counting as one value as
    they do there. np.unique's first call imports numpy.ma, ~15 ms of a
    stage that fits a handful of short series."""
    values = set(v.tolist())
    nans = sum(1 for x in values if x != x)
    return len(values) - nans + (nans > 0)


def _variance(v: np.ndarray) -> float:
    """Population variance of a non-empty 1-d float64 array; the bits of
    ``((v - v.mean()) ** 2).mean()`` without the methods' per-call dispatch."""
    d = v - np.add.reduce(v) / len(v)
    return float(np.add.reduce(d * d) / len(v))


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation; errors on n < 2 or a zero-variance input."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = len(x)
    if n < 2:
        raise ValueError("correlation needs at least two samples")
    # np.add.reduce(v) / n is v.mean() bit for bit, and the sums are .sum()'s
    dx = x - np.add.reduce(x) / n
    dy = y - np.add.reduce(y) / n
    sxx = float(np.add.reduce(dx * dx))
    syy = float(np.add.reduce(dy * dy))
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("correlation undefined for a zero-variance input")
    r = float(np.add.reduce(dx * dy)) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def peak(series: TimeSeries) -> tuple[dt.date, float]:
    """Date and value of the series maximum; ties go to the earliest date."""
    if not series.samples:
        raise ValueError("empty series has no peak")
    best = series.samples[0]
    tied = False
    for s in series.samples[1:]:
        if s.y > best.y:
            best = s
            tied = False
        elif s.y == best.y:
            tied = True
    if tied:
        log.warning("%s/%s: tied maxima, keeping the earliest date %s",
                    series.parcel_id, series.index_name, best.date)
    return best.date, best.y


class PairedSample(NamedTuple):
    date_a: dt.date
    date_b: dt.date
    y_a: float
    y_b: float
    gap_days: int


def pair_dates(a: TimeSeries, b: TimeSeries, max_gap_days: int) -> list[PairedSample]:
    """Greedy nearest-date matching of two differently dated series.

    Walks the first series chronologically, takes the unused sample of the
    second with the smallest date gap (ties to the earlier date), and keeps
    the pair when the gap is within ``max_gap_days``. Each sample of the
    second series is used at most once. The nearest unused samples are found
    from the insertion point of each date among the second series' date
    ordinals, which are ascending and distinct as a TimeSeries keeps them.
    """
    if max_gap_days < 0:
        raise ValueError("max_gap_days must be >= 0")
    days = [s.date.toordinal() for s in b.samples]
    used = [False] * len(days)
    pairs = []
    for sa in a.samples:
        t = sa.date.toordinal()
        after = bisect.bisect_left(days, t)
        before = after - 1
        while after < len(days) and used[after]:
            after += 1
        while before >= 0 and used[before]:
            before -= 1
        if before >= 0 and (after == len(days) or t - days[before] <= days[after] - t):
            best = before  # on a tie, the earlier date
        elif after < len(days):
            best = after
        else:
            continue
        gap = abs(days[best] - t)
        if gap <= max_gap_days:
            used[best] = True
            sb = b.samples[best]
            pairs.append(PairedSample(sa.date, sb.date, sa.y, sb.y, gap))
    return pairs


@dataclass(frozen=True)
class CorrelationResult:
    """Correlation between two paired series, and the pairs it came from."""

    series_a: str
    series_b: str
    n: int
    r: float
    max_gap_days: int
    pairs: tuple[PairedSample, ...] = field(default=(), compare=False, repr=False)


def correlate_series(a: TimeSeries, b: TimeSeries, max_gap_days: int) -> CorrelationResult:
    """Pair two series by date and correlate the paired values."""
    pairs = pair_dates(a, b, max_gap_days)
    if len(pairs) < 2:
        raise ValueError(f"only {len(pairs)} pairs within {max_gap_days} days, "
                         "correlation needs at least 2")
    r = pearson([p.y_a for p in pairs], [p.y_b for p in pairs])
    return CorrelationResult(series_a=a.index_name, series_b=b.index_name,
                             n=len(pairs), r=r, max_gap_days=max_gap_days,
                             pairs=tuple(pairs))


def write_scatter_csv(rows: Iterable[tuple], path: str | Path) -> None:
    write_table(path, SCATTER_CSV_HEADER, rows)


def write_trend_csv(rows: Iterable[tuple], path: str | Path) -> None:
    write_table(path, TREND_CSV_HEADER, rows)


def write_correlation_csv(rows: Iterable[tuple], path: str | Path) -> None:
    write_table(path, CORRELATION_CSV_HEADER, rows)


@dataclass
class SeasonTables:
    """The rows of the four season tables, each list in file order and each
    row the tuple of its table's cells in header order."""

    trend: list[tuple] = field(default_factory=list)
    groups: list[tuple] = field(default_factory=list)
    correlation: list[tuple] = field(default_factory=list)
    scatter: list[tuple] = field(default_factory=list)


def season_tables(stats: Sequence[ZonalStats], orientation: dict[str, Orientation],
                  max_gap_days: int, abscissa: Abscissa | str,
                  cdd_series=None) -> SeasonTables:
    """The season analysis of zonal rows, as the rows of the four tables.

    The rows form one series per (parcel, band, orbit). Each DpRVI series
    gets its peak and parabolic fit, and is correlated with the parcel's
    LAI, NDVI and SVHI series; the LAI pairs are also the scatter rows. Each
    parcel's NDVI series is correlated with its SVHI series. Fit r is
    averaged by orientation (a parcel absent from ``orientation`` counts as
    Other) and orbit. Rows with no date, and on the degree-day abscissa
    rows dated outside the weather record, are dropped with one warning
    each. A fit or a correlation that cannot be made is logged and left out.
    """
    abscissa = Abscissa(abscissa)
    # an undated acquisition has no abscissa, nor on degree days one outside
    # the weather record: each is dropped so that it cannot stop every fit
    dated = [s for s in stats if s.timestamp is not None]
    if len(dated) < len(stats):
        log.warning("dropped %d zonal rows with no date: %s", len(stats) - len(dated),
                    ", ".join(sorted({s.band_name for s in stats if s.timestamp is None})))
        if not dated:
            raise ValueError("no zonal row has a date")
        stats = dated
    if abscissa is Abscissa.CDD and cdd_series is not None:
        kept = [s for s in stats if cdd_series.covers(s.timestamp)]
        if len(kept) < len(stats):
            first, last = cdd_series.entries[0].date, cdd_series.entries[-1].date
            dropped = sorted({s.timestamp for s in stats} - {s.timestamp for s in kept})
            log.warning("dropped %d zonal rows dated outside the weather record "
                        "%s..%s: %s", len(stats) - len(kept), first, last,
                        ", ".join(d.isoformat() for d in dropped))
            if not kept:
                raise ValueError(f"no zonal row falls inside the weather record "
                                 f"{first}..{last}")
            stats = kept

    rows_by_key: dict[tuple[str, str, str], list[ZonalStats]] = {}
    for s in stats:
        key = (s.parcel_id, s.band_name, s.orbit.value if s.orbit else "")
        rows_by_key.setdefault(key, []).append(s)
    series = {key: assemble_series(rows_by_key[key], abscissa=abscissa, cdd_series=cdd_series)
              for key in sorted(rows_by_key)}

    tables = SeasonTables()
    fits = []  # (parcel, orbit tag, fit r) of each fitted DpRVI series

    def correlate(a: TimeSeries, b: TimeSeries) -> Optional[CorrelationResult]:
        try:
            res = correlate_series(a, b, max_gap_days)
        except ValueError as e:
            log.warning("%s: %s vs %s skipped (%s)", a.parcel_id, a.index_name,
                        b.index_name, e)
            return None
        tables.correlation.append((res.series_a, res.series_b, a.parcel_id, a.orbit,
                                   res.n, res.r, res.max_gap_days))
        return res

    # the keys are sorted and "DpRVI" sorts before "LAI", "NDVI" and "SVHI",
    # so one pass gives every table its rows in file order
    for (parcel_id, band, orbit_tag), ts in series.items():
        if band == DPRVI_BAND_NAME:
            peak_date, _ = peak(ts)
            fitted = (None,) * 6
            try:
                fit = fit_parabola(ts)
                fits.append((parcel_id, orbit_tag, fit.r))
                fitted = (fit.r, fit.r_squared, fit.a, fit.b, fit.c, fit.vertex_x)
            except ValueError as e:
                log.warning("%s/%s %s: no fit (%s)", parcel_id, band, orbit_tag or "-", e)
            tables.trend.append((parcel_id, ts.orbit, peak_date, *fitted, len(ts.samples)))
            for opt_band in (LAI_BAND_NAME, NDVI_BAND_NAME, SVHI_BAND_NAME):
                opt = series.get((parcel_id, opt_band, ""))
                res = correlate(ts, opt) if opt is not None else None
                if res is not None and opt_band == LAI_BAND_NAME:
                    tables.scatter.extend(
                        (parcel_id, p.date_a, p.date_b, band, p.y_a, opt_band, p.y_b,
                         MONTH_ABBR[p.date_a.month - 1]) for p in res.pairs)
        elif band == NDVI_BAND_NAME and not orbit_tag:
            svhi = series.get((parcel_id, SVHI_BAND_NAME, ""))
            if svhi is not None:
                correlate(ts, svhi)

    orbit_tags = sorted({tag for _, tag, _ in fits})
    for orient in Orientation:
        for tag in orbit_tags:
            rs = [r for parcel_id, t, r in fits
                  if t == tag and orientation.get(parcel_id, Orientation.OTHER) is orient]
            if rs:
                tables.groups.append((orient, tag, sum(rs) / len(rs), len(rs)))
    return tables

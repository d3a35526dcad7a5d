"""Seasonal trend analysis over per-parcel index series.

The seasonal model is a downward parabola of the index against thermal time
(or day of year): growth up to a vertex, then senescence. Fits come from
least squares on centred, scaled x; fit quality is the Pearson correlation
between observed and fitted values, reported both as r and r squared.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .optical import LAI_BAND_NAME, NDVI_BAND_NAME, SVHI_BAND_NAME
from .parcels import Orientation, ZonalStats
from .raster import Orbit
from .sar import DPRVI_BAND_NAME
from .tables import write_table

log = logging.getLogger(__name__)

MONTH_ABBR = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
              "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

# relative threshold below which a variance counts as zero
_VAR_EPS = 1e-24


class Abscissa(str, Enum):
    DOY = "doy"
    CDD = "cdd"


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
    for s in stats:
        doy = s.timestamp.timetuple().tm_yday
        x = float(doy) if abscissa is Abscissa.DOY else float(cdd_series.cdd_on(s.timestamp))
        samples.append(Sample(s.timestamp, doy, x, s.mean))
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

    def predict(self, x: float) -> float:
        return (self.a * x + self.b) * x + self.c


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
    if len(np.unique(x)) < 3:
        raise ValueError(f"quadratic fit needs >= 3 distinct x values, "
                         f"got {len(np.unique(x))}")

    # fit y = p2 u^2 + p1 u + p0 on u = (x - x0) / s in [-1, 1], where the
    # basis is well conditioned, then expand back to the monomials in x
    x0 = float(x.mean())
    s = float(np.abs(x - x0).max())
    u = (x - x0) / s
    basis = np.stack([u * u, u, np.ones_like(u)], axis=1)
    p2, p1, p0 = np.linalg.lstsq(basis, y, rcond=None)[0]
    a = float(p2 / (s * s))
    b = float(p1 / s - 2.0 * a * x0)
    c = float(p0 - p1 * x0 / s + a * x0 * x0)

    yhat = (a * x + b) * x + c
    scale = max(1.0, float(np.abs(y).max()))
    var_y = float(((y - y.mean()) ** 2).mean())
    var_hat = float(((yhat - yhat.mean()) ** 2).mean())
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


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation; errors on n < 2 or a zero-variance input."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if len(x) < 2:
        raise ValueError("correlation needs at least two samples")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float((dx * dx).sum())
    syy = float((dy * dy).sum())
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("correlation undefined for a zero-variance input")
    r = float((dx * dy).sum()) / math.sqrt(sxx * syy)
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
    second series is used at most once.
    """
    if max_gap_days < 0:
        raise ValueError("max_gap_days must be >= 0")
    used = [False] * len(b.samples)
    pairs = []
    for sa in a.samples:
        best_i = -1
        best_gap = None
        for i, sb in enumerate(b.samples):
            if used[i]:
                continue
            gap = abs((sb.date - sa.date).days)
            if best_gap is None or gap < best_gap or (gap == best_gap
                                                      and sb.date < b.samples[best_i].date):
                best_i, best_gap = i, gap
        if best_i >= 0 and best_gap is not None and best_gap <= max_gap_days:
            used[best_i] = True
            sb = b.samples[best_i]
            pairs.append(PairedSample(sa.date, sb.date, sa.y, sb.y, best_gap))
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


SCATTER_CSV_HEADER = ("parcel_id", "date_a", "date_b", "index_a", "value_a",
                      "index_b", "value_b", "month")


def scatter_export(pairs: Sequence[PairedSample], parcel_id: str,
                   index_a: str, index_b: str) -> list[dict]:
    """Rows for a paired scatter plot, tagged with the month of the first date."""
    rows = []
    for p in pairs:
        rows.append({
            "parcel_id": parcel_id,
            "date_a": p.date_a.isoformat(),
            "date_b": p.date_b.isoformat(),
            "index_a": index_a,
            "value_a": p.y_a,
            "index_b": index_b,
            "value_b": p.y_b,
            "month": MONTH_ABBR[p.date_a.month - 1],
        })
    return rows


def write_scatter_csv(rows: Sequence[dict], path: str | Path) -> None:
    write_table(path, SCATTER_CSV_HEADER, (
        (row["parcel_id"], row["date_a"], row["date_b"],
         row["index_a"], float(row["value_a"]),
         row["index_b"], float(row["value_b"]), row["month"]) for row in rows))


TREND_CSV_HEADER = ("parcel_id", "orbit", "peak_date", "fit_r", "fit_r2",
                    "a", "b", "c", "vertex_x", "n")


def write_trend_csv(rows: Sequence[dict], path: str | Path) -> None:
    """Rows: parcel_id, orbit, peak_date, fit (may be None), n."""
    def cells(row: dict) -> tuple:
        fit: Optional[ParabolicFit] = row.get("fit")
        fitted = ((fit.r, fit.r_squared, fit.a, fit.b, fit.c, fit.vertex_x)
                  if fit else (None,) * 6)
        return (row["parcel_id"], row.get("orbit"), row["peak_date"], *fitted, row["n"])

    write_table(path, TREND_CSV_HEADER, map(cells, rows))


TREND_GROUPS_CSV_HEADER = ("orientation", "orbit", "mean_fit_r", "n_parcels")

CORRELATION_CSV_HEADER = ("index_a", "index_b", "parcel_id", "orbit",
                          "n", "r", "max_gap_days")


def write_correlation_csv(rows: Sequence[dict], path: str | Path) -> None:
    def cells(row: dict) -> tuple:
        res: CorrelationResult = row["result"]
        return (res.series_a, res.series_b, row["parcel_id"], row.get("orbit"),
                res.n, res.r, res.max_gap_days)

    write_table(path, CORRELATION_CSV_HEADER, map(cells, rows))


@dataclass
class SeasonTables:
    """The rows of the four season tables, each list in file order.

    ``trend``, ``correlation`` and ``scatter`` are the rows that
    write_trend_csv, write_correlation_csv and write_scatter_csv take; a
    ``groups`` row holds the cells of TREND_GROUPS_CSV_HEADER.
    """

    trend: list[dict] = field(default_factory=list)
    groups: list[tuple] = field(default_factory=list)
    correlation: list[dict] = field(default_factory=list)
    scatter: list[dict] = field(default_factory=list)


def season_tables(stats: Sequence[ZonalStats], orientation: dict[str, Orientation],
                  max_gap_days: int, abscissa: Abscissa | str,
                  cdd_series=None) -> SeasonTables:
    """The season analysis of zonal rows, as the rows of the four tables.

    The rows form one series per (parcel, band, orbit). Each DpRVI series
    gets its peak and parabolic fit, and is correlated with the parcel's
    LAI, NDVI and SVHI series; the LAI pairs are also the scatter rows. Each
    parcel's NDVI series is correlated with its SVHI series. Fit r is
    averaged by orientation (a parcel absent from ``orientation`` counts as
    Other) and orbit. On the degree-day abscissa, rows dated outside the
    weather record are dropped with one warning. A fit or a correlation
    that cannot be made is logged and left out.
    """
    abscissa = Abscissa(abscissa)
    if abscissa is Abscissa.CDD and cdd_series is not None:
        # an acquisition the weather record does not cover has no thermal
        # time; it is dropped so that it cannot stop every other fit
        kept = [s for s in stats if s.timestamp is None or cdd_series.covers(s.timestamp)]
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
        tables.correlation.append({"result": res, "parcel_id": a.parcel_id,
                                   "orbit": a.orbit})
        return res

    # the keys are sorted and "DpRVI" sorts before "LAI", "NDVI" and "SVHI",
    # so one pass gives every table its rows in file order
    for (parcel_id, band, orbit_tag), ts in series.items():
        if band == DPRVI_BAND_NAME:
            peak_date, _ = peak(ts)
            fit = None
            try:
                fit = fit_parabola(ts)
                fits.append((parcel_id, orbit_tag, fit.r))
            except ValueError as e:
                log.warning("%s/%s %s: no fit (%s)", parcel_id, band, orbit_tag or "-", e)
            tables.trend.append({"parcel_id": parcel_id, "orbit": ts.orbit,
                                 "peak_date": peak_date, "fit": fit, "n": len(ts.samples)})
            for opt_band in (LAI_BAND_NAME, NDVI_BAND_NAME, SVHI_BAND_NAME):
                opt = series.get((parcel_id, opt_band, ""))
                res = correlate(ts, opt) if opt is not None else None
                if res is not None and opt_band == LAI_BAND_NAME:
                    tables.scatter.extend(scatter_export(res.pairs, parcel_id, band, opt_band))
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

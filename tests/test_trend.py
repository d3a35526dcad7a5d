"""Quadratic fitting, correlation, peak finding and date pairing."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vinesar import schema, trend
from vinesar.parcels import Orientation, ZonalStats, load_parcels, read_zonal_csv
from vinesar.phenology import WeatherRecord, accumulate_cdd, load_weather_csv
from vinesar.raster import Orbit
from vinesar.tables import read_table, write_table
from vinesar.trend import (CORRELATION_CSV_HEADER, SCATTER_CSV_HEADER,
                           TREND_CSV_HEADER, Abscissa, CorrelationResult,
                           ParabolicFit, Sample, TimeSeries, assemble_series,
                           correlate_series, fit_parabola, fit_quadratic,
                           pair_dates, peak, pearson, season_tables,
                           write_correlation_csv, write_scatter_csv,
                           write_trend_csv)


def series(dates_values, pid="p", index="DpRVI", orbit=None):
    samples = [Sample(d, d.timetuple().tm_yday, float(d.timetuple().tm_yday), v)
               for d, v in dates_values]
    return TimeSeries(parcel_id=pid, index_name=index, orbit=orbit,
                      samples=samples)


def day(m, d):
    return dt.date(2023, m, d)


def pearson_oracle(xs, ys):
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def pair_oracle(a, b, max_gap):
    """Re-statement of the greedy matching rule, written against the
    documented behavior rather than the implementation."""
    remaining = list(b.samples)
    pairs = []
    for sa in sorted(a.samples, key=lambda s: s.date):
        if not remaining:
            break
        best = min(remaining, key=lambda sb: (abs((sb.date - sa.date).days),
                                              sb.date.toordinal()))
        gap = abs((best.date - sa.date).days)
        if gap <= max_gap:
            remaining.remove(best)
            pairs.append((sa.date, best.date, sa.y, best.y, gap))
    return pairs


class TestTimeSeries:
    def test_sorts_by_date(self):
        s = series([(day(6, 20), 0.7), (day(3, 28), 0.4), (day(5, 27), 0.6)])
        assert [x.date for x in s.samples] == [day(3, 28), day(5, 27), day(6, 20)]

    def test_rejects_duplicate_dates(self):
        with pytest.raises(ValueError, match="duplicate"):
            series([(day(6, 20), 0.7), (day(6, 20), 0.8)])


class TestAssembleSeries:
    def rows(self):
        return [ZonalStats("p1", "DpRVI", day(3, 28), Orbit.DESCENDING,
                           50, 0.4, 0.01, 0.3, 0.5),
                ZonalStats("p1", "DpRVI", day(6, 20), Orbit.DESCENDING,
                           50, 0.78, 0.01, 0.7, 0.8)]

    def test_doy_abscissa(self):
        s = assemble_series(self.rows(), Abscissa.DOY)
        assert s.parcel_id == "p1" and s.index_name == "DpRVI"
        assert s.orbit == Orbit.DESCENDING
        assert s.xs() == [87.0, 171.0]
        assert s.ys() == [0.4, 0.78]

    def test_cdd_abscissa(self):
        records = [WeatherRecord(dt.date(2023, 1, 1) + dt.timedelta(days=k),
                                 15.0, 25.0) for k in range(365)]
        cdd = accumulate_cdd(records)
        s = assemble_series(self.rows(), "cdd", cdd_series=cdd)
        assert s.xs() == [87.0 * 10.0, 171.0 * 10.0]

    def test_cdd_requires_series(self):
        with pytest.raises(ValueError):
            assemble_series(self.rows(), Abscissa.CDD)

    def test_rejects_mixed_rows(self):
        rows = self.rows()
        rows.append(ZonalStats("p2", "DpRVI", day(7, 20), Orbit.DESCENDING,
                               50, 0.5, 0.01, 0.4, 0.6))
        with pytest.raises(ValueError, match="mixed"):
            assemble_series(rows)

    def test_rejects_undated_rows(self):
        rows = [ZonalStats("p1", "NDVI", None, None, 5, 0.5, 0.0, 0.5, 0.5)]
        with pytest.raises(ValueError, match="date"):
            assemble_series(rows)


class TestFitQuadratic:
    def test_frozen_exact_parabola(self):
        fit = fit_quadratic([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert fit.a == pytest.approx(-1.0, abs=1e-12)
        assert fit.b == pytest.approx(2.0, abs=1e-12)
        assert fit.c == pytest.approx(0.0, abs=1e-12)
        assert fit.r == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.vertex_x == pytest.approx(1.0, abs=1e-12)

    def test_exact_recovery_of_random_parabolas(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            a, b, c = rng.normal(size=3)
            xs = np.sort(rng.uniform(-10, 10, size=int(rng.integers(3, 12))))
            if len(np.unique(xs)) < 3:
                continue
            ys = a * xs ** 2 + b * xs + c
            fit = fit_quadratic(xs, ys)
            assert fit.a == pytest.approx(a, rel=1e-7, abs=1e-9)
            assert fit.b == pytest.approx(b, rel=1e-7, abs=1e-9)
            assert fit.c == pytest.approx(c, rel=1e-7, abs=1e-9)
            if abs(np.ptp(ys)) > 1e-9:
                assert fit.r == pytest.approx(1.0, abs=1e-9)

    def test_matches_polyfit_on_noisy_data(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            n = int(rng.integers(4, 11))
            xs = rng.uniform(0, 200, size=n)
            while len(np.unique(xs)) < 3:
                xs = rng.uniform(0, 200, size=n)
            ys = rng.normal(scale=2.0, size=n) + 0.01 * xs
            fit = fit_quadratic(xs, ys)
            ref = np.polyfit(xs, ys, 2)
            assert fit.a == pytest.approx(ref[0], rel=1e-6, abs=1e-9)
            assert fit.b == pytest.approx(ref[1], rel=1e-6, abs=1e-9)
            assert fit.c == pytest.approx(ref[2], rel=1e-6, abs=1e-9)
            yhat = np.polyval(ref, xs)
            if np.ptp(yhat) > 1e-9 and np.ptp(ys) > 1e-9:
                assert fit.r == pytest.approx(pearson_oracle(ys, yhat), abs=1e-9)

    def test_constant_observations_convention(self, caplog):
        with caplog.at_level("WARNING"):
            fit = fit_quadratic([0.0, 1.0, 2.0, 3.0], [5.0, 5.0, 5.0, 5.0])
        # the fit reproduces the constant exactly, r is 1 by convention
        assert fit.r == 1.0
        assert fit.a == pytest.approx(0.0, abs=1e-9)
        assert caplog.records

    def test_flat_fit_convention(self, caplog):
        # antisymmetric data over symmetric x annihilates every monomial
        # moment, leaving the zero polynomial
        with caplog.at_level("WARNING"):
            fit = fit_quadratic([-3.0, -1.0, 1.0, 3.0], [1.0, -3.0, 3.0, -1.0])
        assert fit.a == pytest.approx(0.0, abs=1e-12)
        assert fit.r == 0.0
        assert caplog.records

    def test_vertex_none_for_linear_data(self):
        fit = fit_quadratic([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
        assert fit.a == pytest.approx(0.0, abs=1e-12)
        # a collapses to exactly zero only when rounding cooperates; accept
        # either a missing vertex or one far outside the data span
        if fit.a == 0.0:
            assert fit.vertex_x is None

    def test_rejects_underdetermined(self):
        with pytest.raises(ValueError):
            fit_quadratic([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            fit_quadratic([1.0, 2.0], [1.0, 2.0])

    def test_fit_parabola_wrapper(self):
        s = series([(day(3, 28), 0.0), (day(3, 29), 1.0), (day(3, 30), 0.0)])
        fit = fit_parabola(s)
        direct = fit_quadratic(s.xs(), s.ys())
        assert fit == direct
        assert isinstance(fit, ParabolicFit)


class TestPearson:
    def test_frozen_value(self):
        # hand-checked: covariance 8, variances 10 and 10 -> 0.8
        assert pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) == pytest.approx(
            0.8, abs=1e-15)

    def test_self_and_mirror(self):
        xs = [0.35, 0.52, 0.78, 0.61, 0.44]
        assert pearson(xs, xs) == 1.0
        assert pearson(xs, [-v for v in xs]) == -1.0

    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            xs = rng.normal(size=n).tolist()
            ys = (rng.normal(size=n) + 0.3 * np.asarray(xs)).tolist()
            if np.ptp(xs) == 0 or np.ptp(ys) == 0:
                continue
            want = pearson_oracle(xs, ys)
            assert pearson(xs, ys) == pytest.approx(want, abs=1e-12)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(54)
        for _ in range(100):
            xs = rng.normal(size=3)
            ys = xs * 1e8 + rng.normal(size=3) * 1e-8
            if np.ptp(ys) == 0:
                continue
            r = pearson(xs.tolist(), ys.tolist())
            assert -1.0 <= r <= 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])
        with pytest.raises(ValueError):
            pearson([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [3.0, 3.0])


class TestPeak:
    def test_maximum(self):
        s = series([(day(3, 28), 0.4), (day(6, 20), 0.78), (day(8, 19), 0.5)])
        assert peak(s) == (day(6, 20), 0.78)

    def test_tie_goes_to_earliest(self, caplog):
        s = series([(day(5, 27), 0.7), (day(6, 20), 0.7), (day(4, 21), 0.3)])
        with caplog.at_level("WARNING"):
            d, v = peak(s)
        assert (d, v) == (day(5, 27), 0.7)
        assert any("tie" in r.message.lower() for r in caplog.records)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            peak(TimeSeries("p", "DpRVI", None, []))


class TestPairDates:
    def test_frozen_example(self):
        a = series([(day(3, 28), 1.0), (day(4, 21), 2.0), (day(6, 20), 3.0)])
        b = series([(day(3, 27), 10.0), (day(4, 26), 20.0), (day(7, 25), 30.0)],
                   index="LAI")
        pairs = pair_dates(a, b, max_gap_days=7)
        assert [(p.date_a, p.date_b, p.gap_days) for p in pairs] == [
            (day(3, 28), day(3, 27), 1),
            (day(4, 21), day(4, 26), 5),
        ]
        assert pairs[0].y_a == 1.0 and pairs[0].y_b == 10.0

    def test_each_b_used_once(self):
        a = series([(day(5, 1), 1.0), (day(5, 2), 2.0)])
        b = series([(day(5, 1), 9.0)], index="LAI")
        pairs = pair_dates(a, b, max_gap_days=7)
        assert len(pairs) == 1
        assert pairs[0].date_a == day(5, 1)

    def test_tie_prefers_earlier_b(self):
        a = series([(day(5, 10), 1.0)])
        b = series([(day(5, 8), 8.0), (day(5, 12), 12.0)], index="LAI")
        pairs = pair_dates(a, b, max_gap_days=7)
        assert pairs[0].date_b == day(5, 8)

    def test_matches_oracle_on_random_series(self):
        rng = np.random.default_rng(55)
        for _ in range(80):
            na, nb = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            days_a = sorted(rng.choice(120, size=na, replace=False).tolist())
            days_b = sorted(rng.choice(120, size=nb, replace=False).tolist())
            a = series([(dt.date(2023, 3, 1) + dt.timedelta(days=int(d)), float(d))
                        for d in days_a])
            b = series([(dt.date(2023, 3, 1) + dt.timedelta(days=int(d)), float(d))
                        for d in days_b], index="LAI")
            gap = int(rng.integers(0, 15))
            got = [(p.date_a, p.date_b, p.y_a, p.y_b, p.gap_days)
                   for p in pair_dates(a, b, gap)]
            assert got == pair_oracle(a, b, gap)

    def test_rejects_negative_gap(self):
        a = series([(day(5, 1), 1.0)])
        with pytest.raises(ValueError):
            pair_dates(a, a, -1)


def old_pair_dates(a, b, max_gap_days):
    """pair_dates as the O(n*m) scan it replaced, kept as its reference."""
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
            pairs.append(trend.PairedSample(sa.date, sb.date, sa.y, sb.y, best_gap))
    return pairs


def old_pearson(xs, ys):
    """pearson on ndarray.mean and .sum, as it was before np.add.reduce."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float((dx * dx).sum())
    syy = float((dy * dy).sum())
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("correlation undefined for a zero-variance input")
    r = float((dx * dy).sum()) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def old_fit_quadratic(xs, ys):
    """(a, b, c, r, vertex_x) of fit_quadratic as it was before np.add.reduce."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
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
    if var_y <= 1e-24 * scale * scale:
        r = 1.0 if float(np.abs(y - yhat).max()) <= 1e-9 * scale else 0.0
    elif var_hat <= 1e-24 * scale * scale:
        r = 0.0
    else:
        r = old_pearson(y, yhat)
    return a, b, c, r, (-b / (2.0 * a) if a != 0.0 else None)


def bits(*values):
    """Values as their IEEE bit patterns, so -0.0 != 0.0 and NaN == NaN."""
    return [v if v is None else float(v).hex() for v in values]


season_days = st.lists(st.integers(0, 150), max_size=12, unique=True)


class TestAgainstOldKernels:
    @given(season_days, season_days, st.integers(0, 20))
    def test_pair_dates_matches_the_old_scan(self, days_a, days_b, gap):
        start = dt.date(2023, 3, 1)
        a = series([(start + dt.timedelta(days=d), float(d)) for d in days_a])
        b = series([(start + dt.timedelta(days=d), -float(d)) for d in days_b], index="LAI")
        assert pair_dates(a, b, gap) == old_pair_dates(a, b, gap)

    @pytest.mark.parametrize("days_a, days_b", [
        ([10], [8, 12]),                 # tie between an earlier and a later date
        ([10, 11], [8, 12]),             # the tie's winner is used, the next takes the other
        ([10, 12, 14], [12]),            # one date nearest to three, used once
        ([5, 6, 7, 8], [6, 7, 20]),      # neighbours used up on both sides
        ([1, 30], [15]),                 # a tie at the gap limit
    ])
    def test_pair_dates_ties_and_reused_dates(self, days_a, days_b):
        start = dt.date(2023, 5, 1)
        a = series([(start + dt.timedelta(days=d), float(d)) for d in days_a])
        b = series([(start + dt.timedelta(days=d), float(d)) for d in days_b], index="LAI")
        for gap in (0, 1, 2, 7, 14, 40):
            assert pair_dates(a, b, gap) == old_pair_dates(a, b, gap)

    def test_pearson_and_fit_are_bit_equal_to_the_mean_based_originals(self, caplog):
        rng = np.random.default_rng(91)
        fits = 0
        for k in range(600):
            n = int(rng.integers(3, 41))
            x = np.sort(rng.uniform(0.0, 2000.0, n))
            if k % 5 == 0:
                x = np.round(x / 300.0) * 300.0  # repeated abscissae
            y = rng.normal(0.4, 0.2, n) + rng.normal() * 1e-4 * (x - x.mean()) ** 2
            if k % 37 == 0:
                y = np.full(n, 0.25)  # constant observations
            xs, ys = x.tolist(), y.tolist()
            if np.ptp(x) > 0 and np.ptp(y) > 0:
                assert bits(pearson(xs, ys)) == bits(old_pearson(xs, ys))
            if len(np.unique(x)) < 3:
                continue
            fit = fit_quadratic(xs, ys)
            got = (fit.a, fit.b, fit.c, fit.r, fit.vertex_x)
            assert bits(*got) == bits(*old_fit_quadratic(xs, ys))
            assert bits(fit.r_squared) == bits(fit.r * fit.r)
            fits += 1
        assert fits > 400


    @given(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.nan])),
                    max_size=12))
    def test_distinct_count_is_the_length_of_np_unique(self, values):
        x = np.array(values, dtype=np.float64)
        assert trend._distinct_count(x) == len(np.unique(x))


class TestCorrelateSeries:
    def test_perfect_tracking(self):
        a = series([(day(m, 1), float(m)) for m in range(3, 9)])
        b = series([(day(m, 3), 2.0 * m + 1.0) for m in range(3, 9)], index="LAI")
        res = correlate_series(a, b, max_gap_days=7)
        assert res.n == 6
        assert res.r == pytest.approx(1.0, abs=1e-12)
        assert res.series_a == "DpRVI" and res.series_b == "LAI"
        assert res.max_gap_days == 7

    def test_too_few_pairs_errors(self):
        a = series([(day(3, 1), 1.0), (day(8, 1), 2.0)])
        b = series([(day(3, 2), 1.0), (day(5, 1), 2.0)], index="LAI")
        with pytest.raises(ValueError):
            correlate_series(a, b, max_gap_days=3)


class TestCsvWriters:
    def test_trend_csv_schema_and_blank_fit(self, tmp_path):
        fit = fit_quadratic([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        rows = [
            ("p1", Orbit.ASCENDING, day(6, 21),
             fit.r, fit.r_squared, fit.a, fit.b, fit.c, fit.vertex_x, 6),
            ("p2", None, day(6, 20), *(None,) * 6, 2),
        ]
        path = tmp_path / "trend.csv"
        write_trend_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(TREND_CSV_HEADER)
        first = lines[1].split(",")
        assert first[0] == "p1" and first[1] == "ASC"
        assert first[2] == "2023-06-21"
        assert float(first[3]) == fit.r
        assert first[9] == "6"
        second = lines[2].split(",")
        assert second[1] == "" and second[3] == "" and second[8] == ""

    def test_correlation_csv(self, tmp_path):
        res = CorrelationResult("DpRVI", "LAI", 6, 0.87, 7)
        path = tmp_path / "correlation.csv"
        write_correlation_csv([(res.series_a, res.series_b, "p1", Orbit.DESCENDING,
                                res.n, res.r, res.max_gap_days)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CORRELATION_CSV_HEADER)
        assert lines[1] == "DpRVI,LAI,p1,DES,6,0.87,7"

    def test_scatter_round_trip(self, tmp_path):
        a = series([(day(3, 28), 0.41), (day(7, 20), 0.733)])
        b = series([(day(3, 27), 0.30), (day(7, 25), 2.41)], index="LAI")
        rows = [("p1", p.date_a, p.date_b, "DpRVI", p.y_a, "LAI", p.y_b,
                 trend.MONTH_ABBR[p.date_a.month - 1]) for p in pair_dates(a, b, 7)]
        assert [r[7] for r in rows] == ["Mar", "Jul"]
        path = tmp_path / "scatter.csv"
        write_scatter_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(SCATTER_CSV_HEADER)
        back = read_table(path, SCATTER_CSV_HEADER,
                          lambda cells: dict(zip(SCATTER_CSV_HEADER, cells)))
        assert float(back[0]["value_a"]) == 0.41
        assert float(back[1]["value_b"]) == 2.41
        assert back[0]["date_b"] == "2023-03-27"

    def test_month_names_are_locale_independent(self):
        rows = [zrow("p", band, dt.date(2023, m, 15), float(m), orbit)
                for band, orbit in (("DpRVI", Orbit.DESCENDING), ("LAI", None))
                for m in range(1, 13)]
        tables = season_tables(rows, {}, 0, Abscissa.DOY)
        assert [r[7] for r in tables.scatter] == ["Jan", "Feb", "Mar", "Apr", "May",
                                                  "Jun", "Jul", "Aug", "Sep", "Oct",
                                                  "Nov", "Dec"]


def zrow(pid, band, date, mean, orbit=None):
    return ZonalStats(pid, band, date, orbit, 10, mean, 0.0, mean, mean)


DES, ASC = Orbit.DESCENDING, Orbit.ASCENDING
OPTICAL_DATES = (day(3, 27), day(5, 29), day(6, 22), day(7, 25))
SEASON_ROWS = (
    [zrow("p1", "DpRVI", d, v, DES) for d, v in
     ((day(3, 28), 0.40), (day(5, 27), 0.66), (day(6, 20), 0.75), (day(7, 20), 0.62))]
    + [zrow("p1", "DpRVI", d, v, ASC) for d, v in ((day(3, 29), 0.42), (day(6, 21), 0.77))]
    + [zrow("p1", "LAI", d, v) for d, v in zip(OPTICAL_DATES, (0.5, 2.0, 2.6, 2.2))]
    + [zrow("p1", "NDVI", d, v) for d, v in zip(OPTICAL_DATES, (0.30, 0.60, 0.70, 0.65))]
    + [zrow("p1", "SVHI", d, v) for d, v in zip(OPTICAL_DATES, (0.20, 0.45, 0.60, 0.50))]
    + [zrow("p2", "DpRVI", d, v, DES) for d, v in
       ((day(3, 28), 0.35), (day(5, 27), 0.60), (day(6, 20), 0.70), (day(7, 20), 0.66))]
    + [zrow("p2", "NDVI", d, v) for d, v in
       ((day(3, 27), 0.30), (day(6, 22), 0.70), (day(7, 25), 0.60))]
    + [zrow("p3", "DpRVI", d, v, DES) for d, v in
       ((day(3, 28), 0.30), (day(5, 27), 0.55), (day(6, 20), 0.72), (day(7, 20), 0.50))]
    + [zrow("p3", "LAI", day(8, 30), 1.0)]
)


class TestSeasonTables:
    """season_tables on hand-built zonal rows, on the day-of-year abscissa."""

    orientation = {"p1": Orientation.EW, "p3": Orientation.EW}  # p2 counts as Other

    def tables(self, rows=SEASON_ROWS):
        return season_tables(list(reversed(rows)), self.orientation, 7, Abscissa.DOY)

    def doy_fit(self, pid):
        rows = [s for s in SEASON_ROWS
                if (s.parcel_id, s.band_name, s.orbit) == (pid, "DpRVI", DES)]
        return fit_quadratic([float(s.timestamp.timetuple().tm_yday) for s in rows],
                             [s.mean for s in rows])

    def test_trend_rows(self):
        def cells(fit):
            return (fit.r, fit.r_squared, fit.a, fit.b, fit.c, fit.vertex_x)

        assert self.tables().trend == [
            ("p1", ASC, day(6, 21), *(None,) * 6, 2),  # two dates cannot be fitted
            ("p1", DES, day(6, 20), *cells(self.doy_fit("p1")), 4),
            ("p2", DES, day(6, 20), *cells(self.doy_fit("p2")), 4),
            ("p3", DES, day(6, 20), *cells(self.doy_fit("p3")), 4)]

    def test_group_rows(self):
        r1, r2, r3 = (self.doy_fit(p).r for p in ("p1", "p2", "p3"))
        assert self.tables().groups == [(Orientation.EW, "DES", (r1 + r3) / 2, 2),
                                        (Orientation.OTHER, "DES", r2, 1)]

    def test_correlation_rows(self):
        rows = self.tables().correlation
        got = [r[:5] for r in rows]
        # p3's only LAI date is 41 days from its radar dates: no pair, no row
        assert got == [("DpRVI", "LAI", "p1", ASC, 2), ("DpRVI", "NDVI", "p1", ASC, 2),
                       ("DpRVI", "SVHI", "p1", ASC, 2), ("DpRVI", "LAI", "p1", DES, 4),
                       ("DpRVI", "NDVI", "p1", DES, 4), ("DpRVI", "SVHI", "p1", DES, 4),
                       ("NDVI", "SVHI", "p1", None, 4), ("DpRVI", "NDVI", "p2", DES, 3)]
        assert {r[6] for r in rows} == {7}
        assert rows[3][5] == pytest.approx(
            pearson_oracle([0.40, 0.66, 0.75, 0.62], [0.5, 2.0, 2.6, 2.2]), abs=1e-12)
        assert rows[7][5] == pytest.approx(
            pearson_oracle([0.35, 0.70, 0.66], [0.30, 0.70, 0.60]), abs=1e-12)

    def test_scatter_rows(self):
        assert self.tables().scatter == [
            ("p1", day(3, 29), day(3, 27), "DpRVI", 0.42, "LAI", 0.5, "Mar"),
            ("p1", day(6, 21), day(6, 22), "DpRVI", 0.77, "LAI", 2.6, "Jun"),
            ("p1", day(3, 28), day(3, 27), "DpRVI", 0.40, "LAI", 0.5, "Mar"),
            ("p1", day(5, 27), day(5, 29), "DpRVI", 0.66, "LAI", 2.0, "May"),
            ("p1", day(6, 20), day(6, 22), "DpRVI", 0.75, "LAI", 2.6, "Jun"),
            ("p1", day(7, 20), day(7, 25), "DpRVI", 0.62, "LAI", 2.2, "Jul")]

    def test_rows_outside_weather_record_are_dropped(self, caplog):
        records = [WeatherRecord(day(1, 1) + dt.timedelta(days=k), 15.0, 25.0)
                   for k in range(day(7, 21).timetuple().tm_yday)]
        cdd = accumulate_cdd(records)
        inside = [s for s in SEASON_ROWS if s.timestamp <= day(7, 21)]
        got = season_tables(SEASON_ROWS, self.orientation, 7, Abscissa.CDD, cdd)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"
                    and "weather record" in r.getMessage()]
        assert len(warnings) == 1
        assert "dropped 5 zonal rows" in warnings[0]
        assert warnings[0].endswith("2023-07-25, 2023-08-30")
        assert got == season_tables(inside, self.orientation, 7, Abscissa.CDD, cdd)
        with pytest.raises(ValueError, match="inside the weather record"):
            season_tables(SEASON_ROWS, self.orientation, 7, Abscissa.CDD,
                          accumulate_cdd(records[:30]))

    def test_campaign_pairs_each_series_once(self, campaign_run, tmp_path, monkeypatch):
        root, out = campaign_run["root"], campaign_run["out"]
        stats = read_zonal_csv(out / "zonal.csv")
        cdd = accumulate_cdd(load_weather_csv(root / "weather.csv"), 10.0)
        orientation = {p.id: p.orientation for p in load_parcels(root / "parcels.geojson")}
        calls = []
        real = trend.pair_dates

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(trend, "pair_dates", counted)
        tables = season_tables(stats, orientation, 7, Abscissa.CDD, cdd)
        # 12 parcels x (DpRVI on 2 orbits x LAI, NDVI, SVHI + NDVI x SVHI); the
        # scatter rows reuse the DpRVI x LAI pairs
        assert len(calls) == 84
        write_trend_csv(tables.trend, tmp_path / "trend.csv")
        write_correlation_csv(tables.correlation, tmp_path / "correlation.csv")
        write_scatter_csv(tables.scatter, tmp_path / "scatter.csv")
        write_table(tmp_path / "trend_groups.csv", schema.TREND_GROUPS_CSV_HEADER,
                    tables.groups)
        for name in ("trend.csv", "correlation.csv", "scatter.csv", "trend_groups.csv"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()

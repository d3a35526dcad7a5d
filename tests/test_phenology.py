"""Thermal-time accumulation, weather ingestion and the biomass proxy."""

import datetime as dt
import math

import numpy as np
import pytest

from vinesar.phenology import (DEFAULT_BASE_TEMP_C, DegreeDaySeries,
                               WeatherRecord, accumulate_cdd, biomass_proxy,
                               fit_cdd_vs_doy, gdd, load_weather_csv,
                               write_degree_days_csv)


def rec(day, tmin, tmax, month=5, precip=None):
    return WeatherRecord(date=dt.date(2023, month, day), tmin_c=tmin,
                         tmax_c=tmax, precip_mm=precip)


class TestGdd:
    def test_frozen_values(self):
        # mean 25 over base 10 -> 15
        assert gdd(30.0, 20.0) == pytest.approx(15.0, abs=1e-15)
        # mean 6 clips at zero
        assert gdd(8.0, 4.0) == 0.0
        # mean exactly at base -> 0
        assert gdd(15.0, 5.0) == 0.0
        # custom base
        assert gdd(8.0, 4.0, t_base_c=5.0) == pytest.approx(1.0, abs=1e-15)

    def test_default_base_is_ten(self):
        assert DEFAULT_BASE_TEMP_C == 10.0
        assert gdd(20.0, 10.0) == gdd(20.0, 10.0, t_base_c=10.0)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            gdd(10.0, 15.0)

    def test_never_negative(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            lo = float(rng.uniform(-30, 35))
            hi = lo + float(rng.uniform(0, 20))
            assert gdd(hi, lo) >= 0.0


class TestAccumulate:
    def test_frozen_series(self):
        # daily means 12, 9, 15 over base 10 -> gdd 2, 0, 5 -> cdd 2, 2, 7
        records = [rec(1, 12.0, 12.0), rec(2, 9.0, 9.0), rec(3, 15.0, 15.0)]
        series = accumulate_cdd(records, start=dt.date(2023, 5, 1))
        got = [(e.gdd, e.cdd) for e in series.entries]
        assert got == [(2.0, 2.0), (0.0, 2.0), (5.0, 7.0)]

    def test_default_start_is_jan_first(self):
        series = accumulate_cdd([rec(1, 20.0, 20.0)])
        assert series.entries[0].date == dt.date(2023, 1, 1)
        assert series.entries[0].doy == 1
        assert series.entries[-1].date == dt.date(2023, 5, 1)
        assert series.entries[-1].doy == 121
        # all missing days contribute zero, the one record contributes 10
        assert series.entries[-1].cdd == pytest.approx(10.0)
        assert series.entries[-2].cdd == 0.0

    def test_gap_days_count_zero(self, caplog):
        records = [rec(1, 14.0, 14.0), rec(4, 14.0, 14.0)]
        with caplog.at_level("WARNING"):
            series = accumulate_cdd(records, start=dt.date(2023, 5, 1))
        cdds = [e.cdd for e in series.entries]
        assert cdds == [4.0, 4.0, 4.0, 8.0]
        assert sum("gap" in r.message.lower() or "missing" in r.message.lower()
                   for r in caplog.records) == 1

    def test_monotone_on_random_series(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 120))
            day0 = dt.date(2023, 1, 1) + dt.timedelta(days=int(rng.integers(0, 60)))
            records = []
            d = day0
            for _ in range(n):
                lo = float(rng.uniform(-10, 25))
                records.append(WeatherRecord(d, lo, lo + float(rng.uniform(0, 15))))
                d += dt.timedelta(days=int(rng.integers(1, 4)))
            series = accumulate_cdd(records, start=day0)
            cdds = [e.cdd for e in series.entries]
            assert all(b >= a for a, b in zip(cdds, cdds[1:]))
            # last cdd equals the fsum of the gdd column
            assert cdds[-1] == pytest.approx(
                math.fsum(e.gdd for e in series.entries), rel=1e-12)

    def test_rejects_start_after_records(self):
        with pytest.raises(ValueError):
            accumulate_cdd([rec(1, 12.0, 12.0)], start=dt.date(2023, 6, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            accumulate_cdd([])


class TestLookup:
    def series(self):
        records = [rec(d, 15.0, 25.0) for d in range(1, 11)]
        return accumulate_cdd(records, start=dt.date(2023, 5, 1))

    def test_exact_days(self):
        s = self.series()
        assert s.cdd_on(dt.date(2023, 5, 1)) == 10.0
        assert s.cdd_on(dt.date(2023, 5, 10)) == 100.0
        assert s.cdd_on(dt.date(2023, 5, 5)) == 50.0

    def test_outside_range_raises(self):
        s = self.series()
        with pytest.raises(ValueError):
            s.cdd_on(dt.date(2023, 4, 30))
        with pytest.raises(ValueError):
            s.cdd_on(dt.date(2023, 5, 11))


class TestWeatherCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "weather.csv"
        p.write_text(text)
        return p

    def test_round_trip(self, tmp_path):
        p = self.write(tmp_path, "date,tmin_c,tmax_c,precip_mm\n"
                                 "2023-01-01,2.0,8.5,0.0\n"
                                 "2023-01-02,-1.5,4.0,12.25\n"
                                 "2023-01-04,0.0,6.0,\n")
        records = load_weather_csv(p)
        assert len(records) == 3
        assert records[0] == WeatherRecord(dt.date(2023, 1, 1), 2.0, 8.5, 0.0)
        assert records[1].tmin_c == -1.5
        assert records[2].precip_mm is None

    def test_precip_column_optional(self, tmp_path):
        p = self.write(tmp_path, "date,tmin_c,tmax_c\n2023-01-01,2.0,8.5\n")
        records = load_weather_csv(p)
        assert records[0].precip_mm is None

    def test_rejects_missing_column(self, tmp_path):
        p = self.write(tmp_path, "date,tmax_c\n2023-01-01,8.5\n")
        with pytest.raises(ValueError, match="tmin_c"):
            load_weather_csv(p)

    def test_rejects_unsorted_dates(self, tmp_path):
        p = self.write(tmp_path, "date,tmin_c,tmax_c\n"
                                 "2023-01-02,2.0,8.5\n"
                                 "2023-01-01,2.0,8.5\n")
        with pytest.raises(ValueError):
            load_weather_csv(p)

    def test_error_names_the_row(self, tmp_path):
        p = self.write(tmp_path, "date,tmin_c,tmax_c\n"
                                 "2023-01-01,2.0,8.5\n"
                                 "2023-01-02,oops,8.5\n")
        with pytest.raises(ValueError, match="3"):
            load_weather_csv(p)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            WeatherRecord(dt.date(2023, 1, 1), 5.0, 2.0)
        with pytest.raises(ValueError):
            WeatherRecord(dt.date(2023, 1, 1), math.nan, 2.0)
        with pytest.raises(ValueError):
            WeatherRecord(dt.date(2023, 1, 1), 1.0, 2.0, precip_mm=-1.0)


class TestDegreeDaysCsv:
    def test_schema_and_values(self, tmp_path):
        records = [rec(1, 12.0, 12.0), rec(2, 9.0, 9.0), rec(3, 15.0, 15.0)]
        series = accumulate_cdd(records, start=dt.date(2023, 5, 1))
        out = tmp_path / "degree_days.csv"
        write_degree_days_csv(series, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "date,doy,gdd,cdd"
        assert lines[1] == "2023-05-01,121,2.0,2.0"
        assert lines[3] == "2023-05-03,123,5.0,7.0"


class TestBiomassProxy:
    def test_square_root_shape(self):
        records = [rec(d, 15.0, 25.0) for d in range(1, 5)]
        series = accumulate_cdd(records, start=dt.date(2023, 5, 1))
        proxy = biomass_proxy(series, k_biom=2.0)
        got = [e.bb for e in proxy.entries]
        want = [2.0 * math.sqrt(10.0 * d) for d in range(1, 5)]
        assert got == pytest.approx(want, rel=1e-12)
        assert [e.date for e in proxy.entries] == [e.date for e in series.entries]

    def test_rejects_nonpositive_scale(self):
        records = [rec(1, 15.0, 25.0)]
        series = accumulate_cdd(records, start=dt.date(2023, 5, 1))
        with pytest.raises(ValueError):
            biomass_proxy(series, k_biom=0.0)


class TestCddDoyDiagnostic:
    def test_constant_warm_days_fit_quadratic(self):
        # constant gdd g from a start at doy 1 gives cdd(doy) = g * doy,
        # so a ramp in gdd gives cdd growing like doy^2
        records = []
        d = dt.date(2023, 1, 1)
        for k in range(120):
            mean = 10.0 + 0.2 * k
            records.append(WeatherRecord(d, mean - 2.0, mean + 2.0))
            d += dt.timedelta(days=1)
        series = accumulate_cdd(records)
        fit = fit_cdd_vs_doy(series)
        assert fit.r >= 0.99
        assert fit.a > 0.0

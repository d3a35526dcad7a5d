"""The CSV table codec: cell rendering, atomic writes and row checks."""

import csv
import datetime as dt
import math
import tempfile
import threading
from enum import Enum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vinesar.parcels import Orientation
from vinesar.raster import Orbit
from vinesar.tables import atomic_open, read_table, temp_path, write_table


def old_cell(value: object) -> object:
    """How write_table rendered a cell before it gave cells to csv.writer
    as they are; kept as the reference the new writer must match."""
    kind = type(value)
    if kind is float:
        return repr(value)
    if kind is str or kind is int:
        return value
    if value is None:
        return ""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, dt.date):
        return value.isoformat()
    return value


def old_write_table(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([old_cell(v) for v in row])


class Mark(str, Enum):
    PLAIN = "plain"
    AWKWARD = 'a,"b"\nc'


SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072009e-308,
                  2.2250738585072014e-308, 1e16, 1e-5, 1e-4, 0.1, 1 / 3, 1.7976931348623157e308]

floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
cells = st.one_of(
    floats,
    floats.map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    st.sampled_from(SPECIAL_FLOATS),
    st.sampled_from(SPECIAL_FLOATS).map(np.float64),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.none(),
    st.sampled_from([*Orbit, *Orientation, *Mark]),
    st.dates(),
    st.text(),
    st.sampled_from(["a,b", 'say "hi"', '"', "", " ", "x\r\ny"]),
)


class TestWriteTable:
    @settings(max_examples=300)
    @given(st.lists(st.lists(cells, min_size=1, max_size=6), max_size=8))
    @example([[v, np.float64(v)] for v in SPECIAL_FLOATS])
    def test_writes_what_the_old_cell_rendering_wrote(self, rows):
        header = [f"c{k}" for k in range(max((len(r) for r in rows), default=1))]
        with tempfile.TemporaryDirectory() as d:
            new, old = Path(d) / "new.csv", Path(d) / "old.csv"
            write_table(new, header, rows)
            old_write_table(old, header, rows)
            assert new.read_bytes() == old.read_bytes()

    def test_floats_read_back_bit_for_bit(self, tmp_path):
        values = [v for v in SPECIAL_FLOATS if not math.isnan(v)]
        write_table(tmp_path / "t.csv", ["v", "w"], [(v, np.float64(v)) for v in values])
        back = read_table(tmp_path / "t.csv", ["v", "w"], list)
        for v, row in zip(values, back):
            for cell in row:
                assert math.copysign(1, float(cell)) == math.copysign(1, v)
                assert float(cell) == v

    def test_leaves_no_temporary_behind(self, tmp_path):
        write_table(tmp_path / "t.csv", ["a"], [(1,), (2,)])
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
        assert (tmp_path / "t.csv").read_bytes() == b"a\r\n1\r\n2\r\n"

    def test_failed_write_keeps_the_old_table(self, tmp_path):
        target = tmp_path / "t.csv"
        write_table(target, ["a"], [(1,)])
        before = target.read_bytes()

        def rows():
            yield (2,)
            raise RuntimeError("stage killed mid-write")

        with pytest.raises(RuntimeError, match="mid-write"):
            write_table(target, ["a"], rows())
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


class TestAtomicOpen:
    def test_error_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "report.txt"
        target.write_text("old")
        with pytest.raises(ValueError):
            with atomic_open(target) as f:
                f.write("half")
                raise ValueError("interrupted")
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]

    def test_temporaries_differ_per_thread(self, tmp_path):
        names = []
        t = threading.Thread(target=lambda: names.append(temp_path(tmp_path / "x")))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        names.append(temp_path(tmp_path / "x"))
        assert names[0] != names[1]
        assert all(n.parent == tmp_path and n.name.startswith(".x.") for n in names)


class TestReadTable:
    def write(self, path: Path, text: str) -> Path:
        path.write_text(text)
        return path

    def test_rows_keyed_by_column(self, tmp_path):
        path = self.write(tmp_path / "t.csv", "a,b\n1,x\n\n2,\n")
        rows = read_table(path, ["a", "b"], lambda cells: dict(zip(["a", "b"], cells)))
        assert rows == [{"a": "1", "b": "x"}, {"a": "2", "b": ""}]

    @pytest.mark.parametrize("line", ["1", "1,2,3", "1,2,"])
    def test_wrong_cell_count_names_file_and_line(self, tmp_path, line):
        path = self.write(tmp_path / "t.csv", f"a,b\n1,2\n{line}\n3,4\n")
        with pytest.raises(ValueError) as exc:
            read_table(path, ["a", "b"], list)
        assert str(exc.value) == (f"{path}, line 3: {len(line.split(','))} cells, "
                                  "expected 2")

    @pytest.mark.parametrize("text", ["", "a\n1\n", "b,a\n1,2\n"])
    def test_wrong_header_names_file(self, tmp_path, text):
        path = self.write(tmp_path / "t.csv", text)
        with pytest.raises(ValueError, match="unexpected CSV header") as exc:
            read_table(path, ["a", "b"], list)
        assert str(path) in str(exc.value)

    def test_reports_physical_lines(self, tmp_path):
        # a quoted cell spanning two lines pushes the next row to line 4
        path = self.write(tmp_path / "t.csv", 'a,b\n"multi\nline",1\n2,x\n')
        with pytest.raises(ValueError) as exc:
            read_table(path, ["a", "b"], lambda cells: [int(c) for c in cells[1:]])
        assert str(exc.value) == (f"{path}, line 4: invalid literal for int() "
                                  "with base 10: 'x'")

"""CSV tables: the one place that knows how a cell is written and read.

Floats are written with ``repr`` so they read back bit for bit, ``None`` as
an empty cell, enums as their value and dates as ISO strings. Reading
checks the header against the expected columns; callers convert the cell
strings to their column types, an empty cell meaning a missing value.
"""

from __future__ import annotations

import csv
import datetime as dt
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence


def _cell(value: object) -> object:
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
        # repr of a numpy float64 under numpy 2 is "np.float64(...)"
        return repr(float(value))
    if isinstance(value, dt.date):
        return value.isoformat()
    return value


def write_table(path: str | Path, header: Sequence[str],
                rows: Iterable[Sequence[object]]) -> None:
    """Write ``header`` and then one line per row, cells in header order."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])


def read_table(path: str | Path, header: Sequence[str]) -> list[dict[str, str]]:
    """Rows of a table written by write_table, keyed by column name.

    Raises ValueError when the file's header is not exactly ``header``.
    """
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if tuple(reader.fieldnames or ()) != tuple(header):
            raise ValueError(f"{path}: unexpected CSV header {reader.fieldnames}, "
                             f"expected {list(header)}")
        return list(reader)

"""CSV tables: the one place that knows how a cell is written and read.

Cells go to ``csv.writer`` as they are. It writes a float (numpy's float64
too) in its shortest round-trip form, so it reads back bit for bit, ``None``
as an empty cell, a str enum as its value and a date as its ISO string.
Reading checks the header against the expected columns and each row's cell
count, and hands each row's cell strings to the caller's converter, an empty
cell meaning a missing value; every error names the file and line. Writes
are atomic: a table is written to a temporary sibling and renamed over the
target, so a reader never sees half a file.
"""

from __future__ import annotations

import contextlib
import csv
import os
import threading
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")


def temp_path(path: Path) -> Path:
    """Hidden sibling of ``path`` to write it under before renaming: one per
    process and thread, so concurrent writers never share a file."""
    return path.with_name(f".{path.name}.{os.getpid()}.{threading.get_native_id()}.tmp")


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open a temporary sibling of ``path`` for writing, with ``open``'s mode
    and keyword arguments, and rename it over ``path`` when the block ends
    without an error; on an error the target is untouched. Every file
    vinesar writes goes through here."""
    target = Path(path)
    tmp = temp_path(target)
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def write_table(path: str | Path, header: Sequence[str],
                rows: Iterable[Sequence[object]]) -> None:
    """Write ``header`` and then one line per row, cells in header order."""
    with atomic_open(path, newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def read_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """(physical line, cells) of each row of the CSV file ``path``. A row csv
    cannot parse, such as one with a cell over its field size limit, is a
    ValueError naming the file and line."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as e:
            raise ValueError(f"{path}, line {reader.line_num}: {e}") from None


def read_table(path: str | Path, header: Sequence[str],
               convert: Callable[[list[str]], T]) -> list[T]:
    """``convert(cells)`` of each row of a table written by write_table.

    Blank lines are skipped. Raises ValueError naming ``path`` when the
    header is not exactly ``header``, and naming its physical line as well
    when a row has the wrong number of cells, csv cannot parse it or
    ``convert`` raises one.
    """
    with contextlib.closing(read_rows(path)) as rows:
        _, found = next(rows, (0, None))
        if found != list(header):
            raise ValueError(f"{path}: unexpected CSV header {found}, "
                             f"expected {list(header)}")
        width = len(header)
        out = []
        for line, row in rows:
            if len(row) != width:
                if not row:
                    continue
                raise ValueError(f"{path}, line {line}: {len(row)} cells, expected {width}")
            try:
                out.append(convert(row))
            except ValueError as e:
                raise ValueError(f"{path}, line {line}: {e}") from None
        return out

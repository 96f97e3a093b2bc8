"""The two artifact formats, CSV tables and JSON records, and checked CSV reading.

A CSV cell holds a float as its round-trip `repr` and anything else as the
csv module prints it, so a float column reads back bit for bit.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager


def cell(value):
    return repr(float(value)) if isinstance(value, float) else value


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([cell(v) for v in row] for row in rows)


@contextmanager
def open_csv(path):
    """`path` opened for the csv module to read.  A byte that the text
    encoding cannot decode raises ValueError naming the file."""
    with open(path, newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: byte 0x{exc.object[exc.start]:02x} is not "
                             f"{exc.encoding} text: {exc.reason}") from None


def read_rows(fh, path, header, parse, lines_before: int = 0) -> list:
    """`parse(row)` for each non-empty row after the header of an open CSV file.

    A missing or wrong header, a row without one cell per column, or a
    ValueError from `parse` raises ValueError naming `path` and the line
    (`lines_before` counts the lines read from `fh` before the header).
    """
    reader = csv.reader(fh)
    found = next(reader, [])
    if found != list(header):
        raise ValueError(f"{path}: expected header {','.join(header)}, got {found}")
    parsed = []
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} cells, got {len(row)}")
            parsed.append(parse(row))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lines_before + reader.line_num}: {exc}") from None
    return parsed


def write_json(path, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

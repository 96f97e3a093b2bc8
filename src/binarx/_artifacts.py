"""The two artifact formats, CSV tables and JSON records, and checked input reading.

A CSV cell holds a float as its round-trip `repr` and anything else as the
csv module prints it, so a float column reads back bit for bit.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager

from .exceptions import BinarxError, ConfigError


def cell(value):
    return repr(float(value)) if isinstance(value, float) else value


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([cell(v) for v in row] for row in rows)


@contextmanager
def naming(path):
    """Put the input file `path` in front of an error that reading or working
    on its data raises: a byte the text encoding cannot decode, a ValueError
    or a BinarxError becomes a ValueError naming the file.  A ConfigError
    names its field already and passes through."""
    try:
        yield
    except ConfigError:
        raise
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte 0x{exc.object[exc.start]:02x} is not "
                         f"{exc.encoding} text: {exc.reason}") from None
    except (BinarxError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


@contextmanager
def open_csv(path):
    """`path` opened for the csv module to read, inside `naming(path)`."""
    with naming(path), open(path, newline="") as fh:
        yield fh


def read_rows(fh, header, parse) -> list:
    """`parse(row)` for each non-empty row after the header of an open CSV file.

    A missing or wrong header, a row without one cell per column, or a
    ValueError from `parse` raises ValueError, naming the line for a row.
    """
    reader = csv.reader(fh)
    found = next(reader, [])
    if found != list(header):
        raise ValueError(f"expected header {','.join(header)}, got {found}")
    parsed = []
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} cells, got {len(row)}")
            parsed.append(parse(row))
        except ValueError as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    return parsed


def write_json(path, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

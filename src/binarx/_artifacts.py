"""The two artifact formats every writer shares: CSV tables and JSON records.

A CSV cell holds a float as its round-trip `repr` and anything else as the
csv module prints it, so a float column reads back bit for bit.
"""

from __future__ import annotations

import csv
import json


def cell(value):
    return repr(float(value)) if isinstance(value, float) else value


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([cell(v) for v in row] for row in rows)


def write_json(path, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

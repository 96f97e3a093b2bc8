"""The series-CSV row loop, frozen as the reference for `read_series_csv`.

This is the reader as it stood before plain files were parsed by numpy: one
csv row, one int() and one float() per cell, with the checks on the t
sequence, on negative counts and on counts above the int64 range added
since.  `read_series_csv` must return
the same sample for every file this accepts and raise the same ValueError
text for every file it refuses.
"""

import csv

import numpy as np

from binarx.model import SeriesSample


def read_series_rows(path) -> SeriesSample:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 2 or header[0] != "t" or header[1] != "x":
            raise ValueError(f"{path}: expected header t,x,w1,...  got {header!r}")
        l = len(header) - 2
        xs: list[int] = []
        ts: list[int] = []
        ws: list[list[float]] = []
        row = header
        try:
            for row in reader:
                if not row:
                    continue
                t = int(row[0])
                if xs and t != len(xs):
                    raise ValueError(f"expected t={len(xs)}")
                if not xs and t > 0:
                    raise ValueError("expected a first row with t <= 0")
                if len(row) != l + 2 and (t > 0 or len(row) < 2):
                    raise ValueError(f"expected {l + 2} cells, got {len(row)}")
                xs.append(int(row[1]))
                if xs[-1] < 0:
                    raise ValueError(f"count {xs[-1]} is negative")
                if xs[-1] >= 2**63:
                    raise ValueError(f"count {xs[-1]} is above the int64 range")
                if t > 0:
                    ts.append(t)
                    ws.append([float(v) for v in row[2:]])
        except ValueError as exc:
            raise ValueError(f"{path}: row t={row[0]}: {exc}") from None
    if not xs:
        raise ValueError(f"{path}: no rows after the header")
    w = np.array(ws, dtype=float).reshape(len(ws), l)
    finite = np.isfinite(w).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"{path}: row t={ts[bad]}: covariates {w[bad].tolist()} are not finite")
    return SeriesSample(x=np.array(xs, dtype=np.int64), w=w)


def outcome(read, path):
    """What `read(path)` gives: the sample's counts, shape and covariate bits,
    or the type and text of the error it raises."""
    try:
        sample = read(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return sample.x.tolist(), sample.w.shape, [float(v).hex() for v in sample.w.ravel()]

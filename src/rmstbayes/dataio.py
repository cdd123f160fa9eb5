"""CSV ingestion and export for survival datasets.

Expected columns: a positive numeric time column, a 0/1 event column, a
cluster column, a 0/1 group column, and any number of extra covariates.
Numeric covariates pass through; non-numeric ones are one-hot encoded with
the first-seen level as the reference.  The design matrix is assembled as
[intercept, group, covariates...] in declaration order (dummy columns in
level-appearance order).  Blank lines, before the header too, are skipped; a
header that repeats a column name, and a covariate named twice or naming a
required column, are refused; malformed rows are reported together, each by
the file line it starts on, in a single DataError.
"""

from __future__ import annotations

import csv
import math

from .inference import SurvivalDataset


class DataError(ValueError):
    """Raised with an aggregated list of row-level ingestion problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _try_float(value: str):
    try:
        return float(value)
    except ValueError:
        return None


def ingest_csv(path, time_col: str = "time", event_col: str = "event",
               cluster_col: str = "cluster", group_col: str = "group",
               covariate_cols=None) -> SurvivalDataset:
    with open(path, newline="", encoding="utf-8-sig") as fh:  # past a byte-order mark
        reader = csv.reader(fh)
        header = next((fields for fields in reader if fields), None)  # past blank lines
        if header is None:
            raise DataError(["empty file: header row required"])
        records = []  # (the file line a record starts on, its fields)
        start = reader.line_num + 1
        for fields in reader:
            if fields:  # a blank line reads as no fields
                records.append((start, fields))
            start = reader.line_num + 1

    width = len(header)
    required = (time_col, event_col, cluster_col, group_col)
    problems = [f"duplicate column {c!r} in the header"
                for c in dict.fromkeys(header) if header.count(c) > 1]
    problems += [f"missing required column {c!r}" for c in required if c not in header]
    problems += [f"row {i}: {'more' if len(f) > width else 'fewer'} fields than the header's {width}"
                 for i, f in records if len(f) != width]
    if problems:
        raise DataError(problems)
    if covariate_cols is None:
        covariate_cols = [c for c in header if c not in required]
    else:
        covariate_cols = list(covariate_cols)
        named = dict.fromkeys(covariate_cols)
        problems = [f"missing covariate column {c!r}" for c in named if c not in header]
        problems += [f"covariate column {c!r} is a required column" for c in named if c in required]
        problems += [f"covariate column {c!r} given more than once"
                     for c in named if covariate_cols.count(c) > 1]
        if problems:
            raise DataError(problems)
    if not records:
        raise DataError(["no data rows"])

    # A covariate is numeric if every non-empty value parses as a float; the
    # others get one dummy for each level after the first seen.
    levels = {}
    for col in covariate_cols:
        j = header.index(col)
        values = dict.fromkeys(f[j] for _, f in records)
        if not all(_try_float(v) is not None for v in values if v != ""):
            levels[col] = list(values)[1:]

    time, event, cluster_raw, design_rows = [], [], [], []
    for i, fields in records:
        r = dict(zip(header, fields))
        if any(r[c] == "" for c in required):
            problems.append(f"row {i}: missing value in a required column")
            continue
        t, ev, g = (_try_float(r[c]) for c in (time_col, event_col, group_col))
        if t is None or not 0 < t < math.inf:
            problems.append(f"row {i}: time must be a positive finite number, "
                            f"got {r[time_col]!r}")
        if ev not in (0.0, 1.0):
            problems.append(f"row {i}: event must be 0 or 1, got {r[event_col]!r}")
        if g not in (0.0, 1.0):
            problems.append(f"row {i}: group must be 0 or 1, got {r[group_col]!r}")
        cells = [1.0, g]
        for col in covariate_cols:
            if col in levels:
                cells.extend(1.0 if r[col] == lev else 0.0 for lev in levels[col])
                continue
            val = _try_float(r[col])
            if val is None:
                problems.append(f"row {i}: covariate {col!r} is not numeric "
                                f"(no NA policy), got {r[col]!r}")
            elif not math.isfinite(val):
                problems.append(f"row {i}: covariate {col!r} must be finite, "
                                f"got {r[col]!r}")
            cells.append(val)
        # a row with problems goes in too: they are raised before its cells are used
        time.append(t)
        event.append(ev)
        cluster_raw.append(r[cluster_col])
        design_rows.append(cells)
    if problems:
        raise DataError(problems)

    cluster_ids = {c: k for k, c in enumerate(dict.fromkeys(cluster_raw), start=1)}
    names = ["intercept", group_col]
    for col in covariate_cols:
        names.extend([f"{col}={lev}" for lev in levels[col]] if col in levels else [col])
    return SurvivalDataset(time=time, event=event, x=design_rows,
                           cluster=[cluster_ids[c] for c in cluster_raw],
                           column_names=tuple(names))


def write_csv(data: SurvivalDataset, path) -> None:
    """Export in the layout ingest_csv reads back (numeric covariates only);
    the round trip reproduces the dataset exactly."""
    cov_names = list(data.column_names[2:]) if data.column_names \
        else [f"x{j}" for j in range(2, data.q)]
    header = ["time", "event", "cluster", "group"] + cov_names
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            row = [repr(float(data.time[i])), int(data.event[i]),
                   int(data.cluster[i]), int(data.x[i, 1])]
            row.extend(repr(float(v)) for v in data.x[i, 2:])
            writer.writerow(row)

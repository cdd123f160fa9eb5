"""CSV ingestion and export for survival datasets.

Expected columns: a positive numeric time column, a 0/1 event column, a
cluster column, a 0/1 group column, and any number of extra covariates.
Numeric covariates pass through; non-numeric ones are one-hot encoded with
the first-seen level as the reference.  The design matrix is assembled as
[intercept, group, covariates...] in declaration order (dummy columns in
level-appearance order).  Malformed rows are reported together with their
row numbers in a single DataError.
"""

from __future__ import annotations

import csv
import math

import numpy as np

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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(["empty file: header row required"])
        header = list(reader.fieldnames)
        rows = list(reader)

    problems = []
    for col in (time_col, event_col, cluster_col, group_col):
        if col not in header:
            problems.append(f"missing required column {col!r}")
    for i, r in enumerate(rows, start=2):  # 1-based file lines; header is 1
        # csv.DictReader files surplus fields under the key None, missing ones as None
        if None in r:
            problems.append(f"row {i}: more fields than the header's {len(header)}")
        elif None in r.values():
            problems.append(f"row {i}: fewer fields than the header's {len(header)}")
    if problems:
        raise DataError(problems)

    if covariate_cols is None:
        reserved = {time_col, event_col, cluster_col, group_col}
        covariate_cols = [c for c in header if c not in reserved]
    else:
        covariate_cols = list(covariate_cols)
        for col in covariate_cols:
            if col not in header:
                problems.append(f"missing covariate column {col!r}")
        if problems:
            raise DataError(problems)

    # Classify covariates: numeric if every non-empty value parses as float.
    numeric = {}
    for col in covariate_cols:
        numeric[col] = all(_try_float(r[col]) is not None for r in rows if r[col] != "")
    levels = {col: [] for col in covariate_cols if not numeric[col]}
    for r in rows:
        for col in levels:
            if r[col] not in levels[col]:
                levels[col].append(r[col])

    time, event, cluster_raw, design_rows = [], [], [], []
    for i, r in enumerate(rows, start=2):
        row_problems = []
        if any(r[c] == "" for c in (time_col, event_col, cluster_col, group_col)):
            problems.append(f"row {i}: missing value in a required column")
            continue
        t = _try_float(r[time_col])
        if t is None or not 0 < t < math.inf:
            row_problems.append(f"row {i}: time must be a positive finite number, "
                                f"got {r[time_col]!r}")
        ev = _try_float(r[event_col])
        if ev not in (0.0, 1.0):
            row_problems.append(f"row {i}: event must be 0 or 1, got {r[event_col]!r}")
        g = _try_float(r[group_col])
        if g not in (0.0, 1.0):
            row_problems.append(f"row {i}: group must be 0 or 1, got {r[group_col]!r}")
        cells = [1.0, g if g is not None else 0.0]
        for col in covariate_cols:
            if numeric[col]:
                val = _try_float(r[col]) if r[col] != "" else None
                if val is None:
                    row_problems.append(f"row {i}: covariate {col!r} is not numeric "
                                        f"(no NA policy), got {r[col]!r}")
                    val = 0.0
                elif not math.isfinite(val):
                    row_problems.append(f"row {i}: covariate {col!r} must be finite, "
                                        f"got {r[col]!r}")
                cells.append(val)
            else:
                cells.extend(1.0 if r[col] == lev else 0.0 for lev in levels[col][1:])
        if row_problems:
            problems.extend(row_problems)
            continue
        time.append(t)
        event.append(int(ev))
        cluster_raw.append(r[cluster_col])
        design_rows.append(cells)

    if problems:
        raise DataError(problems)
    if not time:
        raise DataError(["no data rows"])

    cluster_levels = []
    for c in cluster_raw:
        if c not in cluster_levels:
            cluster_levels.append(c)
    cluster = np.array([cluster_levels.index(c) + 1 for c in cluster_raw])

    names = ["intercept", group_col]
    for col in covariate_cols:
        if numeric[col]:
            names.append(col)
        else:
            names.extend(f"{col}={lev}" for lev in levels[col][1:])
    return SurvivalDataset(time=np.array(time), event=np.array(event),
                           x=np.array(design_rows), cluster=cluster,
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

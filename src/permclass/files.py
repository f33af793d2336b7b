"""Feature CSVs and atomic file writes, shared by every subcommand.

CSV format: decimal doubles, UTF-8, comma delimiter, lines starting with
'#' ignored.  Every file is written atomically: staged to a ``.partial``
file and renamed onto its path only once complete.
"""

from __future__ import annotations

import csv
import math
import os
from typing import Sequence

import numpy as np

from .classify import LabeledDataset

__all__ = [
    "load_features_csv",
    "save_features_csv",
    "write_text",
    "write_csv",
]


def _rows_of(path: str) -> list[tuple[int, list[str]]]:
    """Non-comment rows and their line numbers; an unreadable row is refused by line."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for lineno, row in enumerate(reader, start=1):
                if not row or (row[0].lstrip().startswith("#")):
                    continue
                out.append((lineno, [cell.strip() for cell in row]))
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return out


def _float_row(path: str, lineno: int, row: list[str], header: list[str],
               columns: slice, what: str) -> list[float]:
    """The ``columns`` of a data row as floats.  The row must have as many
    fields as ``header``; a value that is not a number, or not finite, is
    refused by its line and by its ``what`` (column or sample) name."""
    if len(row) != len(header):
        raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
    try:
        values = [float(v) for v in row[columns]]
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    for name, v in zip(header[columns], values):
        if not math.isfinite(v):
            raise ValueError(f"{path}:{lineno}: {what} {name!r} is not finite ({v})")
    return values


def load_features_csv(path: str, require_label: bool = True) -> LabeledDataset:
    """Feature CSV: header row, feature columns, final ``label`` column.

    Without ``require_label`` the label column is optional, all points
    get class code 0, and a header alone is an empty set of points of the
    header's width; a labelled file needs a data row.
    """
    rows = _rows_of(path)
    if not rows or (require_label and len(rows) == 1):
        raise ValueError(f"{path}: no data rows")
    _, header = rows[0]
    has_label = header and header[-1] == "label"
    if require_label and not has_label:
        raise ValueError(f"{path}: final column must be named 'label'")
    n_features = len(header) - (1 if has_label else 0)
    if n_features < 1:
        raise ValueError(f"{path}: no feature columns")
    points, labels = [], []
    for lineno, row in rows[1:]:
        points.append(_float_row(path, lineno, row, header, slice(n_features), "column"))
        labels.append(row[-1] if has_label else "0")
    names = sorted(set(labels))
    lookup = {name: code for code, name in enumerate(names)}
    return LabeledDataset(points=np.reshape(points, (-1, n_features)),
                          labels=[lookup[v] for v in labels],
                          n_classes=len(names), class_names=tuple(names))


def write_text(path: str, text: str) -> None:
    """Write ``text`` atomically: it is staged to ``path + ".partial"`` and
    renamed onto ``path`` only once complete."""
    tmp = path + ".partial"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path: str, header_lines: Sequence[str], columns: list[str], rows) -> None:
    """Write ``# `` header lines, a column row and the rows atomically;
    floats use shortest round-trip repr."""
    lines = [f"# {h}" for h in header_lines]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    write_text(path, "\n".join(lines) + "\n")


def save_features_csv(path: str, dataset: LabeledDataset,
                      header_lines: Sequence[str] = ()) -> None:
    """Write the feature CSV format through `write_csv`."""
    write_csv(path, header_lines, [f"x{i}" for i in range(dataset.dim)] + ["label"],
              ([float(v) for v in p] + [dataset.class_names[code]]
               for p, code in zip(dataset.points, dataset.labels)))

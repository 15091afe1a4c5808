"""Paired-sample container, CSV ingestion, and the two built-in datasets."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParseError

__all__ = ["PairedSample", "BUILTIN_DATASETS", "ingest"]


@dataclass(frozen=True, eq=False)
class PairedSample:
    """Paired observations as two read-only float64 columns, with their source.

    Samples compare by identity, as arrays have no single truth value
    under ``==``; compare the columns with ``np.array_equal``.
    """

    x1: np.ndarray
    x2: np.ndarray
    source: str = "<memory>"

    def __post_init__(self) -> None:
        cols = _float_array((self.x1, self.x2))
        if cols.ndim != 2 or cols.shape[1] < 1:
            raise ParseError("a paired sample needs two equal-length, nonempty columns")
        bad = ~np.isfinite(cols).all(axis=0)
        if bad.any():
            i = int(np.argmax(bad))
            raise ParseError(f"non-finite value in row {i + 1}: ({cols[0, i]}, {cols[1, i]})")
        cols.flags.writeable = False
        object.__setattr__(self, "x1", cols[0])
        object.__setattr__(self, "x2", cols[1])

    @classmethod
    def from_rows(cls, rows, source: str = "<memory>") -> PairedSample:
        """A sample from a sequence of (x1, x2) pairs."""
        a = _float_array(rows)
        if a.ndim != 2 or a.shape[1] != 2:
            raise ParseError("a paired sample needs (x1, x2) pairs")
        return cls(a[:, 0], a[:, 1], source=source)

    @property
    def n(self) -> int:
        return self.x1.size

    @property
    def rows(self) -> tuple[tuple[float, float], ...]:
        """The (x1, x2) pairs as Python floats, for text output."""
        return tuple(zip(self.x1.tolist(), self.x2.tolist()))

    @cached_property
    def product_mean(self) -> float:
        """mean(x1 * x2), the target of the product-moment fits."""
        return float(np.mean(self.x1 * self.x2))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["x1", "x2"])
        w.writerows([repr(a), repr(b)] for a, b in self.rows)
        return buf.getvalue()


def _float_array(obj) -> np.ndarray:
    """`obj` as a new float64 array; ragged or non-numeric input is a ParseError."""
    try:
        return np.array(obj, dtype=float)
    except (TypeError, ValueError) as e:
        raise ParseError(f"paired sample columns must be numeric, of equal length: {e}") from None


# Lifetimes of two types of cable installation (n = 9), and failure times
# of two components from a 20-unit system test (n = 20).
_CABLE = (
    (5.1, 11.0), (9.2, 15.1), (9.3, 18.3), (11.8, 24.0), (17.7, 29.1),
    (19.4, 38.6), (22.1, 44.2), (26.7, 45.1), (37.3, 50.9),
)
_COMPONENTS = (
    (0.37, 6.93), (0.06, 2.42), (0.2, 0.2), (1.62, 2.34), (5.7, 1.96),
    (2.25, 4.6), (2.5, 0.09), (2.44, 7.27), (0.12, 0.06), (0.79, 8.61),
    (7.22, 1.38), (2.81, 5.05), (4.13, 0.52), (5.67, 1.11), (0.96, 3.54),
    (7.16, 2.38), (0.32, 1.89), (7.32, 1.54), (2.58, 8.61), (1.73, 1.22),
)

BUILTIN_DATASETS = {
    "cable": PairedSample.from_rows(_CABLE, source="builtin:cable"),
    "components": PairedSample.from_rows(_COMPONENTS, source="builtin:components"),
}


def _parse_csv_text(text: str, source: str) -> PairedSample:
    rows: list[tuple[float, float]] = []
    reader = csv.reader(io.StringIO(text))
    for lineno, record in enumerate(reader, start=1):
        cells = [c.strip() for c in record if c.strip() != ""]
        if not cells:
            continue
        if len(cells) != 2:
            raise ParseError(
                f"{source}:{lineno}: expected two numeric columns, got {len(cells)}")
        try:
            pair = (float(cells[0]), float(cells[1]))
        except ValueError:
            if lineno == 1 and not rows:
                continue  # single header line
            raise ParseError(
                f"{source}:{lineno}: non-numeric cell in {cells!r}") from None
        rows.append(pair)
    if not rows:
        raise ParseError(f"{source}: no data rows found")
    return PairedSample.from_rows(rows, source=source)


def ingest(path_or_name: str | Path) -> PairedSample:
    """Load a paired sample from a builtin name or a two-column CSV file.

    The CSV may carry one optional header line; decimal points, comma
    separators.  Parse failures report the offending line number.
    """
    key = str(path_or_name)
    if key in BUILTIN_DATASETS:
        return BUILTIN_DATASETS[key]
    p = Path(path_or_name)
    if not p.exists():
        raise ParseError(f"no such dataset or file: {key}")
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read {key}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{key}: not UTF-8 text ({e.reason} at offset {e.start})") from None
    return _parse_csv_text(text, source=str(p))

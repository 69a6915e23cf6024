"""CSV time series of diagnostics rows.

Values are written in shortest round-trip decimal form (Python ``repr``),
so re-parsing a written file reproduces every float bit for bit.
"""

from __future__ import annotations

from .dynamics import DiagnosticsReport

__all__ = ["HEADER", "write_timeseries", "read_timeseries"]

_COLUMNS = ("t", *DiagnosticsReport.FIELDS[1:])  # the time column reads t
HEADER = ",".join(_COLUMNS)


def write_timeseries(rows, path):
    """Write diagnostics rows as CSV; an empty run yields the header only."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(HEADER + "\n")
        for row in rows:
            fh.write(",".join(repr(getattr(row, name)) for name in DiagnosticsReport.FIELDS))
            fh.write("\n")


def read_timeseries(path):
    """Read a diagnostics CSV back into DiagnosticsReport rows.

    A bad row raises ValueError prefixed ``path:line:`` (1-based); a value
    that is not a number also names its column.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if header != HEADER:
            raise ValueError(f"unexpected time-series header: {header!r}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:  # the columns are DiagnosticsReport.FIELDS in order
                rows.append(DiagnosticsReport(*[float(v) for v in line.split(",")]))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {_fault(line, exc)}") from None
    return rows


def _fault(line, exc):
    """What is wrong with a row that failed to read as ``exc``: its column
    count, its first value that is not a number, or a non-finite field."""
    tokens = line.split(",")
    if len(tokens) != len(_COLUMNS):
        return f"row has {len(tokens)} columns, expected {len(_COLUMNS)}"
    for column, token in zip(_COLUMNS, tokens):
        try:
            float(token)
        except ValueError as bad:
            return f"column {column}: {bad}"
    return str(exc)  # DiagnosticsReport names the non-finite field

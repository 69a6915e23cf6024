"""CSV time series of diagnostics rows.

Values are written in shortest round-trip decimal form (Python ``repr``),
so re-parsing a written file reproduces every float bit for bit.
"""

from __future__ import annotations

from .dynamics import DiagnosticsReport

__all__ = ["HEADER", "write_timeseries", "read_timeseries"]

HEADER = ",".join(("t", *DiagnosticsReport.FIELDS[1:]))  # the time column reads t


def write_timeseries(rows, path):
    """Write diagnostics rows as CSV; an empty run yields the header only."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(HEADER + "\n")
        for row in rows:
            fh.write(",".join(repr(getattr(row, name)) for name in DiagnosticsReport.FIELDS))
            fh.write("\n")


def read_timeseries(path):
    """Read a diagnostics CSV back into DiagnosticsReport rows."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if header != HEADER:
            raise ValueError(f"unexpected time-series header: {header!r}")
        rows = []
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            values = [float(v) for v in line.split(",")]
            if len(values) != len(DiagnosticsReport.FIELDS):
                raise ValueError(f"row has {len(values)} columns, expected "
                                 f"{len(DiagnosticsReport.FIELDS)}")
            rows.append(DiagnosticsReport(**dict(zip(DiagnosticsReport.FIELDS, values))))
    return rows

"""Binary state snapshots with a short text header.

Layout: five newline-terminated header lines

    CMX1
    dims N1 N2 N3
    spacing <repr>
    time <repr>
    fields D B e h energy

followed by one little-endian IEEE-754 binary64 block per component in
row-major order (third index fastest), field order D, B, e, h, energy
(13 components, 3+3+3+3+1).  Writing then reading reproduces the state
bit for bit.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .dec import FormField, Mesh
from .fiber import MaxwellState

__all__ = ["write_snapshot", "read_snapshot", "SnapshotFormatError"]

MAGIC = "CMX1"

# (name, degree, dual) in file order
_FIELD_SPECS = (
    ("D", 2, True),
    ("B", 2, False),
    ("e", 1, False),
    ("h", 1, True),
    ("energy", 0, True),
)


class SnapshotFormatError(ValueError):
    """The file is not a readable snapshot of the supported version."""


def write_snapshot(state, path):
    """Write a MaxwellState to ``path`` in the CMX1 snapshot format."""
    mesh = state.mesh
    header = (
        f"{MAGIC}\n"
        f"dims {mesh.dims[0]} {mesh.dims[1]} {mesh.dims[2]}\n"
        f"spacing {mesh.spacing!r}\n"
        f"time {state.time!r}\n"
        f"fields {' '.join(name for name, _, _ in _FIELD_SPECS)}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for name, degree, _ in _FIELD_SPECS:
            field = getattr(state, name)
            comps = field.data if degree in (1, 2) else field.data[None]
            for comp in comps:
                fh.write(np.ascontiguousarray(comp, dtype="<f8").tobytes())


def _header_line(fh, what):
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise SnapshotFormatError(f"truncated header while reading {what}")
    return line[:-1].decode("ascii", errors="replace")


def _header_values(fh, key, count, parse):
    """The ``count`` values of the header line that starts with ``key``."""
    words = _header_line(fh, key).split()
    if len(words) != count + 1 or words[0] != key:
        raise SnapshotFormatError(f"malformed {key} line")
    try:
        return [parse(w) for w in words[1:]]
    except ValueError:
        raise SnapshotFormatError(f"malformed {key} line") from None


def read_snapshot(path):
    """Read a CMX1 snapshot back into a MaxwellState."""
    with open(path, "rb") as fh:
        magic = _header_line(fh, "magic")
        if magic != MAGIC:
            raise SnapshotFormatError(
                f"unsupported snapshot version {magic!r} (expected {MAGIC!r})"
            )
        dims = tuple(_header_values(fh, "dims", 3, int))
        (spacing,) = _header_values(fh, "spacing", 1, float)
        (time,) = _header_values(fh, "time", 1, float)
        fields_line = _header_line(fh, "fields").split()
        if fields_line != ["fields"] + [name for name, _, _ in _FIELD_SPECS]:
            raise SnapshotFormatError("unexpected field list")

        try:
            mesh = Mesh(dims, spacing)
        except ValueError as exc:
            raise SnapshotFormatError(f"bad mesh in header: {exc}") from None
        ncells = math.prod(dims)
        # before any read, so a huge dims line cannot ask for more than the file holds
        if os.fstat(fh.fileno()).st_size - fh.tell() < 13 * ncells * 8:
            raise SnapshotFormatError(f"truncated data blocks for dims {dims}")
        fields = {}
        for name, degree, dual in _FIELD_SPECS:
            ncomp = 3 if degree in (1, 2) else 1
            raw = fh.read(ncomp * ncells * 8)
            if len(raw) != ncomp * ncells * 8:
                raise SnapshotFormatError(f"truncated data block for field {name}")
            data = np.frombuffer(raw, dtype="<f8").astype(float).reshape(
                (ncomp, *dims) if ncomp == 3 else dims
            )
            fields[name] = FormField(mesh, degree, data, dual)
        if fh.read(1):
            raise SnapshotFormatError("trailing bytes after the last field block")
    return MaxwellState(time=time, **fields)

"""Facts about the machine and the build that every benchmark result records."""

from __future__ import annotations

import glob
import hashlib
import os
import platform
import statistics
import time

import numpy as np

def source_sha256(src_dir):
    """Digest of the cmx sources, so results can be tied to code without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src_dir, "cmx", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _git_commit(root):
    """HEAD commit read from ``.git`` without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _filesystem(path):
    """(mount point, type) of the filesystem holding ``path``, from /proc/self/mounts."""
    path = os.path.realpath(path)
    best = (None, None)
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount, fstype = parts[1], parts[2]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                # the longest matching mount point wins; a later mount shadows an earlier one
                if inside and len(mount) >= len(best[0] or ""):
                    best = (mount, fstype)
    except OSError:
        pass
    return best


def _l3_bytes():
    """Size of the last-level (L3) cache of CPU 0, or None when not exposed."""
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level"), encoding="ascii") as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(index, "size"), encoding="ascii") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1:], 1)
        return int(size.rstrip("KMG")) * scale
    return None


def _blas():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        return None


def copy_gb_per_s(shape, repeats=25):
    """numpy copy rate (bytes read plus written per second) at one array size.

    The reference for computed bandwidth figures such as ``dec.d.gb_per_s``:
    arrays this small stay in the last-level cache, so neither is a DRAM rate.
    """
    src = np.random.default_rng(0).random(shape)
    dst = np.empty_like(src)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def facts(root, src_dir, out_dir, dims):
    """Machine and build facts for a workload whose largest mesh is ``dims``.

    The loadavg at start is taken here; the caller adds the loadavg at the
    end and the copy rate, measured after the reps so that its arrays stay
    out of the run's peak RSS.
    """
    l3 = _l3_bytes()
    state_bytes = 13 * 8 * int(np.prod(dims))  # D, B, e, h: 3 components each; energy: 1
    mount, fstype = _filesystem(out_dir)
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(root),
        "source_sha256": source_sha256(src_dir),
        "output_filesystem": {"mount": mount, "type": fstype},
        "l3_bytes": l3,
        "state_bytes": state_bytes,
        "state_fits_l3": None if l3 is None else state_bytes <= l3,
    }

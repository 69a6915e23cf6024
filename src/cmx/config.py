"""Line-oriented `key = value` configuration for simulation runs.

Keys are dotted section paths (``grid.dims = 32 32 32``); ``#`` starts a
comment and blank lines are skipped.  Unknown keys, malformed values, and
constraint violations are collected with their line numbers and raised
together.  ``ScenarioConfig.to_text`` emits a canonical echo that parses
back to an equal configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dec import Mesh
from .dynamics import SchemeConfig
from .fiber import Orientation
from .scenarios import initial_from_preset, medium_from_preset

__all__ = ["ScenarioConfig", "ConfigError", "parse_config"]


class ConfigError(ValueError):
    """Configuration rejected; ``errors`` lists (line, message) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"line {ln}: {msg}" for ln, msg in self.errors)
        super().__init__(f"invalid configuration: {lines}")


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated run description."""

    dims: tuple = (8, 8, 8)
    spacing: float = 1.0
    medium_preset: tuple = ("vacuum",)
    initial_preset: tuple = ("zero",)
    orientation: Orientation = Orientation.DB
    cfl: float = 0.5
    steps: int = 0
    cadence: int = 1
    kappa: float = 1.0
    out_dir: str = "out"
    snapshot_stride: int = 0

    def to_text(self):
        """Canonical echo; re-parsing it reproduces this configuration."""
        med = " ".join([self.medium_preset[0]] + [repr(v) for v in self.medium_preset[1:]])
        init_parts = [self.initial_preset[0]]
        if self.initial_preset[0] == "plane_wave":
            axis, wl, pol, amp = self.initial_preset[1:]
            init_parts += [str(axis), repr(wl), str(pol), repr(amp)]
        elif self.initial_preset[0] == "gaussian_pulse":
            init_parts += [repr(v) for v in self.initial_preset[1:]]
        lines = [
            f"grid.dims = {self.dims[0]} {self.dims[1]} {self.dims[2]}",
            f"grid.spacing = {self.spacing!r}",
            f"medium.preset = {med}",
            f"initial.preset = {' '.join(init_parts)}",
            f"scheme.orientation = {self.orientation.value}",
            f"scheme.cfl = {self.cfl!r}",
            f"scheme.steps = {self.steps}",
            f"scheme.cadence = {self.cadence}",
            f"scheme.kappa = {self.kappa!r}",
            f"outputs.directory = {self.out_dir}",
            f"outputs.snapshot_stride = {self.snapshot_stride}",
        ]
        return "\n".join(lines) + "\n"

    def build_mesh(self):
        return Mesh(self.dims, self.spacing)

    def build_medium(self, mesh):
        return medium_from_preset(mesh, self.medium_preset)

    def build_scheme(self, mesh, medium):
        return SchemeConfig.from_cfl(
            mesh, medium, cfl=self.cfl, orientation=self.orientation,
            steps=self.steps, cadence=self.cadence, kappa=self.kappa,
        )

    def build_initial(self, mesh, medium, scheme):
        return initial_from_preset(mesh, medium, scheme.dt, self.initial_preset)


def _parse_floats(parts, count, what):
    if len(parts) != count:
        raise ValueError(f"{what} expects {count} numbers, got {len(parts)}")
    vals = []
    for p in parts:
        v = float(p)
        if not np.isfinite(v):
            raise ValueError(f"{what} has non-finite value {p}")
        vals.append(v)
    return vals


# integer keys: the ScenarioConfig field each sets and its least value
_INTEGER_KEYS = {"scheme.steps": ("steps", 0), "scheme.cadence": ("cadence", 1),
                 "outputs.snapshot_stride": ("snapshot_stride", 0)}


def _int(token, what):
    """``token`` as an integer; ValueError names ``what`` when it is not one."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{what} expects an integer, got {token!r}") from None


def _parse_int(parts, key, least):
    """The one integer token of ``key``, at least ``least``."""
    if len(parts) != 1:
        raise ValueError(f"{key} expects one integer, got {len(parts)} values")
    n = _int(parts[0], key)
    if n < least:
        raise ValueError(f"{key} must be >= {least}")
    return n


def _parse_medium(parts):
    name, args = parts[0], parts[1:]
    if name == "vacuum":
        if args:
            raise ValueError("vacuum takes no parameters")
        return ("vacuum",)
    if name == "uniform":
        eps, mu = _parse_floats(args, 2, "uniform medium")
        if eps <= 0 or mu <= 0:
            raise ValueError("uniform medium parameters must be positive")
        return ("uniform", eps, mu)
    if name == "sech_slab":
        eps0, z30, mu0 = _parse_floats(args, 3, "sech_slab medium")
        if eps0 <= 0 or z30 <= 0 or mu0 <= 0:
            raise ValueError("sech_slab medium parameters must be positive")
        return ("sech_slab", eps0, z30, mu0)
    raise ValueError(f"unknown medium preset {name!r}")


def _parse_initial(parts):
    name, args = parts[0], parts[1:]
    if name == "zero":
        if args:
            raise ValueError("zero takes no parameters")
        return ("zero",)
    if name == "plane_wave":
        if len(args) != 4:
            raise ValueError("plane_wave expects: axis wavelength polarization amplitude")
        axis = _int(args[0], "plane_wave axis")
        pol = _int(args[2], "plane_wave polarization")
        wl, amp = float(args[1]), float(args[3])
        if axis not in (1, 2, 3) or pol not in (1, 2, 3) or axis == pol:
            raise ValueError("plane_wave axes must be distinct values in 1..3")
        if not (np.isfinite(wl) and wl > 0 and np.isfinite(amp)):
            raise ValueError("plane_wave wavelength must be positive and finite")
        return ("plane_wave", axis, wl, pol, amp)
    if name == "gaussian_pulse":
        center, width, amp = _parse_floats(args, 3, "gaussian_pulse")
        if width <= 0:
            raise ValueError("gaussian_pulse width must be positive")
        return ("gaussian_pulse", center, width, amp)
    raise ValueError(f"unknown initial-condition preset {name!r}")


def _apply(cfg, key, parts):
    if key == "grid.dims":
        dims = tuple(_int(p, key) for p in parts)
        if len(dims) != 3 or any(d < 2 for d in dims):
            raise ValueError("grid.dims expects three integers >= 2")
        return replace(cfg, dims=dims)
    if key == "grid.spacing":
        (v,) = _parse_floats(parts, 1, "grid.spacing")
        if v <= 0:
            raise ValueError("grid.spacing must be positive")
        return replace(cfg, spacing=v)
    if key == "medium.preset":
        return replace(cfg, medium_preset=_parse_medium(parts))
    if key == "initial.preset":
        return replace(cfg, initial_preset=_parse_initial(parts))
    if key == "scheme.orientation":
        if len(parts) != 1 or parts[0] not in ("DB", "EH"):
            raise ValueError("scheme.orientation must be DB or EH")
        return replace(cfg, orientation=Orientation(parts[0]))
    if key == "scheme.cfl":
        (v,) = _parse_floats(parts, 1, "scheme.cfl")
        if not 0 < v < 1:
            raise ValueError("scheme.cfl must lie strictly between 0 and 1")
        return replace(cfg, cfl=v)
    if key in _INTEGER_KEYS:
        name, least = _INTEGER_KEYS[key]
        return replace(cfg, **{name: _parse_int(parts, key, least)})
    if key == "scheme.kappa":
        (v,) = _parse_floats(parts, 1, "scheme.kappa")
        if v <= 0:
            raise ValueError("scheme.kappa must be positive")
        return replace(cfg, kappa=v)
    if key == "outputs.directory":
        if len(parts) != 1:
            raise ValueError("outputs.directory expects a single path")
        return replace(cfg, out_dir=parts[0])
    raise ValueError(f"unknown key {key!r}")


def parse_config(text):
    """Parse configuration text into a ScenarioConfig or raise ConfigError."""
    cfg = ScenarioConfig()
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append((lineno, "expected 'key = value'"))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        parts = value.split()
        if not parts:
            errors.append((lineno, f"missing value for {key!r}"))
            continue
        try:
            cfg = _apply(cfg, key, parts)
        except (ValueError, OverflowError) as exc:
            errors.append((lineno, str(exc)))
    if errors:
        raise ConfigError(errors)
    return cfg

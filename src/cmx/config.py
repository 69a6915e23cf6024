"""Line-oriented `key = value` configuration for simulation runs.

Keys are dotted section paths (``grid.dims = 32 32 32``); ``#`` starts a
comment and blank lines are skipped.  Unknown keys, malformed values, and
constraint violations are collected with their line numbers and raised
together.  ``ScenarioConfig.to_text`` emits a canonical echo that parses
back to an equal configuration.

Each key is one row of ``_KEYS``: the field it sets and the parser of its
tokens.  A preset key reads its preset's parameters and rule from the
tables of `cmx.scenarios`.  One token parser names the key, or the preset
and parameter, in every message about a token.  Once every key has
parsed, each preset's ``fits`` rule checks it against the mesh, so a
plane-wave wavelength or a medium that the grid cannot hold fails on its
preset's line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dec import Mesh
from .dynamics import SchemeConfig
from .fiber import Orientation
from .scenarios import INITIAL_PRESETS, MEDIUM_PRESETS, initial_from_preset, medium_from_preset

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
        return "".join(f"{key} = {_echo(getattr(self, field))}\n"
                       for key, (field, _) in _KEYS.items())

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


def _echo(value):
    """A field's tokens: tuples space-joined, an Orientation by value, a float by repr."""
    if isinstance(value, tuple):
        return " ".join(map(_echo, value))
    return value.value if isinstance(value, Orientation) else str(value)


_NOUNS = {int: "integer", float: "number", str: "path", Orientation: "orientation (DB or EH)"}


def _token(token, kind, what):
    """``token`` as ``kind``: an int, a finite float, an Orientation or the
    token itself.  The ValueError names ``what``: a key or a preset parameter."""
    try:
        value = kind(token)
    except ValueError:
        noun = _NOUNS[kind]
        article = "an" if noun[0] in "aeiou" else "a"
        raise ValueError(f"{what} expects {article} {noun}, got {token!r}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{what} expects a finite number, got {token!r}")
    return value


def _one(kind, holds=lambda value: True, rule=""):
    """The parser of a key that takes one ``kind`` token obeying ``rule``."""
    def parse(key, tokens):
        if len(tokens) != 1:
            raise ValueError(f"{key} expects one {_NOUNS[kind]}, got {len(tokens)}")
        value = _token(tokens[0], kind, key)
        if not holds(value):
            raise ValueError(f"{key} {rule}")
        return value
    return parse


def _dims(key, tokens):
    dims = tuple(_token(t, int, key) for t in tokens)
    if len(dims) != 3 or min(dims) < 2:
        raise ValueError(f"{key} expects three integers >= 2")
    return dims


def _preset(table):
    """The parser of a preset key: a row name of ``table`` and its parameters."""
    def parse(key, tokens):
        name, args = tokens[0], tokens[1:]
        if name not in table:
            raise ValueError(f"unknown {key} {name!r}; choose from {', '.join(table)}")
        row = table[name]
        if len(args) != len(row.params):
            raise ValueError(f"{name} expects {' '.join(row.params) or 'no parameters'}, "
                             f"got {len(args)}")
        values = tuple(_token(t, kind, f"{name} {param}")
                       for t, (param, kind) in zip(args, row.params.items()))
        if not row.holds(*values):
            raise ValueError(f"{name} {row.rule}")
        return (name, *values)
    return parse


# config key -> (the ScenarioConfig field it sets, its tokens' parser), in echo order
_KEYS = {
    "grid.dims": ("dims", _dims),
    "grid.spacing": ("spacing", _one(float, lambda v: v > 0, "must be positive")),
    "medium.preset": ("medium_preset", _preset(MEDIUM_PRESETS)),
    "initial.preset": ("initial_preset", _preset(INITIAL_PRESETS)),
    "scheme.orientation": ("orientation", _one(Orientation)),
    "scheme.cfl": ("cfl", _one(float, lambda v: 0 < v < 1,
                               "must lie strictly between 0 and 1")),
    "scheme.steps": ("steps", _one(int, lambda n: n >= 0, "must be >= 0")),
    "scheme.cadence": ("cadence", _one(int, lambda n: n >= 1, "must be >= 1")),
    "scheme.kappa": ("kappa", _one(float, lambda v: v > 0, "must be positive")),
    "outputs.directory": ("out_dir", _one(str)),
    "outputs.snapshot_stride": ("snapshot_stride", _one(int, lambda n: n >= 0, "must be >= 0")),
}


def parse_config(text):
    """Parse configuration text into a ScenarioConfig or raise ConfigError."""
    fields = {}
    lines = {}
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
        elif key not in _KEYS:
            errors.append((lineno, f"unknown key {key!r}"))
        else:
            field, parse = _KEYS[key]
            lines[key] = lineno
            try:
                fields[field] = parse(key, parts)
            except ValueError as exc:
                errors.append((lineno, str(exc)))
    if errors:
        raise ConfigError(errors)
    config = ScenarioConfig(**fields)
    try:
        mesh = config.build_mesh()
    except ValueError as exc:  # the default mesh is valid, so grid.dims was given
        raise ConfigError([(lines["grid.dims"], str(exc))]) from None
    for key, table in (("medium.preset", MEDIUM_PRESETS), ("initial.preset", INITIAL_PRESETS)):
        name, *values = getattr(config, _KEYS[key][0])
        try:  # a default preset fits every mesh, so a failing one has its line
            table[name].fits(mesh, *values)
        except ValueError as exc:
            errors.append((lines[key], f"{name}: {exc}"))
    if errors:
        raise ConfigError(errors)
    return config

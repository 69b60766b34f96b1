"""Scenario configuration: a flat, human-writable file of ``key = value``
lines with dotted keys.  FIELDS lists every key with its parser, default and
least accepted value; the README's key table documents the same keys.
Euclidean points are comma-separated coordinates, disk points a pair "a,b",
tripod points "leg:length".
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

from . import rates
from .geometry import Euclidean, GeometryError, Point, SpaceModel, Tripod, make_model
from .mappings import (ConstantFamily, IdentityFamily, MappingFamily, MetricProjectionFamily,
                       ProximalFamily, ResolventFamily, RotationFamily)
from .rates import parse_counterfunction
from .schedules import ScheduleBundle, audit_schedule, preset


class ConfigError(ValueError):
    """Rejected configuration, with a line/field diagnostic."""


def parse_config_text(text: str, source: str = "<config>") -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text, source=path)


@dataclass
class Scenario:
    space: SpaceModel
    family: MappingFamily
    bundle: ScheduleBundle
    u: Point
    x0: Point
    p: Point
    M: float
    K: int
    steps: int
    tol: float
    bit_cap: int
    scenario_hash: str
    chi_T_fn: Callable[[int], int] = field(default=lambda k: 0)


def _point(text: str, space: SpaceModel) -> Point:
    if isinstance(space, Tripod):
        leg_s, _, len_s = text.partition(":")
        return Point.tripod(int(leg_s), _finite(len_s))
    coords = [_finite(t) for t in text.split(",")]
    if isinstance(space, Euclidean):
        if len(coords) != space.dim:
            raise ValueError(f"expected {space.dim} coordinates")
        return Point.euclidean(*coords)
    if len(coords) != 2:
        raise ValueError("disk points need two coordinates")
    return Point.disk(*coords)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _bit_cap(text: str) -> int:
    # rate work grows about 8x for every 4x of the cap; 2**26 is the largest used
    if int(text) > 2 ** 26:
        raise ValueError(f"{text} must be <= 2**26")
    return int(text)


REQUIRED = object()


class Field(NamedTuple):
    """A config key: its parser (text -> value; _point also takes the
    space), its default (text parsed like a value, REQUIRED, or None for
    "absent") and the least value it accepts (``strict``: it must exceed it)."""

    parse: Callable
    default: object = None
    least: Optional[float] = None
    strict: bool = False


# Every key a config may set.  A key the scenario does not read is an error.
FIELDS = {
    "space.kind": Field(str.lower, REQUIRED),
    "space.dim": Field(int, "2", 1),
    "family.kind": Field(str.lower, REQUIRED),
    "family.fixed_point": Field(_point),
    # constant families default to angle 0, the identity map
    "family.angle": Field(_finite, repr(math.pi / 2)),
    "family.center": Field(_point, REQUIRED),
    "family.radius": Field(_finite, REQUIRED, 0, strict=True),
    "family.base.kind": Field(str.lower, "rotation"),
    "family.base.angle": Field(_finite, "1.0"),
    "family.base.center": Field(_point, REQUIRED),
    "family.base.radius": Field(_finite, REQUIRED, 0, strict=True),
    "family.inner_tol": Field(_finite, "1e-12", 0, strict=True),
    "family.max_iterations": Field(int, "10000", 1),
    "schedule.preset": Field(preset, "harmonic"),
    # overrides of the preset's moduli and constants
    "schedule.chi_beta": Field(parse_counterfunction),
    "schedule.chi_lambda": Field(parse_counterfunction),
    "schedule.chi_gamma": Field(parse_counterfunction),
    "schedule.eta": Field(parse_counterfunction),
    "schedule.B": Field(parse_counterfunction),
    "schedule.Lambda": Field(int, None, 1),
    "schedule.N_Lambda": Field(int, None, 0),
    "schedule.Gamma": Field(int, None, 1),
    "schedule.N_Gamma": Field(int, None, 0),
    "schedule.G": Field(int, None, 1),
    "run.u": Field(_point, REQUIRED),
    "run.x0": Field(_point, REQUIRED),
    "run.steps": Field(int, "100", 1),
    "run.K": Field(int, None, 1),
    "run.tol": Field(_finite, "1e-9", 0),
    "run.bit_cap": Field(_bit_cap, str(rates.DEFAULT_BIT_CAP), 1),
}

# the horizon on which overridden schedule moduli are audited
AUDIT_HORIZON = 2000


class _Reader:
    """Reads config values through FIELDS and records the keys it read.
    Point values are read in ``space``, once it is set."""

    def __init__(self, cfg: dict):
        self.cfg, self.keys, self.space = cfg, set(), None

    def __call__(self, key: str, default: Optional[str] = None):
        f = FIELDS[key]
        self.keys.add(key)
        text = self.cfg.get(key, default or f.default)
        if text is REQUIRED:
            raise ConfigError(f"missing required field {key!r}")
        if text is None:
            return None
        try:
            value = f.parse(text, self.space) if f.parse is _point else f.parse(text)
        except ValueError as exc:
            raise ConfigError(f"field {key!r}: {exc}") from exc
        if f.least is not None and (value < f.least or f.strict and value == f.least):
            raise ConfigError(
                f"field {key!r}: {text} must be {'>' if f.strict else '>='} {f.least}")
        return value


def _reject_unread(cfg: dict, read) -> None:
    """ConfigError naming the first key of cfg not in ``read``."""
    key = next((k for k in cfg if k not in read), None)
    if key is None:
        return
    if key in FIELDS:
        raise ConfigError(f"field {key!r} is not used by this scenario")
    import difflib  # only on this error path

    hint = difflib.get_close_matches(key, FIELDS, n=1)
    raise ConfigError(f"unknown field {key!r}" + (f"; did you mean {hint[0]!r}?" if hint else ""))


def _rotation(read: _Reader, key: str, angle: float) -> RotationFamily:
    """The rotation by ``angle`` that ``key`` chose; a Euclidean space must
    be two-dimensional."""
    try:
        return RotationFamily(read.space, angle)
    except GeometryError as exc:
        raise ConfigError(f"fields 'space.dim', {key!r}: {exc}") from exc


def _map(read: _Reader, prefix: str, kind: str) -> MappingFamily:
    """The rotation or ball projection described by the ``prefix.*`` keys."""
    if kind == "rotation":
        return _rotation(read, f"{prefix}.kind", read(f"{prefix}.angle"))
    if kind == "projection":
        return MetricProjectionFamily(
            read.space, read(f"{prefix}.center"), read(f"{prefix}.radius"))
    raise ConfigError(f"field '{prefix}.kind': unknown kind {kind!r}")


def _build_family(read: _Reader, bundle: ScheduleBundle) -> MappingFamily:
    space, kind = read.space, read("family.kind")
    if kind == "identity":
        return IdentityFamily(space, read("family.fixed_point"))
    if kind == "constant":
        # one fixed nonexpansive map repeated at every index; angle 0 means
        # the identity map (usable in any model and dimension)
        angle = read("family.angle", default="0")
        base = IdentityFamily(space) if angle == 0.0 else _rotation(read, "family.angle", angle)
        return ConstantFamily(space, base)
    if kind == "proximal":
        return ProximalFamily(space, read("family.center"), bundle.gamma)
    if kind == "resolvent":
        base = _map(read, "family.base", read("family.base.kind"))
        return ResolventFamily(space, base, bundle.gamma, read("family.inner_tol"),
                               read("family.max_iterations"))
    return _map(read, "family", kind)


def _build_bundle(read: _Reader) -> ScheduleBundle:
    bundle = read("schedule.preset")
    overrides = {key: value for key in FIELDS
                 if key.startswith("schedule.") and key != "schedule.preset"
                 and (value := read(key)) is not None}
    if not overrides:
        return bundle
    # the rebuilt bundle monotonizes overridden moduli like a preset's; the
    # audit checks their claims against the preset's sequences, since a rate
    # computed from an unsound modulus would be printed as if it held
    bundle = replace(bundle, **{k.partition(".")[2]: v for k, v in overrides.items()})
    failed = [r for r in audit_schedule(bundle, AUDIT_HORIZON).results if not r.passed]
    if failed:
        raise ConfigError(
            f"fields {', '.join(map(repr, overrides))}: the schedule fails "
            f"{failed[0].condition_id} on [0, {AUDIT_HORIZON}] at {failed[0].first_violation}")
    return bundle


def build_scenario(cfg: dict) -> Scenario:
    _reject_unread(cfg, FIELDS)
    read = _Reader(cfg)
    try:
        space = make_model(read("space.kind"))
    except GeometryError as exc:
        raise ConfigError(f"field 'space.kind': {exc}") from exc
    if isinstance(space, Euclidean):
        space = Euclidean(read("space.dim"))
    read.space = space
    # the points first: they check space.dim before any family point of
    # that dimension is built
    u, x0 = read("run.u"), read("run.x0")

    bundle = _build_bundle(read)
    family = _build_family(read, bundle)
    p = family.fixed_point

    try:
        M = max(space.dist(x0, p), space.dist(u, p))
    except OverflowError:  # a Euclidean square past the float range
        M = math.inf
    # every point of a run lies within M of p, so 2M bounds every distance
    # the run forms (the tripod's comb forms s_x + s_y): it must be finite
    if not math.isfinite(2.0 * M):
        raise ConfigError("fields 'run.x0', 'run.u': distance to the fixed point overflows")
    ceil_M = math.ceil(M)
    K = read("run.K")
    if K is None:
        K = max(1, ceil_M)
    elif K < ceil_M:
        raise ConfigError(f"field 'run.K': K={K} below ceil(M)={ceil_M}")

    digest = hashlib.sha256(
        "\n".join(f"{k}={v}" for k, v in sorted(cfg.items())).encode()
    ).hexdigest()[:12]
    bit_cap = read("run.bit_cap")
    scenario = Scenario(
        space=space, family=family, bundle=bundle, u=u, x0=x0, p=p, M=M, K=K,
        steps=read("run.steps"), tol=read("run.tol"), bit_cap=bit_cap,
        scenario_hash=digest, chi_T_fn=family.chi_T_fn(bundle, K, bit_cap),
    )
    _reject_unread(cfg, read.keys)
    return scenario


def scenario_from_text(text: str) -> Scenario:
    return build_scenario(parse_config_text(text))

"""Scenario configuration: a flat, human-writable file with dotted keys.

Example::

    space.kind = euclidean
    space.dim = 1
    family.kind = identity
    schedule.preset = harmonic
    run.u = 0
    run.x0 = 1
    run.steps = 1000

Euclidean points are comma-separated coordinates, disk points a pair
"a,b", tripod points "leg:length".
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Callable

from . import rates
from .geometry import (
    Euclidean,
    GeometryError,
    PoincareDisk,
    Point,
    SpaceModel,
    Tripod,
    make_model,
)
from .mappings import (
    ConstantFamily,
    IdentityFamily,
    MappingFamily,
    MetricProjectionFamily,
    ProximalFamily,
    ResolventFamily,
    RotationFamily,
)
from .rates import parse_counterfunction
from .schedules import ScheduleBundle, ScheduleError, preset


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
    seed: int
    tol: float
    bit_cap: int
    scenario_hash: str
    chi_T_fn: Callable[[int], int] = field(default=lambda k: 0)


def _point(cfg, space: SpaceModel, key: str) -> Point:
    """Required point field ``key``; a malformed value names the key."""
    text = _get(cfg, key, required=True)
    try:
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
    except (ValueError, GeometryError) as exc:
        raise ConfigError(f"field {key!r}: {exc}") from exc


def _get(cfg, key, default=None, required=False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(f"missing required field {key!r}")
    return default


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _number(cfg, key, parse, default=None, required=False):
    """Field ``key`` read by ``parse`` (int or _finite), or ``default`` when
    it is absent.  A malformed value raises ConfigError naming the key."""
    text = _get(cfg, key, required=required)
    if text is None:
        return default
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"field {key!r}: {exc}") from exc


def _map(cfg, space, prefix, kind, default_angle) -> MappingFamily:
    """The rotation or ball projection described by the ``prefix.*`` keys."""
    if kind == "rotation":
        angle = _number(cfg, f"{prefix}.angle", _finite, default_angle)
        return RotationFamily(space, angle)
    if kind == "projection":
        center_key, radius_key = f"{prefix}.center", f"{prefix}.radius"
        center = _point(cfg, space, center_key)
        radius = _number(cfg, radius_key, _finite, required=True)
        try:
            return MetricProjectionFamily(space, center, radius)
        except GeometryError as exc:
            raise ConfigError(f"field {radius_key!r}: {exc}") from exc
    raise ConfigError(f"field '{prefix}.kind': unknown kind {kind!r}")


def _build_family(cfg: dict, space: SpaceModel, bundle: ScheduleBundle):
    kind = _get(cfg, "family.kind", required=True).lower()
    if kind == "identity":
        fp = cfg.get("family.fixed_point")
        point = _point(cfg, space, "family.fixed_point") if fp else None
        return IdentityFamily(space, point)
    if kind == "constant":
        # one fixed nonexpansive map repeated at every index; angle 0 means
        # the identity map (usable in any model and dimension)
        angle = _number(cfg, "family.angle", _finite, 0.0)
        base = IdentityFamily(space) if angle == 0.0 else RotationFamily(space, angle)
        return ConstantFamily(space, base)
    if kind == "proximal":
        fn = _get(cfg, "family.function", default="half-squared-norm").lower()
        if fn == "ball-indicator":
            raise ConfigError("field 'family.function': the prox of a ball "
                              "indicator is the projection, family.kind = projection")
        if fn != "half-squared-norm":
            raise ConfigError(
                f"field 'family.function': unknown convex function {fn!r}")
        return ProximalFamily(space, _point(cfg, space, "family.center"), bundle.gamma)
    if kind == "resolvent":
        base_kind = _get(cfg, "family.base.kind", default="rotation").lower()
        base = _map(cfg, space, "family.base", base_kind, 1.0)
        inner_tol = _number(cfg, "family.inner_tol", _finite, 1e-12)
        if inner_tol <= 0:
            raise ConfigError("field 'family.inner_tol': must be > 0")
        max_iterations = _number(cfg, "family.max_iterations", int, 10000)
        if max_iterations < 1:
            raise ConfigError("field 'family.max_iterations': must be >= 1")
        return ResolventFamily(space, base, bundle.gamma, inner_tol, max_iterations)
    return _map(cfg, space, "family", kind, math.pi / 2)


def _build_bundle(cfg: dict) -> ScheduleBundle:
    name = _get(cfg, "schedule.preset", default="harmonic")
    try:
        bundle = preset(name)
    except ScheduleError as exc:
        raise ConfigError(f"field 'schedule.preset': {exc}") from exc
    # overrides: moduli in the counterfunction mini-grammar, then constants;
    # the rebuilt bundle validates and monotonizes them like a preset's
    changes = {}
    for attr in ("chi_beta", "chi_lambda", "chi_gamma", "eta", "B"):
        key = f"schedule.{attr}"
        if key in cfg:
            try:
                changes[attr] = parse_counterfunction(cfg[key])
            except rates.RateError as exc:
                raise ConfigError(f"field {key!r}: {exc}") from exc
    for attr in ("Gamma", "N_Gamma", "G", "Lambda", "N_Lambda"):
        if f"schedule.{attr}" in cfg:
            changes[attr] = _number(cfg, f"schedule.{attr}", int)
    try:
        return replace(bundle, **changes)
    except ScheduleError as exc:
        # the bundle's messages start with the offending attribute's name
        raise ConfigError(f"schedule.{exc}") from exc


def build_scenario(cfg: dict) -> Scenario:
    space_kind = _get(cfg, "space.kind", required=True)
    dim = _number(cfg, "space.dim", int, 2)
    if dim < 1:
        raise ConfigError("field 'space.dim': must be >= 1")
    try:
        space = make_model(space_kind, dim)
    except GeometryError as exc:
        raise ConfigError(f"field 'space.kind': {exc}") from exc

    bundle = _build_bundle(cfg)
    try:
        family = _build_family(cfg, space, bundle)
    except GeometryError as exc:
        raise ConfigError(f"family: {exc}") from exc
    p = family.fixed_point

    u = _point(cfg, space, "run.u")
    x0 = _point(cfg, space, "run.x0")
    steps = _number(cfg, "run.steps", int, 100)
    if steps < 1:
        raise ConfigError("field 'run.steps': must be >= 1")
    seed = _number(cfg, "run.seed", int, 0)
    tol = _number(cfg, "run.tol", _finite, 1e-9)
    bit_cap = _number(cfg, "run.bit_cap", int, rates.DEFAULT_BIT_CAP)

    try:
        M = max(space.dist(x0, p), space.dist(u, p))
        ceil_M = math.ceil(M)
    except OverflowError as exc:
        raise ConfigError(
            "fields 'run.x0', 'run.u': distance to the fixed point overflows"
        ) from exc
    K = _number(cfg, "run.K", int)
    if K is None:
        K = max(1, ceil_M)
    elif K < 1:
        raise ConfigError(f"field 'run.K': K={K} must be >= 1")
    elif K < ceil_M:
        raise ConfigError(f"field 'run.K': K={K} below ceil(M)={ceil_M}")

    digest = hashlib.sha256(
        "\n".join(f"{k}={v}" for k, v in sorted(cfg.items())).encode()
    ).hexdigest()[:12]

    return Scenario(
        space=space,
        family=family,
        bundle=bundle,
        u=u,
        x0=x0,
        p=p,
        M=M,
        K=K,
        steps=steps,
        seed=seed,
        tol=tol,
        bit_cap=bit_cap,
        scenario_hash=digest,
        chi_T_fn=family.chi_T_fn(bundle, K),
    )


def scenario_from_text(text: str) -> Scenario:
    return build_scenario(parse_config_text(text))

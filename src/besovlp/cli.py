"""Config-driven scenario runner.

Scenarios are versioned JSON files naming a grid, value spaces, a symbol
or kernel constructor, one operation with its parameters, and a seed
(wall-clock seeding is not allowed: identical configs must produce
byte-identical reports).  Exit status: 0 when every verdict passes,
2 when any fails, 1 on usage or config errors.  Outputs are written
atomically (temp file + rename), so a failing run leaves no partial
files behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import testfunctions as tf
from .dyadic import BesovParams, besov_norm, build_partition, homogeneous_besov_norm
from .extrapolation import (
    cz_decompose,
    hilbert_kernel,
    hormander_constant,
    kernel_of_symbol,
    mihlin_check,
    sharpness_probe,
    extrapolation_sweep,
    symbol_of_kernel,
    verify_weak_type,
)
from .gaussian import check_lemma42, gamma_function_norm
from .multiplier import (
    SYMBOL_CONSTRUCTORS,
    estimate_multiplier_norm,
    verify_prop34,
    verify_prop43,
    verify_thm44,
    verify_thm45,
    verify_thm46,
)
from .reports import VerificationReport, _jsonable
from .sampling import GaussianSampler, SearchBudget
from .spaces import GridFunction, GridSpec, ValueSpace, lp_norm

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_FAIL = 2


class ConfigError(ValueError):
    """Scenario file is malformed or inconsistent."""


def _number(value):
    """A real parameter: a JSON number only (true and "1" are refused)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"not a number: {value!r}")


def _exponent(value):
    """An integrability or summation exponent: a number, or 'inf'."""
    return np.inf if value == "inf" else _number(value)


def _exponent_pair(value):
    p, q = value
    return _exponent(p), _exponent(q)


def _flag(value):
    """A switch: JSON true or false only (a string such as "false" is refused)."""
    if isinstance(value, bool):
        return value
    raise TypeError(f"not true or false: {value!r}")


def _integer(value):
    """A count, size or seed: a JSON integer only (64.9, "64" and true are refused)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"not an integer: {value!r}")


def _numbers(value, cast=_number):
    """A vector: a JSON array of numbers only, or of what cast reads."""
    if isinstance(value, list):
        return [cast(v) for v in value]
    raise TypeError(f"not a list: {value!r}")


_integers = partial(_numbers, cast=_integer)

_KINDS = {_integer: "an integer", _number: "a number", _exponent: "a number or 'inf'",
          _exponent_pair: "a [p, q] pair of numbers or 'inf'", _flag: "true or false",
          _numbers: "a list of numbers", _integers: "a list of integers"}
_REQUIRED = object()
_EXPONENT_DEFAULTS = {"u": "inf", "v": 2.0, "w": 2.0}


def _require(cfg: dict, key: str, ctx: str):
    if key not in cfg:
        raise ConfigError(f"config schema: missing key {key!r} in {ctx}")
    return cfg[key]


def _param(cfg: dict, key, ctx: str, cast=_number, default=_REQUIRED):
    """cfg[key] read through cast (one of _KINDS), required unless a default
    is given; with default None an unset or null value reads as None.  A
    value the cast rejects is a ConfigError naming ctx.key and its kind."""
    value = _require(cfg, key, ctx) if default is _REQUIRED else cfg.get(key, default)
    if value is None and default is None:
        return None
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"config schema: {ctx}.{key} must be {_KINDS[cast]}, got {value!r}"
        ) from exc


def _section(cfg: dict, key: str, ctx: Optional[str] = None, default=_REQUIRED):
    """cfg[key], which must be an object (a JSON dict), named ctx.key in
    errors (key alone at the top level); required unless a default is
    given, which an unset or null key reads as."""
    value = _require(cfg, key, ctx or "scenario") if default is _REQUIRED else cfg.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if not isinstance(value, dict):
        name = key if ctx is None else f"{ctx}.{key}"
        raise ConfigError(f"config schema: {name} must be an object, got {value!r}")
    return value


def _exponents(cfg: dict, ctx: str, keys: str = "p q") -> dict:
    """The exponents named in keys, by name: u, v, w (the summation exponents
    of the Besov-scale bounds) default to inf, 2, 2; the rest are required."""
    return {k: _param(cfg, k, ctx, _exponent, _EXPONENT_DEFAULTS.get(k, _REQUIRED))
            for k in keys.split()}


def _build_grid(cfg: dict) -> GridSpec:
    g = _section(cfg, "grid")
    d, n = _param(g, "d", "grid", _integer), _param(g, "n_per_dim", "grid", _integer)
    period = _param(g, "period", "grid", _number, 1.0)
    try:
        return GridSpec(d, n, period)
    except ValueError as exc:
        raise ConfigError(f"config schema: bad grid: {exc}") from exc


def _space(ctx: dict, role: str, default_dim: int) -> ValueSpace:
    """The value space configured as spaces.<role>, or l^2 of default_dim."""
    spec = _section(_section(ctx["raw"], "spaces", default={}), role, "spaces", None)
    if spec is None:
        return ValueSpace.lp(2.0, default_dim)
    kind = spec.get("kind", "lp")
    if kind != "lp":
        raise ConfigError(f"config schema: unsupported value-space kind {kind!r}")
    where = f"spaces.{role}"
    return ValueSpace.lp(_param(spec, "p", where, _exponent, 2.0),
                         _param(spec, "dim", where, _integer, 1))


def _operator_kwargs(ctx: dict, m) -> dict:
    """The value spaces of symbol m (l^2 of its dims unless configured), the
    budget and the sampler, as the keywords every operator estimate takes."""
    return dict(domain_space=_space(ctx, "domain", m.n_in),
                codomain_space=_space(ctx, "codomain", m.n_out),
                budget=ctx["budget"], sampler=ctx["sampler"])


def _build_symbol(cfg: dict, grid: GridSpec):
    spec = cfg.get("symbol")
    if spec is None:
        raise ConfigError("config schema: operation needs a 'symbol' entry")
    name = _require(spec, "constructor", "symbol")
    ctor = SYMBOL_CONSTRUCTORS.get(name)
    if ctor is None:
        raise ConfigError(
            f"config schema: unknown symbol constructor {name!r} "
            f"(known: {sorted(SYMBOL_CONSTRUCTORS)})"
        )
    params = dict(spec.get("params", {}))
    # the number keys of the constructors' params: riesz's sigma, modulation's shift
    for key, cast in (("sigma", _number), ("shift", _numbers)):
        if key in params:
            params[key] = _param(params, key, "symbol.params", cast)
    if name == "diagonal":
        entry_specs = params.pop("entries", [])
        entries = []
        for es in entry_specs:
            sub = _build_symbol({"symbol": es}, grid)
            if not sub.is_scalar:
                raise ConfigError("config schema: diagonal entries must be scalar symbols")
            entries.append(sub.values[:, 0, 0])
        return ctor(grid, entries)
    try:
        return ctor(grid, **params)
    except TypeError as exc:
        raise ConfigError(f"config schema: bad symbol params for {name!r}: {exc}") from exc


KERNEL_CONSTRUCTORS = {
    "hilbert": hilbert_kernel,
}


def _build_kernel(cfg: dict, grid: GridSpec):
    """Kernel from a constructor reference, or None when not configured."""
    spec = cfg.get("kernel")
    if spec is None:
        return None
    name = _require(spec, "constructor", "kernel")
    ctor = KERNEL_CONSTRUCTORS.get(name)
    if ctor is None:
        raise ConfigError(
            f"config schema: unknown kernel constructor {name!r} "
            f"(known: {sorted(KERNEL_CONSTRUCTORS)})"
        )
    try:
        return ctor(grid, **dict(spec.get("params", {})))
    except TypeError as exc:
        raise ConfigError(f"config schema: bad kernel params for {name!r}: {exc}") from exc


def _function_int(spec: dict, key: str, default, low: int, high: Optional[int] = None) -> int:
    """The integer spec[key] of a function spec, which must lie in [low, high]
    (no upper end when high is None); a ConfigError naming function.key if not."""
    value = _param(spec, key, "function", _integer, default)
    if value < low or (high is not None and value > high):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"config schema: function.{key} must be an integer {span}, "
                          f"got {value!r}")
    return value


def _build_function(spec: dict, grid: GridSpec, seed: int) -> GridFunction:
    kind = _require(spec, "kind", "function")
    rng = np.random.default_rng(seed)
    dim = _function_int(spec, "dim", 1, 1)
    if kind == "constant":
        return tf.constant_function(grid, _param(spec, "value", "function", _number, 1.0))
    if kind == "single_mode":
        mode = _param(spec, "mode", "function", _integers, [1] + [0] * (grid.d - 1))
        low, high = -(grid.n_per_dim // 2), (grid.n_per_dim - 1) // 2
        if not all(low <= j <= high for j in mode):
            raise ConfigError(f"config schema: function.mode entries must lie in "
                              f"[-N/2, N/2) = [{low}, {high}], got {mode!r}")
        return tf.single_mode(grid, mode, _param(spec, "amplitude", "function", _number, 1.0),
                              dim)
    if kind == "spike":
        return tf.spike(grid, _function_int(spec, "cell", 0, 0, grid.n_nodes - 1),
                        _param(spec, "l1_mass", "function", _number, 1.0), dim)
    if kind == "plateau":
        return tf.plateau(grid, _param(spec, "fraction", "function", _number, 0.25),
                          _param(spec, "height", "function", _number, 1.0), dim)
    if kind == "random_band_limited":
        part = build_partition(grid)
        if "annulus" in spec:
            mask = part.annulus_mask(_function_int(spec, "annulus", _REQUIRED, 0, part.k_max))
        else:
            mask = part.band_limit_mask()
        mean_zero = _param(spec, "mean_zero", "function", _flag, False)
        return tf.random_band_limited(grid, mask, rng, dim, mean_zero=mean_zero)
    raise ConfigError(f"config schema: unknown function kind {kind!r}")


def _build_budget(cfg: dict) -> SearchBudget:
    spec = _section(cfg, "budget", default={})
    return SearchBudget(
        restarts=_param(spec, "restarts", "budget", _integer, 16),
        steps=_param(spec, "steps", "budget", _integer, 60),
        max_vectors=_param(spec, "max_vectors", "budget", _integer, 8),
        search_samples=_param(spec, "search_samples", "budget", _integer, 4000),
    )


def _partition(cfg: dict, ctx: dict, op: str):
    return build_partition(ctx["grid"], _param(cfg, "smoothness", op, _integer, 3))


def _nonempty_list(cfg: dict, key: str, op: str) -> dict:
    """cfg[key], which must be a non-empty list (a JSON array), by index."""
    value = _require(cfg, key, op)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config schema: {op}.{key} must be a non-empty list, got {value!r}")
    return dict(enumerate(value))


def _grids(cfg: dict, ctx: dict, op: str) -> list:
    """The grids of a sweep: the scenario grid refined to each listed n_per_dim."""
    grid, ns = ctx["grid"], _nonempty_list(cfg, "grids", op)
    return [GridSpec(grid.d, _param(ns, i, f"{op}.grids", _integer), grid.period) for i in ns]


def _refuse_tolerance(ctx: dict, command: str, reason: str) -> None:
    """An operation whose verdict has no tolerance to set refuses one."""
    if ctx["tolerance"]:
        raise ConfigError(f"config schema: {command} takes no tolerance; {reason}")


_INFORMATIONAL = "it reports a value and always passes"
_EXACT = "its verdict is an exact check against 1e-12"


def _value_report(name: str, value: float, metadata: dict) -> VerificationReport:
    # informational operation: record the value, always passing
    return VerificationReport.build(
        measured=value, bound=value if value > 0 else 1.0, tolerance=np.inf,
        metadata=dict(metadata, informational=True, quantity=name),
    )


# ---------------------------------------------------------------------------
# operation runners: each returns a list of VerificationReports plus extras
# ---------------------------------------------------------------------------


def _op_partition(cfg, ctx):
    _refuse_tolerance(ctx, "partition", _EXACT)
    part = _partition(cfg, ctx, "partition")
    mags = ctx["grid"].frequency_magnitudes()
    inside = mags <= 2.0**part.k_max
    dev = float(np.abs(part.partition_sum[inside] - 1.0).max())
    leakage = 0.0
    for k in range(part.k_max + 1):
        outside = ~part.annulus_mask(k)
        if np.any(outside):
            leakage = max(leakage, float(np.abs(part.phi_hat[k][outside]).max()))
    report = VerificationReport.build(
        measured=max(dev, leakage), bound=1e-12, tolerance=0.0,
        metadata={"partition_sum_deviation": dev, "support_leakage": leakage,
                  "k_max": part.k_max},
    )
    return [report], {"partition": part.to_summary()}


def _op_besov_norm(cfg, ctx):
    _refuse_tolerance(ctx, "besov-norm", _INFORMATIONAL)
    f = _build_function(_require(cfg, "function", "besov-norm"), ctx["grid"], ctx["seed"])
    part = _partition(cfg, ctx, "besov-norm")
    params = BesovParams(_param(cfg, "s", "besov-norm", _number, 0.0),
                         _param(cfg, "p", "besov-norm", _exponent, 2.0),
                         _param(cfg, "v", "besov-norm", _exponent, 2.0))
    space = _space(ctx, "domain", f.value_dim)
    if _param(cfg, "homogeneous", "besov-norm", _flag, False):
        value = homogeneous_besov_norm(f, params, part, space)
    else:
        value = besov_norm(f, params, part, space)
    return [_value_report("besov_norm", value, {"s": params.s})], {"value": value}


def _op_multiplier(cfg, ctx):
    _refuse_tolerance(ctx, "multiplier", _INFORMATIONAL)
    m = _build_symbol(ctx["raw"], ctx["grid"])
    value = estimate_multiplier_norm(
        m, **_exponents(cfg, "multiplier"), **_operator_kwargs(ctx, m),
        mean_zero=_param(cfg, "mean_zero", "multiplier", _flag, False),
    )
    return [_value_report("multiplier_norm", value, {})], {"value": value}


def _op_gamma(cfg, ctx):
    _refuse_tolerance(ctx, "gamma", _INFORMATIONAL)
    f = _build_function(_require(cfg, "function", "gamma"), ctx["grid"], ctx["seed"])
    est = gamma_function_norm(f, _space(ctx, "domain", f.value_dim), ctx["sampler"])
    return (
        [_value_report("gamma_function_norm", est.value, est.to_dict())],
        {"estimate": est.to_dict()},
    )


def _op_hormander(cfg, ctx):
    _refuse_tolerance(ctx, "hormander", _INFORMATIONAL)
    kernel = _build_kernel(ctx["raw"], ctx["grid"])
    if kernel is None:
        m = _build_symbol(ctx["raw"], ctx["grid"])
        kernel = kernel_of_symbol(m, _param(cfg, "levels", "hormander", _integer, None))
    rep = hormander_constant(kernel, _param(cfg, "a", "hormander"))
    return (
        [_value_report("hormander_constant", rep.constant,
                       {"truncation_radius": rep.truncation_radius,
                        "n_samples": len(rep.samples), "n_rejected": len(rep.rejected)})],
        {"constant": rep.constant},
    )


def _op_mihlin(cfg, ctx):
    _refuse_tolerance(ctx, "mihlin", _INFORMATIONAL)
    m = _build_symbol(ctx["raw"], ctx["grid"])
    if _param(cfg, "adjoint", "mihlin", _flag, False):
        m = m.adjoint()
    rep = mihlin_check(
        m,
        r=_param(cfg, "r", "mihlin", _exponent),
        rho=_param(cfg, "rho", "mihlin", _exponent, 2.0),
        n=_param(cfg, "n", "mihlin", _integer, None),
        mode=cfg.get("mode", "oracle"),
        h=_param(cfg, "h", "mihlin", _number, None),
    )
    return (
        [_value_report("mihlin_constant", rep.constant,
                       {"order": rep.order, "shell_range": rep.shell_range})],
        {"constant": rep.constant},
    )


def _op_cz(cfg, ctx):
    _refuse_tolerance(ctx, "cz", _EXACT)
    f = _build_function(_require(cfg, "function", "cz"), ctx["grid"], ctx["seed"])
    space = _space(ctx, "domain", f.value_dim)
    l1 = lp_norm(f, 1.0, space)
    if l1 > 0:
        f = f * (1.0 / l1)
    res = cz_decompose(f, _param(cfg, "alpha", "cz"), _param(cfg, "a", "cz", _number, 1.0),
                       _param(cfg, "B", "cz", _number, 1.0), space)
    recon = res.good.samples.copy()
    recon_view = recon.reshape(ctx["grid"].spatial_shape() + (f.value_dim,))
    worst_mean = 0.0
    for bp, _ in res.bad_parts:
        recon_view[bp.cube] += bp.values
        # the mean is summed over the full grid, one part at a time: a sum
        # over the cube alone rounds differently and would move the report
        worst_mean = max(
            worst_mean,
            float(np.abs(bp.to_function().samples.sum(axis=0)).max()) * ctx["grid"].cell_volume,
        )
    recon_err = float(np.abs(recon - f.samples).max())
    sup_ok = lp_norm(res.good, np.inf, space) <= 2 ** ctx["grid"].d * res.height + 1e-12
    measure_ok = res.total_cube_measure() <= 1.0 / res.height + 1e-12
    exact = max(recon_err, worst_mean)
    report = VerificationReport.build(
        measured=exact if (sup_ok and measure_ok) or res.whole_domain else np.inf,
        bound=1e-12, tolerance=0.0,
        metadata={"n_cubes": len(res.bad_parts), "height": res.height,
                  "whole_domain": res.whole_domain,
                  "reconstruction_error": recon_err, "max_bad_mean": worst_mean},
    )
    return [report], {"n_cubes": len(res.bad_parts)}


def _op_weak_type(cfg, ctx):
    kernel = _build_kernel(ctx["raw"], ctx["grid"])
    if ctx["raw"].get("symbol") is not None:
        m = _build_symbol(ctx["raw"], ctx["grid"])
    elif kernel is not None:
        m = symbol_of_kernel(kernel)
    else:
        raise ConfigError("config schema: weak-type needs a 'symbol' or 'kernel' entry")
    f_set = tf.adversarial_l1_family(
        ctx["grid"], _param(cfg, "f_count", "weak-type", _integer, 24), seed=ctx["seed"],
        dim=m.n_in,
    )
    rep = verify_weak_type(
        a=_param(cfg, "a", "weak-type"),
        **_exponents(cfg, "weak-type", "p0 q0"),
        f_set=f_set,
        symbol=m,
        kernel=kernel,
        **ctx["tolerance"],
        **_operator_kwargs(ctx, m),
    )
    return [rep], {}


def _op_sweep(cfg, ctx):
    _refuse_tolerance(ctx, "sweep", "its verdict comes from sweep.spread_cap")
    grids = _grids(cfg, ctx, "sweep")
    spec = ctx["raw"].get("symbol")
    if spec is None:
        raise ConfigError("config schema: sweep needs a 'symbol' entry")

    def factory(grid):
        return _build_symbol({"symbol": spec}, grid)

    pairs = _nonempty_list(cfg, "pairs", "sweep")
    rep = extrapolation_sweep(
        factory,
        _param(cfg, "r", "sweep", _exponent),
        [_param(pairs, i, "sweep.pairs", _exponent_pair) for i in pairs],
        grids,
        budget=ctx["budget"],
        sampler=ctx["sampler"],
    )
    spread_cap = _param(cfg, "spread_cap", "sweep", _number, None)
    report = VerificationReport.build(
        measured=max(v["spread"] for v in rep.stability.values()), bound=1.0,
        tolerance=(spread_cap - 1.0) if spread_cap else np.inf,
        metadata={"quantity": "sweep_stability_spread", "fits": rep.endpoint_fits},
    )
    return [report], {"sweep": rep.to_dict(), "csv_rows": rep.to_csv_rows()}


def _op_sharpness(cfg, ctx):
    _refuse_tolerance(ctx, "sharpness", "its verdict comes from sharpness.growth_tolerance")
    grids = _grids(cfg, ctx, "sharpness")
    probe = sharpness_probe(_param(cfg, "sigma", "sharpness"), _param(cfg, "r", "sharpness"),
                            grids)
    growth = probe["per_level_growth"]
    # np.max keeps a NaN growth (two grids at one probe level), so the report fails
    worst = float(np.max(np.abs(np.asarray(growth) / probe["expected_growth"] - 1.0),
                         initial=0.0))
    cap = _param(cfg, "growth_tolerance", "sharpness", _number, 0.10)
    report = VerificationReport.build(
        measured=1.0 + worst, bound=1.0, tolerance=cap,
        metadata={"quantity": "sharpness_growth_deviation", **{
            k: v for k, v in probe.items() if k != "rows"}, "rows": probe["rows"]},
    )
    return [report], {"probe": probe}


def _op_prop43(cfg, ctx):
    m = _build_symbol(ctx["raw"], ctx["grid"])
    rep = verify_prop43(
        m, tuple(_param(cfg, "cube", "prop43", _numbers)), **_exponents(cfg, "prop43"),
        **ctx["tolerance"], **_operator_kwargs(ctx, m),
    )
    return [rep], {}


def _op_besov_scale(verify, which, cfg, ctx):
    m = _build_symbol(ctx["raw"], ctx["grid"])
    rep = verify(
        m, s=_param(cfg, "s", which, _number, 0.0),
        sigma=_param(cfg, "sigma", which, _number, 0.0),
        **_exponents(cfg, which, "u p v q w"), part=_partition(cfg, ctx, which),
        **ctx["tolerance"], **_operator_kwargs(ctx, m),
    )
    return [rep], {}


def _op_thm46(cfg, ctx):
    _refuse_tolerance(ctx, "verify thm46", "its verdict comes from thm46.c_cap")
    m = _build_symbol(ctx["raw"], ctx["grid"])
    rep = verify_thm46(
        m, **_exponents(cfg, "thm46"), part=_partition(cfg, ctx, "thm46"),
        c_cap=_param(cfg, "c_cap", "thm46", _number, None), **_operator_kwargs(ctx, m),
    )
    return [rep], {}


def _op_prop34(cfg, ctx):
    m = _build_symbol(ctx["raw"], ctx["grid"])
    rep = verify_prop34(
        m, s=_param(cfg, "s", "prop34", _number, 0.0), **_exponents(cfg, "prop34", "r u p v q w"),
        part=_partition(cfg, ctx, "prop34"), **ctx["tolerance"],
        **_operator_kwargs(ctx, m),
    )
    return [rep], {}


def _op_lemma42(cfg, ctx):
    _refuse_tolerance(ctx, "verify lemma42",
                      "its tolerance is three Monte-Carlo standard errors of the gamma norm")
    f = _build_function(_require(cfg, "function", "lemma42"), ctx["grid"], ctx["seed"])
    rep = check_lemma42(
        f, _param(cfg, "cube_side", "lemma42"), **_exponents(cfg, "lemma42"),
        space=_space(ctx, "domain", f.value_dim), sampler=ctx["sampler"],
    )
    return [rep], {}


# (subcommand, verify target) -> runner; the CLI's subcommands come from here
_OPERATIONS = {
    ("partition", None): _op_partition,
    ("besov-norm", None): _op_besov_norm,
    ("multiplier", None): _op_multiplier,
    ("gamma", None): _op_gamma,
    ("hormander", None): _op_hormander,
    ("mihlin", None): _op_mihlin,
    ("cz", None): _op_cz,
    ("weak-type", None): _op_weak_type,
    ("sweep", None): _op_sweep,
    ("sharpness", None): _op_sharpness,
    ("verify", "thm44"): partial(_op_besov_scale, verify_thm44, "thm44"),
    ("verify", "thm45"): partial(_op_besov_scale, verify_thm45, "thm45"),
    ("verify", "thm46"): _op_thm46,
    ("verify", "prop34"): _op_prop34,
    ("verify", "prop43"): _op_prop43,
    ("verify", "lemma42"): _op_lemma42,
}


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_scenario(path, seed_override=None, tolerance_override=None,
                 out_override=None, fmt="json", expected_operation=None):
    """Execute one scenario file; returns (exit_code, report_dict)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse config {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE, None

    try:
        if not isinstance(raw, dict):
            raise ConfigError(f"config schema: a scenario must be an object, got {raw!r}")
        if raw.get("schema") != SCHEMA_VERSION:
            raise ConfigError(
                f"config schema: expected schema {SCHEMA_VERSION}, got {raw.get('schema')!r}"
            )
        name = _require(raw, "name", "scenario")
        op_spec = _section(raw, "operation")
        op_name = _require(op_spec, "name", "operation")
        op_params = dict(_section(op_spec, "params", "operation", {}))
        key = (op_name, _require(op_spec, "target", "operation") if op_name == "verify" else None)
        label = " ".join(map(str, filter(None, key)))
        if expected_operation is not None and key != expected_operation:
            raise ConfigError(f"config schema: operation {label!r} does not match "
                              f"subcommand {' '.join(filter(None, expected_operation))!r}")
        if key not in _OPERATIONS:
            raise ConfigError(f"unknown operation: {label!r}")
        if "seed" not in raw:
            raise ConfigError("config schema: missing mandatory 'seed'")
        if seed_override is not None:
            raw = dict(raw, seed=seed_override)
        seed = _param(raw, "seed", "scenario", _integer)
        grid = _build_grid(raw)
        sampler = GaussianSampler(seed, _param(raw, "n_samples", "scenario", _integer, 20000))
        tolerance = (tolerance_override if tolerance_override is not None
                     else _param(raw, "tolerance", "scenario", _number, None))
        ctx = {
            "raw": raw,
            "grid": grid,
            "seed": seed,
            "sampler": sampler,
            "budget": _build_budget(raw),
            # passed to a verifier only when set, so each keeps its own default
            "tolerance": {} if tolerance is None else {"tolerance": tolerance},
        }
        out_spec = _section(raw, "output", default={})
        reports, extras = _OPERATIONS[key](op_params, ctx)
    except (ValueError, KeyError, TypeError, NotImplementedError, ArithmeticError) as exc:
        # ArithmeticError: a division by zero or an overflow an input check missed
        print(f"error: scenario {path.name}: {exc}", file=sys.stderr)
        return EXIT_USAGE, None

    resolved = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "operation": op_spec,
        "grid": {"d": grid.d, "n_per_dim": grid.n_per_dim, "period": grid.period},
        "seed": seed,
        "n_samples": sampler.n_samples,
    }
    # one renderer: sorted keys, numpy scalars as Python numbers and
    # non-finite numbers as "inf"/"-inf"/"nan", so the text is strict JSON
    report_obj = _jsonable({
        "config": resolved,
        "reports": [r.to_dict() for r in reports],
        "extras": {k: v for k, v in extras.items() if k != "csv_rows"},
        "verdict": "pass" if all(r.passed for r in reports) else "fail",
    })
    text = json.dumps(report_obj, indent=2) + "\n"

    json_path = out_override or out_spec.get("json")
    if json_path:
        _atomic_write(Path(json_path), text)
    csv_path = out_spec.get("csv")
    if csv_path and "csv_rows" in extras:
        lines = [",".join(str(c) for c in row) for row in extras["csv_rows"]]
        _atomic_write(Path(csv_path), "\n".join(lines) + "\n")
    if not json_path:
        if fmt == "csv" and "csv_rows" in extras:
            for row in extras["csv_rows"]:
                print(",".join(str(c) for c in row))
        elif fmt == "json":
            print(text, end="")

    for rep in reports:
        tag = rep.metadata.get("quantity", op_name)
        print(f"{name}: {tag}: {rep.verdict} (ratio {rep.ratio:.6g})")
    code = EXIT_PASS if report_obj["verdict"] == "pass" else EXIT_FAIL
    return code, report_obj


def run_suite(directory, out=None, report_dir=None, **kwargs):
    """Run every scenario in a directory; aggregate pass/fail matrix.

    A scenario that ends in a usage or config error is recorded as
    'error' and the rest still run; the suite then exits 1.  Each
    scenario's elapsed wall-clock time goes to stderr, so the reports
    and the stdout matrix stay deterministic.  With
    report_dir set, each scenario's report JSON is written there under
    the scenario's file name.
    """
    directory = Path(directory)
    files = sorted(directory.glob("*.json"))
    if not files:
        print(f"error: no scenario files in {directory}", file=sys.stderr)
        return EXIT_USAGE

    results = {}
    for f in files:
        per_out = str(Path(report_dir) / f.name) if report_dir else None
        began = time.perf_counter()
        results[f.name] = run_scenario(f, out_override=per_out, **kwargs)
        print(f"[suite] {f.name}: {time.perf_counter() - began:.3f} s", file=sys.stderr)

    matrix = {}
    for fname in sorted(results):
        _, rep = results[fname]
        matrix[fname] = rep["verdict"] if rep else "error"
        print(f"[suite] {fname}: {matrix[fname]}")
    codes = {code for code, _ in results.values()}
    worst = EXIT_USAGE if EXIT_USAGE in codes else max(codes)

    if out:
        _atomic_write(
            Path(out),
            json.dumps({"suite": matrix}, sort_keys=True, indent=2) + "\n",
        )
    n_fail = sum(1 for v in matrix.values() if v != "pass")
    print(f"[suite] {len(matrix) - n_fail}/{len(matrix)} scenarios passed")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="besovlp",
        description="Scenario runner for the dyadic-analysis verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="scenario JSON file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help="report JSON path")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--tolerance", type=float, default=None)

    targets = {}
    for name, target in _OPERATIONS:
        targets.setdefault(name, []).append(target)
    for name, choices in targets.items():
        sp = sub.add_parser(name, help=f"run a {name} scenario")
        if choices != [None]:
            sp.add_argument("target", choices=choices)
        add_common(sp)

    sp_suite = sub.add_parser("suite", help="run every scenario in a directory")
    sp_suite.add_argument("directory")
    sp_suite.add_argument("--seed", type=int, default=None)
    sp_suite.add_argument("--out", default=None)
    sp_suite.add_argument("--report-dir", default=None)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract here is exit 1
        return EXIT_USAGE if exc.code not in (0, None) else 0

    if args.command == "suite":
        return run_suite(args.directory, out=args.out,
                         report_dir=args.report_dir, seed_override=args.seed)

    code, _ = run_scenario(
        args.config,
        seed_override=args.seed,
        tolerance_override=args.tolerance,
        out_override=args.out,
        fmt=args.format,
        expected_operation=(args.command, getattr(args, "target", None)),
    )
    return code


if __name__ == "__main__":
    sys.exit(main())

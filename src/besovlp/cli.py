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
import concurrent.futures
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import testfunctions as tf
from .dyadic import BesovParams, besov_norm, build_partition, homogeneous_besov_norm
from .extrapolation import (
    cz_decompose,
    eta_zeta_system,
    hilbert_kernel,
    hormander_constant,
    kernel_of_symbol,
    mihlin_check,
    sharpness_probe,
    extrapolation_sweep,
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
from .reports import VerificationReport
from .sampling import GaussianSampler, SearchBudget
from .spaces import GridFunction, GridSpec, ValueSpace, lp_norm

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_FAIL = 2


class ConfigError(ValueError):
    """Scenario file is malformed or inconsistent."""


def _exponent(value):
    if value == "inf":
        return np.inf
    if isinstance(value, (int, float)):
        return float(value)
    raise ConfigError(f"exponent must be a number or 'inf', got {value!r}")


def _require(cfg: dict, key: str, ctx: str):
    if key not in cfg:
        raise ConfigError(f"config schema: missing key {key!r} in {ctx}")
    return cfg[key]


def _param(cfg: dict, key, ctx: str, cast=float, default=None):
    """cfg[key] read as a float or an int (cast), required unless a default is
    given; a value the cast rejects is a ConfigError naming ctx.key."""
    value = _require(cfg, key, ctx) if default is None else cfg.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"config schema: {ctx}.{key} must be {kind}, got {value!r}") from exc


def _build_grid(cfg: dict) -> GridSpec:
    g = _require(cfg, "grid", "scenario")
    d, n = _param(g, "d", "grid", int), _param(g, "n_per_dim", "grid", int)
    period = _param(g, "period", "grid", float, 1.0)
    try:
        return GridSpec(d, n, period)
    except ValueError as exc:
        raise ConfigError(f"config schema: bad grid: {exc}") from exc


def _build_space(spec: dict | None, default_dim: int = 1) -> ValueSpace:
    if spec is None:
        return ValueSpace.lp(2.0, default_dim)
    kind = spec.get("kind", "lp")
    if kind != "lp":
        raise ConfigError(f"config schema: unsupported value-space kind {kind!r}")
    return ValueSpace.lp(_exponent(spec.get("p", 2.0)), _param(spec, "dim", "space", int, 1))


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


def _build_function(spec: dict, grid: GridSpec, seed: int) -> GridFunction:
    kind = _require(spec, "kind", "function")
    rng = np.random.default_rng(seed)
    dim = _param(spec, "dim", "function", int, 1)
    if kind == "constant":
        return tf.constant_function(grid, spec.get("value", 1.0))
    if kind == "single_mode":
        return tf.single_mode(grid, spec.get("mode", [1] + [0] * (grid.d - 1)),
                              spec.get("amplitude", 1.0), dim)
    if kind == "spike":
        return tf.spike(grid, _param(spec, "cell", "function", int, 0),
                        _param(spec, "l1_mass", "function", float, 1.0), dim)
    if kind == "plateau":
        return tf.plateau(grid, _param(spec, "fraction", "function", float, 0.25),
                          _param(spec, "height", "function", float, 1.0), dim)
    if kind == "random_band_limited":
        part = build_partition(grid)
        if "annulus" in spec:
            mask = part.annulus_mask(_param(spec, "annulus", "function", int))
        else:
            mask = part.band_limit_mask()
        return tf.random_band_limited(grid, mask, rng, dim,
                                      mean_zero=bool(spec.get("mean_zero", False)))
    raise ConfigError(f"config schema: unknown function kind {kind!r}")


def _spaces_for_symbol(ctx: dict, m) -> tuple:
    """Configured value spaces, or Hilbert defaults sized to the symbol."""
    spec = ctx["raw"].get("spaces", {})
    domain = (
        _build_space(spec["domain"]) if "domain" in spec else ValueSpace.lp(2.0, m.n_in)
    )
    codomain = (
        _build_space(spec["codomain"]) if "codomain" in spec
        else ValueSpace.lp(2.0, m.n_out)
    )
    return domain, codomain


def _build_budget(cfg: dict) -> SearchBudget:
    spec = cfg.get("budget", {})
    return SearchBudget(
        restarts=_param(spec, "restarts", "budget", int, 16),
        steps=_param(spec, "steps", "budget", int, 60),
        max_vectors=_param(spec, "max_vectors", "budget", int, 8),
        search_samples=_param(spec, "search_samples", "budget", int, 4000),
    )


def _grids(cfg: dict, ctx: dict, op: str) -> list:
    """The grids of a sweep: the scenario grid refined to each listed n_per_dim."""
    grid, ns = ctx["grid"], dict(enumerate(_require(cfg, "grids", op)))
    return [GridSpec(grid.d, _param(ns, i, f"{op}.grids", int), grid.period) for i in ns]


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
    part = build_partition(ctx["grid"], _param(cfg, "smoothness", "partition", int, 3))
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
    f = _build_function(_require(cfg, "function", "besov-norm"), ctx["grid"], ctx["seed"])
    part = build_partition(ctx["grid"], _param(cfg, "smoothness", "besov-norm", int, 3))
    params = BesovParams(_param(cfg, "s", "besov-norm", float, 0.0), _exponent(cfg.get("p", 2.0)),
                         _exponent(cfg.get("v", 2.0)))
    space = _build_space(ctx["raw"].get("spaces", {}).get("domain"), f.value_dim)
    if cfg.get("homogeneous", False):
        value = homogeneous_besov_norm(f, params, part, space)
    else:
        value = besov_norm(f, params, part, space)
    return [_value_report("besov_norm", value, {"s": params.s})], {"value": value}


def _op_multiplier(cfg, ctx):
    m = _build_symbol(ctx["raw"], ctx["grid"])
    dspace, cspace = _spaces_for_symbol(ctx, m)
    value = estimate_multiplier_norm(
        m, _exponent(_require(cfg, "p", "multiplier")), _exponent(_require(cfg, "q", "multiplier")),
        dspace, cspace, ctx["budget"], ctx["sampler"],
        mean_zero=bool(cfg.get("mean_zero", False)),
    )
    return [_value_report("multiplier_norm", value, {})], {"value": value}


def _op_gamma(cfg, ctx):
    f = _build_function(_require(cfg, "function", "gamma"), ctx["grid"], ctx["seed"])
    space = _build_space(ctx["raw"].get("spaces", {}).get("domain"), f.value_dim)
    est = gamma_function_norm(f, space, ctx["sampler"])
    return (
        [_value_report("gamma_function_norm", est.value, est.to_dict())],
        {"estimate": est.to_dict()},
    )


def _op_hormander(cfg, ctx):
    kernel = _build_kernel(ctx["raw"], ctx["grid"])
    if kernel is None:
        m = _build_symbol(ctx["raw"], ctx["grid"])
        system = eta_zeta_system(ctx["grid"])
        levels = _param(cfg, "levels", "hormander", int, system.j_max)
        kernel = kernel_of_symbol(m, levels, system)
    rep = hormander_constant(kernel, _param(cfg, "a", "hormander"))
    return (
        [_value_report("hormander_constant", rep.constant,
                       {"truncation_radius": rep.truncation_radius,
                        "n_samples": len(rep.samples), "n_rejected": len(rep.rejected)})],
        {"constant": rep.constant},
    )


def _op_mihlin(cfg, ctx):
    m = _build_symbol(ctx["raw"], ctx["grid"])
    rep = mihlin_check(
        m,
        r=_exponent(_require(cfg, "r", "mihlin")),
        rho=_exponent(cfg.get("rho", 2.0)),
        n=cfg.get("n"),
        mode=cfg.get("mode", "oracle"),
        h=cfg.get("h"),
        adjoint=bool(cfg.get("adjoint", False)),
    )
    return (
        [_value_report("mihlin_constant", rep.constant,
                       {"order": rep.order, "shell_range": rep.shell_range})],
        {"constant": rep.constant},
    )


def _op_cz(cfg, ctx):
    f = _build_function(_require(cfg, "function", "cz"), ctx["grid"], ctx["seed"])
    space = _build_space(ctx["raw"].get("spaces", {}).get("domain"), f.value_dim)
    l1 = lp_norm(f, 1.0, space)
    if l1 > 0:
        f = f * (1.0 / l1)
    res = cz_decompose(f, _param(cfg, "alpha", "cz"), _param(cfg, "a", "cz", float, 1.0),
                       _param(cfg, "B", "cz", float, 1.0), space)
    recon = res.good.samples.copy()
    worst_mean = 0.0
    for bp, info in res.bad_parts:
        recon += bp.samples
        worst_mean = max(
            worst_mean,
            float(np.abs(bp.samples.sum(axis=0)).max()) * ctx["grid"].cell_volume,
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
        from .extrapolation import symbol_of_kernel

        m = symbol_of_kernel(kernel)
    else:
        raise ConfigError("config schema: weak-type needs a 'symbol' or 'kernel' entry")
    dspace, cspace = _spaces_for_symbol(ctx, m)
    f_set = tf.adversarial_l1_family(
        ctx["grid"], _param(cfg, "f_count", "weak-type", int, 24), seed=ctx["seed"], dim=m.n_in
    )
    rep = verify_weak_type(
        a=_param(cfg, "a", "weak-type"),
        p0=_exponent(_require(cfg, "p0", "weak-type")),
        q0=_exponent(_require(cfg, "q0", "weak-type")),
        f_set=f_set,
        symbol=m,
        kernel=kernel,
        domain_space=dspace,
        codomain_space=cspace,
        sampler=ctx["sampler"],
        budget=ctx["budget"],
        tolerance=ctx["tolerance"] if ctx["tolerance"] is not None else 1e-9,
    )
    return [rep], {}


def _op_sweep(cfg, ctx):
    grids = _grids(cfg, ctx, "sweep")
    spec = ctx["raw"].get("symbol")
    if spec is None:
        raise ConfigError("config schema: sweep needs a 'symbol' entry")

    def factory(grid):
        return _build_symbol({"symbol": spec}, grid)

    rep = extrapolation_sweep(
        factory,
        _exponent(_require(cfg, "r", "sweep")),
        [(_exponent(p), _exponent(q)) for p, q in _require(cfg, "pairs", "sweep")],
        grids,
        budget=ctx["budget"],
        sampler=ctx["sampler"],
    )
    spread_cap = cfg.get("spread_cap")
    reports = []
    worst = max(v["spread"] for v in rep.stability.values())
    reports.append(
        VerificationReport.build(
            measured=worst, bound=1.0,
            tolerance=(spread_cap - 1.0) if spread_cap else np.inf,
            metadata={"quantity": "sweep_stability_spread", "fits": rep.endpoint_fits},
        )
    )
    return reports, {"sweep": rep.to_dict(), "csv_rows": rep.to_csv_rows()}


def _op_sharpness(cfg, ctx):
    grids = _grids(cfg, ctx, "sharpness")
    probe = sharpness_probe(
        _param(cfg, "sigma", "sharpness"), _param(cfg, "r", "sharpness"),
        grids, ctx["sampler"],
    )
    growth = probe["per_level_growth"]
    worst = max(abs(g / probe["expected_growth"] - 1.0) for g in growth) if growth else 0.0
    cap = _param(cfg, "growth_tolerance", "sharpness", float, 0.10)
    report = VerificationReport.build(
        measured=1.0 + worst, bound=1.0, tolerance=cap,
        metadata={"quantity": "sharpness_growth_deviation", **{
            k: v for k, v in probe.items() if k != "rows"}, "rows": probe["rows"]},
    )
    return [report], {"probe": probe}


def _op_verify(cfg, ctx, which: str):
    if which == "lemma42":
        return _op_verify_lemma42(cfg, ctx)
    m = _build_symbol(ctx["raw"], ctx["grid"])
    dspace, cspace = _spaces_for_symbol(ctx, m)
    part = build_partition(ctx["grid"], _param(cfg, "smoothness", which, int, 3))
    tol = ctx["tolerance"] if ctx["tolerance"] is not None else 0.05
    common = dict(
        part=part,
        domain_space=dspace,
        codomain_space=cspace,
        budget=ctx["budget"],
        sampler=ctx["sampler"],
    )
    if which == "prop43":
        rep = verify_prop43(
            m, tuple(_require(cfg, "cube", "prop43")),
            _exponent(_require(cfg, "p", "prop43")), _exponent(_require(cfg, "q", "prop43")),
            dspace, cspace, ctx["budget"], ctx["sampler"],
            tolerance=tol,
        )
    elif which in ("thm44", "thm45"):
        fn = verify_thm44 if which == "thm44" else verify_thm45
        rep = fn(
            m,
            s=_param(cfg, "s", which, float, 0.0), sigma=_param(cfg, "sigma", which, float, 0.0),
            u=_exponent(cfg.get("u", "inf")),
            p=_exponent(_require(cfg, "p", which)), v=_exponent(cfg.get("v", 2.0)),
            q=_exponent(_require(cfg, "q", which)), w=_exponent(cfg.get("w", 2.0)),
            tolerance=tol, **common,
        )
    elif which == "thm46":
        rep = verify_thm46(
            m, p=_exponent(_require(cfg, "p", which)), q=_exponent(_require(cfg, "q", which)),
            c_cap=cfg.get("c_cap"), **common,
        )
    elif which == "prop34":
        rep = verify_prop34(
            m,
            r=_exponent(_require(cfg, "r", which)), u=_exponent(cfg.get("u", "inf")),
            s=_param(cfg, "s", which, float, 0.0),
            p=_exponent(_require(cfg, "p", which)), v=_exponent(cfg.get("v", 2.0)),
            q=_exponent(_require(cfg, "q", which)), w=_exponent(cfg.get("w", 2.0)),
            tolerance=tol, **common,
        )
    else:
        raise ConfigError(f"unknown operation: verify {which}")
    return [rep], {}


def _op_verify_lemma42(cfg, ctx):
    f = _build_function(_require(cfg, "function", "lemma42"), ctx["grid"], ctx["seed"])
    space = _build_space(ctx["raw"].get("spaces", {}).get("domain"), f.value_dim)
    rep = check_lemma42(
        f, _param(cfg, "cube_side", "lemma42"),
        _exponent(_require(cfg, "p", "lemma42")), _exponent(_require(cfg, "q", "lemma42")),
        space, ctx["sampler"],
    )
    return [rep], {}


_OPERATIONS = {
    "partition": _op_partition,
    "besov-norm": _op_besov_norm,
    "multiplier": _op_multiplier,
    "gamma": _op_gamma,
    "hormander": _op_hormander,
    "mihlin": _op_mihlin,
    "cz": _op_cz,
    "weak-type": _op_weak_type,
    "sweep": _op_sweep,
    "sharpness": _op_sharpness,
}
_VERIFY_TARGETS = ("thm44", "thm45", "thm46", "prop34", "prop43", "lemma42")


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
        if raw.get("schema") != SCHEMA_VERSION:
            raise ConfigError(
                f"config schema: expected schema {SCHEMA_VERSION}, got {raw.get('schema')!r}"
            )
        name = _require(raw, "name", "scenario")
        op_spec = _require(raw, "operation", "scenario")
        op_name = _require(op_spec, "name", "operation")
        op_params = dict(op_spec.get("params", {}))
        if expected_operation is not None:
            want_op, want_target = expected_operation
            if op_name != want_op or (
                want_target is not None and op_spec.get("target") != want_target
            ):
                raise ConfigError(
                    f"config schema: operation {op_name!r} (target "
                    f"{op_spec.get('target')!r}) does not match subcommand "
                    f"{want_op!r} {want_target or ''}".strip()
                )
        if "seed" not in raw:
            raise ConfigError("config schema: missing mandatory 'seed'")
        seed = (int(seed_override) if seed_override is not None
                else _param(raw, "seed", "scenario", int))
        grid = _build_grid(raw)
        sampler = GaussianSampler(seed, _param(raw, "n_samples", "scenario", int, 20000))
        ctx = {
            "raw": raw,
            "grid": grid,
            "seed": seed,
            "sampler": sampler,
            "budget": _build_budget(raw),
            "tolerance": (
                tolerance_override if tolerance_override is not None
                else raw.get("tolerance")
            ),
        }

        if op_name == "verify":
            target = _require(op_spec, "target", "operation")
            if target not in _VERIFY_TARGETS:
                raise ConfigError(f"unknown operation: verify {target!r}")
            reports, extras = _op_verify(op_params, ctx, target)
        elif op_name in _OPERATIONS:
            reports, extras = _OPERATIONS[op_name](op_params, ctx)
        else:
            raise ConfigError(f"unknown operation: {op_name!r}")
    except (ValueError, KeyError, TypeError, NotImplementedError) as exc:
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
    report_obj = {
        "config": resolved,
        "reports": [r.to_dict() for r in reports],
        "extras": {k: v for k, v in extras.items() if k != "csv_rows"},
        "verdict": "pass" if all(r.passed for r in reports) else "fail",
    }
    text = json.dumps(report_obj, sort_keys=True, indent=2) + "\n"

    out_spec = raw.get("output", {})
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


def run_suite(directory, jobs=1, out=None, report_dir=None, **kwargs):
    """Run every scenario in a directory; aggregate pass/fail matrix.

    A scenario that ends in a usage or config error is recorded as
    'error' and the rest still run; the suite then exits 1.  With
    report_dir set, each scenario's report JSON is written there under
    the scenario's file name.
    """
    directory = Path(directory)
    files = sorted(directory.glob("*.json"))
    if not files:
        print(f"error: no scenario files in {directory}", file=sys.stderr)
        return EXIT_USAGE

    def launch(f):
        per_out = str(Path(report_dir) / f.name) if report_dir else None
        return run_scenario(f, out_override=per_out, **kwargs)

    results = {}
    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            futs = {pool.submit(launch, f): f for f in files}
            for fut in concurrent.futures.as_completed(futs):
                f = futs[fut]
                code, rep = fut.result()
                results[f.name] = (code, rep)
    else:
        for f in files:
            results[f.name] = launch(f)

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

    for name in _OPERATIONS:
        add_common(sub.add_parser(name, help=f"run a {name} scenario"))

    sp_verify = sub.add_parser("verify", help="run a theorem verification scenario")
    sp_verify.add_argument("target", choices=_VERIFY_TARGETS)
    add_common(sp_verify)

    sp_suite = sub.add_parser("suite", help="run every scenario in a directory")
    sp_suite.add_argument("directory")
    sp_suite.add_argument("--jobs", type=int, default=1)
    sp_suite.add_argument("--seed", type=int, default=None)
    sp_suite.add_argument("--out", default=None)
    sp_suite.add_argument("--report-dir", default=None)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract here is exit 1
        return EXIT_USAGE if exc.code not in (0, None) else 0

    if args.command == "suite":
        return run_suite(args.directory, jobs=args.jobs, out=args.out,
                         report_dir=args.report_dir, seed_override=args.seed)

    if args.command == "verify":
        expected = ("verify", args.target)
    else:
        expected = (args.command, None)
    code, _ = run_scenario(
        args.config,
        seed_override=args.seed,
        tolerance_override=args.tolerance,
        out_override=args.out,
        fmt=args.format,
        expected_operation=expected,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())

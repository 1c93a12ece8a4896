import dataclasses
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import pytest

from besovlp import cli
from besovlp.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main, run_scenario, run_suite

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


BASE = {
    "schema": 1,
    "name": "t",
    "grid": {"d": 1, "n_per_dim": 64, "period": 1.0},
    "symbol": {"constructor": "identity", "params": {}},
    "operation": {"name": "multiplier", "params": {"p": 2.0, "q": 2.0}},
    "seed": 1,
    "budget": {"restarts": 2, "steps": 5},
}


def test_bundled_identity_scenario_passes(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code, rep = run_scenario(SCENARIOS / "identity-thm44.json", out_override=out)
    assert code == EXIT_PASS
    assert rep["verdict"] == "pass"
    assert rep["reports"][0]["ratio"] <= 1.05
    assert out.exists()


def test_weak_type_scenario_reports_cda(tmp_path):
    code, rep = run_scenario(SCENARIOS / "weak-type-hilbert-transform.json")
    assert code == EXIT_PASS
    assert rep["reports"][0]["metadata"]["C_da"] == 10.0


def test_malformed_config_exits_one_without_outputs(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    out = tmp_path / "never.json"
    code, rep = run_scenario(path, out_override=out)
    assert code == EXIT_USAGE
    assert rep is None
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_unknown_operation_exits_one(tmp_path, capsys):
    cfg = dict(BASE)
    cfg["operation"] = {"name": "frobnicate", "params": {}}
    code, _ = run_scenario(write(tmp_path, "x.json", cfg))
    assert code == EXIT_USAGE
    assert "unknown operation" in capsys.readouterr().err


def test_missing_seed_exits_one(tmp_path, capsys):
    cfg = {k: v for k, v in BASE.items() if k != "seed"}
    code, _ = run_scenario(write(tmp_path, "x.json", cfg))
    assert code == EXIT_USAGE
    assert "seed" in capsys.readouterr().err


def test_wrong_schema_exits_one(tmp_path, capsys):
    cfg = dict(BASE, schema=99)
    code, _ = run_scenario(write(tmp_path, "x.json", cfg))
    assert code == EXIT_USAGE
    assert "schema" in capsys.readouterr().err


def test_unknown_symbol_constructor_message(tmp_path, capsys):
    cfg = dict(BASE, symbol={"constructor": "nonsense", "params": {}})
    code, _ = run_scenario(write(tmp_path, "x.json", cfg))
    assert code == EXIT_USAGE
    assert "unknown symbol constructor" in capsys.readouterr().err


def test_failing_verdict_exits_two(tmp_path):
    cfg = dict(BASE)
    cfg["operation"] = {
        "name": "verify",
        "target": "thm44",
        "params": {"s": 0.0, "sigma": 0.0, "u": "inf",
                   "p": 2.0, "v": 2.0, "q": 2.0, "w": 2.0},
    }
    cfg["tolerance"] = -0.9  # identity has ratio 1 > 0.1: deterministic fail
    code, rep = run_scenario(write(tmp_path, "fail.json", cfg))
    assert code == EXIT_FAIL
    assert rep["verdict"] == "fail"


def test_scenario_outputs_are_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    run_scenario(SCENARIOS / "riesz-prop43.json", out_override=out1)
    run_scenario(SCENARIOS / "riesz-prop43.json", out_override=out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_override_changes_echo(tmp_path):
    _, rep1 = run_scenario(SCENARIOS / "gamma-band-limited.json")
    _, rep2 = run_scenario(SCENARIOS / "gamma-band-limited.json", seed_override=9)
    assert rep1["config"]["seed"] != rep2["config"]["seed"]


def test_sweep_scenario_writes_csv(tmp_path):
    cfg = json.loads((SCENARIOS / "riesz-sweep.json").read_text())
    cfg["operation"]["params"]["grids"] = [64, 128]
    cfg["output"] = {"json": str(tmp_path / "s.json"), "csv": str(tmp_path / "s.csv")}
    code, _ = run_scenario(write(tmp_path, "sweep.json", cfg))
    assert code == EXIT_PASS
    lines = (tmp_path / "s.csv").read_text().strip().splitlines()
    assert lines[0] == "p,q,n_per_dim,estimate"
    assert len(lines) == 1 + 3 * 2


def test_suite_empty_directory_exits_one(tmp_path, capsys):
    assert run_suite(tmp_path) == EXIT_USAGE


def test_suite_mixed_results(tmp_path, capsys):
    ok = dict(BASE)
    write(tmp_path, "a-ok.json", ok)
    bad = dict(BASE)
    bad["operation"] = {
        "name": "verify",
        "target": "thm44",
        "params": {"s": 0.0, "sigma": 0.0, "u": "inf",
                   "p": 2.0, "v": 2.0, "q": 2.0, "w": 2.0},
    }
    bad["tolerance"] = -0.9
    write(tmp_path, "b-bad.json", bad)
    out = tmp_path / "agg.json"
    code = run_suite(tmp_path, out=out)
    assert code == EXIT_FAIL
    matrix = json.loads(out.read_text())["suite"]
    assert matrix["a-ok.json"] == "pass"
    assert matrix["b-bad.json"] == "fail"
    assert sum(1 for v in matrix.values() if v == "fail") == 1


# a cz scenario whose alpha is null, a mihlin check of an order the riesz
# derivative oracle does not cover, a thm44 check whose p is null, and
# sections that must be objects but are not
NULL_ALPHA = dict(
    BASE,
    symbol=None,
    operation={"name": "cz", "params": {"function": {"kind": "spike"}, "alpha": None}},
)
MIHLIN_ORDER_3 = dict(
    BASE,
    symbol={"constructor": "riesz", "params": {"sigma": 0.5}},
    operation={"name": "mihlin", "params": {"r": 2.0, "n": 3}},
)
NULL_P = dict(
    BASE,
    operation={"name": "verify", "target": "thm44", "params": {"p": None, "q": 2.0}},
)

SWEEP = dict(
    BASE,
    symbol={"constructor": "riesz", "params": {"sigma": 0.5}},
    operation={"name": "sweep", "params": {"r": 2.0, "pairs": [[2.0, "inf"]],
                                           "grids": [32, 64]}},
)
EMPTY_GRIDS_PROBE = dict(
    BASE,
    symbol=None,
    operation={"name": "sharpness", "params": {"sigma": 0.25, "r": 2.0, "grids": []}},
)


def _sweep_params(**params):
    return dict(SWEEP, operation={"name": "sweep",
                                  "params": dict(SWEEP["operation"]["params"], **params)})


def _besov_norm(kind="random_band_limited", **function):
    """A besov-norm scenario on N = 64 of the function spec {kind, **function}."""
    spec = dict(function, kind=kind)
    return dict(BASE, operation={"name": "besov-norm", "params": {"function": spec}})


def _with_params(cfg, **params):
    op = cfg["operation"]
    return dict(cfg, operation=dict(op, params=dict(op["params"], **params)))


MIHLIN = dict(BASE, symbol={"constructor": "riesz", "params": {"sigma": 0.5}},
              operation={"name": "mihlin", "params": {"r": 2.0}})


HILBERT = {"constructor": "hilbert", "params": {}}


def _hilbert_op(name, **params):
    """A scenario of operation name on the Hilbert symbol, with params."""
    return dict(BASE, symbol=HILBERT, operation={"name": name, "params": params})


def _weak_type(**params):
    return _hilbert_op("weak-type", **dict({"a": 1.0, "p0": 2.0, "q0": 2.0}, **params))


PROP43 = dict(BASE, operation={"name": "verify", "target": "prop43",
                               "params": {"cube": [1.0, 9.0], "p": 2.0, "q": 2.0}})
PARTITION = dict(BASE, symbol=None, operation={"name": "partition", "params": {}})
CZ_SPIKE = dict(BASE, symbol=None,
                operation={"name": "cz", "params": {"function": {"kind": "spike"}, "alpha": 8.0}})
# (subcommand, switch, the scenario with the switch set to a value): every
# switch reads only JSON true or false, and unset is false; a string
# "false" used to be truthy and ran the homogeneous norm
SWITCHES = [
    ("besov-norm", "besov-norm.homogeneous",
     lambda v: _with_params(_besov_norm(), homogeneous=v)),
    ("besov-norm", "function.mean_zero",
     lambda v: _with_params(_besov_norm(mean_zero=v), homogeneous=True)),
    ("multiplier", "multiplier.mean_zero", lambda v: _with_params(BASE, q=4.0, mean_zero=v)),
    ("mihlin", "mihlin.adjoint", lambda v: _with_params(MIHLIN, adjoint=v)),
]


THM44 = dict(BASE, operation={"name": "verify", "target": "thm44",
                              "params": {"s": 0.0, "sigma": 0.0, "u": "inf", "p": 2.0,
                                         "v": 2.0, "q": 2.0, "w": 2.0}})
PROP34 = dict(BASE, operation={"name": "verify", "target": "prop34",
                               "params": {"r": "inf", "u": "inf", "s": 0.0, "p": 2.0,
                                          "v": 2.0, "q": 2.0, "w": 2.0}})
SHARPNESS = dict(EMPTY_GRIDS_PROBE, operation={"name": "sharpness", "params": {
    "sigma": 0.25, "r": 2.0, "grids": [64, 128]}})


def _gamma(function):
    """A gamma scenario on N = 64 of the function spec."""
    return dict(BASE, n_samples=1000, operation={"name": "gamma",
                                                 "params": {"function": function}})


def _annulus(k):
    """A multiplier scenario on N = 64 of the annulus indicator I_k."""
    return dict(BASE, symbol={"constructor": "annulus_indicator", "params": {"k": k}})


# one leaf of a scenario set out of range: each was a traceback or a pass
MUTATED_INPUTS = [
    # an exponent that is only inverted, checked where it is: 0 was a
    # ZeroDivisionError traceback, 1e-308 an OverflowError, and 0.5 and
    # -1e308 passed
    *[("verify thm44", _with_params(THM44, **{key: 0}), f"{key} must lie in [1, inf], got 0")
      for key in "uvw"],
    *[("verify prop34", _with_params(PROP34, **{key: 0}), f"{key} must lie in [1, inf], got 0")
      for key in "rupvqw"],
    *[("weak-type", _weak_type(**{key: 0}), f"{key} must lie in [1, inf], got 0")
      for key in ("p0", "q0")],
    *[(command, _with_params(cfg, u=u), f"u must lie in [1, inf], got {u}")
      for command, cfg in (("verify thm44", THM44), ("verify prop34", PROP34))
      for u in (1e-308, 0.5, -1e308)],
    ("verify prop34", _with_params(PROP34, r=-1e308), "r must lie in [1, inf], got -1e+308"),
    # cz's weak-type exponent: 0, -1 and 0.5 passed, and +-1e308 was an
    # OverflowError traceback; at a = 1e308 the height alpha^a overflows
    *[("cz", _with_params(CZ_SPIKE, a=a), f"a must lie in [1, inf], got {a}")
      for a in (0, -1, 0.5, -1e308)],
    ("cz", _with_params(CZ_SPIKE, a=1e308),
     "height B^-a 2^-(d+a) alpha^a must be positive and finite, got inf"),
    # a plateau fraction outside (0, 1]: +-1e308 was a traceback, and 0, -1
    # and 2.5 built a one-cell or a whole-axis plateau
    *[("cz", _with_params(CZ_SPIKE, function={"kind": "plateau", "fraction": fraction}),
       f"plateau fraction must lie in (0, 1], got {fraction}")
      for fraction in (1e308, -1e308, 0, -1, 2.5)],
    # an annulus index that is no non-negative integer (1e308 was a
    # traceback, -1, 0.5 and true passed), or whose annulus is empty
    *[("multiplier", _annulus(k), f"annulus index k must be a non-negative integer, got {k!r}")
      for k in (1e308, -1, 0.5, True)],
    ("multiplier", _annulus(12), "annulus I_12 holds no lattice node of the grid"),
    # the expected growth 2^(d/r - sigma) underflows to 0: a ZeroDivisionError
    ("sharpness", _with_params(SHARPNESS, sigma=1e308),
     "sigma = 1e+308 puts the expected growth 2^(d/r - sigma) at 0, outside (0, inf)"),
    # number keys read without their typed readers: true and strings ran
    # as 1.0 or their number, a mode 1.5 ran off the lattice and a mode
    # outside [-N/2, N/2) ran as its alias
    ("besov-norm", _besov_norm("single_mode", amplitude=True),
     "config schema: function.amplitude must be a number, got True"),
    *[("gamma", _gamma({"kind": "single_mode", "mode": mode}),
       f"config schema: function.mode must be a list of integers, got {mode!r}")
      for mode in ([True], [1.5])],
    *[("gamma", _gamma({"kind": "single_mode", "mode": [j]}),
       f"config schema: function.mode entries must lie in [-N/2, N/2) = [-32, 31], got [{j}]")
      for j in (32, 40, -33)],
    ("gamma", _gamma({"kind": "constant", "value": True}),
     "config schema: function.value must be a number, got True"),
    ("multiplier", dict(BASE, symbol={"constructor": "riesz", "params": {"sigma": True}}),
     "config schema: symbol.params.sigma must be a number, got True"),
    *[("multiplier", dict(BASE, symbol={"constructor": "modulation", "params": {"shift": shift}}),
       f"config schema: symbol.params.shift must be a list of numbers, got {shift!r}")
      for shift in (["0.25"], [True])],
    ("verify prop43", _with_params(PROP43, cube=["1", 9.0]),
     "config schema: prop43.cube must be a list of numbers, got ['1', 9.0]"),
    # a spike whose one sample overflows: numpy RuntimeWarnings and a
    # NaN function, which cz failed on and besov-norm measured as nan
    *[(command, cfg, "spike sample l1_mass / cell volume must be finite, got inf")
      for command, cfg in (
          ("cz", _with_params(CZ_SPIKE, function={"kind": "spike", "l1_mass": 1e308})),
          ("besov-norm", _besov_norm("spike", l1_mass=1e308)))],
]


# (command, config, what the message names: the offending key, or the
# order the oracle covers)
BAD_CONFIGS = [
    ("cz", NULL_ALPHA, "cz.alpha must be a number"),
    ("mihlin", MIHLIN_ORDER_3, "|alpha| <= 2"),
    ("verify thm44", NULL_P, "thm44.p must be a number or 'inf'"),
    ("multiplier", dict(BASE, budget=3), "config schema: budget must be an object, got 3"),
    ("multiplier", dict(BASE, spaces={"domain": 3}),
     "config schema: spaces.domain must be an object, got 3"),
    ("multiplier", dict(BASE, grid=[64]), "config schema: grid must be an object, got [64]"),
    ("multiplier", dict(BASE, budget={"restarts": 10**6, "steps": 5}),
     "witness search too large"),
    # l^1 -> l^inf makes prop43 search the gamma-bound; its frozen draw of
    # 10^6 samples x 10^5 vectors would take 1.5 TiB
    ("verify prop43",
     dict(BASE, operation={"name": "verify", "target": "prop43",
                           "params": {"cube": [1.0, 9.0], "p": 1.0, "q": "inf"}},
          spaces={"domain": {"p": 1.0}, "codomain": {"p": "inf"}}, n_samples=10**6,
          budget={"search_samples": 10**6, "max_vectors": 10**5}),
     "Gaussian search too large"),
    # the same search with 10^7 restarts would build about 16 GB of random generators
    ("verify prop43",
     dict(BASE, operation={"name": "verify", "target": "prop43",
                           "params": {"cube": [1.0, 9.0], "p": 1.0, "q": "inf"}},
          spaces={"domain": {"p": 1.0}, "codomain": {"p": "inf"}},
          budget={"restarts": 10**7, "search_samples": 100}),
     "random generators"),
    ("sharpness", EMPTY_GRIDS_PROBE,
     "config schema: sharpness.grids must be a non-empty list, got []"),
    ("sweep", _sweep_params(pairs=[]),
     "config schema: sweep.pairs must be a non-empty list, got []"),
    ("sweep", _sweep_params(grids=[]),
     "config schema: sweep.grids must be a non-empty list, got []"),
    # at N = 2^15 with 400 restarts one pair's witness search fits under the
    # state cap, and the three pairs sharing it do not
    ("sweep",
     dict(_sweep_params(pairs=[[4.0 / 3.0, 4.0], [1.5, 6.0], [2.0, 10.0]], grids=[2**15]),
          budget={"restarts": 400}),
     "witness search too large: 3 estimates x 421 starts"),
    # r = 0 divided by zero, and p < 1 read as a pair off the line
    ("sweep", _sweep_params(r=0), "r must lie in [1, inf], got 0"),
    ("sweep", _sweep_params(pairs=[[0.5, 2.0]]), "p must lie in [1, inf], got 0.5"),
    # function values out of range on N = 64 (k_max = 4): an IndexError
    # traceback, a spike on the last cell, or a zero function before
    ("besov-norm", _besov_norm("spike", cell=64),
     "config schema: function.cell must be an integer in [0, 63], got 64"),
    ("besov-norm", _besov_norm("spike", cell=-1),
     "config schema: function.cell must be an integer in [0, 63], got -1"),
    ("besov-norm", _besov_norm("spike", dim=0),
     "config schema: function.dim must be an integer >= 1, got 0"),
    ("besov-norm", _besov_norm("single_mode", dim=0),
     "config schema: function.dim must be an integer >= 1, got 0"),
    ("besov-norm", _besov_norm("random_band_limited", annulus=99),
     "config schema: function.annulus must be an integer in [0, 4], got 99"),
    ("besov-norm", _besov_norm("random_band_limited", annulus=-3),
     "config schema: function.annulus must be an integer in [0, 4], got -3"),
    # a switch set to anything but JSON true or false
    *[(command, make(value), f"config schema: {name} must be true or false, got {value!r}")
      for command, name, make in SWITCHES for value in ("false", "no", {"x": 1}, 1, None)],
    # an integer key set to a non-integral number, a boolean or a string:
    # int() truncated 64.9 to N = 64 and a spike cell 1.5 to cell 1, and took true and "64"
    ("cz", dict(CZ_SPIKE, grid=dict(BASE["grid"], n_per_dim=64.9)),
     "config schema: grid.n_per_dim must be an integer, got 64.9"),
    ("cz", _with_params(CZ_SPIKE, function={"kind": "spike", "cell": 1.5}),
     "config schema: function.cell must be an integer, got 1.5"),
    ("multiplier", dict(BASE, grid=dict(BASE["grid"], n_per_dim=True)),
     "config schema: grid.n_per_dim must be an integer, got True"),
    ("multiplier", dict(BASE, grid=dict(BASE["grid"], n_per_dim="64")),
     "config schema: grid.n_per_dim must be an integer, got '64'"),
    ("multiplier", dict(BASE, grid=dict(BASE["grid"], d=1.0)),
     "config schema: grid.d must be an integer, got 1.0"),
    ("multiplier", dict(BASE, budget={"restarts": 2.5, "steps": 5}),
     "config schema: budget.restarts must be an integer, got 2.5"),
    ("multiplier", dict(BASE, budget={"restarts": 2, "steps": "5"}),
     "config schema: budget.steps must be an integer, got '5'"),
    ("multiplier", dict(BASE, budget={"restarts": 2, "steps": 5, "max_vectors": 8.0}),
     "config schema: budget.max_vectors must be an integer, got 8.0"),
    ("multiplier", dict(BASE, budget={"restarts": 2, "steps": 5, "search_samples": True}),
     "config schema: budget.search_samples must be an integer, got True"),
    ("multiplier", dict(BASE, seed=1.5), "config schema: scenario.seed must be an integer, got 1.5"),
    ("multiplier", dict(BASE, n_samples=20000.0),
     "config schema: scenario.n_samples must be an integer, got 20000.0"),
    ("multiplier", dict(BASE, spaces={"domain": {"dim": True}}),
     "config schema: spaces.domain.dim must be an integer, got True"),
    ("besov-norm", _with_params(_besov_norm(), smoothness=3.5),
     "config schema: besov-norm.smoothness must be an integer, got 3.5"),
    ("besov-norm", _besov_norm("spike", dim=1.0),
     "config schema: function.dim must be an integer, got 1.0"),
    ("besov-norm", _besov_norm("random_band_limited", annulus=True),
     "config schema: function.annulus must be an integer, got True"),
    ("hormander", dict(BASE, symbol=HILBERT,
                       operation={"name": "hormander", "params": {"a": 1.0, "levels": 2.5}}),
     "config schema: hormander.levels must be an integer, got 2.5"),
    ("weak-type", dict(BASE, symbol=HILBERT,
                       operation={"name": "weak-type",
                                  "params": {"a": 1.0, "p0": 2.0, "q0": 2.0, "f_count": "24"}}),
     "config schema: weak-type.f_count must be an integer, got '24'"),
    ("mihlin", _with_params(MIHLIN, n=1.0), "config schema: mihlin.n must be an integer, got 1.0"),
    ("sweep", _sweep_params(grids=[32, 64.0]),
     "config schema: sweep.grids.1 must be an integer, got 64.0"),
    # a period whose frequencies overflow, vanish or are not numbers: an
    # OverflowError traceback from the partition, or "math domain error",
    # before; at 1e-100 a partition of 337 rows, 331 of them empty
    *[("multiplier", dict(BASE, grid=dict(BASE["grid"], period=period)),
       f"config schema: bad grid: period {period:g} puts the largest axis frequency "
       f"N/(2L) = {frequency} outside (0, 2^60]")
      for period, frequency in [(1e-320, "inf"), (1e-300, "3.2e+301"), (1e-200, "3.2e+201"),
                                (1e-100, "3.2e+101"), (1e-17, "3.2e+18"), (1e308, "0")]],
    *[("multiplier", dict(BASE, grid=dict(BASE["grid"], period=period)),
       f"config schema: bad grid: period must be positive and finite, got {period}")
      for period in (float("inf"), float("nan"))],
    # a number key set to a boolean or a string: float() took true and "1" as 1.0
    ("multiplier", dict(BASE, grid=dict(BASE["grid"], period=True)),
     "config schema: grid.period must be a number, got True"),
    ("multiplier", dict(BASE, grid=dict(BASE["grid"], period="1")),
     "config schema: grid.period must be a number, got '1'"),
    ("multiplier", dict(BASE, grid=dict(BASE["grid"], period="inf")),
     "config schema: grid.period must be a number, got 'inf'"),
    ("cz", _with_params(CZ_SPIKE, alpha="8"), "config schema: cz.alpha must be a number, got '8'"),
    ("besov-norm", _with_params(_besov_norm(), s=True),
     "config schema: besov-norm.s must be a number, got True"),
    # an exponent set to true: p = 1 before
    ("verify thm44", dict(NULL_P, operation={"name": "verify", "target": "thm44",
                                             "params": {"p": True, "q": 2.0}}),
     "config schema: thm44.p must be a number or 'inf', got True"),
    ("multiplier", dict(BASE, spaces={"domain": {"p": True}}),
     "config schema: spaces.domain.p must be a number or 'inf', got True"),
    ("sweep", _sweep_params(pairs=[[True, 2.0]]),
     "config schema: sweep.pairs.0 must be a [p, q] pair of numbers or 'inf', got [True, 2.0]"),
    # a ZeroDivisionError, OverflowError or IndexError traceback before
    ("mihlin", _with_params(MIHLIN, r=0), "r must lie in [1, inf], got 0"),
    ("mihlin", _with_params(MIHLIN, mode="fd", h=1e308),
     "step h must lie in (0, N/(2L)) = (0, 32), got 1e+308"),
    ("hormander", _hilbert_op("hormander", a=0), "a must lie in [1, inf], got 0"),
    ("weak-type", _weak_type(a=0), "a must lie in [1, inf], got 0"),
    ("cz", _with_params(CZ_SPIKE, B=0), "B must be positive and finite, got 0"),
    ("verify prop43", _with_params(PROP43, cube=[1.0]), "cube must be a pair [a, b], got [1.0]"),
    ("partition", _with_params(PARTITION, smoothness=10**6),
     "smoothness must lie in [1, 8], got 1000000"),
    # inputs that checked nothing and passed before: a negative (H)_a
    # exponent, no multi-index, an empty truncation window, no test function
    ("hormander", _hilbert_op("hormander", a=-1), "a must lie in [1, inf], got -1"),
    ("mihlin", _with_params(MIHLIN, n=-1), "derivative order n = -1 < 0"),
    ("hormander", _hilbert_op("hormander", a=1.0, levels=-3),
     "truncation level must be >= 0, got -3"),
    ("weak-type", _weak_type(f_count=0), "f_set must hold at least one test function"),
    ("weak-type", _weak_type(f_count=-2), "f_set must hold at least one test function"),
    # cutoff orders whose polynomial leaves [0, 1] by more than 1e-9
    ("partition", _with_params(PARTITION, smoothness=9), "smoothness must lie in [1, 8], got 9"),
    ("besov-norm", _with_params(_besov_norm(), smoothness=12),
     "smoothness must lie in [1, 8], got 12"),
    *MUTATED_INPUTS,
]


def test_gamma_scenario_holds_half_its_draws(tmp_path):
    # K = 64 cells, n = 20000: one complex chunk of draws, 19.5 MB, set the
    # traced peak at 20.5 MB; streamed in row blocks it is 12 MB
    tracemalloc.start()
    try:
        code, _ = run_scenario(SCENARIOS / "gamma-band-limited.json",
                               out_override=tmp_path / "rep.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_PASS
    assert peak < 14 * 2**20


@pytest.mark.parametrize("command, cfg", [case[:2] for case in BAD_CONFIGS])
def test_bad_parameter_exits_one_with_one_line(tmp_path, capsys, command, cfg):
    path = write(tmp_path, "bad.json", cfg)
    assert main([*command.split(), "--config", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: scenario bad.json: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert next(named for _, bad, named in BAD_CONFIGS if bad is cfg) in err


@pytest.mark.parametrize("command, name, make", SWITCHES, ids=[s[1] for s in SWITCHES])
def test_switches_take_true_and_false_and_unset_is_false(tmp_path, monkeypatch, command, name,
                                                         make):
    # the adjoint of a bundled (scalar or diagonal) symbol has the same
    # Mihlin constant, so the check reports whether it was handed the
    # adjoint, whose name ends in "*"
    mihlin_check = cli.mihlin_check
    monkeypatch.setattr(cli, "mihlin_check", lambda m, **kw: dataclasses.replace(
        mihlin_check(m, **kw), constant=float(m.name.endswith("*"))))

    def outcome(cfg):
        code, rep = run_scenario(write(tmp_path, "s.json", cfg))
        return code, rep and rep["extras"]

    on, off = outcome(make(True)), outcome(make(False))
    assert on != off and EXIT_PASS in (on[0], off[0])
    unset = make(False)
    params = unset["operation"]["params"]
    del (params["function"] if name.startswith("function.") else params)[name.split(".")[1]]
    assert outcome(unset) == off


@pytest.mark.parametrize("op, spec", [
    ("cz", {"kind": "spike", "cell": 0}), ("cz", {"kind": "spike", "cell": 63, "dim": 2}),
    ("gamma", {"kind": "random_band_limited", "annulus": 0}),
    ("gamma", {"kind": "random_band_limited", "annulus": 4}),
])
def test_function_values_at_the_ends_of_their_range_run(tmp_path, op, spec):
    params = {"function": spec, "alpha": 2.0} if op == "cz" else {"function": spec}
    cfg = dict(BASE, n_samples=1000, operation={"name": op, "params": params})
    code, rep = run_scenario(write(tmp_path, "ok.json", cfg))
    assert code == EXIT_PASS
    assert (rep["extras"]["n_cubes"] if op == "cz" else rep["extras"]["estimate"]["value"]) > 0


THM46 = dict(
    BASE, operation={"name": "verify", "target": "thm46", "params": {"p": 2.0, "q": 2.0}},
)
LEMMA42 = dict(
    BASE,
    operation={"name": "verify", "target": "lemma42",
               "params": {"function": {"kind": "single_mode"}, "cube_side": 1.0,
                          "p": 2.0, "q": 2.0}},
)


@pytest.mark.parametrize("target, cfg, flags, reason", [
    ("thm46", THM46, ["--tolerance", "-0.9"], "thm46.c_cap"),
    ("lemma42", dict(LEMMA42, tolerance=0.5), [], "Monte-Carlo standard errors"),
])
def test_verify_targets_without_a_tolerance_refuse_one(tmp_path, capsys, target, cfg, flags,
                                                       reason):
    path = write(tmp_path, "tol.json", cfg)
    assert main(["verify", target, "--config", str(path), *flags]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: scenario tol.json: ") and err.count("\n") == 1
    assert f"verify {target} takes no tolerance" in err and reason in err
    # without the tolerance the same check runs
    assert main(["verify", target, "--config", str(write(tmp_path, "ok.json", THM46 if
                target == "thm46" else LEMMA42))]) == EXIT_PASS


# (subcommand, bundled scenario, what the refusal names): the operations
# whose verdict has no tolerance to set
NO_TOLERANCE = [
    ("partition", "partition-exactness.json", "exact check"),
    ("besov-norm", "besov-single-block.json", "always passes"),
    ("multiplier", "annulus-multiplier-norm.json", "always passes"),
    ("gamma", "gamma-band-limited.json", "always passes"),
    ("hormander", "hormander-hilbert.json", "always passes"),
    ("mihlin", "mihlin-riesz.json", "always passes"),
    ("cz", "cz-plateau.json", "exact check"),
    ("sweep", "riesz-sweep.json", "sweep.spread_cap"),
    ("sharpness", "sharpness-probe.json", "sharpness.growth_tolerance"),
]


@pytest.mark.parametrize("command, scenario, reason", NO_TOLERANCE)
def test_operations_without_a_tolerance_refuse_one(tmp_path, capsys, command, scenario,
                                                   reason):
    cfg = dict(json.loads((SCENARIOS / scenario).read_text()), tolerance=0.5)
    for path, flags in ((write(tmp_path, "tol.json", cfg), []),
                        (SCENARIOS / scenario, ["--tolerance", "-0.9"])):
        assert main([command, "--config", str(path), *flags]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario {path.name}: ") and err.count("\n") == 1
        assert f"{command} takes no tolerance" in err and reason in err


def test_sweep_of_a_zero_symbol_writes_strict_json(tmp_path):
    # every estimate is 0, so each stability spread is infinite: at period
    # 1/2 every nonzero |xi| is >= 2, and |xi|^(-1e308) underflows to 0
    cfg = dict(
        BASE,
        grid={"d": 1, "n_per_dim": 32, "period": 0.5},
        symbol={"constructor": "riesz", "params": {"sigma": 1e308}},
        operation={"name": "sweep", "params": {"r": 2.0, "pairs": [[2.0, 2.0]],
                                               "grids": [32, 64]}},
    )
    out = tmp_path / "sweep.json"
    run_scenario(write(tmp_path, "zero.json", cfg), out_override=out)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    rep = json.loads(out.read_text(), parse_constant=reject)
    assert rep["extras"]["sweep"]["stability"]["p=2,q=2"]["spread"] == "inf"


@pytest.mark.parametrize("command, cfg", [case[:2] for case in MUTATED_INPUTS])
def test_suite_runs_the_rest_past_a_mutated_input(tmp_path, capsys, command, cfg):
    write(tmp_path, "a-bad.json", cfg)
    write(tmp_path, "b-ok.json", BASE)
    out = tmp_path / "agg.json"
    assert main(["suite", str(tmp_path), "--out", str(out)]) == EXIT_USAGE
    assert json.loads(out.read_text())["suite"] == {"a-bad.json": "error", "b-ok.json": "pass"}
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("exc", [ZeroDivisionError("float division by zero"),
                                 OverflowError("(34, 'Numerical result out of range')")])
def test_an_arithmetic_error_ends_a_scenario_in_one_line(tmp_path, monkeypatch, capsys, exc):
    def fail(cfg, ctx):
        raise exc

    monkeypatch.setitem(cli._OPERATIONS, ("multiplier", None), fail)
    path = write(tmp_path, "a-bad.json", BASE)
    assert main(["multiplier", "--config", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: scenario a-bad.json: {exc}\n"
    write(tmp_path, "b-ok.json", _besov_norm())
    assert run_suite(tmp_path) == EXIT_USAGE
    assert "[suite] b-ok.json: pass" in capsys.readouterr().out


@pytest.mark.parametrize("grids", [[64, 64, 128], [64, 128, 128]])
def test_sharpness_fails_on_a_nan_growth_wherever_it_stands(tmp_path, grids):
    # two grids at one probe level give a NaN growth; a plain max kept it
    # in front of the other growth and dropped it behind it
    code, rep = run_scenario(write(tmp_path, "s.json", _with_params(SHARPNESS, grids=grids)))
    assert code == EXIT_FAIL
    assert rep["reports"][0]["measured"] == "nan"
    assert "nan" in rep["reports"][0]["metadata"]["per_level_growth"]


def test_constant_function_kind(tmp_path):
    # the gamma norm of the constant 2 on the unit torus is 2
    cfg = dict(BASE, operation={"name": "gamma",
                                "params": {"function": {"kind": "constant", "value": 2.0}}})
    code, rep = run_scenario(write(tmp_path, "c.json", cfg))
    assert code == EXIT_PASS
    est = rep["extras"]["estimate"]
    assert abs(est["value"] - 2.0) <= 3.0 * est["std_error"]


def test_suite_records_errors_and_keeps_going(tmp_path, capsys):
    write(tmp_path, "a-bad.json", NULL_ALPHA)
    write(tmp_path, "b-bad.json", MIHLIN_ORDER_3)
    write(tmp_path, "c-ok.json", BASE)
    out = tmp_path / "agg.json"
    assert main(["suite", str(tmp_path), "--out", str(out)]) == EXIT_USAGE
    matrix = json.loads(out.read_text())["suite"]
    assert matrix == {"a-bad.json": "error", "b-bad.json": "error", "c-ok.json": "pass"}


def test_suite_runs_the_other_scenarios_past_an_empty_sweep_list(tmp_path, capsys):
    write(tmp_path, "a-empty.json", EMPTY_GRIDS_PROBE)
    write(tmp_path, "b-ok.json", BASE)
    (tmp_path / "c-probe.json").write_text((SCENARIOS / "sharpness-probe.json").read_text())
    out = tmp_path / "agg.json"
    assert main(["suite", str(tmp_path), "--out", str(out)]) == EXIT_USAGE
    matrix = json.loads(out.read_text())["suite"]
    assert matrix == {"a-empty.json": "error", "b-ok.json": "pass", "c-probe.json": "pass"}
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("error: scenario a-empty.json: config schema: sharpness.grids must be a "
            "non-empty list, got []") in err


def test_suite_times_each_scenario_on_stderr_only(tmp_path, capsys):
    write(tmp_path, "a-ok.json", BASE)
    write(tmp_path, "b-bad.json", NULL_ALPHA)
    assert run_suite(tmp_path, report_dir=tmp_path / "reports") == EXIT_USAGE
    captured = capsys.readouterr()
    timings = [line for line in captured.err.splitlines() if line.startswith("[suite] ")]
    assert [line.split(": ")[0] for line in timings] == ["[suite] a-ok.json", "[suite] b-bad.json"]
    for line in timings:
        assert re.fullmatch(r"\[suite\] [a-z-]+\.json: \d+\.\d{3} s", line)
    assert " s\n" not in captured.out


def test_suite_reports_match_golden_checksums(tmp_path, capsys):
    golden = json.loads((GOLDEN / "suite_reports.json").read_text())
    assert run_suite(SCENARIOS, report_dir=tmp_path) == EXIT_PASS
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*.json"))
    }
    assert got == golden


def test_main_subcommand_mismatch(tmp_path, capsys):
    cfg = dict(BASE)  # operation is 'multiplier'
    path = write(tmp_path, "m.json", cfg)
    assert main(["gamma", "--config", str(path)]) == EXIT_USAGE
    assert main(["multiplier", "--config", str(path)]) == EXIT_PASS


def test_main_verify_dispatch(capsys):
    code = main(["verify", "thm44", "--config",
                 str(SCENARIOS / "identity-thm44.json")])
    assert code == EXIT_PASS


def test_main_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE


def test_matrix_symbol_scenario_infers_space_dims(tmp_path):
    cfg = dict(BASE)
    cfg["symbol"] = {
        "constructor": "diagonal",
        "params": {"entries": [
            {"constructor": "riesz", "params": {"sigma": 0.5}},
            {"constructor": "identity", "params": {}},
        ]},
    }
    cfg["operation"] = {"name": "multiplier",
                        "params": {"p": 2.0, "q": 2.0, "mean_zero": True}}
    code, rep = run_scenario(write(tmp_path, "diag.json", cfg))
    assert code == EXIT_PASS
    assert rep["reports"][0]["measured"] > 0


def test_symbol_object_accepted_by_gamma_multiplier_check():
    import numpy as np
    from besovlp import (
        GaussianSampler, GridFunction, GridSpec, ValueSpace,
        check_gamma_multiplier, identity_symbol,
    )

    grid = GridSpec(1, 64, 1.0)
    rng = np.random.default_rng(4)
    f = GridFunction(grid, rng.standard_normal((64, 1)))
    rep = check_gamma_multiplier(identity_symbol(grid), f,
                                 ValueSpace.scalar(), ValueSpace.scalar(),
                                 GaussianSampler(5))
    assert rep.passed


def test_kernel_constructor_scenario(tmp_path):
    cfg = {
        "schema": 1,
        "name": "kernel-route",
        "grid": {"d": 1, "n_per_dim": 256, "period": 1.0},
        "kernel": {"constructor": "hilbert", "params": {}},
        "operation": {"name": "weak-type",
                      "params": {"a": 1.0, "p0": 2.0, "q0": 2.0, "f_count": 6}},
        "seed": 3,
    }
    code, rep = run_scenario(write(tmp_path, "k.json", cfg))
    assert code == EXIT_PASS
    assert rep["reports"][0]["metadata"]["C_da"] == 10.0

    cfg2 = dict(cfg, name="kernel-hormander",
                operation={"name": "hormander", "params": {"a": 1.0}})
    code, rep = run_scenario(write(tmp_path, "kh.json", cfg2))
    assert code == EXIT_PASS
    assert rep["extras"]["constant"] > 0.3

    cfg3 = dict(cfg, kernel={"constructor": "nope"})
    code, _ = run_scenario(write(tmp_path, "kb.json", cfg3))
    assert code == EXIT_USAGE

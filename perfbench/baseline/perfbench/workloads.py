"""The benchmark's workloads: inputs built from a seed, and the checks on each op.

An op is one top-level call into besovlp.  It names its function by
module and attribute and looks it up when it runs, so a tracer installed
after the inputs were built still sees the call.  ``inspect`` turns an
op's result into (ok, canonical text): ok is False when the result is
wrong, and the text is hashed to show that repeats give the same answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import besovlp.cli as cli
import besovlp.dyadic as dyadic
import besovlp.extrapolation as extrapolation
import besovlp.gaussian as gaussian
import besovlp.multiplier as multiplier
from besovlp.dyadic import BesovParams
from besovlp.sampling import GaussianSampler, SearchBudget
from besovlp.spaces import GridFunction, GridSpec, ValueSpace, lp_norm
from besovlp.testfunctions import random_band_limited

ROOT = Path(__file__).resolve().parent.parent
# slack for inequalities that hold exactly and differ only by rounding
REL_SLACK = 1e-9


@dataclass
class Op:
    label: str
    module: object
    func: str
    args: tuple
    inspect: Callable[[object, str], tuple]
    kwargs: dict = field(default_factory=dict)

    def run(self):
        """Call the op; returns (result, text it printed to stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            result = getattr(self.module, self.func)(*self.args, **self.kwargs)
        return result, buf.getvalue()


def _finite_nonneg(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x >= 0.0


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _check_report(rep, _text):
    ok = rep.verdict == "pass" and _finite_nonneg(rep.measured)
    return ok, rep.to_json()


# -- thm44-grid ---------------------------------------------------------------

THM44_SYMBOLS = 2
THM44_COMBOS = [
    (s, sigma, u, v, w)
    for s in (0.0, 0.5)
    for sigma in (0.0, 1.0)
    for (u, v, w) in [(np.inf, 2.0, 2.0), (1.0, np.inf, 1.0), (2.0, 2.0, 1.0)]
]


def build_thm44_grid(seed: int) -> list:
    """verify_thm44 over the generator of acceptance criterion 06."""
    grid = GridSpec(1, 64, 1.0)
    part = dyadic.build_partition(grid)
    sampler = GaussianSampler(707, 20000)
    budget = SearchBudget(restarts=3, steps=15, search_samples=2000)
    scalar = ValueSpace.scalar()
    rng = np.random.default_rng(seed)
    ops = []
    for sym in range(THM44_SYMBOLS):
        ratio_per_annulus = rng.choice([0.5, 0.8, 1.25])
        vals = np.zeros(grid.n_nodes, dtype=complex)
        for k in range(part.k_max + 1):
            mask = part.annulus_mask(k)
            phase = np.exp(2j * np.pi * rng.uniform(size=int(mask.sum())))
            vals[mask] += ratio_per_annulus**k * phase * rng.uniform(0.5, 1.0)
        m = multiplier.scalar_symbol(grid, vals)
        for s, sigma, u, v, w in THM44_COMBOS:
            ops.append(Op(
                f"verify_thm44[symbol {sym}, s={s}, sigma={sigma}, u={u}, v={v}, w={w}]",
                multiplier, "verify_thm44", (m,),
                _check_report,
                dict(s=s, sigma=sigma, u=u, p=2.0, v=v, q=2.0, w=w, part=part,
                     domain_space=scalar, codomain_space=scalar,
                     budget=budget, sampler=sampler),
            ))
    return ops


# -- gamma-search -------------------------------------------------------------

GAMMA_FAMILIES = 4
# The 72 structured starts plus 2 restarts of 5 steps, with the default
# 4000 search and 20000 fresh draws.  On a shared 2-CPU host an op's
# time varied by up to 1.8x from second to second.  At the default budget
# (11-15 s per op) and at 8 x 40 (1.6 s) the best of an op's repeats
# spread 16-19% across seeds; these 0.2 s ops spread about 6% outside
# spells of sustained contention.
GAMMA_BUDGET = SearchBudget(restarts=2, steps=5)


def _gamma_op(family, label: str) -> Op:
    # ||T||_{l^1 -> l^inf} is the largest entry; the gamma-bound of a finite
    # family is at most the sum of its members' norms, and the search
    # returns a lower bound of the gamma-bound
    ceiling = sum(float(np.abs(m).max()) for m in family.members)

    def inspect(res, _text):
        ok = _finite_nonneg(res.value) and 0.0 < res.value <= ceiling
        return ok, _json({
            "value": res.value,
            "assignment": [int(a) for a in res.assignment],
            "vectors": [[float(z.real), float(z.imag)] for z in res.vectors.ravel()],
        })

    return Op(label, gaussian, "gamma_bound_search",
              (family, GAMMA_BUDGET, GaussianSampler(4242)), inspect)


def build_gamma_search(seed: int) -> list:
    """gamma_bound_search on 16-member random 3x3 families, l^1_3 -> l^inf_3."""
    rng = np.random.default_rng(seed)
    l1, linf = ValueSpace.lp(1.0, 3), ValueSpace.lp(np.inf, 3)
    return [
        _gamma_op(gaussian.MatrixFamily(tuple(rng.standard_normal((3, 3)) for _ in range(16)),
                                        l1, linf),
                  f"gamma_bound_search[family {i}: 16 x (3x3), l1 -> linf]")
        for i in range(GAMMA_FAMILIES)
    ]


# -- grid2d-256 ---------------------------------------------------------------

CZ_SPIKES = 300
CZ_BLOCK = 8   # one spike per 8x8 block; see build_grid2d


def _norm_op(fn: str, f: GridFunction, params: BesovParams, part, label: str) -> Op:
    # s = 0 gives exact sandwiches: for p = 2, v = 2 the norm lies in
    # [||f||_2 / sqrt 2, ||f||_2]; for v = 1 it is at least ||f||_p
    l_p = lp_norm(f, params.p)
    lo = l_p / math.sqrt(2.0) if params.v == 2.0 else l_p
    hi = l_p if params.v == 2.0 else math.inf

    def inspect(value, _text):
        ok = (_finite_nonneg(value) and value >= lo * (1 - REL_SLACK)
              and value <= hi * (1 + REL_SLACK))
        return ok, _json({"value": value})

    return Op(label, dyadic, fn, (f, params, part), inspect)


def _spiky_input(grid: GridSpec, rng) -> GridFunction:
    """CZ_SPIKES equal spikes, at most one per CZ_BLOCK x CZ_BLOCK block.

    With the height between the level-3 and level-2 cube averages of one
    spike, every spike stops in its own 4x4 cube and no larger cube
    crosses the height, so the cube count is CZ_SPIKES for every seed.
    """
    n = grid.n_per_dim
    per_row = n // CZ_BLOCK
    samples = np.zeros((n, n), dtype=np.complex128)
    for b in rng.choice(per_row * per_row, size=CZ_SPIKES, replace=False):
        bi, bj = divmod(int(b), per_row)
        oi, oj = rng.integers(0, CZ_BLOCK, size=2)
        samples[bi * CZ_BLOCK + oi, bj * CZ_BLOCK + oj] = 1.0
    f = GridFunction(grid, samples.reshape(-1, 1), "physical")
    return f * (1.0 / lp_norm(f, 1.0))


def _cz_inspect(f: GridFunction):
    grid = f.grid
    shape = grid.spatial_shape() + (f.value_dim,)
    scale = float(np.abs(f.samples).max())

    def inspect(res, _text):
        ok = not res.whole_domain and len(res.bad_parts) == CZ_SPIKES
        recon = res.good.samples.copy()
        digest = hashlib.sha256(res.good.samples.tobytes())
        for bp, info in res.bad_parts:
            recon += bp.samples
            sl = tuple(slice(c, c + 2**info.level) for c in info.corner_cells)
            view = bp.samples.reshape(shape)
            outside = view.copy()
            outside[sl] = 0.0
            ok &= not outside.any()
            ok &= abs(view[sl].sum()) * grid.cell_volume <= 1e-12
            digest.update(view[sl].tobytes())
        ok &= float(np.abs(recon - f.samples).max()) <= 1e-12 * scale
        ok &= float(np.abs(res.good.samples).max()) <= 2**grid.d * res.height * (1 + REL_SLACK)
        return bool(ok), _json({
            "height": res.height,
            "cubes": [info.to_dict() for info in res.cubes],
            "sha256": digest.hexdigest(),
        })

    return inspect


def build_grid2d(seed: int) -> list:
    """Besov norms, a multiplier estimate and a CZ decomposition at d=2, N=256."""
    grid = GridSpec(2, 256, 1.0)
    part = dyadic.build_partition(grid)
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(2):
        f = random_band_limited(grid, part.band_limit_mask(), rng, mean_zero=True)
        for params in (BesovParams(0.0, 2.0, 2.0), BesovParams(0.0, np.inf, 1.0)):
            for fn in ("besov_norm", "homogeneous_besov_norm"):
                ops.append(_norm_op(fn, f, params, part,
                                    f"{fn}[input {i}, s=0, p={params.p}, v={params.v}]"))

    m = multiplier.riesz_symbol(grid, 0.5)
    # the multiplier commutes with every block, so on B^0_{2,2} its norm
    # is at most sup |m|; the estimate is a lower bound of the norm
    sup_m = float(np.abs(m.values).max())

    def multiplier_inspect(value, _text):
        return _finite_nonneg(value) and value <= sup_m * (1 + REL_SLACK), _json({"value": value})

    b22 = BesovParams(0.0, 2.0, 2.0)
    ops.append(Op("besov_multiplier_norm_estimate[riesz(0.5), B^0_22]", multiplier,
                  "besov_multiplier_norm_estimate", (m, b22, b22, part),
                  multiplier_inspect,
                  dict(budget=SearchBudget(restarts=0, steps=1), sampler=GaussianSampler(5151))))

    spiky = _spiky_input(grid, rng)
    height = float(np.abs(spiky.samples).max()) / 32.0   # between 4x4 and 8x8 averages
    gamma = 2.0 ** -(grid.d + 1)                         # a = B = 1
    ops.append(Op(f"cz_decompose[{CZ_SPIKES} spikes]", extrapolation, "cz_decompose",
                  (spiky,), _cz_inspect(spiky), dict(alpha=height / gamma, a=1.0, B=1.0)))
    return ops


# -- scenario-suite -----------------------------------------------------------

def build_scenario_suite(seed: int) -> list:
    """The bundled scenarios, each with its seed shifted by 1000 * seed."""
    files = sorted((ROOT / "scenarios").glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no scenarios under {ROOT / 'scenarios'}")

    def inspect(result, text):
        code, report = result
        ok = code == cli.EXIT_PASS and report is not None and report["verdict"] == "pass"
        if ok:
            ok = all(_finite_nonneg(r["measured"]) for r in report["reports"])
        return ok, _json({"code": code, "text": text})

    return [Op(f"run_scenario[{path.name}]", cli, "run_scenario", (path,), inspect,
               dict(seed_override=json.loads(path.read_text())["seed"] + 1000 * seed))
            for path in files]


WORKLOADS = {
    "thm44-grid": build_thm44_grid,
    "gamma-search": build_gamma_search,
    "grid2d-256": build_grid2d,
    "scenario-suite": build_scenario_suite,
}

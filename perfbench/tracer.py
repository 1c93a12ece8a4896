"""Span tracer for the benchmark's traced pass.

The tracer wraps the public functions of besovlp's layer modules, plus a
few class methods, from outside the package: ``src/`` carries no timing
code.  ``from .spaces import idft`` copies a function object into every
importing module, so a wrapper must replace the original at each of
those binding sites; after installing, the tracer scans every loaded
besovlp module and refuses to run if one still holds an original.

Spans live in flat arrays (name, start, end, parent, op id) and are
written out only when the run ends.  Per-layer metrics are computed
from them afterwards: a layer's self time is each span's duration minus
the part of it covered by its child spans.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "besovlp"
LAYERS = ("spaces", "dyadic", "sampling", "gaussian", "multiplier",
          "extrapolation", "reports", "cli")
# class methods traced besides each layer's module-level public functions
METHODS = (
    ("spaces", "ValueSpace", "norm_rows"),
    ("sampling", "GaussianSampler", "generator"),
    ("sampling", "GaussianSampler", "complex_gaussians"),
    ("reports", "VerificationReport", "build"),
    ("reports", "VerificationReport", "to_dict"),
)
OP_SPAN = "bench.op"
SETUP_OP = -1   # op id of spans recorded while the traced inputs are built
IDLE_OP = -2    # op id of spans outside any op, e.g. the benchmark's own checks


def _fft_bytes(fn, args, kwargs):
    out = fn(*args, **kwargs)
    f = args[0] if args else kwargs["f"]
    return out, {"bytes_computed": f.samples.nbytes + out.samples.nbytes}


def _cz_memory(fn, args, kwargs):
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, {"cubes": len(out.bad_parts), "alloc_peak_mb": peak / 2**20}


# spans whose call also reports counters: hook(fn, args, kwargs) -> (result, counters)
HOOKS = {
    "spaces.dft": _fft_bytes,
    "spaces.idft": _fft_bytes,
    "extrapolation.cz_decompose": _cz_memory,
}


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def unwrapped_originals(originals: dict, modules, classes=()) -> list:
    """Binding sites that still hold a wrapped-away function.

    ``originals`` maps id(original) to the original; ``classes`` holds
    (class, attribute) pairs for traced methods.  Returns "owner.attr"
    strings, empty when every site holds its wrapper.
    """
    hits = []
    for mod in modules:
        for attr, obj in vars(mod).items():
            if originals.get(id(obj)) is obj:
                hits.append(f"{mod.__name__}.{attr}")
    for cls, attr in classes:
        raw = cls.__dict__[attr]
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        if originals.get(id(func)) is func:
            hits.append(f"{cls.__module__}.{cls.__name__}.{attr}")
    return hits


class Tracer:
    """Records one span per traced call; install() rebinds, uninstall() restores."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.failed = array.array("b")
        self.counters: dict = defaultdict(list)  # (name, key) -> values of op spans
        self.op_id = IDLE_OP
        self._stack = [-1]
        self._originals: dict = {}
        self._restore: list = []
        self._classes: list = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.failed.append(1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        self.end[idx] = time.perf_counter()
        self.failed[idx] = not ok
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            ok = False
            try:
                if hook is None:
                    out = fn(*args, **kwargs)
                else:
                    out, counts = hook(fn, args, kwargs)
                    if self.op_id >= 0:
                        for key, value in counts.items():
                            self.counters[(name, key)].append(value)
                ok = True
            finally:
                self._close(idx, ok)
            return out

        return traced

    @contextmanager
    def span(self, name: str, op_id: int):
        """A span opened by the benchmark itself, e.g. one per op."""
        nid = self._name_id(name)
        saved, self.op_id = self.op_id, op_id
        idx = self._open(nid)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(idx, ok)
            self.op_id = saved

    def op_span(self, op_id: int):
        """The span of one benchmark op."""
        return self.span(OP_SPAN, op_id)

    @contextmanager
    def phase(self, op_id: int):
        """Attribute spans to op_id without opening a span."""
        saved, self.op_id = self.op_id, op_id
        try:
            yield
        finally:
            self.op_id = saved

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._originals[id(obj)] = obj
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for layer, cls_name, attr in METHODS:
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(f"{layer}.{attr}", raw.__func__))
                self._originals[id(raw.__func__)] = raw.__func__
            else:
                wrapped = self.wrap(f"{layer}.{attr}", raw)
                self._originals[id(raw)] = raw
            self._restore.append((cls, attr, raw))
            self._classes.append((cls, attr))
            setattr(cls, attr, wrapped)
        for mod in package_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and self._originals[id(obj)] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        left = self.unwrapped()
        if left:
            self.uninstall()
            raise RuntimeError("tracer left unwrapped originals: " + ", ".join(left))

    def unwrapped(self) -> list:
        return unwrapped_originals(self._originals, package_modules(), self._classes)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._classes.clear()

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("op,name,start_s,end_s,parent,failed\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]},{self.names[self.name[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                         f"{self.parent[i]},{self.failed[i]}\n")


def self_times(start, end, parent) -> list:
    """Per span: its duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, so overlapping or
    overhanging children are never counted twice or outside it.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for a, b in sorted((max(start[c], lo), min(end[c], hi)) for c in children.get(i, ())):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


def _busy(names, name_of, start, end, parent, members) -> float:
    """Length of the union of the spans in ``members`` (all spans of one
    name group): a span counts unless an ancestor belongs to the group."""
    total = 0.0
    for i in members:
        p = parent[i]
        while p >= 0 and name_of[p] not in names:
            p = parent[p]
        if p < 0:
            total += end[i] - start[i]
    return total


EXTRAPOLATION_STEPS = ("kernel_of_symbol", "hormander_constant", "mihlin_check",
                       "verify_weak_type", "extrapolation_sweep", "sharpness_probe")

# (metric, unit); every per-op figure is a total over the traced ops divided by their count
PER_LAYER = (
    [("trace.ops", "count"), ("trace.op_s", "s"), ("trace_overhead_frac", "ratio"),
     ("spaces.dft.calls", "count"), ("spaces.idft.calls", "count"),
     ("spaces.fft.busy_s", "s"), ("spaces.fft.bytes_computed", "B"),
     ("spaces.lp_norm.calls", "count"), ("spaces.lp_norm.busy_s", "s"),
     ("spaces.norm_rows.calls", "count"), ("spaces.norm_rows.busy_s", "s")]
    + [(f"dyadic.{fn}.{k}", u) for fn in ("besov_norm", "homogeneous_besov_norm", "lp_blocks")
       for k, u in (("calls", "count"), ("busy_s", "s"))]
    + [("dyadic.build_partition.busy_s", "s"),
       ("sampling.generator.calls", "count"), ("sampling.complex_gaussians.calls", "count"),
       ("sampling.complex_gaussians.busy_s", "s"),
       ("gaussian.gamma_bound_search.calls", "count"), ("gaussian.gamma_bound_search.busy_s", "s"),
       ("multiplier.verify.calls", "count"), ("multiplier.verify.busy_s", "s"),
       ("multiplier.besov_multiplier_norm_estimate.busy_s", "s"),
       ("multiplier.estimate_multiplier_norm.busy_s", "s"),
       ("extrapolation.cz_decompose.busy_s", "s"), ("extrapolation.cz_decompose.cubes", "count"),
       ("extrapolation.cz_decompose.alloc_peak_mb", "MB")]
    + [(f"extrapolation.{fn}.busy_s", "s") for fn in EXTRAPOLATION_STEPS]
    + [("reports.build.calls", "count"), ("cli.run_scenario.busy_s", "s")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
)


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict:
    """Per-layer metrics of the traced ops, as {name: value} in PER_LAYER order.

    Calls, busy and self times, bytes and errors are per op.
    ``dyadic.build_partition.busy_s`` is the time spent building
    partitions in one traced set-up.  The CZ cube count is the mean per
    call and its allocation peak the largest of any call.
    """
    names = tracer.names
    name_of = [names[n] for n in tracer.name]
    start, end, parent, op = tracer.start, tracer.end, tracer.parent, tracer.op
    selfs = self_times(start, end, parent)
    by_name = defaultdict(list)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    partition = {"dyadic.build_partition"}
    setup_partitions = [i for i, name in enumerate(name_of)
                        if op[i] == SETUP_OP and name in partition]
    for i, name in enumerate(name_of):
        if op[i] < 0:
            continue
        by_name[name].append(i)
        layer = name.split(".")[0]
        self_s[layer] += selfs[i]
        errors[layer] += tracer.failed[i]
    n_ops = len(by_name[OP_SPAN])
    if n_ops == 0:
        raise ValueError("no traced ops")

    def calls(*group):
        return sum(len(by_name[n]) for n in group) / n_ops

    def busy(*group):
        members = [i for n in group for i in by_name[n]]
        return _busy(set(group), name_of, start, end, parent, members) / n_ops

    def counted(name, key):
        return tracer.counters.get((name, key), [])

    verify = tuple(n for n in names if n.startswith("multiplier.verify_"))
    cubes = counted("extrapolation.cz_decompose", "cubes")
    peaks = counted("extrapolation.cz_decompose", "alloc_peak_mb")
    fft = ("spaces.dft", "spaces.idft")
    values = {
        "trace.ops": n_ops,
        "trace.op_s": busy(OP_SPAN),
        "trace_overhead_frac": overhead_frac,
        "spaces.dft.calls": calls("spaces.dft"),
        "spaces.idft.calls": calls("spaces.idft"),
        "spaces.fft.busy_s": busy(*fft),
        "spaces.fft.bytes_computed": sum(sum(counted(n, "bytes_computed")) for n in fft) / n_ops,
        "spaces.lp_norm.calls": calls("spaces.lp_norm"),
        "spaces.lp_norm.busy_s": busy("spaces.lp_norm"),
        "spaces.norm_rows.calls": calls("spaces.norm_rows"),
        "spaces.norm_rows.busy_s": busy("spaces.norm_rows"),
        "dyadic.build_partition.busy_s": _busy(partition, name_of, start, end, parent,
                                               setup_partitions),
        "sampling.generator.calls": calls("sampling.generator"),
        "sampling.complex_gaussians.calls": calls("sampling.complex_gaussians"),
        "sampling.complex_gaussians.busy_s": busy("sampling.complex_gaussians"),
        "gaussian.gamma_bound_search.calls": calls("gaussian.gamma_bound_search"),
        "gaussian.gamma_bound_search.busy_s": busy("gaussian.gamma_bound_search"),
        "multiplier.verify.calls": calls(*verify),
        "multiplier.verify.busy_s": busy(*verify),
        "multiplier.besov_multiplier_norm_estimate.busy_s":
            busy("multiplier.besov_multiplier_norm_estimate"),
        "multiplier.estimate_multiplier_norm.busy_s": busy("multiplier.estimate_multiplier_norm"),
        "extrapolation.cz_decompose.busy_s": busy("extrapolation.cz_decompose"),
        "extrapolation.cz_decompose.cubes": sum(cubes) / len(cubes) if cubes else 0.0,
        "extrapolation.cz_decompose.alloc_peak_mb": max(peaks, default=0.0),
        "reports.build.calls": calls("reports.build"),
        "cli.run_scenario.busy_s": busy("cli.run_scenario"),
    }
    for fn in ("besov_norm", "homogeneous_besov_norm", "lp_blocks"):
        values[f"dyadic.{fn}.calls"] = calls(f"dyadic.{fn}")
        values[f"dyadic.{fn}.busy_s"] = busy(f"dyadic.{fn}")
    for fn in EXTRAPOLATION_STEPS:
        values[f"extrapolation.{fn}.busy_s"] = busy(f"extrapolation.{fn}")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer] / n_ops
        values[f"{layer}.errors"] = errors[layer] / n_ops
    return {name: values[name] for name, _unit in PER_LAYER}

"""Runs one workload in a fresh interpreter and prints one JSON line.

run.py starts this with PYTHONPATH set to the checkout's ``src`` and BLAS
and OpenMP threads pinned.  Modes:

  setup           import besovlp and build the inputs, then report
                  set-up time
  baseline-setup  the same for baseline/ (see Partner)
  run             set up, run one untimed warm-up pass, then whole passes
                  over the ops for --seconds, at least MIN_PASSES of them
  trace           set up and warm up, run untraced for half of --seconds,
                  install the tracer, rebuild the inputs and run traced
                  for the other half; the traced results must match the
                  untraced checksums
  partner         serve the baseline's ops to a measuring worker

Timed passes run one op of the baseline partner after every op slot, so
run.py can scale each op's time by the machine's speed at that moment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
BASELINE = Path(__file__).resolve().parent / "baseline"
CALIBRATION_SEED = 0   # the partner's inputs; fixed, so its op times are comparable
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 3   # every op is repeated, so its checksum is compared across passes
SHORT_OP_S = 0.05   # in timed runs an op slot repeats a shorter op to about this long
MAX_REPS = 64


class Partner:
    """The baseline copy of besovlp, run in lockstep with the measured ops.

    On a shared 2-CPU host the same code ran 1.4-2x slower for spells of
    10-30 s, too long for a run to wait out, and a fixed probe of other
    code followed those spells only loosely.  So after every measured op
    the partner, a second interpreter that imports ``baseline/`` (the
    benchmark's frozen copy of besovlp, its workloads and scenarios),
    runs the same workload's op on the calibration inputs and reports its
    wall and CPU time.  Only one of the two interpreters runs at a time.

    reps[j], if given, is how often the slot paired with partner op j
    runs its op; each call is followed by one call of partner op j.
    """

    def __init__(self, workload: str, reps: list | None = None):
        self.reps = reps
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.proc = subprocess.Popen(
            [sys.executable, "-s", str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(CALIBRATION_SEED), "--seconds", "0", "--mode", "partner"],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.n_ops = None

    def ready(self) -> None:
        """Wait until the partner has built and warmed up its ops."""
        self.n_ops = int(self._read())

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"baseline partner exited with code {self.proc.wait()}")
        return line

    def slot(self, n: int) -> tuple:
        """The partner op paired with slot n, and how often the slot runs its op."""
        j = n % self.n_ops
        return j, self.reps[j] if self.reps else 1

    def __call__(self, j: int) -> tuple:
        """Run partner op j once; its (wall s, CPU s)."""
        self.proc.stdin.write(f"{j}\n")
        self.proc.stdin.flush()
        wall, cpu = map(float, self._read().split())
        return wall, cpu

    def collect(self) -> None:
        """Collect the partner's garbage, as the measuring worker does its own."""
        self.proc.stdin.write("gc\n")
        self.proc.stdin.flush()
        self._read()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def short_op_reps(ref_op_s: list) -> list:
    """Calls per slot for each partner op, from its reference time.

    An op of a few ms varies by 15% from call to call on a shared host;
    repeating it to SHORT_OP_S per slot steadies its mean.  Taken from
    the fixed reference times, so every run repeats the same ops as often.
    """
    return [max(1, min(MAX_REPS, round(SHORT_OP_S / t))) for t in ref_op_s]


def pin_to_one_cpu(pids) -> None:
    """Keep these processes on the CPU this one runs on.

    The two CPUs of a shared host slow down at different moments; a
    measured op and its partner op compare only on the same CPU.
    """
    try:
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
        for pid in pids:
            os.sched_setaffinity(pid, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass


def use_baseline() -> None:
    """Import besovlp and the workloads from baseline/ from now on."""
    sys.path[:0] = [str(BASELINE / "perfbench"), str(BASELINE / "src")]


def serve_partner(workload: str, seed: int) -> int:
    """Partner side: build the baseline's ops, warm up, then time op j per request."""
    use_baseline()
    import workloads

    ops = workloads.WORKLOADS[workload](seed)

    def timed(op) -> tuple:
        c0, t0 = time.process_time(), time.perf_counter()
        result, text = op.run()
        t1, c1 = time.perf_counter(), time.process_time()
        if not op.inspect(result, text)[0]:
            raise RuntimeError(f"baseline op {op.label} failed its check")
        return t1 - t0, c1 - c0

    for op in ops:
        timed(op)
    gc.collect()
    print(len(ops), flush=True)
    for line in sys.stdin:
        if line.strip() == "gc":
            gc.collect()
            print("ok", flush=True)
            continue
        wall, cpu = timed(ops[int(line)])
        print(f"{wall!r} {cpu!r}", flush=True)
    return 0


@dataclass
class Samples:
    """Per op slot, in pass order: wall and CPU seconds per call and, with
    a partner, the partner op run after it and its times per call."""
    calls: int = 0
    lat: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    ref_op: list = field(default_factory=list)
    ref_lat: list = field(default_factory=list)
    ref_cpu: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def partner_ratio(s: Samples) -> float:
    """Op time in partner time; whole passes keep the partner's op mix fixed."""
    return sum(s.lat) / sum(s.ref_lat)


def measure(ops, seconds, min_passes, digests, tracer=None, partner=None) -> Samples:
    """Whole passes over ops until `seconds` elapsed and min_passes are done.

    digests[i] holds the first checksum seen for op i; a later result
    that hashes differently counts as a failure.
    """
    out = Samples()
    lat, cpu, failures = out.lat, out.cpu, out.failures
    t_end = time.perf_counter() + seconds
    passes = pass_s = 0
    # stop at the pass boundary nearest to t_end
    while passes < min_passes or time.perf_counter() + pass_s / 2 < t_end:
        t_pass = time.perf_counter()
        for i, op in enumerate(ops):
            j, reps = partner.slot(len(lat)) if partner else (None, 1)
            wall = cpu_s = ref_wall = ref_cpu = 0.0
            for _ in range(reps):
                span = tracer.op_span(out.calls) if tracer else nullcontext()
                out.calls += 1
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    with span:
                        result, text = op.run()
                except Exception:
                    t1, c1 = time.perf_counter(), time.process_time()
                    ok, reason = False, traceback.format_exc(limit=4)
                else:
                    t1, c1 = time.perf_counter(), time.process_time()
                    ok, canonical = op.inspect(result, text)
                    reason = "result failed its check"
                    digest = hashlib.sha256(canonical.encode()).hexdigest()
                    if digests[i] is None:
                        digests[i] = digest
                    elif digests[i] != digest:
                        ok, reason = False, "checksum differs from the first run of this op"
                wall, cpu_s = wall + t1 - t0, cpu_s + c1 - c0
                if not ok:
                    failures.append(f"{op.label}: {reason}")
                if partner:
                    w, c = partner(j)
                    ref_wall, ref_cpu = ref_wall + w, ref_cpu + c
            lat.append(wall / reps)
            cpu.append(cpu_s / reps)
            if partner:
                out.ref_op.append(j)
                out.ref_lat.append(ref_wall / reps)
                out.ref_cpu.append(ref_cpu / reps)
        passes += 1
        pass_s = time.perf_counter() - t_pass
        # cz_decompose's results sit in a reference cycle until a full
        # collection; collecting here keeps peak_rss_mb to one pass's peak
        gc.collect()
        if partner:
            partner.collect()
    return out


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v, "") for v in THREAD_VARS},
    }


def trace(args, ops, digests, partner, out: dict) -> tuple:
    """Half of --seconds untraced, then the rebuilt inputs traced."""
    from tracer import SETUP_OP, Tracer, layer_metrics
    import workloads

    res = measure(ops, args.seconds / 2, 1, digests, partner=partner)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.phase(SETUP_OP):
            traced_ops = workloads.WORKLOADS[args.workload](args.seed)
        traced = measure(traced_ops, args.seconds / 2, 1, digests, tracer, partner)
    finally:
        tracer.uninstall()
    out["layers"] = layer_metrics(tracer, 1.0 - partner_ratio(res) / partner_ratio(traced))
    OUT_DIR.mkdir(exist_ok=True)
    out["spans_file"] = str((OUT_DIR / f"spans-{args.workload}.csv").relative_to(ROOT))
    tracer.write(ROOT / out["spans_file"])
    return res, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "baseline-setup", "run", "trace", "partner"),
                    required=True)
    args = ap.parse_args(argv)
    if args.mode == "partner":
        return serve_partner(args.workload, args.seed)

    t0 = time.perf_counter()
    if args.mode == "baseline-setup":
        use_baseline()
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    out = {"setup_s": time.perf_counter() - t0}
    if args.mode.endswith("setup"):
        print(json.dumps(out))
        return 0

    digests = [None] * len(ops)
    # the partner sets up while the warm-up pass runs; the warm-up pass is
    # checked and hashed like the others, but not timed
    env = environment()   # before pinning, which narrows the CPU affinity
    # traced runs call every op once per slot, so per-op counts stay per call
    reps = None
    if args.mode == "run":
        manifest = json.loads((Path(__file__).resolve().parent / "manifest.json").read_text())
        reps = short_op_reps(manifest["baseline_op_s"][args.workload])
    partner = Partner(args.workload, reps)
    try:
        warmup = measure(ops, 0.0, 1, digests)
        partner.ready()
        pin_to_one_cpu((0, partner.proc.pid))
        if args.mode == "run":
            res = measure(ops, args.seconds, MIN_PASSES, digests, partner=partner)
        else:
            res, traced = trace(args, ops, digests, partner, out)
    finally:
        partner.close()
    attempted = warmup.calls + res.calls
    if args.mode == "trace":
        res.failures += traced.failures
        attempted += traced.calls
    out.update(
        ops_per_pass=len(ops),
        attempted=attempted,
        latencies=res.lat,
        cpu=res.cpu,
        ref_op=res.ref_op,
        ref_lat=res.ref_lat,
        ref_cpu=res.ref_cpu,
        failures=warmup.failures + res.failures,
        checksum=hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=env,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""besovlp benchmark: one workload per call, every metric printed by name and unit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload thm44-grid --seed 1 --seconds 15 --trace 0

Each workload runs single-process in a fresh interpreter (worker.py), with
BLAS and OpenMP threads pinned to one, in lockstep with a partner
interpreter that runs the benchmark's frozen baseline copy of besovlp to
gauge the machine's speed; timings are reported at a reference speed.
--trace 0 measures the end-to-end metrics untraced; --trace 1 makes a
separate traced run and prints the per-layer metrics.  Every op's result
is checked, and repeats must hash the same.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from worker import CALIBRATION_SEED, OUT_DIR, THREAD_VARS  # noqa: E402

WORKLOADS = ("thm44-grid", "gamma-search", "grid2d-256", "scenario-suite")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_s.p50", "s"),
              ("cpu_s_per_op", "s"), ("peak_rss_mb", "MB"))
SETUP_PAIRS = 6       # set-ups in fresh interpreters, each paired with the baseline's
DEADLINE_S = 170.0    # the whole call must end within 180 s
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
PINNED_THREADS = "1"


def worker_env(mode: str) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    if mode != "baseline-setup":
        env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = PINNED_THREADS
    return env


def spawn(args, mode: str, deadline: float, seed: int | None = None) -> dict:
    """Run one worker in its own process group, which also holds its
    partner; whatever the outcome, nothing of the group outlives the call."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for the next worker")
    proc = subprocess.Popen(
        [sys.executable, "-s", str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed if seed is None else seed), "--seconds", str(args.seconds),
         "--mode", mode],
        cwd=ROOT, env=worker_env(mode), stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    finally:
        kill_group(proc)   # also a partner left behind by a worker that failed
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def kill_group(proc) -> None:
    """Kill what is left of the worker's process group and wait until it is gone."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    for _ in range(500):   # the partner, if any, is reaped by its new parent
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def tail_percentile(values: list):
    """Highest percentile with at least ten samples beyond it, nearest rank."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        beyond = math.floor(n * (1.0 - p / 100.0) + 1e-9)
        if beyond >= 10:
            rank = max(1, math.ceil(p / 100.0 * n))
            return p, sorted(values)[rank - 1], beyond
    return None


def load_manifest() -> dict:
    return json.loads((HERE / "manifest.json").read_text())


def report_checksum(args, checksum: str, manifest: dict) -> None:
    ref = manifest["reference_checksums"].get(args.workload, {}).get(str(args.seed))
    if ref is None:
        verdict = "no stored reference for this seed"
    else:
        verdict = "same as reference" if ref == checksum else f"MOVED from reference {ref}"
    print(f"checksum {args.workload} seed {args.seed}: {checksum} ({verdict})")


def report_environment(env: dict, manifest: dict) -> None:
    ref = manifest["environment"]
    diff = sorted(k for k in env if env[k] != ref.get(k))
    print("environment: " + json.dumps(env, sort_keys=True))
    print("reference environment " + ("matches" if not diff else "differs in " + ", ".join(diff)))


def per_op(values: list, per_pass: int, stat) -> list:
    """stat over the passes of each op; values are in pass order."""
    return [stat(values[i::per_pass]) for i in range(per_pass)]


def at_reference_speed(res: dict, ref_op_s: list, own: str, partner: str) -> list:
    """Each op's mean time over the passes, at the reference speed.

    The machine's slowness around op i is the time of the partner ops run
    right after it over their reference times: 1.5 when the machine ran
    1.5x slower.  Pairing each op with the partner op next to it cancels
    slowdowns that last longer than the two ops.
    """
    k = res["ops_per_pass"]
    slow = [a / sum(ref_op_s[j] for j in js)
            for a, js in zip(per_op(res[partner], k, sum), per_op(res["ref_op"], k, list))]
    return [t / s for t, s in zip(per_op(res[own], k, statistics.fmean), slow)]


def setup_at_reference_speed(pairs: list, ref_setup_s: float) -> float:
    """Median over (set-up, baseline set-up) pairs of the set-up time over
    the baseline's, times the baseline's set-up time at the reference speed."""
    return statistics.median(own / base for own, base in pairs) * ref_setup_s


def end_to_end(res: dict, setup_s: float, ref_op_s: list) -> dict:
    lat = at_reference_speed(res, ref_op_s, "latencies", "ref_lat")
    cpu = at_reference_speed(res, ref_op_s, "cpu", "ref_cpu")
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_s.p50": statistics.median(lat),
        "cpu_s_per_op": statistics.fmean(cpu),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "besovlp" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: {ROOT} holds no besovlp checkout (src/besovlp and scenarios/)",
              file=sys.stderr)
        return 2

    # a terminated run still kills and waits for its workers (spawn does so on any exception)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    manifest = load_manifest()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        if args.trace:
            res = spawn(args, "trace", deadline)
            metrics = {name: (res["layers"][name], unit) for name, unit in PER_LAYER}
        else:
            pairs = [(spawn(args, "setup", deadline)["setup_s"],
                      spawn(args, "baseline-setup", deadline, CALIBRATION_SEED)["setup_s"])
                     for _ in range(SETUP_PAIRS)]
            setup_s = setup_at_reference_speed(pairs, manifest["baseline_setup_s"][args.workload])
            res = spawn(args, "run", deadline)
            values = end_to_end(res, setup_s, manifest["baseline_op_s"][args.workload])
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    except (OSError, RuntimeError, subprocess.TimeoutExpired, TimeoutError,
            json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    samples = OUT_DIR / f"samples-{args.workload}-trace{args.trace}.json"
    samples.write_text(json.dumps(res))
    lat, failures = res["latencies"], res["failures"]
    attempted = res["attempted"]
    report_environment(res["environment"], manifest)
    report_checksum(args, res["checksum"], manifest)
    print(f"ops: {attempted} attempted, {len(failures)} failed "
          f"(failed_frac {len(failures) / attempted:.6g}), {res['ops_per_pass']} ops per pass")
    for line in failures[:10]:
        print(f"FAILED {line}")
    tail = tail_percentile(lat)
    tail_text = (f"p{tail[0]:g} {tail[1]:.6g} s with {tail[2]} ops beyond it" if tail
                 else "no percentile above p50 has 10 ops beyond it")
    print(f"op latency over all {len(lat)} op slots: p50 {statistics.median(lat):.6g} s, {tail_text}")
    print(f"per-op samples written to {samples.relative_to(ROOT)}")
    if args.trace:
        op_s = res["layers"]["trace.op_s"]
        shares = sorted(((v / op_s, k) for k, (v, _u) in metrics.items()
                         if k.endswith(("busy_s", "self_s"))), reverse=True)
        print("share of traced op time: " + ", ".join(f"{k} {s:.3f}" for s, k in shares[:10]))
        print(f"spans written to {res['spans_file']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<50} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark's workloads at fixed seeds and record every run in BENCH_<label>.json.

Run from the repository root:

    python3 tools/bench.py LABEL[=CHECKOUT] [BASE_LABEL=CHECKOUT]

LABEL names the checkout to measure, this one unless =CHECKOUT names
another; BASE_LABEL=CHECKOUT adds a second one to compare against, e.g. a
``git clone`` of the parent commit.  To compare a change with its parent,
put both checkouts side by side in one directory:

    python3 tools/bench.py 22=<dir>/change 21=<dir>/parent

since a checkout in the repository's own directory has read 0.5-2.4%
slower than a copy of the same files elsewhere.  For each workload of
BENCHMARK.json and each seed 0-9 (the seeds with a reference checksum),
each checkout's ``perfbench/run.py --trace 0`` runs once for BENCHMARK.json's
run_seconds.  With two checkouts their runs alternate, and which goes first
rotates from seed to seed, so a slow spell of a shared machine falls on
both alike.

BENCH_<label>.json, in the repository root, holds per run the end-to-end
metrics, the op counts, the checksum verdict line and the environment line
(a run that hangs is recorded as failed), and per workload and metric the
median and quartiles over the seeds.  ``program_sha256`` identifies the
measured code: a hash over the paths and bytes of the .py and .json files
under src/ and perfbench/, so a measurement of an uncommitted tree can still
be matched to the commit that holds it.  With two checkouts the script also
prints, per workload and metric, both medians and in how many seeds LABEL
did better.  A label whose BENCH_<label>.json already exists is refused
before any run, so a committed measurement is never overwritten.  Exit
status: 0 when every run finished with every op correct, 1 otherwise, 2 on
a bad argument.
"""

import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEEDS = list(range(10))
RUN_SECONDS = BENCHMARK["run_seconds"]
OUT_DIR = ROOT
RUN_TIMEOUT_S = 300   # perfbench/run.py ends itself within 180 s
USAGE = ("usage: python3 tools/bench.py LABEL[=CHECKOUT] [BASE_LABEL=CHECKOUT]\n"
         "  e.g. python3 tools/bench.py 22=<dir>/change 21=<dir>/parent")


def _target(text: str, default: Path = None) -> tuple:
    label, _, checkout = text.partition("=")
    path = Path(checkout).resolve() if checkout else default
    if not label or path is None or not (path / "perfbench" / "run.py").is_file():
        return None
    return label, path


def program_sha256(checkout: Path) -> str:
    """sha256 over the relative paths and bytes of the .py/.json files under src/ and perfbench/."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        files = [p for p in (checkout / top).rglob("*") if p.suffix in (".py", ".json")
                 and p.is_file() and "__pycache__" not in p.parts]
        for path in sorted(files):
            digest.update(path.relative_to(checkout).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _revision(checkout: Path):
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run: its metrics, checksum verdict and environment."""
    run = {"workload": workload, "seed": seed}
    try:
        proc = subprocess.run(
            [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        run.update(returncode=None, error=[f"timed out after {RUN_TIMEOUT_S} s"])
        return run
    lines = proc.stdout.splitlines()
    run["returncode"] = proc.returncode
    for line in lines:
        if line.startswith("checksum "):
            run["checksum"] = line
        elif line.startswith("environment: "):
            run["environment"] = json.loads(line[len("environment: "):])
    try:
        run.update(json.loads(lines[-1]))
    except (IndexError, json.JSONDecodeError):
        run["error"] = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
    return run


def _ok(run: dict) -> bool:
    return run["returncode"] == 0 and run.get("correct") is True and run.get("failed") == 0


def _value(run: dict, name: str):
    return run["metrics"][name]["value"] if "metrics" in run else None


def summarize(runs: list) -> dict:
    """Median and quartiles over the seeds, per workload and end-to-end metric."""
    out = {}
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload and "metrics" in r]
        out[workload] = {"attempted": sum(r["attempted"] for r in mine),
                         "failed": sum(r["failed"] for r in mine),
                         "runs_without_metrics": sum(r["workload"] == workload for r in runs)
                         - len(mine)}
        for metric in BENCHMARK["end_to_end"]:
            vals = [_value(r, metric["name"]) for r in mine]
            if len(vals) >= 2:
                q1, median, q3 = statistics.quantiles(vals, n=4, method="inclusive")
                out[workload][metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                                 "n": len(vals), "unit": metric["unit"]}
    return out


def compare(results: dict, label: str, base: str) -> None:
    """Print both medians, and in how many seeds label did better than base."""
    for workload in WORKLOADS:
        for metric in BENCHMARK["end_to_end"]:
            name, sign = metric["name"], (1 if metric["better"] == "higher" else -1)
            pairs = [(_value(results[label][(workload, s)], name),
                      _value(results[base][(workload, s)], name)) for s in SEEDS]
            pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
            if not pairs:
                print(f"{workload:<15} {name:<13} no pair of runs with metrics")
                continue
            won = sum(sign * (a - b) > 0 for a, b in pairs)
            print(f"{workload:<15} {name:<13} {label} {statistics.median(a for a, _ in pairs):.6g}, "
                  f"{base} {statistics.median(b for _, b in pairs):.6g}; "
                  f"{label} better in {won}/{len(pairs)}")


def main(argv: list) -> int:
    targets = [_target(argv[0], ROOT)] if argv else []
    targets += [_target(text) for text in argv[1:]]
    if not 1 <= len(targets) <= 2 or None in targets or len({t[0] for t in targets}) != len(targets):
        print(f"{USAGE}\n(two different labels at most; CHECKOUT must hold perfbench/run.py)",
              file=sys.stderr)
        return 2
    taken = [OUT_DIR / f"BENCH_{label}.json" for label, _ in targets]
    taken = [path for path in taken if path.exists()]
    if taken:
        print(f"{taken[0]} exists; remove it or pick another label", file=sys.stderr)
        return 2

    results = {label: {} for label, _ in targets}
    for workload in WORKLOADS:
        for i, seed in enumerate(SEEDS):
            k = i % len(targets)
            for order, (label, checkout) in enumerate(targets[k:] + targets[:k]):
                run = run_once(checkout, workload, seed)
                run["order"] = order
                results[label][(workload, seed)] = run
                print(f"{label} {workload} seed {seed}: "
                      + (f"ops_per_s {_value(run, 'ops_per_s'):.4g}, "
                         f"{run['failed']}/{run['attempted']} failed" if "metrics" in run
                         else f"error {run.get('error')}"), flush=True)

    for label, checkout in targets:
        runs = list(results[label].values())
        doc = {
            "label": label,
            "revision": _revision(checkout),
            "program_sha256": program_sha256(checkout),
            "command": f"perfbench/run.py --trace 0 --seconds {RUN_SECONDS:g}",
            "seeds": SEEDS,
            "measured_with": [other for other, _ in targets if other != label],
            "runs": runs,
            "summary": summarize(runs),
        }
        path = OUT_DIR / f"BENCH_{label}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    if len(targets) == 2:
        compare(results, targets[0][0], targets[1][0])
    ok = all(_ok(run) for per in results.values() for run in per.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Check that every benchmark op still gives the answer recorded in the manifest.

Run from the repository root:

    python3 tools/bench_checksums.py [--seeds 0,3] [WORKLOAD ...]

With no arguments every workload is checked at seeds 0-9; name workloads
(e.g. ``thm44-grid``) to check only those, and list seeds with ``--seeds``
to check only those.

For each seed on each benchmark workload this builds the ops of
perfbench/workloads.py, runs each once, hashes its inspected text and
combines the hashes the way perfbench/worker.py does.  The result must
equal ``reference_checksums`` in perfbench/manifest.json; a change that
is meant to leave every answer byte-identical shows any drift here.
Exit status: 0 when all match, 1 on any mismatch, 2 on an unknown workload
or a bad ``--seeds`` list.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]

from worker import THREAD_VARS  # noqa: E402

# the benchmark pins BLAS and OpenMP to one thread; do so before numpy loads
for var in THREAD_VARS:
    os.environ[var] = "1"

import workloads  # noqa: E402


def checksum(workload: str, seed: int) -> str:
    """sha256 over the ops' digests, '-' for an op that raised."""
    digests = []
    for op in workloads.WORKLOADS[workload](seed):
        try:
            result, text = op.run()
        except Exception as exc:  # an op that raises hashes as '-', as in the worker
            print(f"  {op.label}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
            digests.append("-")
            continue
        _, canonical = op.inspect(result, text)
        digests.append(hashlib.sha256(canonical.encode()).hexdigest())
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def _seed_list(text: str) -> list:
    return [int(seed) for seed in text.split(",")]


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description="Compare benchmark op checksums "
                                     "with reference_checksums in perfbench/manifest.json.")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--seeds", type=_seed_list, default=list(range(10)),
                        help="comma-separated seeds with a reference checksum (default 0-9)")
    args = parser.parse_args(argv)  # exits 2 on a bad argument
    reference = json.loads((PERFBENCH / "manifest.json").read_text())["reference_checksums"]
    unknown = [name for name in args.workloads if name not in reference]
    if unknown:
        print(f"unknown workload(s) {', '.join(unknown)}; choose from {', '.join(reference)}",
              file=sys.stderr)
        return 2
    for workload in args.workloads or reference:
        missing = [seed for seed in args.seeds if str(seed) not in reference[workload]]
        if missing:
            print(f"no reference checksum for {workload} at seed(s) "
                  f"{', '.join(map(str, missing))}", file=sys.stderr)
            return 2
    mismatches = total = 0
    for workload in args.workloads or reference:
        for seed in args.seeds:
            got = checksum(workload, seed)
            ok = got == reference[workload][str(seed)]
            total += 1
            mismatches += not ok
            print(f"{workload} seed {seed}: {'match' if ok else 'MISMATCH ' + got}", flush=True)
    print(f"{total - mismatches}/{total} match reference_checksums")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cz_and_witness_workloads_match_their_reference_checksums_at_seed_0():
    # grid2d-256 and scenario-suite are the workloads that run cz_decompose,
    # and thm44-grid is the one made of Besov witness searches, so drift in
    # their answers fails here without the full 40-run check
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_checksums.py"), "--seeds", "0",
         "grid2d-256", "scenario-suite", "thm44-grid"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("3/3 match reference_checksums")

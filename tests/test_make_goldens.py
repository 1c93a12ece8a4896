import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "make_goldens.py"


def test_check_finds_the_partition_golden_unchanged():
    proc = subprocess.run([sys.executable, str(TOOL), "--check", "partition_export.json"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("unchanged: ") and "partition_export.json" in proc.stdout


def test_check_names_a_stale_golden_and_writes_nothing(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_goldens", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    stale = tmp_path / "partition_export.json"
    stale.write_text("{}\n")
    monkeypatch.setattr(tool, "GOLDEN_DIR", tmp_path)
    assert tool.main(["--check", "partition_export.json"]) == 1
    assert capsys.readouterr().out == f"would change: {stale}\n"
    assert stale.read_text() == "{}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["partition_export.json"]


def test_check_finds_every_demo_output_unchanged():
    names = sorted(f"demos/{path.stem}.txt" for path in (TOOL.parents[1] / "demos").glob("*.py"))
    assert len(names) == 6
    proc = subprocess.run([sys.executable, str(TOOL), "--check", *names],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("unchanged: ") == 6

import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def _fake_run(speed):
    """run_once stand-in: ops_per_s is speed + seed; records the call order."""
    calls = []

    def run_once(checkout, workload, seed):
        calls.append((checkout, seed))
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in bench.BENCHMARK["end_to_end"]}
        metrics["ops_per_s"]["value"] = speed[checkout] + seed
        return {"workload": workload, "seed": seed, "returncode": 0, "correct": True,
                "attempted": 5, "failed": 0, "metrics": metrics,
                "checksum": f"checksum {workload} seed {seed}: x (same as reference)",
                "environment": {"nproc": 2}}

    return run_once, calls


def _checkout(path: Path) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text("")
    return path.resolve()


def test_bench_alternates_checkouts_and_writes_one_file_per_label(tmp_path, monkeypatch, capsys):
    change, other = _checkout(tmp_path / "change"), _checkout(tmp_path / "parent")
    run_once, calls = _fake_run({change: 10.0, other: 8.0})
    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "SEEDS", [0, 1, 2])
    monkeypatch.setattr(bench, "WORKLOADS", ["grid2d-256"])
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    assert bench.main([f"new={change}", f"old={other}"]) == 0
    # the side that goes first rotates from seed to seed
    assert [c for c, _ in calls] == [change, other, other, change, change, other]
    new = json.loads((tmp_path / "BENCH_new.json").read_text())
    old = json.loads((tmp_path / "BENCH_old.json").read_text())
    assert [r["order"] for r in new["runs"]] == [0, 1, 0]
    assert new["measured_with"] == ["old"] and old["measured_with"] == ["new"]
    assert new["program_sha256"] == bench.program_sha256(change)
    assert all(r["checksum"].startswith("checksum ") and r["environment"] for r in new["runs"])
    ops = new["summary"]["grid2d-256"]["ops_per_s"]
    assert (ops["q1"], ops["median"], ops["q3"], ops["n"]) == (10.5, 11.0, 11.5, 3)
    assert old["summary"]["grid2d-256"]["ops_per_s"]["median"] == 9.0
    assert "ops_per_s     new 11, old 9; new better in 3/3" in capsys.readouterr().out


def test_bench_records_a_hung_run_as_failed(tmp_path, monkeypatch):
    seen = {}

    def hang(*args, **kwargs):
        seen.update(kwargs)
        raise subprocess.TimeoutExpired(args[0], bench.RUN_TIMEOUT_S)

    monkeypatch.setattr(bench.subprocess, "run", hang)
    run = bench.run_once(bench.ROOT, "grid2d-256", 0)
    # the run compiles the sources it loads and writes no bytecode
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert run["returncode"] is None and "timed out" in run["error"][0]
    assert not bench._ok(run)
    assert bench.summarize([run])["grid2d-256"]["runs_without_metrics"] == 1


def test_program_sha256_follows_the_code_under_src_and_perfbench(tmp_path):
    tree = _checkout(tmp_path / "tree")
    (tree / "src").mkdir()
    (tree / "src" / "m.py").write_text("x = 1\n")
    before = bench.program_sha256(tree)
    (tree / "README.md").write_text("docs do not count\n")
    assert bench.program_sha256(tree) == before
    (tree / "src" / "m.py").write_text("x = 2\n")
    assert bench.program_sha256(tree) != before


def test_bench_rejects_bad_targets(tmp_path):
    other = _checkout(tmp_path / "parent")
    assert bench.main([]) == 2
    assert bench.main(["x", f"y={tmp_path}"]) == 2           # no perfbench/run.py there
    assert bench.main(["x", f"x={other}"]) == 2              # labels must differ
    assert bench.main(["x", f"y={other}", f"z={other}"]) == 2  # one baseline at most


def test_bench_refuses_to_overwrite_a_bench_file(tmp_path, monkeypatch, capsys):
    change, other = _checkout(tmp_path / "change"), _checkout(tmp_path / "parent")
    run_once, calls = _fake_run({change: 10.0, other: 8.0})
    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    (tmp_path / "BENCH_base.json").write_text("kept\n")
    assert bench.main([f"new={change}", f"base={other}"]) == 2
    assert calls == []
    assert (tmp_path / "BENCH_base.json").read_text() == "kept\n"
    assert not (tmp_path / "BENCH_new.json").exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "BENCH_base.json exists" in err


def test_bench_refuses_a_checkout_holding_bytecode(tmp_path, monkeypatch, capsys):
    change, other = _checkout(tmp_path / "change"), _checkout(tmp_path / "parent")
    run_once, calls = _fake_run({change: 10.0, other: 8.0})
    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    cache = other / "src" / "besovlp" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "gaussian.cpython-311.pyc").write_bytes(b"")
    assert bench.main([f"new={change}", f"old={other}"]) == 2
    assert calls == [] and not list(tmp_path.glob("BENCH_*.json"))
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{cache} holds bytecode" in err

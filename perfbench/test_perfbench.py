"""Self-tests of the benchmark: span arithmetic, tracer rebinding, metric names."""

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_times_on_nested_spans():
    # root [0, 10] has children a [1, 4], b [3, 6] (overlapping a) and
    # c [8, 12] (overhanging root); a has one child [2, 3]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    assert tr.self_times(start, end, parent) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_busy_counts_nested_spans_of_a_group_once():
    names = ["f", "g", "f", "f"]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [4.0, 3.0, 2.5, 6.0]
    parent = [-1, 0, 1, -1]
    members = [0, 2, 3]
    assert tr._busy({"f"}, names, start, end, parent, members) == pytest.approx(5.0)
    assert tr._busy({"g"}, names, start, end, parent, [1]) == pytest.approx(2.0)


def test_tracer_rebinds_every_site_and_restores():
    import besovlp
    import besovlp.dyadic
    import besovlp.multiplier
    import besovlp.spaces
    import besovlp.testfunctions
    from besovlp import BesovParams, GridSpec, ValueSpace

    original_idft = besovlp.spaces.idft
    original_norm_rows = ValueSpace.__dict__["norm_rows"]
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped() == []
        for mod in (besovlp, besovlp.spaces, besovlp.dyadic, besovlp.multiplier):
            assert mod.idft is not original_idft
            assert mod.idft.__wrapped__ is original_idft
        assert ValueSpace.__dict__["norm_rows"] is not original_norm_rows

        # a binding site the tracer missed is reported
        besovlp.multiplier.idft = original_idft
        assert tracer.unwrapped() == ["besovlp.multiplier.idft"]
        besovlp.multiplier.idft = besovlp.spaces.idft

        grid = GridSpec(1, 64, 1.0)
        with tracer.phase(tr.SETUP_OP):
            part = besovlp.dyadic.build_partition(grid)
        f = besovlp.testfunctions.single_mode(grid, (3,))
        op = workloads.Op("besov_norm", besovlp.dyadic, "besov_norm",
                          (f, BesovParams(0.0, 2.0, 1.0), part), lambda r, _t: (True, repr(r)))
        res = worker.measure([op], 0.0, 1, [None], tracer)
        assert len(res.lat) == 1 and res.failures == [] and res.ref_lat == []
    finally:
        tracer.uninstall()
    assert besovlp.spaces.idft is original_idft
    assert besovlp.dyadic.idft is original_idft
    assert ValueSpace.__dict__["norm_rows"] is original_norm_rows

    metrics = tr.layer_metrics(tracer, 0.0)
    assert metrics["trace.ops"] == 1
    assert metrics["dyadic.besov_norm.calls"] == 1
    assert metrics["dyadic.lp_blocks.calls"] == 1
    assert metrics["spaces.dft.calls"] == 2          # besov_norm and lp_blocks
    assert metrics["spaces.lp_norm.calls"] == part.k_max + 1
    assert metrics["dyadic.build_partition.busy_s"] > 0.0
    assert metrics["dyadic.besov_norm.busy_s"] <= metrics["trace.op_s"]


def test_metric_names_and_benchmark_file_agree():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    manifest = run.load_manifest()
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert per_layer == list(tr.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    names = [n for n, _ in e2e + per_layer] + list(run.WORKLOADS) + list(manifest["metric_map"])
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len({n for n, _ in e2e + per_layer}) == len(e2e) + len(per_layer)
    assert list(manifest["metric_map"]) == [n for n, _ in per_layer]
    for entry in manifest["metric_map"].values():
        assert entry["moves"] in dict(e2e)
        assert set(entry["workloads"]) <= set(run.WORKLOADS)


def test_partner_scaling_gives_op_times_at_reference_speed():
    # two ops over three passes; the machine ran at half speed in pass 2,
    # where the partner's ops (reference times 0.5 and 1.5) took twice as long
    lat = [1.0, 0.1, 2.0, 0.2, 1.0, 0.1]
    res = {"ops_per_pass": 2, "latencies": lat, "cpu": [2 * t for t in lat], "peak_rss_mb": 1.0,
           "ref_op": [0, 1] * 3, "ref_lat": [0.5, 1.5, 1.0, 3.0, 0.5, 1.5],
           "ref_cpu": [0.5, 1.5, 1.0, 3.0, 0.5, 1.5]}
    assert run.per_op([3.0, 1.0, 2.0, 5.0, 4.0, 9.0], 2, statistics.median) == [3.0, 5.0]
    lat_ref = run.at_reference_speed(res, [0.5, 1.5], "latencies", "ref_lat")
    assert lat_ref == pytest.approx([1.0, 0.1])
    values = run.end_to_end(res, 0.6, [0.5, 1.5])
    assert values["ops_per_s"] == pytest.approx(2 / 1.1)
    assert values["op_s.p50"] == pytest.approx(0.55)
    assert values["cpu_s_per_op"] == pytest.approx(1.1)
    assert values["setup_s"] == 0.6


def test_setup_time_is_the_median_ratio_to_the_baseline_set_up():
    # the machine ran twice as slow during the second pair
    pairs = [(0.3, 0.2), (0.6, 0.4), (0.25, 0.2)]
    assert run.setup_at_reference_speed(pairs, 0.2) == pytest.approx(0.3)


def test_measure_pairs_every_op_slot_with_a_partner_op():
    runs = []
    op = workloads.Op("sum", __import__("math"), "fsum", ([1.0, 2.0],),
                      lambda r, _t: (runs.append(r) or r == 3.0, repr(r)))

    class FakePartner:
        calls = []

        def slot(self, n):
            return n % 3, 2 if n == 1 else 1

        def __call__(self, j):
            self.calls.append(j)
            return 0.5 * j, 0.25 * j

        def collect(self):
            self.calls.append("gc")

    res = worker.measure([op, op], 0.0, 2, [None, None], partner=FakePartner())
    assert len(res.lat) == 4 and res.failures == []
    assert res.calls == len(runs) == 5          # slot 1 runs its op twice
    # one partner call after each call, and a collection after each pass
    assert FakePartner.calls == [0, 1, 1, "gc", 2, 0, "gc"]
    assert res.ref_op == [0, 1, 2, 0]
    assert res.ref_lat == [0.0, 0.5, 1.0, 0.0]
    assert res.ref_cpu == [0.0, 0.25, 0.5, 0.0]


def test_short_ops_repeat_to_about_short_op_s():
    assert worker.short_op_reps([1.0, 0.05, 0.02, 0.0015, 1e-6]) == [1, 1, 2, 33, worker.MAX_REPS]


def test_baseline_partner_serves_its_ops():
    partner = worker.Partner("gamma-search")
    try:
        partner.ready()
        assert partner.n_ops == len(run.load_manifest()["baseline_op_s"]["gamma-search"])
        assert partner.slot(partner.n_ops + 1) == (1, 1)
        wall, cpu = partner(1)
        assert wall > 0.0 and cpu > 0.0
        partner.collect()
    finally:
        partner.close()
    assert partner.proc.returncode == 0


def test_manifest_has_reference_times_for_the_baseline():
    manifest = run.load_manifest()
    assert set(manifest["baseline_op_s"]) == set(manifest["baseline_setup_s"]) == set(run.WORKLOADS)
    assert all(t > 0.0 for ts in manifest["baseline_op_s"].values() for t in ts)
    assert all(t > 0.0 for t in manifest["baseline_setup_s"].values())


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(99))) is None
    p, value, beyond = run.tail_percentile([float(i) for i in range(1, 101)])
    assert (p, value, beyond) == (90.0, 90.0, 10)


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "thm44-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

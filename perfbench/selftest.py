"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the package's own test run.  Workloads
are shrunk to a few small cells here; the checks and the metric plumbing
are the ones a full run uses.
"""

from __future__ import annotations

import io
import json
import random
import statistics
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import hostspeed
import run

W = run.import_program()

from schrijver import closedform, graph, paths  # noqa: E402  (needs import_program)
from schrijver.certificates import PathCertificate  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "diameters": lambda: W.Diameters(cells=((9, 3), (14, 6), (19, 6), (20, 7))),
    "sweep": lambda: W.Sweep(pairs={(13, 4): 60, (16, 7): 60}),
    "queries": lambda: W.Queries(cells=((13, 4), (17, 7)), per_cell=8),
}

# Every metric the benchmark's specification names, by kind.
NAMED_END_TO_END = {"setup_s", "wall_s", "latency_p50_ms", "latency_p99_ms", "peak_rss_mb"}
NAMED_LAYERS = {
    "graph.distances_from", "graph.orbit_representatives", "graph.diameter_bruteforce",
    "graph.SchrijverGraph", "cyclic.enumerate_stable_sets", "graph.bfs_distance",
    "graph.all_distances", "blocks.decompose", "blocks.distance2_criterion",
    "blocks.disjoint_middle_vertex", "paths.reduce_intersection", "paths.path_via_reduction",
    "paths.path_dist3", "lift.bound_path_m_plus_3", "lift.bound_path_with_trace",
    "certificates.verify_certificate", "certificates.certificate_to_json", "cli.main",
}
NAMED_PER_LAYER = (
    {f"{layer}.{kind}" for layer in NAMED_LAYERS for kind in ("calls", "self_s")}
    | {"graph.sweeps", "graph.orbits", "graph.bfs.levels", "graph.vertices",
       "graph.sweeps_per_vertex", "certificates.verified_ratio", "paths.cert_excess_edges",
       "trace.overhead_s", "trace.uncovered_share"}
)


def one_pass(workload, seed=3):
    graphs = W.build_graphs(workload.cells)
    job = workload.make_job(graphs, seed)
    tally = workload.run_pass(graphs, job)
    workload.finish(graphs, job, [tally])
    return tally


@pytest.mark.parametrize("name", ["sweep", "queries", "diameters"])
def test_same_seed_gives_same_inputs(name):
    workload = SMALL[name]()
    graphs = W.build_graphs(workload.cells)
    assert workload.make_job(graphs, 11) == workload.make_job(graphs, 11)
    if name != "diameters":
        assert workload.make_job(graphs, 11) != workload.make_job(graphs, 12)


def test_sampled_pairs_intersect_and_are_distinct():
    verts = W.build_graphs([(19, 7)])[19, 7].vertices
    pairs = W.sample_pairs(verts, 500, random.Random(1))
    assert len(pairs) == len(set(pairs)) == 500
    assert all(i < j and verts[i].mask & verts[j].mask for i, j in pairs)


@pytest.mark.parametrize("name", ["diameters", "sweep", "queries"])
def test_unmodified_program_passes_every_check(name):
    tally = one_pass(SMALL[name]())
    assert tally.attempted > 0
    assert tally.failed == 0, tally.messages


def test_corrupted_certificate_is_a_failed_operation(monkeypatch):
    build = paths.path_via_reduction
    depth = [0]

    def corrupted(a, b, via=None):
        # The builder recurses through the patched name; corrupt only the
        # certificate handed back to the benchmark.
        depth[0] += 1
        try:
            cert = build(a, b, via)
        finally:
            depth[0] -= 1
        if depth[0]:
            return cert
        return PathCertificate((cert.vertices[0],) + cert.vertices, cert.claimed_bound + 1)

    monkeypatch.setattr(paths, "path_via_reduction", corrupted)
    workload = W.Sweep(pairs={(13, 4): 200})
    tally = one_pass(workload)
    assert tally.attempted == 200
    assert 0 < tally.failed < 200  # distance-2 pairs build no such certificate
    assert "not adjacent" in tally.messages[0]


def test_corrupted_cli_certificate_is_a_failed_operation():
    workload = W.Queries(cells=((13, 4),), per_cell=1)
    graphs = W.build_graphs(workload.cells)
    (q,) = workload.make_job(graphs, 5)
    out = io.StringIO()
    with redirect_stdout(out):
        rc = W.cli.main(q.argv)
    oracle = q.distance
    assert W.check_query(q, rc, out.getvalue(), "", oracle, W.Tally()) == []

    payload = json.loads(out.getvalue())
    payload["certificate"]["vertices"][1] = payload["certificate"]["vertices"][0]
    problems = W.check_query(q, rc, json.dumps(payload), "", oracle, W.Tally())
    assert any("not adjacent" in p for p in problems)
    assert W.check_query(q, 2, "", "boom", oracle, W.Tally()) == ["exit code 2: boom"]


def test_wrong_diameter_is_a_failed_operation(monkeypatch):
    exact = graph.SchrijverGraph.diameter_bruteforce

    def off_by_one(self, orbit_reduction=True):
        res = exact(self, orbit_reduction)
        return closedform.DiameterResult(res.n, res.k, res.lo + 1, res.hi + 1, res.method)

    monkeypatch.setattr(graph.SchrijverGraph, "diameter_bruteforce", off_by_one)
    tally = one_pass(SMALL["diameters"]())
    assert (tally.attempted, tally.failed) == (4, 4)


def _run_main(monkeypatch, name, trace):
    monkeypatch.setitem(W.WORKLOADS, name, SMALL[name])
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", name, "--seed", "4", "--seconds", "0",
                         "--trace", str(trace)]) == 0
    record, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    return record["record"], result


@pytest.mark.parametrize("name", ["diameters", "sweep", "queries"])
def test_every_named_metric_is_reported(monkeypatch, name):
    declared_e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert NAMED_END_TO_END <= declared_e2e and NAMED_PER_LAYER <= declared_layer
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(W.WORKLOADS)

    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        record, result = _run_main(monkeypatch, name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
        assert record["ops_attempted"] == result["attempted"]
        assert record["environment"]["bfs_backend"] in ("numba", "numpy")
        if trace:
            assert Path(run.ROOT / record["spans_file"]).is_file()
        else:
            adjusted = statistics.median(
                w / f for w, f in zip(record["pass_wall_s"], record["pass_slowdown"])
            )
            assert result["metrics"]["wall_s"]["value"] == pytest.approx(adjusted)
            assert record["unadjusted"]["wall_s"] == pytest.approx(
                statistics.median(record["pass_wall_s"])
            )


class _SleepingWorkload:
    """Three 5 ms operations; the probe may run before each."""

    speed_kernels = ("python",)

    def run_pass(self, graphs, job, between_ops):
        tally = W.Tally()
        for _ in range(3):
            between_ops()
            time.sleep(0.005)
        return tally

    def finish(self, graphs, job, passes):
        pass


def test_probe_time_is_left_out_of_the_pass(monkeypatch):
    # A python kernel that sleeps 20 ms against a nominal 10 ms: the host
    # reads as at least twice as slow as nominal.
    monkeypatch.setattr(hostspeed, "KERNELS", {"python": lambda: time.sleep(0.02),
                                               "numpy": lambda: None})
    monkeypatch.setitem(hostspeed.NOMINAL_S, "python", 0.01)
    speed = hostspeed.HostSpeed()
    t0 = time.perf_counter()
    (tally,) = run.run_passes(_SleepingWorkload(), None, None, 0, speed)
    outer = time.perf_counter() - t0
    assert len(speed.samples) == 2 and speed.spent >= 0.04
    assert 0.015 <= tally.wall and tally.wall + speed.spent <= outer
    assert tally.wall_nominal <= tally.wall / 2

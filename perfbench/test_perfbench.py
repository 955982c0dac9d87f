"""Tests of the benchmark's own parts: its reference data, input sampler,
outcome classification, tracer and metric names."""
import json
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import oddferrers
import oddferrers.cli
from oddferrers import ClassId, OddFerrersGraph, Partition, classes, graph_weight

import hostspeed
import run
import sampler
from tracer import Tracer

HERE = Path(__file__).resolve().parent
REAL_CLOCK = types.SimpleNamespace(now=perf_counter)


def partitions_of(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def test_series_reference_agrees_with_enumeration_to_40():
    lines = run.REFERENCE.read_text().splitlines()
    assert len(lines) == 601
    for n, line in enumerate(lines[:41]):
        assert line == f"{n}\t{classes.count(ClassId.O, n)}"


def test_arm_tuples_are_uniform_over_O():
    s = sampler.DistinctOddSampler(None, 4 * 20 + 1)
    for n in range(21):
        assert sum(s.ways[a1 - 1][n + 1 - a1] for a1 in range(1, n + 2)) == classes.count(ClassId.O, n)


def test_sampled_members_belong_to_their_classes():
    s = sampler.DistinctOddSampler(random.Random(5), 4 * 60 + 1)
    for n in list(range(13)) + [37, 60]:
        for _ in range(20):
            m = sampler.class_members(s.arms(n))
            assert classes.is_in_O(OddFerrersGraph(Partition(m["O"])), n)
            assert classes.is_in_S(Partition(m["S"]), n)
            assert classes.is_in_D(Partition(m["D"]), n)
            assert classes.is_in_DO(Partition(m["DO"]), n)
            cells = s.draw(4 * n + 1, 2 * n + 1)
            assert sum(cells) == 4 * n + 1 and sampler.is_distinct_odd(cells)


def test_domain_predicates_agree_with_the_package_to_weight_21():
    for w in range(1, 22):
        for p in partitions_of(w):
            part, graph = Partition(p), OddFerrersGraph(Partition(p))
            assert sampler.in_O(p) == classes.is_in_O(graph, (graph_weight(graph) - 1) // 2)
            assert sampler.in_S(p) == classes.is_in_S(part, (w - 1) // 4)
            assert sampler.in_D(p) == classes.is_in_D(part, (w - 1) // 2)
            assert sampler.in_DO(p) == classes.is_in_DO(part, (w - 1) // 4)


def test_tasks_repeat_per_seed():
    a = sampler.make_tasks(11, tasks=300)
    assert a == sampler.make_tasks(11, tasks=300)
    assert a != sampler.make_tasks(12, tasks=300)
    assert sum(t[2] is None for t in a) == 100
    for name, x, expected, _ in a:
        assert sampler.DOMAIN[name](x) == (expected is not None)


def test_maps_pass_fails_only_on_accepted_non_members():
    workload = run.MapsWorkload(oddferrers, seed=1)
    outcomes, times = workload.run_pass(REAL_CLOCK)
    attempted, failed, messages = workload.check(outcomes)
    assert messages == []
    assert attempted == sampler.TASKS and len(times) >= attempted
    # the only wrong outcomes are non-members that do_to_d or phi_inverse
    # accept (ROADMAP item 5)
    wrong = [(t[0], t[2]) for t, (out, back) in zip(workload.tasks, outcomes)
             if t[3] is None and not isinstance(out, Exception)]
    assert {name for name, _ in wrong} <= {"do_to_d", "phi_inverse"}
    assert len(wrong) == failed


def test_classification_flags_unexpected_exceptions_and_member_failures():
    workload = run.MapsWorkload(oddferrers, seed=1)
    workload.tasks = [("do_to_d", Partition((5,)), (5,), (3,))]
    assert workload.check([(ValueError("boom"), None)])[1:] == (1, ["do_to_d((5,)): raised ValueError: boom"])
    error = oddferrers.errors.MalformedDOClass("no")
    assert workload.check([(error, None)])[1] == 1
    assert workload.check([(Partition((3,)), Partition((5,)))])[1:] == (0, [])


def test_cli_check_counts_each_output_line():
    workload = run.CliWorkload(oddferrers, ["count"], "a\nb\nc\n")
    assert workload.check((0, "a\nb\nc\n")) == (3, 0, [])
    assert workload.check((0, "a\nX\nc\n"))[:2] == (3, 1)
    assert workload.check((0, "a\nb\n"))[:2] == (3, 1)
    assert workload.check((0, "a\nb\nc"))[:2] == (3, 1)
    assert workload.check((1, "a\nb\nc\n"))[:2] == (3, 3)


def test_a_pass_that_changes_the_outcome_fails_the_run():
    r = run.Run()
    r.add_outcome(9000, 15, [])
    r.add_outcome(9000, 15, [])
    assert r.messages == [] and r.outcome == (9000, 15)
    r.add_outcome(9000, 14, [])
    assert len(r.messages) == 1 and r.outcome == (9000, 15)


def test_host_clock_slows_with_the_reference_work(monkeypatch):
    clock = hostspeed.HostClock()
    monkeypatch.setattr(hostspeed, "time_reference", lambda: 2 * hostspeed.REFERENCE_S)
    for _ in range(hostspeed.RECENT):
        clock._tick(None, None)
    reading, mark, scale = clock.state
    assert abs(scale - 0.5) < 1e-9 and reading >= 0
    start, real = clock.now(), perf_counter()
    sum(range(200000))
    assert clock.now() - start <= (perf_counter() - real) * 0.5 + 1e-6


def test_host_clock_samples_while_it_runs():
    with hostspeed.HostClock() as clock:
        first = clock.now()
        deadline = perf_counter() + 0.2
        while perf_counter() < deadline:
            pass
        assert clock.now() > first
    assert len(clock.samples) > hostspeed.RECENT + 5


def test_tracer_counts_repeat_and_originals_are_restored():
    modules = [getattr(oddferrers, layer) for layer in run.LAYERS]
    original = classes.hooks_compose
    tracer = run.make_tracer()
    workload = run.CliWorkload(oddferrers, ["verify", "--checks", "counts", "--max-n", "8"],
                               "# counts 0..8\n" + "".join(f"{n}\tPASS\n" for n in range(9)))
    tracer.install(dict(zip(run.LAYERS, modules)), [oddferrers, oddferrers.errors] + modules)
    try:
        assert classes.hooks_compose is not original
        passes = []
        for _ in range(2):
            raw, _ = workload.run_pass(REAL_CLOCK)
            assert workload.check(raw) == (10, 0, [])
            passes.append(run.layer_values(tracer.reset()))
    finally:
        tracer.uninstall()
    assert classes.hooks_compose is original and oddferrers.cli.main.__module__ == "oddferrers.cli"
    counts = [{k: v for k, (v, unit) in p.items() if unit != "s"} for p in passes]
    assert counts[0] == counts[1]
    assert counts[0]["classes.S.leaves"] > counts[0]["partitions.hooks_compose.calls"] / 2
    assert passes[0]["classes.count.S.self_s"][0] > 0


def test_tracer_self_time_excludes_children():
    mod = types.ModuleType("layer")

    def inner():
        return sum(range(20000))

    def outer():
        return mod.inner() + mod.inner()

    inner.__module__ = outer.__module__ = "layer"
    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.install({"layer": mod}, [mod])
    try:
        mod.outer()
    finally:
        tracer.uninstall()
    t = tracer.totals
    assert t["calls"]["layer.inner"] == 2 and t["edges"]["layer.outer", "layer.inner"] == 2
    assert 0 < t["self_s"]["layer.outer"] < t["self_s"]["layer.inner"]


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    totals = Tracer().totals
    layer = {k: unit for k, (_, unit) in run.layer_values(totals).items()}
    layer.update({"trace.overhead_s": "s", "failed_frac": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "counts", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "package sources not found" in proc.stderr

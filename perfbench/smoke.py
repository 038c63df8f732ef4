"""Smoke tests for the benchmark, at tiny sizes.

    python3 -m pytest -q perfbench/smoke.py

The file name keeps it out of the repository's own test suite.
"""

from __future__ import annotations

import collections
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from clock import PERIOD, SpeedClock  # noqa: E402
from run import END_TO_END, SRC, Run, benchmark  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Per-layer metrics that must be nonzero on each workload, because the
# workload runs that layer.
RUNS_ON = {
    "census": [
        "tautilt.enumerate_stt.self_s", "tautilt.enumerate_stt.pairs",
        "modcat.pair_tau_rigid.calls", "modcat.pair_tau_rigid.hit_ratio",
        "modcat.support.calls", "tautilt.is_support_tau_tilting.calls",
        "counting.verify_tables.self_s", "verify.triple_bijection_holds.self_s",
        "geometry.enumerate_restricted.self_s", "geometry.triangulation_to_tau_tilt.self_s",
        "geometry.tau_tilt_to_triangulation.self_s", "geometry.make_triangulation.calls",
        "sequences.x_of_sequence.self_s", "sequences.enumerate_Z_restricted.self_s",
        "cli.main.self_s", "cli.bytes_out",
    ],
    "hasse-direct": [
        "poset.stt_poset.self_s", "poset.geq.calls", "poset.hasse.self_s",
        "poset.hasse.arrows", "tautilt.enumerate_stt.pairs", "poset.render.self_s",
        "cli.main.self_s", "cli.bytes_out",
    ],
    "hasse-rejection": [
        "tautilt.is_support_tau_tilting.calls", "tautilt.is_support_tau_tilting.self_s",
        "tautilt.is_support_tau_tilting.accept_ratio", "poset.classify.self_s",
        "poset.classify.n1", "poset.classify.n2", "poset.classify.n3",
        "poset.double_hasse.self_s", "algebra.reject.calls", "algebra.reject.self_s",
        "algebra.projective_injectives.self_s", "modcat.pair_tau_rigid.hit_ratio",
        "poset.render.self_s", "cli.main.self_s", "cli.bytes_out",
    ],
    "translate": [
        "sequences.x_of_sequence.self_s", "geometry.make_triangulation.calls",
        "geometry.triangulation_to_tau_tilt.self_s", "tautilt.is_support_tau_tilting.calls",
        "poset.render.self_s", "cli.main.self_s", "cli.bytes_out",
    ],
}

# The Fac order and covers run only when a Hasse quiver is built directly.
DIRECT_ONLY = ["poset.stt_poset.self_s", "poset.geq.calls", "poset.hasse.self_s", "poset.hasse.arrows"]


def tiny(workload, seed=1):
    return workloads.commands(workload, seed, tiny=True)


def test_benchmark_json_names_every_metric():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    run, metrics, _, _, _ = benchmark(tiny(workload), 0, trace=False)
    assert set(metrics) == set(END_TO_END)
    assert all(v > 0 for v in metrics.values()), metrics
    assert run.failures == [] and run.attempted == len(workloads.WARMUP) + len(run.cmds)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_metrics_emitted_where_the_layer_runs(workload):
    run, metrics, traced, spans, _ = benchmark(tiny(workload), 0, trace=True)
    assert set(metrics) == set(LAYER_METRICS)
    assert [m for m in RUNS_ON[workload] if not metrics[m] > 0] == []
    if workload != "hasse-direct":
        assert [m for m in DIRECT_ONLY if metrics[m] != 0] == []
    assert metrics["trace.overhead_ratio"] > 0
    assert run.failures == [] and len(traced) == len(spans) >= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_fit_in_traced_wall(workload):
    _, cli, _ = workloads.setup(SRC)
    real_main = cli.main
    run = Run(cli, workloads.Digests(), tiny(workload))
    tracer = Tracer()
    tracer.install()
    try:
        wall = sum(run.one_pass(tracer))
    finally:
        tracer.uninstall()
    selfs = tracer.self_times()
    assert all(v >= 0 for v in selfs.values())
    assert sum(selfs.values()) <= wall
    assert cli.main is real_main


def test_tracer_restores_every_binding():
    _, cli, _ = workloads.setup(SRC)
    modules = [m for k, m in sys.modules.items() if k.startswith("nakayama")]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    tracer.install()
    assert any(dict(vars(m)) != b for m, b in zip(modules, before))
    tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before


def test_from_import_sites_are_patched():
    _, cli, _ = workloads.setup(SRC)
    from nakayama import algebra, geometry, poset, sequences

    tracer = Tracer()
    tracer.install()
    try:
        assert poset.reject is algebra.reject
        assert sequences.make_triangulation is geometry.make_triangulation
        poset.reject(algebra.make_cyclic(2, 2), 1)
        sequences.x_of_sequence(sequences.SeqA([1, 1]))
    finally:
        tracer.uninstall()
    assert tracer.counts["algebra.reject.calls"] == 1
    assert tracer.counts["geometry.make_triangulation.calls"] == 1


# -- output checks catch corrupted output ------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_counted_in_failed_ops(workload, monkeypatch):
    _, cli, _ = workloads.setup(SRC)
    real_main = cli.main

    def corrupting_main(argv):
        rc = real_main(argv)
        sys.stdout.write(" ")
        return rc

    run = Run(cli, workloads.Digests(), tiny(workload))
    monkeypatch.setattr(cli, "main", corrupting_main)
    run.one_pass()
    assert run.attempted == len(run.cmds)
    assert len(run.failures) == len(run.cmds)


def test_nonzero_exit_and_exception_are_failures(monkeypatch):
    _, cli, _ = workloads.setup(SRC)
    run = Run(cli, workloads.Digests(), tiny("hasse-direct"))
    monkeypatch.setattr(cli, "main", lambda argv: 1)
    run.one_pass()

    def raising(argv):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "main", raising)
    run.one_pass()
    assert len(run.failures) == 2 * len(run.cmds)
    assert "raised ValueError" in run.failures[-1][1]


def _outputs(workload):
    _, cli, _ = workloads.setup(SRC)
    for argv in tiny(workload):
        rc, out, _ = workloads.run_command(cli, argv)
        assert rc == 0
        yield argv, out


def _well_formed_but_wrong(argv, out):
    """Outputs that parse but break the command's invariant."""
    cmd = argv[0]
    if cmd == "count":
        yield out.replace("stt: ", "stt: 1", 1)
    elif cmd == "enumerate":
        pairs = json.loads(out)
        yield json.dumps(pairs[:-1])
        yield json.dumps(pairs[:-1] + pairs[:1])
        pairs[0]["killed"] = pairs[0]["killed"] + [99]
        yield json.dumps(pairs)
    elif cmd == "verify":
        lines = out.splitlines()
        yield "\n".join(lines[:-1] + ["FAIL (1)"]) + "\n"
        yield "\n".join(lines[1:]) + "\n"
    elif cmd == "hasse" and "--format" in argv and argv[argv.index("--format") + 1] == "dot":
        lines = out.splitlines()
        arrow = next(i for i, line in enumerate(lines) if "->" in line)
        yield "\n".join(lines[:arrow] + lines[arrow + 1:]) + "\n"
    elif cmd == "hasse":
        data = json.loads(out)
        data["arrows"] = data["arrows"][1:]
        yield json.dumps(data)
        data["vertices"] = data["vertices"][1:]
        yield json.dumps(data)
    elif cmd == "translate" and "arcs" in argv:
        arcs = out.split()
        yield " ".join(arcs[:-1]) + "\n"
        yield " ".join(arcs[:-1] + arcs[:1]) + "\n"
    elif cmd == "translate":
        summands = out.rstrip("\n").split(" + ")
        yield " + ".join(summands[:-1]) + "\n"
        yield out.rstrip("\n") + " [1]\n"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_invariant_catches_a_corruption(workload):
    digests = workloads.Digests()
    for argv, out in _outputs(workload):
        assert workloads.invariant(argv, out) is None, argv
        assert digests.check(argv, 0, out) is None, argv
        assert digests.check(argv, 0, out + "\n") is not None, argv
        bad = list(_well_formed_but_wrong(argv, out))
        assert bad, argv
        for wrong in bad:
            assert workloads.invariant(argv, wrong) is not None, (argv, wrong)


def test_unrecorded_command_is_a_failure():
    digests = workloads.Digests()
    argv = ["count", "--cyclic", "2", "--r", "2"]
    out = "tau-tilt: 3\nproper: 3\nstt: 6\n"
    assert workloads.invariant(argv, out) is None
    assert digests.check(argv, 0, out) == "stdout differs from the recorded digest"


# -- inputs -------------------------------------------------------------------


def test_translate_inputs_come_from_the_seed():
    a = workloads.commands("translate", 5)
    assert a == workloads.commands("translate", 5)
    assert a != workloads.commands("translate", 6)
    assert len(a) == 2000
    mix = collections.Counter((argv[2], argv[8]) for argv in a)
    assert len(mix) == 6 and max(mix.values()) - min(mix.values()) <= 1
    for argv in a:
        n = int(argv[argv.index("--cyclic") + 1])
        seq = [int(x) for x in argv[argv.index("--payload") + 1].split(",")]
        assert n in (6, 7, 8) and len(seq) == n and sum(seq) == n and min(seq) >= 0


def test_random_composition_is_uniform_over_all_compositions():
    rng = random.Random(0)
    seen = collections.Counter(tuple(workloads.random_composition(rng, 3)) for _ in range(10000))
    assert set(seen) == set(workloads.compositions(3))
    assert len(workloads.compositions(8)) == 6435
    assert max(seen.values()) < 1.2 * min(seen.values())


def test_fixed_workloads_ignore_the_seed():
    for workload in ("census", "hasse-direct", "hasse-rejection"):
        assert workloads.commands(workload, 1) == workloads.commands(workload, 2)


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert run.main(["--workload", "census", "--seed", "1", "--seconds", "1"]) == 2


def test_speed_clock_is_monotonic_and_restores_the_signal():
    import signal
    import time

    clock = SpeedClock().start()
    try:
        readings, t0 = [], time.perf_counter()
        while time.perf_counter() - t0 < 10 * PERIOD:
            readings.append(clock.now())
    finally:
        clock.stop()
    assert signal.getsignal(signal.SIGALRM) in (signal.SIG_DFL, None)
    assert len(clock.samples) >= 5 and clock.slowdown() > 0
    assert readings == sorted(readings) and readings[-1] > readings[0]

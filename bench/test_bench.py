"""Tests of the benchmark itself:  python3 -m pytest -q bench/test_bench.py"""

import pytest

import run

run.load_program()

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from g2kit import chern, cli  # noqa: E402


def test_negative_control_sphere_mutation_fails_every_request(tmp_path):
    # upsilon-scale corrupts the identity the suite checks; the oracle still
    # expects a pass, so every request, and its re-run, must count as failed.
    workload = wl.SphereFloat(3, str(tmp_path), mutate="upsilon-scale")
    a_rounds, b_rounds, _ = run.run_rounds(workload, workload.batches(), seconds=0)
    verdicts = run.statuses(workload, a_rounds[0])
    for r in a_rounds[1:] + b_rounds:
        verdicts += run.statuses(workload, r, a_rounds[0])
    assert len(verdicts) == 2 * run.ROUNDS
    assert verdicts.count(wl.FAILED) / len(verdicts) == 1


def test_cli_exact_fails_only_on_known_defects(tmp_path):
    workload = wl.CliExact(5, str(tmp_path))
    phase = run.run_phase(workload, workload.batches(), deadline=0)
    verdicts = run.statuses(workload, phase)
    assert len(phase.reqs) == len(workload.cycle)
    assert verdicts.count(wl.FAILED) == 0
    assert verdicts.count(wl.KNOWN_DEFECT) == len(wl.KNOWN_DEFECTS)


def test_self_time_of_nested_and_overlapping_spans():
    #   root [0, 10]
    #     a [1, 4]        a1 [2, 3]
    #     b [5, 9]        b1 [5, 7], b2 [6, 8] overlap; c [8.5, 11] is clipped to 9
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 6.0, 8.5]
    end = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0, 11.0]
    parent = [-1, 0, 1, 0, 3, 3, 3]
    got = spans.self_times(start, end, parent)
    assert list(got) == pytest.approx([3.0, 2.0, 1.0, 0.5, 2.0, 2.0, 2.5])


def test_tracer_wraps_reimported_names_and_restores_them(tmp_path):
    original = chern.compute_rs
    tracer = spans.Tracer()
    with tracer:
        assert cli.compute_rs is chern.compute_rs is not original
        tracer.span_request(7, wl.call_cli, ["chern", "--family", "flip23"])
    assert cli.compute_rs is chern.compute_rs is original
    calls = [tracer.names[i] for i in tracer.name]
    assert calls[0] == spans.ROOT and "chern.compute_rs" in calls and "cli.cmd_chern" in calls
    assert set(tracer.request) == {7}
    tracer.write(tmp_path / "t.spans")
    names, loaded = spans.load_spans(tmp_path / "t.spans")
    assert names == tracer.names and loaded["parent"] == tracer.parent


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_regenerates_identical_inputs(name, tmp_path):
    def inputs(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        return wl.WORKLOADS[name](seed, str(workdir)).inputs(4)

    assert inputs(11, "a") == inputs(11, "b")
    assert inputs(11, "c") != inputs(12, "d")


def test_latency_tail_keeps_ten_requests_beyond_it():
    secs = [float(i) for i in range(50)]
    assert run.latency_tail(secs) == (39.0, 80.0)
    assert run.latency_tail(secs[:5]) == (4.0, 100.0)

"""Timing-harness tests: parameter validation, records that survive the
JSON summary, and the qualitative shape of the measurement grid. Absolute
times are machine-dependent and left to the acceptance suite."""

import dataclasses
import json

import pytest

from wbpose.bench import BenchRecord, run_bench
from wbpose.decoder import DecodeStats


def small_grid_records(topo, n_people_grid=(1, 3), image_size=(256, 256)):
    return run_bench(
        list(n_people_grid), [image_size], topo, repetitions=10, seed=1
    )


def test_run_bench_rejects_thin_sampling(topo):
    with pytest.raises(ValueError):
        run_bench([1], [(128, 128)], topo, repetitions=9)


def test_run_bench_rejects_repeated_crowd_size(topo):
    # Each record would pool the repetitions of every point of its size.
    with pytest.raises(ValueError, match="crowd sizes must not repeat"):
        run_bench([1, 3, 1], [(128, 128)], topo, repetitions=10)


def test_single_grid_point_yields_one_record(topo):
    records = run_bench([2], [(128, 128)], topo, repetitions=10, seed=0)
    assert len(records) == 1
    r = records[0]
    assert (r.map_w, r.map_h) == (16, 16)
    assert r.repetitions == 10
    assert 0 < r.median_ns <= r.p90_ns
    assert r.stats.candidates > 0
    s = r.stats
    assert s.connections_scored >= s.connections_kept >= s.connections_accepted > 0


def test_records_sorted_and_connections_grow_with_people(topo):
    records = small_grid_records(topo)
    assert [r.n_people for r in records] == [1, 3]
    assert records[1].stats.connections_scored > records[0].stats.connections_scored
    assert records[1].stats.candidates > records[0].stats.candidates


def test_records_roundtrip_through_json(topo):
    records = small_grid_records(topo)
    rows = json.loads(json.dumps([dataclasses.asdict(r) for r in records]))
    assert [BenchRecord(**{**row, "stats": DecodeStats(**row["stats"])}) for row in rows] == records


def test_records_nest_every_decoder_counter(topo):
    # Every DecodeStats field reaches the JSON record, valid pairs included.
    keys = [f.name for f in dataclasses.fields(DecodeStats)]
    for row in json.loads(json.dumps([dataclasses.asdict(r) for r in small_grid_records(topo)])):
        stats = row["stats"]
        assert list(stats) == keys
        assert (stats["connections_scored"] >= stats["connections_kept"]
                >= stats["connections_valid"] >= stats["connections_accepted"] > 0)


def test_phase_medians_within_p90(topo):
    # Each phase is a part of its repetition's total, so its median over the
    # repetitions cannot exceed the total's median, let alone its p90. The
    # support map, prefilter, scorer and matching are parts of scoring in
    # the same way.
    for r in small_grid_records(topo):
        s = r.stats
        for phase in (s.nms_ns, s.scoring_ns, s.assembly_ns):
            assert 0 < phase <= r.median_ns <= r.p90_ns
        for part in (s.support_ns, s.prefilter_ns, s.scorer_ns, s.matching_ns):
            assert 0 < part <= s.scoring_ns

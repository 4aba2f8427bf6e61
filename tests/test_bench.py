"""Timing-harness tests: parameter validation, record invariants, CSV schema
stability, and the qualitative shape of the measurement grid. Absolute times
are machine-dependent and left to the acceptance suite."""

import csv
import io

import pytest

from wbpose.bench import CSV_COLUMNS, BenchRecord, run_bench, write_bench_csv


def small_grid_records(topo, n_people_grid=(1, 3), image_size=(256, 256)):
    return run_bench(
        list(n_people_grid), [image_size], topo, warmup=3, repetitions=10, seed=1
    )


def test_run_bench_rejects_thin_sampling(topo):
    with pytest.raises(ValueError):
        run_bench([1], [(128, 128)], topo, warmup=2, repetitions=10)
    with pytest.raises(ValueError):
        run_bench([1], [(128, 128)], topo, warmup=3, repetitions=9)


def test_bench_record_invariants():
    ok = dict(
        n_people=1, map_w=16, map_h=16, median_ns=10, p90_ns=20,
        candidates=5, connections=4, repetitions=10,
    )
    BenchRecord(**ok)
    with pytest.raises(ValueError):
        BenchRecord(**{**ok, "median_ns": 30})
    with pytest.raises(ValueError):
        BenchRecord(**{**ok, "repetitions": 9})


def test_single_grid_point_yields_one_record(topo):
    records = run_bench([2], [(128, 128)], topo, warmup=3, repetitions=10, seed=0)
    assert len(records) == 1
    r = records[0]
    assert (r.map_w, r.map_h) == (16, 16)
    assert r.repetitions == 10
    assert 0 < r.median_ns <= r.p90_ns
    assert r.candidates > 0
    assert r.connections >= r.connections_kept >= r.connections_accepted > 0


def test_records_sorted_and_connections_grow_with_people(topo):
    records = small_grid_records(topo)
    assert [r.n_people for r in records] == [1, 3]
    assert records[1].connections > records[0].connections
    assert records[1].candidates > records[0].candidates


def test_csv_schema_and_roundtrip(topo):
    records = small_grid_records(topo)
    buf = io.StringIO()
    write_bench_csv(records, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(records)
    rows = csv.DictReader(lines)
    pairs = [(int(row["n_people"]), int(row["median_ns"])) for row in rows]
    assert pairs == [(r.n_people, r.median_ns) for r in records]

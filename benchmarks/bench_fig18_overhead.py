"""Benchmark: regenerate the paper's fig18_overhead via its experiment driver.

Also runs the profiler-contention load sweep and drops its table as a
JSON artifact (``benchmarks/artifacts/fig18_load_sweep.json``) so the
queueing behavior under saturation is diffable across runs.
"""

from repro.experiments import fig18_overhead

from conftest import run_experiment, write_artifact


def test_fig18_overhead(bench_fast):
    run_experiment(fig18_overhead.run, bench_fast)


def test_fig18_load_sweep(bench_fast):
    report = run_experiment(fig18_overhead.run_load_sweep, bench_fast)
    # Queueing must grow across the sweep (saturation is the point).
    delays = [row["mean_queue_delay_s"] for row in report.rows]
    assert delays[-1] > delays[0]
    # ...and with it the profiler's share of delay (the driver's claim).
    overhead = [row["mean_overhead_fraction"] for row in report.rows]
    assert overhead[-1] > overhead[0]

    artifact = write_artifact(
        "fig18_load_sweep.json",
        {"name": report.name, "rows": report.rows, "notes": report.notes},
    )
    print(f"\nartifact: {artifact}")

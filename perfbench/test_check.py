"""Checks of the benchmark itself: its correctness check can fail, and the
tracer accounts for the time it wraps and restores what it patched.

    python3 -m pytest perfbench
"""

import random
import time

import run

run.use_checkout_source()

from gcshelm import assembly_solver, experiments  # noqa: E402
from gcshelm.problem_model import ProblemCase  # noqa: E402

import workloads  # noqa: E402
from tracer import SystemLog, Tracer  # noqa: E402


def test_cutoff_perturbation_fails_table_het():
    # A looser singular-value cutoff drops het (50, 6) from rank 474 to 435
    # and roughly triples its error; the check must report failed operations.
    workload = workloads.make("table-het", experiments.ExperimentConfig(cutoff=1e-6))
    with SystemLog() as log:
        _, results = run.run_pass(workload, random.Random(0), log)
    outcomes = {o.name: o for o in run.check(results)}
    het50 = outcomes["heterogeneous k=50 delta=6"]
    assert "rank 435 != 474" in het50.failure
    assert "rel_h1k_error 4.7" in het50.failure
    fail_frac = sum(o.failure is not None for o in outcomes.values()) / len(outcomes)
    assert fail_frac > 0.0


def test_tracer_accounts_for_a_cell_and_restores_modules():
    original = assembly_solver.assemble
    with SystemLog() as log, Tracer() as tracer:
        t0 = time.perf_counter()
        experiments.run_cell(ProblemCase.homogeneous(20.0), 2.0, experiments.ExperimentConfig())
        elapsed = time.perf_counter() - t0
    assert assembly_solver.assemble is original
    layers = tracer.layer_metrics(1, log.systems)
    assert layers["experiments.cells"] == 1
    assert 0 < layers["assembly_solver.rank"] <= layers["phase_space.columns"] == 131
    assert layers["gaussian_states.state_calls"] == 3 * 131  # assemble, value, derivative
    [(q, n, npp)] = log.systems
    assert layers["quadrature.rows"] == q and n == 131
    assert layers["quadrature.nodes_per_panel"] == npp
    self_total = sum(v for name, v in layers.items() if name.endswith("_s"))
    assert abs(self_total - tracer.top_s) < 1e-9
    assert 0.95 * elapsed <= tracer.top_s <= elapsed

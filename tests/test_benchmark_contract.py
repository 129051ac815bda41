"""The benchmark calls gcshelm by name and signature; both must hold.

``perfbench/tracer.py`` patches gcshelm functions by name, and
``perfbench/workloads.py`` calls them with the arguments its workloads use
and checks their outputs against its seed values.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from gcshelm import assembly_solver, experiments, gaussian_states
from gcshelm.problem_model import ProblemCase

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("table-hom", "table-het", "scaling-hom", "diagnose")


def load(name, module_name):
    spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load("tracer", "perfbench_tracer")


def traced_names():
    return (assembly_solver.assemble, assembly_solver.solve, gaussian_states.eval_state)


def test_tracer_patches_and_restores_every_traced_name():
    tracer = load_tracer()
    originals = traced_names()
    # entering raises AttributeError if any name the tracer wraps is gone
    with tracer.SystemLog(), tracer.Tracer():
        assert all(now is not old for now, old in zip(traced_names(), originals))
    assert all(now is old for now, old in zip(traced_names(), originals))


def test_system_log_records_each_assembled_size(monkeypatch):
    # the runner prints every cell's sizes from system.matrix.shape; a design
    # matrix without it would fail every benchmark operation, not a test
    built = []
    assemble = assembly_solver.assemble

    def keep(*args):
        built.append(assemble(*args))
        return built[-1]

    monkeypatch.setattr(assembly_solver, "assemble", keep)
    with load_tracer().SystemLog() as log:
        _, _, index_set = experiments.run_cell(
            ProblemCase.homogeneous(20.0), 2.0, experiments.ExperimentConfig()
        )
    rule = built[0].rule
    assert log.systems == [(len(rule), len(index_set), rule.nodes_per_panel)]


def test_tracer_enters_both_selection_names_of_a_cell(monkeypatch):
    # a traced name kept for the tracer but no longer called would read zero
    # in every trace; a cell enters each once and counts its columns
    entered = {"search_bounds_from_symbol": 0, "build_symbol_set": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            entered[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in entered:
        monkeypatch.setattr(experiments, name, counting(name, getattr(experiments, name)))
    tracer = load_tracer()
    with tracer.SystemLog() as log, tracer.Tracer() as traced:
        experiments.run_cell(ProblemCase.homogeneous(20.0), 2.0, experiments.ExperimentConfig())
    assert entered == {"search_bounds_from_symbol": 1, "build_symbol_set": 1}
    assert traced.layer_metrics(1, log.systems)["phase_space.columns"] == 131
    assert traced.self_s["phase_space.select"] > 0.0


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports the tracer as a top-level module named ``tracer``
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "tracer", load_tracer())
        yield load("workloads", "perfbench_workloads")


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_warms_up_and_builds_its_operations(name, workloads):
    # the warm-up calls every gcshelm entry point of a pass on small inputs
    workload = workloads.make(name)
    workload.warm_up()
    assert all(callable(run) and callable(check) for _, run, check in workload.operations())


def test_diagnose_operations_pass_their_checks(workloads):
    # a broken frame, dual-frame or plane-wave result would otherwise first
    # show as failed benchmark operations; the checks read no system sizes
    for name, run, check in workloads.make("diagnose").operations():
        outcome = check(name, run(), [])
        assert outcome.failure is None, f"{name}: {outcome.failure}"


@pytest.mark.parametrize("name", ("table-hom", "table-het", "scaling-hom"))
def test_table_operations_pass_their_checks(name, workloads):
    # a problem-layer or kernel change that moves a cell's ndofs, rank,
    # error or residual, or a scaling hit, off the benchmark seed fails
    # here, not first as failed benchmark operations; the checks read the
    # sizes the SystemLog records
    for op_name, run, check in workloads.make(name).operations():
        with load_tracer().SystemLog() as log:
            out = run()
        outcome = check(op_name, out, log.systems)
        assert outcome.failure is None, f"{op_name}: {outcome.failure}"

"""The benchmark's tracer patches gcshelm functions by name; they must exist."""

import importlib.util
from pathlib import Path

from gcshelm import assembly_solver, gaussian_states

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names():
    return (assembly_solver.assemble, assembly_solver.solve, gaussian_states.eval_state)


def test_tracer_patches_and_restores_every_traced_name():
    tracer = load_tracer()
    originals = traced_names()
    # entering raises AttributeError if any name the tracer wraps is gone
    with tracer.SystemLog(), tracer.Tracer():
        assert all(now is not old for now, old in zip(traced_names(), originals))
    assert all(now is old for now, old in zip(traced_names(), originals))

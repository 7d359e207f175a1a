"""The names that ``perfbench/run.py --trace 1`` patches must exist in the
program, and the traced pass must leave every one as it found it; the names
perfbench calls must take the arguments it passes; the benchmark's
certifier must not certify a point where no step problem can be posed."""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from setopt import bench, cone, partition, problems, solvers, subproblem

from plants import make_overflow_plant

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()  # AttributeError when a patched name is gone
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


# (owner, name, positional arguments, keywords) of each call in perfbench/
CALLED = [
    (bench, "run", 4, ("memo", "observer")),
    (bench, "run_matrix", 2, ("cone",)),
    (bench, "cone_experiment", 3, ("it_max", "algorithms")),
    (bench, "sample_points", 3, ()),
    (bench, "_problem_seed", 2, ()),
    (bench, "ExperimentConfig", 0,
     ("problem_ids", "algorithms", "points_per_problem", "it_max", "rng_seed")),
    (problems, "registry", 1, ()),
    (problems, "problem_ids", 0, ()),
    (cone, "preset", 1, ()),
    (cone, "orthant", 1, ()),
    (partition, "structure_from_values", 2, ()),
    (partition.MinimalStructure, "partition_count", 1, ()),
    (subproblem, "criticality_value", 4, ("radius",)),
]


@pytest.mark.parametrize("owner, name, positional, keywords", CALLED,
                         ids=[name for _, name, _, _ in CALLED])
def test_every_called_name_takes_its_call_form(owner, name, positional, keywords):
    signature = inspect.signature(getattr(owner, name))  # AttributeError when it is gone
    signature.bind(*[None] * positional, **dict.fromkeys(keywords))  # TypeError when it moved


def test_the_raised_names_and_the_stop_tolerance_exist():
    for error in (problems.DomainError, partition.PartitionCapError,
                  subproblem.InnerSolveFailure):
        assert issubclass(error, Exception)
    assert isinstance(partition.PARTITION_CAP, int)
    assert isinstance(solvers.SolverConfig().eps, float)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_certifier_rejects_a_point_without_derivatives(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    monkeypatch.setattr(problems, "registry", lambda pid: make_overflow_plant())
    monkeypatch.setattr(cone, "preset", lambda name: cone.orthant(1))
    assert worker.certified(("overflow_plant", "orthant:1", np.zeros(1).tobytes())) is False

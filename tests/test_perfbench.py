"""The names that ``perfbench/run.py --trace 1`` patches must exist in the
program, and the traced pass must leave every one as it found it; the
benchmark's certifier must not certify a point where no step problem can be
posed."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from setopt import cone, problems

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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_certifier_rejects_a_point_without_derivatives(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    monkeypatch.setattr(problems, "registry", lambda pid: make_overflow_plant())
    monkeypatch.setattr(cone, "preset", lambda name: cone.orthant(1))
    assert worker.certified(("overflow_plant", "orthant:1", np.zeros(1).tobytes())) is False

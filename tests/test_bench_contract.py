"""The names the benchmark binds in the package still exist.

perfbench/worker.py wraps package functions in trace spans by module
attribute. A refactor that drops or renames one of them only shows up in
the traced run's `details.unpatched`, and that run then fails when it reads
the missing span. This test catches it in the test suite instead. It reads
perfbench/ and changes nothing there.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from framewatch import nn
from framewatch.rng import RngStream

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def worker():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("worker")  # also imports kernels
    finally:
        sys.path.remove(str(PERFBENCH))


def _stub_run(worker, tmp_path):
    return SimpleNamespace(seed=0, seconds=1.0, root=PERFBENCH.parent,
                           state=tmp_path / "state", work=tmp_path / "work",
                           tracer=worker.Tracer(enabled=False), checks=[],
                           decoded=0, scored=0, info={})


@pytest.mark.parametrize("name", ["train", "stream", "eval"])
def test_patched_names_exist(worker, tmp_path, name):
    assert name in worker.WORKLOADS
    workload = worker.WORKLOADS[name](_stub_run(worker, tmp_path))
    assert workload.patches
    for module, attr, span in workload.patches:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
        # The span is named after the function it times; the patched
        # binding must be that function.
        home, func = span.rsplit(".", 1)
        target = importlib.import_module(f"framewatch.{home}")
        assert getattr(module, attr) is getattr(target, func), \
            f"{module.__name__}.{attr} is not {span}"


def test_mlp_runs_the_timed_dense_kernels(monkeypatch):
    """The bench times nn.dense_forward_batch and nn.dense_backward_batch;
    Mlp.forward and Mlp.backward, which training and scoring run, must go
    through exactly those functions, once per layer."""
    calls = []

    def counted(name):
        original = getattr(nn, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("dense_forward_batch", "dense_backward_batch"):
        monkeypatch.setattr(nn, name, counted(name))
    mlp = nn.init_mlp(RngStream(0), (5, 4, 3), [nn.Activation.TANH] * 2)
    xs = RngStream(1).gaussian(10).reshape(2, 5)
    cache = []
    out = mlp.forward(xs, cache)
    assert calls == ["dense_forward_batch"] * 2
    mlp.backward(cache, out)
    assert calls[2:] == ["dense_backward_batch"] * 2

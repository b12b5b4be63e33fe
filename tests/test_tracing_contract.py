"""The benchmark's tracer wraps library functions by module attribute; these
tests fail when a refactor removes or rebinds one of those attributes."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from attraos import forecaster as fc
from attraos.embedding import EmbeddingParams

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    name = "perfbench_tracer"
    spec = importlib.util.spec_from_file_location(name, TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses resolve annotations there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_every_wrapped_attribute_exists(tracer_module):
    missing = [
        f"attraos.{mod}.{attr}"
        for mod, attr, _, _ in tracer_module.WRAPS
        if not callable(getattr(importlib.import_module(f"attraos.{mod}"), attr, None))
    ]
    assert not missing


def test_forecaster_calls_wrapped_primitives_through_module_globals(tracer_module, lorenz63_x):
    cfg = fc.ForecasterConfig(
        window=48, horizon=4, embedding=EmbeddingParams(2, 4), patch_len=4, poly_order=3,
        max_train_windows=8,
    )
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        model = fc.model_from_json(fc.model_to_json(fc.fit(cfg, lorenz63_x[:600])))
        fc.predict(model, lorenz63_x[600:648])
    finally:
        tracer.uninstall()
    seen = {span.name for span in tracer.take()}
    wrapped = {name for mod, attr, name, _ in tracer_module.WRAPS
               if mod == "forecaster" and attr != "select_embedding"}
    assert wrapped <= seen

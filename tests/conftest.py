import importlib.util
from pathlib import Path

import pytest

from ggv import ModelConfig, make_model

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    """The module of the repository tool ``tools/<name>.py``."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODEL_CONFIGS = {
    "normed": ModelConfig("normed", dim=2),
    "einstein": ModelConfig("einstein", dim=2, s=1.0),
    "mobius": ModelConfig("mobius", dim=2, s=1.0),
    "pathological": ModelConfig("pathological"),
}


@pytest.fixture(params=sorted(MODEL_CONFIGS))
def any_model(request):
    """One of the four canonical models (dim 2, radius 1 where applicable)."""
    return make_model(MODEL_CONFIGS[request.param])


@pytest.fixture
def normed2():
    return make_model(MODEL_CONFIGS["normed"])


@pytest.fixture
def normed1():
    return make_model(ModelConfig("normed", dim=1))


@pytest.fixture
def einstein1():
    return make_model(ModelConfig("einstein", dim=1, s=1.0))


@pytest.fixture
def einstein2():
    return make_model(MODEL_CONFIGS["einstein"])


@pytest.fixture
def mobius2():
    return make_model(MODEL_CONFIGS["mobius"])


@pytest.fixture
def patho():
    return make_model(MODEL_CONFIGS["pathological"])

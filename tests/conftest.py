import dataclasses

import pytest

from ggv import GyroMap, ModelConfig, make_model

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


def _without_blocks(x):
    """``x``, a model or a map, as the benchmark tracer wraps it: a model's
    kernels carry no block or coordinate form, and a map rebuilt with
    ``dataclasses.replace`` has no steps, so it runs as one opaque step.
    Everything is lifted through the point forms."""
    if isinstance(x, GyroMap):
        return dataclasses.replace(x, apply=lambda p: x.apply(p), inverse_apply=lambda p: x.inverse_apply(p))
    g = x.group
    group = dataclasses.replace(g, add=lambda a, b: g.add(a, b), inv=lambda a: g.inv(a),
                                gyr=lambda u, v, a: g.gyr(u, v, a))
    return dataclasses.replace(x, group=group, otimes=lambda r, a: x.otimes(r, a),
                               distance=lambda a, b: x.distance(a, b), phi=lambda a: x.phi(a),
                               ambient_norm=lambda vec: x.ambient_norm(vec))


@pytest.fixture
def without_blocks():
    """Strips a model's kernels of their block and coordinate forms, or a map
    of its steps (the forced lift through the point forms)."""
    return _without_blocks

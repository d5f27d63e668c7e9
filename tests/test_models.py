"""Model configuration, the pinned line bijections, and model-specific identities."""

import contextlib
import dataclasses
import gc
import json
import math
import random
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggv import (
    BoundaryClampWarning,
    ConfigError,
    DomainError,
    GyroPoint,
    ModelConfig,
    gnorm,
    make_model,
    make_point,
    oplus,
    otimes,
    path_Phi,
    path_Phi_inv,
    path_T,
    path_T_inv,
)
from ggv.models import _BLOCK, _LOG_MAX, _POINT, _on_blocks
from ggv.sampling import sample_point

line_coord = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig("klein")
    with pytest.raises(ConfigError):
        ModelConfig("einstein", dim=0)
    # The dimension is bounded for every kind, the pathological line included.
    assert make_model(ModelConfig("normed", dim=ModelConfig.MAX_DIM)).identity.coords == (0.0,) * 64
    for kind in ("normed", "mobius", "pathological"):
        for dim in (ModelConfig.MAX_DIM + 1, 10**30):
            with pytest.raises(ConfigError, match="dim must be an integer from 1 to 64"):
                ModelConfig(kind, dim=dim)
    with pytest.raises(ConfigError):
        ModelConfig("einstein", s=-1.0)
    with pytest.raises(ConfigError):
        ModelConfig("einstein", s=float("inf"))
    # Radii whose c^2 = s^-4 leaves the normal doubles: Mobius addition turns
    # into vector addition, gyrations lose terms or coordinates overflow.
    for s in (1e200, 1e-200, 1e100, 1e-100, 1e76, 1e-76):
        with pytest.raises(ConfigError, match=r"s must lie in \[1e-75, 1e\+75\]"):
            ModelConfig("mobius", s=s)
    for s in (1e75, 1e-75):
        assert ModelConfig("einstein", s=s).s == s


def test_gyrations_hold_at_the_ends_of_the_radius_range():
    # Gyrations commute with scaling the ball: gyr_s[su, sv](sw) = s gyr_1[u, v](w).
    u, v, w = (0.5, 0.1), (-0.2, 0.6), (0.3, 0.3)
    for kind in ("einstein", "mobius"):
        unit = make_model(ModelConfig(kind, s=1.0))
        expected = unit.group.gyr(*(make_point(unit, p) for p in (u, v, w))).coords
        for s in (1e-75, 1e75):
            m = make_model(ModelConfig(kind, s=s))
            image = m.group.gyr(*(make_point(m, [s * x for x in p]) for p in (u, v, w)))
            assert [x / s for x in image.coords] == pytest.approx(expected, rel=1e-12)


def test_pathological_forces_dimension_one():
    assert ModelConfig("pathological", dim=7).dim == 1


def test_config_json_round_trip():
    cfg = ModelConfig.from_json('{"kind": "mobius", "dim": 3, "s": 2.0}')
    assert cfg == ModelConfig("mobius", dim=3, s=2.0)
    assert ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_rejects_unknown_keys_and_bad_json():
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"kind": "normed", "radius": 2})
    with pytest.raises(ConfigError):
        ModelConfig.from_json("{not json")
    # An integer literal too long for int() is refused like a syntax error.
    with pytest.raises(ConfigError, match="invalid JSON config"):
        ModelConfig.from_json('{"kind": "normed", "dim": %s}' % ("9" * 5000))
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"dim": 2})


def test_make_model_requires_config():
    with pytest.raises(ConfigError):
        make_model("einstein")


# ---------------------------------------------------------------------------
# The pinned line bijections.
# ---------------------------------------------------------------------------

def test_phi_pinned_values():
    assert path_Phi(math.log(6.0)) == pytest.approx(6.0, abs=1e-12)
    assert path_Phi(0.0) == 1.0
    assert path_Phi(-math.log(2.0)) == pytest.approx(-2.0, abs=1e-12)


def test_phi_inverse_domain():
    with pytest.raises(DomainError):
        path_Phi_inv(0.5)
    with pytest.raises(DomainError):
        path_Phi_inv(-1.0)


# Arguments at the edges of the transplant: signed zeros, NaN, the largest
# arguments whose exp is finite and the doubles within an ulp of zero, whose
# image is nudged off -1.
PHI_EDGES = (0.0, -0.0, math.nan, _LOG_MAX, -_LOG_MAX, 5e-324, -5e-324, -1e-17, 1e-17, -2.0, 3.5)


def test_phi_on_a_column_matches_phi_on_each_entry():
    column = np.array(PHI_EDGES)
    assert [x.hex() for x in _BLOCK.Phi(column).tolist()] == [path_Phi(x).hex() for x in PHI_EDGES]
    images = [path_Phi(x) for x in PHI_EDGES] + [-1.0 - 2.0 ** -52, 1.0]
    assert [x.hex() for x in _BLOCK.Phi_inv(np.array(images)).tolist()] == [path_Phi_inv(x).hex() for x in images]


@pytest.mark.parametrize("name,column", [
    ("Phi", [1.0, 800.0, -900.0]),
    ("Phi", [-math.inf, math.inf]),
    ("Phi_inv", [2.0, 0.5, -1.0]),
    ("Phi_inv", [-3.0, math.nan, 1.0]),
])
def test_a_column_outside_the_domain_raises_the_error_of_its_first_bad_row(name, column):
    scalar = {"Phi": path_Phi, "Phi_inv": path_Phi_inv}[name]
    errors = []
    for x in column:
        try:
            scalar(x)
        except DomainError as exc:
            errors.append(str(exc))
    with pytest.raises(DomainError) as excinfo:
        getattr(_BLOCK, name)(np.array(column))
    assert str(excinfo.value) == errors[0]


@given(x=line_coord)
def test_phi_round_trip(x):
    assert path_Phi_inv(path_Phi(x)) == pytest.approx(x, abs=1e-9)


@given(x=line_coord, y=line_coord)
def test_phi_is_strictly_increasing(x, y):
    # separation keeps the statement meaningful in double precision
    if x < y - 1e-9:
        assert path_Phi(x) < path_Phi(y)


def test_T_pinned_values():
    assert path_T(math.log(9.0)) == pytest.approx(9.0, abs=1e-12)
    assert path_T(0.0) == 1.0
    # negative integers are fixed points of the negative branch
    assert path_T(-2.0) == -2.0
    assert path_T(-1.0) == -1.0
    # non-integers shift down by one
    assert path_T(-0.5) == -1.5


def test_T_keeps_non_integers_off_the_fixed_points():
    # x - 1 rounds onto a negative integer for these non-integers.
    for x in (-5e-324, -0.9999999999999999, -1.0000000000000002, -1.9999999999999998, -3.9999999999999996):
        assert not path_T(x).is_integer()
        assert path_T_inv(path_T(x)) == pytest.approx(x, abs=1e-12)


def test_T_ranges():
    for x in (0.0, 0.3, 1.7, 12.0):
        assert path_T(x) >= 1.0
    for x in (-0.1, -1.0, -2.5, -7.0):
        assert path_T(x) <= -1.0


@given(x=line_coord)
def test_T_round_trip(x):
    assert path_T_inv(path_T(x)) == pytest.approx(x, abs=1e-9)


@given(x=line_coord, y=line_coord)
def test_T_is_injective(x, y):
    if abs(x - y) > 1e-9:
        assert path_T(x) != path_T(y)


def test_T_inverse_domain():
    with pytest.raises(DomainError):
        path_T_inv(0.0)
    with pytest.raises(DomainError):
        path_T_inv(-0.5)
    assert path_T_inv(-1.0) == -1.0


# ---------------------------------------------------------------------------
# Pathological model identities.
# ---------------------------------------------------------------------------

def test_pathological_unit_and_unit_norm(patho):
    assert patho.identity.coords == (1.0,)
    assert gnorm(patho, patho.identity) == 1.0
    assert patho.nvs.zero == 1.0


@settings(max_examples=200, deadline=None)
@given(
    a=st.one_of(
        st.floats(min_value=1.0, max_value=20.0),
        st.floats(min_value=-20.0, max_value=-1.0, exclude_max=True),
    ),
    r=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
def test_pathological_scaled_norm_is_a_power(a, r):
    m = make_model(ModelConfig("pathological"))
    got = gnorm(m, otimes(m, r, make_point(m, [a])))
    assert got == pytest.approx(abs(a) ** abs(r), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    a=st.one_of(st.floats(min_value=1.0, max_value=50.0),
                st.floats(min_value=-50.0, max_value=-1.0, exclude_max=True)),
    b=st.one_of(st.floats(min_value=1.0, max_value=50.0),
                st.floats(min_value=-50.0, max_value=-1.0, exclude_max=True)),
)
def test_pathological_sum_is_sandwiched(a, b):
    # |phi(a (+) b)| <= |phi(a)| (+)' |phi(b)| comes from the two-sided bound
    # -|ab| <= a (+) b <= |ab|.
    m = make_model(ModelConfig("pathological"))
    total = oplus(m.group, make_point(m, [a]), make_point(m, [b])).coords[0]
    cap = abs(a * b)
    assert -cap * (1 + 1e-12) <= total <= cap * (1 + 1e-12)
    if cap > 1.0:
        assert path_Phi(-math.log(abs(a)) - math.log(abs(b))) == pytest.approx(-cap, rel=1e-12)


# ---------------------------------------------------------------------------
# Ball models.
# ---------------------------------------------------------------------------

def test_scaling_is_monotone_along_a_ray(einstein2, mobius2):
    direction = [0.6, 0.8]
    for m in (einstein2, mobius2):
        a = make_point(m, [0.5 * x for x in direction])
        norms = [gnorm(m, otimes(m, r, a)) for r in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)]
        assert norms == sorted(norms)
        assert norms[0] == 0.0


def test_ball_radius_scales_the_carrier():
    m = make_model(ModelConfig("einstein", dim=2, s=2.0))
    p = make_point(m, [1.5, 0.0])
    assert gnorm(m, p) == 1.5
    with pytest.raises(DomainError):
        make_point(m, [2.0, 0.0])


def test_models_pass_a_quick_axiom_smoke():
    from ggv import run_group

    cases = (
        ModelConfig("normed", dim=3),
        ModelConfig("einstein", dim=8),
        ModelConfig("mobius", dim=8),
        ModelConfig("einstein", dim=3, s=2.0),
        ModelConfig("mobius", dim=2, s=0.5),
        ModelConfig("pathological"),
    )
    for cfg in cases:
        m = make_model(cfg)
        for report in run_group(m, "axioms", seed=42, samples=60):
            assert report.passed, (m.tag, report.property, report.max_residual)


# ---------------------------------------------------------------------------
# Block forms of the kernels.
# ---------------------------------------------------------------------------

BLOCK_CONFIGS = [
    ModelConfig("normed", dim=1), ModelConfig("normed", dim=3),
    ModelConfig("einstein", dim=2), ModelConfig("einstein", dim=3, s=2.5),
    ModelConfig("mobius", dim=2, s=0.5), ModelConfig("mobius", dim=3),
    ModelConfig("pathological"),
]


def _block_rows(m, n=40):
    """Sampled points plus the rows each block form has to get right."""
    rng = random.Random(17)
    rows = [m.identity.coords] + [sample_point(m, rng, 0.95).coords for _ in range(n)]
    if m.config.kind == "pathological":
        # Beside the unit and beside -1, where the two branches of Phi meet.
        rows += [(1.0,), (math.nextafter(1.0, 2.0),), (math.nextafter(-1.0, -2.0),), (-1.0000000000000004,)]
    elif m.config.kind != "normed":
        # Inside the ball but within BALL_EDGE of its boundary: every result
        # at least that far out is clamped.
        s, dim = m.config.s, m.config.dim
        rows += [tuple(s * (1.0 - 1e-13) * (i == j) for j in range(dim)) for i in range(dim)]
        rows += [tuple(-s * (1.0 - 5e-13) / math.sqrt(dim) for _ in range(dim))]
        # A nonzero point whose squared norm underflows to 0: the ball
        # scaling returns it as it returns the origin.
        rows += [(1e-170,) + (0.0,) * (dim - 1)]
    return rows


def _bits(values):
    return [float(x).hex() for x in values]


def _point_results(fn, args):
    """``fn`` on each row of ``args``, and the clamp warnings it issued, in order."""
    with warnings_recorded() as record:
        results = [fn(*row) for row in zip(*args)]
    if isinstance(results[0], float):
        return _bits(results), record
    return [_bits(p.coords) for p in results], record


def _block_results(fn, args):
    with warnings_recorded() as record:
        result = fn(*args)
    if isinstance(result, np.ndarray):
        return _bits(result.tolist()), record
    return [_bits(row) for row in zip(*(column.tolist() for column in result))], record


@contextlib.contextmanager
def warnings_recorded():
    """Record every BoundaryClampWarning, repeated ones included."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always", BoundaryClampWarning)
        yield record


@pytest.mark.parametrize("cfg", BLOCK_CONFIGS, ids=lambda cfg: cfg.tag)
def test_block_kernels_match_the_point_kernels_bit_for_bit(cfg):
    m = make_model(cfg)
    tag, g = m.tag, m.group
    rows = _block_rows(m)
    shuffled = random.Random(3)
    a = [GyroPoint(tag, row) for row in rows]
    b = shuffled.sample(a, len(a))
    c = shuffled.sample(a, len(a))
    column = [shuffled.uniform(-3.0, 3.0) for _ in a]
    column[:4] = [0.0, 1.0, -1.0, 0.5]

    def block_of(points):
        return tuple(np.array(x) for x in zip(*(p.coords for p in points)))

    blocks = _on_blocks(m)
    block_form = {g.add: blocks.group.add, g.inv: blocks.group.inv, g.gyr: blocks.group.gyr,
                  m.distance: blocks.distance, m.otimes: blocks.otimes}
    cases = [
        (g.add, (a, b)), (g.add, (b, a)), (g.inv, (a,)), (g.gyr, (a, b, c)), (g.gyr, (b, a, a)),
        (m.distance, (a, b)), (m.distance, (a, a)),
        (m.otimes, ([0.5] * len(a), a)), (m.otimes, ([2.0] * len(a), a)), (m.otimes, (column, a)),
    ]
    clamped = 0
    for kernel, args in cases:
        expected, point_warnings = _point_results(kernel, args)
        block_args = [np.array(arg) if isinstance(arg[0], float) else block_of(arg) for arg in args]
        if kernel is m.otimes and len(set(args[0])) == 1:
            block_args[0] = args[0][0]  # a scalar, not a column
        got, block_warnings = _block_results(block_form[kernel], block_args)
        assert got == expected, kernel.__name__
        assert [str(w.message) for w in block_warnings] == [str(w.message) for w in point_warnings]
        assert all(w.category is BoundaryClampWarning for w in block_warnings)
        clamped += len(block_warnings)
    assert (clamped > 0) == (m.config.kind in ("einstein", "mobius"))


def test_a_block_warns_once_per_clamped_row_with_the_point_message():
    m = make_model(ModelConfig("mobius", dim=2))
    edge = (1.0 - 1e-13, 0.0)
    rows = [(0.1, 0.2), edge, (0.0, -0.3), (0.0, 1.0 - 2e-13)]
    points = [GyroPoint(m.tag, row) for row in rows]
    with pytest.warns(BoundaryClampWarning) as point_record:
        expected = [m.otimes(1.0, p).coords for p in points]
    block = tuple(np.array(x) for x in zip(*rows))
    with pytest.warns(BoundaryClampWarning) as block_record:
        got = _on_blocks(m).otimes(1.0, block)
    assert len(block_record) == len(point_record) == 2
    assert [str(w.message) for w in block_record] == [str(w.message) for w in point_record]
    assert [tuple(row) for row in zip(*(x.tolist() for x in got))] == expected


# ---------------------------------------------------------------------------
# One transcendental lib: each point rounds as its row of a column.
# ---------------------------------------------------------------------------

def _band(rng, center, width, n=300):
    return [center + width * rng.uniform(-1.0, 1.0) for _ in range(n)]


def _near(x, direction, n=300):
    """``x`` and the ``n - 1`` doubles next to it towards ``direction``."""
    out = [x]
    for _ in range(n - 1):
        out.append(math.nextafter(out[-1], direction))
    return out


def _edge_arguments():
    """Per function, arguments in its domain that reach its edges, and a bulk band."""
    rng = random.Random(26)
    tiny = [5e-324, -5e-324, 1e-310, -1e-300, 1e-17, -1e-17, 0.0, -0.0]
    return {
        # tanh saturates to +-1 beyond about 19.06.
        "tanh": tiny + _band(rng, 0.0, 3.0) + _band(rng, 19.0, 1.0) + _band(rng, -19.0, 1.0) + [40.0, -710.0],
        # atanh diverges at +-1.
        "atanh": tiny + _band(rng, 0.0, 1.0) + _near(math.nextafter(1.0, 0.0), 0.0)
        + _near(math.nextafter(-1.0, 0.0), 0.0),
        # exp overflows beyond _LOG_MAX and underflows to subnormals below about -708.
        "exp": tiny + _band(rng, 0.0, 20.0) + _near(_LOG_MAX, 0.0) + _band(rng, -725.0, 20.0),
        # log1p diverges at -1.
        "log1p": tiny + _band(rng, 0.0, 0.5) + _near(math.nextafter(-1.0, 0.0), 0.0) + [1e300, 1.7e308],
        # log diverges at 0; subnormal and huge arguments.
        "log": [5e-324, 1e-310, 1e-300] + _band(rng, 1.0, 1e-3) + _band(rng, 10.0, 9.0) + [1e300, 1.7e308],
    }


def _simd() -> str:
    return f"NumPy {np.__version__}, SIMD {np.show_config(mode='dicts')['SIMD Extensions']}"


@pytest.mark.parametrize("name", ["tanh", "atanh", "exp", "log1p", "log"])
def test_a_point_rounds_as_its_row_in_every_layout_of_a_column(name):
    xs = _edge_arguments()[name]
    point, block = getattr(_POINT, name), getattr(_BLOCK, name)
    expected = [point(x).hex() for x in xs]
    assert all(type(point(x)) is float for x in xs[:3])
    strided = np.stack([xs, xs], axis=1)[:, 1]
    assert not strided.flags.contiguous
    layouts = {"contiguous": block(np.array(xs)), "strided": block(strided),
               "one row": np.array([block(np.array([x]))[0] for x in xs])}
    for layout, column in layouts.items():
        got = [x.hex() for x in column.tolist()]
        mismatched = [(x, e, g) for x, e, g in zip(xs, expected, got) if e != g]
        assert not mismatched, f"{name} on a {layout} column, {_simd()}: {mismatched[:5]}"


# ---------------------------------------------------------------------------
# The block form of a model, built once.
# ---------------------------------------------------------------------------

def test_a_model_builds_its_block_form_once_and_a_rebuilt_model_its_own():
    m = make_model(ModelConfig("mobius", dim=2))
    assert _on_blocks(m) is _on_blocks(m)
    copy = dataclasses.replace(m)
    assert _on_blocks(copy) is not _on_blocks(m)
    # The cache keeps neither model alive.
    refs = [weakref.ref(m), weakref.ref(copy)]
    del m, copy
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_a_mutant_block_form_runs_the_mutant_kernel():
    m = make_model(ModelConfig("normed", dim=2))
    _on_blocks(m)
    mutant = dataclasses.replace(m)

    def ops(lib):
        k = m.ops(lib)
        k.add = lambda a, b: tuple(2.0 * x + y for x, y in zip(a, b))
        return k

    object.__setattr__(mutant, "ops", ops)
    block = (np.array([1.0, 2.0]), np.array([0.5, -1.0]))
    assert [c.tolist() for c in _on_blocks(mutant).group.add(block, block)] == [[3.0, 6.0], [1.5, -3.0]]
    assert [c.tolist() for c in _on_blocks(m).group.add(block, block)] == [[2.0, 4.0], [1.0, -2.0]]


@pytest.mark.parametrize("s", [1.0, 2.5])
def test_the_einstein_distance_of_points_an_ulp_apart_is_not_negative(s):
    # Rounding took about one pair in 17 of these below 0 at s = 1; a NaN
    # coordinate still gives NaN.
    from ggv.models import _einstein_distance, _mp

    rng = random.Random(7)
    us, vs = [], []
    for _ in range(2000):
        r, t = (1 - 1e-3) * s * rng.random(), 2 * math.pi * rng.random()
        u = (r * math.cos(t), r * math.sin(t))
        us.append(u)
        vs.append((math.nextafter(u[0], 2.0), u[1]))
    block = _einstein_distance(tuple(np.array(c) for c in zip(*us)), tuple(np.array(c) for c in zip(*vs)), s,
                               _BLOCK)
    assert np.all(block >= 0.0)
    assert all(_einstein_distance(u, v, s, _POINT) >= 0.0 for u, v in zip(us, vs))
    assert all(_einstein_distance(u, v, s, _mp()) >= 0.0 for u, v in zip(us[:100], vs[:100]))
    nan = (float("nan"), 0.0)
    assert math.isnan(_einstein_distance(nan, (0.5, 0.0), s, _POINT))
    assert np.isnan(_einstein_distance(tuple(np.array([x]) for x in nan), (np.array([0.5]), np.array([0.0])), s,
                                       _BLOCK)).all()

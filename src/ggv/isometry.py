"""Gyrometric-preserving maps and the numerical Mazur-Ulam experiments.

Maps are built compositionally from primitives with closed-form inverses:
left translations ``x -> c (+) x``, point reflections ``x -> 2 (x) a (-) x``,
ambient rotations (ball models, dimension >= 2), and the identity.  Every
generated map is checked to preserve the gyrometric before it is handed out,
and carries the record of that check so that the experiments need not repeat
it.

A package-built map holds its primitives as data: ``steps``, each with its
recipe entries and one ``directions(lib)`` that writes the primitive forward
and backward once over the model in ``lib``'s form (``models._in_form``): on
coordinate tuples (``_POINT``), on blocks (``_BLOCK``) or at 50 digits
(``_mp()``).  The map's coordinate form, block form and ``recipe`` are
derived from its steps, and a composition is the flat chain of the steps of
its maps.  ``apply`` and ``inverse_apply`` validate their argument once per
call, however deep the composition, run the coordinate form and build one
point; the steps inside trust the coordinates their predecessors computed.
A map built by hand, or rebuilt with ``dataclasses.replace``, has no steps:
it is one opaque step, its point form lifted with ``models._lift``, and its
images are validated.  A model without ``ops`` has its point kernels lifted
the same way inside the steps that use them, so the reports are the same
either way.

The preservation check, the midpoint experiment and the decomposition run on
*blocks*: tuples of ``dim`` float64 columns with one row per sample, so each
check is one vectorized pass.  Every row rounds exactly as the point form
rounds it, and samples are drawn as columns with
:func:`ggv.sampling.sample_columns`; the pairs of a shorter preservation
check are the first rows of a longer one's.  Map recipes (translation and
reflection centres with :func:`ggv.sampling.sample_point`, rotations from
``rng.gauss``) and the defect experiment's points are drawn point by point,
as they always were.  The experiments validate their inputs at entry.  The
defect experiment's doubling chain is sequential and runs on coordinate
tuples; its fixed-point residual, when over the tolerance in double, is
computed again at 50 digits, as the rows below are, by the same doubling map
(:func:`_doubling_map`) on the 50-digit forms.

The midpoint experiment and the decomposition evaluate again every finite
row whose double residual is over the tolerance, at ``models.MP_DIGITS``
digits (``models._mp()``): the same formulas, with every constant a kernel
or step closes over promoted and each rotation orthonormalized at that
precision.  The row's residual, and so the verdict, is the 50-digit value,
which tells rounding near the ball boundary from a map that is wrong.  Only
models with ``ops`` and maps whose steps are all data are evaluated again;
the others keep their double values.  A non-finite row always fails, and so
does a row whose 50-digit evaluation leaves a function's domain.

Three experiments probe what such maps must do:

* every gyrometric-preserving surjection maps gyromidpoints to gyromidpoints;
* after splitting off the left translation by the image of the unit, the
  remainder ``T0 = (-)T(e) (+) T`` is additive, homogeneous, and gyrometric
  preserving;
* the defect ``d = lin(rho(T(p), p'))`` between the image of a midpoint and
  the midpoint of the images feeds a doubling iteration
  ``S = refl_p o T^-1 o refl_p' o T`` whose iterates would blow past a fixed
  bound unless ``d == 0``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import repeat
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, MapConstructionError, PreconditionError
from .gyrogroup import GyroPoint, _coplus, _point
from .models import _BLOCK, _POINT, BALL_KINDS, Block, _dot, _in_form, _lift, _mp, _same
from .sampling import Point, sample_columns, sample_point
from .space import DEFAULT_TOLERANCE, GgvModel, Report, _count, _midpoint, worst_of, worst_residual

# Sampled pairs of the preservation check a generated map passes before it is
# handed out.
CONSTRUCTION_PAIRS = 200
# Largest doubling exponent of the defect experiment: 2^20 applications of S.
N_MAX_LIMIT = 20

# Scalar palette for the homogeneity checks: every dyadic m/2^n with
# denominator exponent <= DYADIC_DEPTH inside [-SCALAR_RANGE, SCALAR_RANGE],
# plus GENERAL_SCALARS uniform draws from the same interval.
SCALAR_RANGE = 4.0
DYADIC_DEPTH = 6
DYADIC_SCALARS = tuple(sorted(
    {m / 2 ** n for n in range(DYADIC_DEPTH + 1) for m in range(-4 * 2 ** n, 4 * 2 ** n + 1)}
))
GENERAL_SCALARS = 32

@dataclass(frozen=True, eq=False)
class GyroMap:
    """A bijection between model carriers with an explicit inverse.

    ``recipe`` lists the primitive maps of the composition as JSON-friendly
    descriptors; it exists for diagnostics and reproducibility only.
    ``steps`` holds the primitives of a package-built map as data, and its
    ``apply``, ``inverse_apply`` and ``recipe`` are derived from them.
    ``preservation`` is ``(seed, residual)`` of the ``CONSTRUCTION_PAIRS``-pair
    check a generated map passed.

    Neither ``steps`` nor ``preservation`` is a constructor argument, so a
    map built by hand or rebuilt with ``dataclasses.replace`` has no steps
    and carries no record: it runs as one opaque step, its own ``apply`` and
    ``inverse_apply``, whatever field was replaced.
    """

    domain_model: GgvModel
    codomain_model: GgvModel
    apply: Callable[[GyroPoint], GyroPoint]
    inverse_apply: Callable[[GyroPoint], GyroPoint]
    recipe: tuple[dict, ...]
    steps: tuple[_Step, ...] = field(default=(), init=False, repr=False)
    preservation: tuple[int, float] | None = field(default=None, init=False, repr=False)


@dataclass(frozen=True)
class MidpointReport(Report):
    """Worst linearized gap between T(P(a, b)) and P(T(a), T(b))."""

    PROPERTY = "midpoint_preservation"

    samples: int
    max_residual: float
    passed: bool
    seed: int
    tolerance: float


@dataclass(frozen=True)
class DecompositionReport(Report):
    """Residuals of the translation-plus-isomorphism decomposition."""

    PROPERTY = "translation_isomorphism_decomposition"

    translation_part: GyroPoint
    additivity_residual: float
    homogeneity_residual: float
    isometry_residual: float
    dyadic_residual: float
    coaddition_residual: float
    passed: bool
    samples: int
    seed: int
    tolerance: float


@dataclass(frozen=True)
class DefectTrace(Report):
    """Defect of a midpoint image and the doubling iterates that bound it.

    ``iterates[n]`` is the linearized gyrometric between ``S^(2^n)(p)`` and
    ``p``; every entry must stay below ``bound`` (up to tolerance), which
    forces the defect to vanish.  Once an iterate is an exact fixed point of
    ``S`` the later entries repeat its distance.
    """

    PROPERTY = "midpoint_defect"

    defect: float
    iterates: tuple[float, ...]
    bound: float
    fixed_point_residual: float
    passed: bool
    tolerance: float


# ---------------------------------------------------------------------------
# Steps.
# ---------------------------------------------------------------------------

# A map on the coordinate tuples of carrier points.
Coords = Callable[[tuple[float, ...]], tuple[float, ...]]
# A primitive's two directions in the form of a lib, ``models._POINT`` or ``models._BLOCK``.
Directions = Callable[[SimpleNamespace], tuple[Callable, Callable]]


@dataclass(frozen=True, eq=False)
class _Step:
    """One primitive of a map: its recipe entries and its two directions.

    ``directions(lib)`` returns the map forward and backward, written once
    over the kernels in ``lib``'s form: on coordinate tuples or on blocks.
    A ``lifted`` step runs point kernels lifted through points
    (``models._lift``): a map's own point form, or a primitive of a model
    without ``ops``.
    """

    recipe: tuple[dict, ...]
    directions: Directions
    lifted: bool = False


def _steps(T: GyroMap) -> tuple[_Step, ...]:
    """The steps of ``T``; a map built by hand, or rebuilt with
    ``dataclasses.replace``, is one opaque step."""
    return T.steps or (_Step(T.recipe, partial(_opaque_directions, T), lifted=True),)


def _opaque_directions(T: GyroMap, lib: SimpleNamespace) -> tuple[Callable, Callable]:
    """``T.apply`` and ``T.inverse_apply`` lifted to ``lib``'s form through points,
    with every image validated, since nothing vouches for them."""
    return (_lift(_validated(T.apply, T.codomain_model), T.domain_model.tag, lib),
            _lift(_validated(T.inverse_apply, T.domain_model), T.codomain_model.tag, lib))


def _validated(fn: Callable[[GyroPoint], GyroPoint], target: GgvModel) -> Callable[[GyroPoint], GyroPoint]:
    validate = target.group.validate

    def image(x: GyroPoint) -> GyroPoint:
        y = fn(x)
        validate(y)
        return y

    return image


def _form(T: GyroMap | tuple[_Step, ...], lib: SimpleNamespace) -> tuple[Callable, Callable]:
    """``T.apply`` and ``T.inverse_apply`` in ``lib``'s form, without the entry
    check: the map counterpart of ``models._in_form``.  ``T`` is a map or a
    tuple of steps; the steps run forward in order, then backward in reverse."""
    pairs = [step.directions(lib) for step in (T if isinstance(T, tuple) else _steps(T))]
    return _chain([forward for forward, _ in pairs]), _chain([backward for _, backward in reversed(pairs)])


def _chain(fns: list[Callable]) -> Callable:
    """Run ``fns`` in order, each on the result of the one before."""
    # A single step runs without the loop: the defect chain calls its
    # reflections once per step of S.
    if len(fns) == 1:
        return fns[0]

    def run(x):
        for fn in fns:
            x = fn(x)
        return x

    return run


def _checked(validate: Callable[[GyroPoint], None], tag: str, coords: Coords) -> Callable[[GyroPoint], GyroPoint]:
    """A map direction: it validates its argument, runs ``coords`` on its
    coordinates and returns one point of ``tag``."""
    def call(x: GyroPoint) -> GyroPoint:
        validate(x)
        return _point(tag, coords(x.coords))

    return call


def _package_map(domain: GgvModel, codomain: GgvModel, steps: tuple[_Step, ...]) -> GyroMap:
    """The map of ``steps``; its directions validate their argument once, then run the steps."""
    forward, backward = _form(steps, _POINT)
    T = GyroMap(domain, codomain, _checked(domain.group.validate, codomain.tag, forward),
                _checked(codomain.group.validate, domain.tag, backward),
                tuple(entry for step in steps for entry in step.recipe))
    object.__setattr__(T, "steps", steps)
    return T


def _primitive(m: GgvModel, recipe: dict, directions: Directions) -> GyroMap:
    return _package_map(m, m, (_Step((recipe,), directions, lifted=m.ops is None),))


def _identities(lib: SimpleNamespace) -> tuple[Callable, Callable]:
    return _same, _same


# ---------------------------------------------------------------------------
# Primitive maps.
# ---------------------------------------------------------------------------

def identity_map(m: GgvModel) -> GyroMap:
    """The identity of a carrier."""
    return _primitive(m, {"kind": "identity"}, _identities)


def left_translation(m: GgvModel, c: GyroPoint) -> GyroMap:
    """``x -> c (+) x``; gyrometric preserving, inverted by translating by ``(-)c``."""
    m.group.validate(c)
    neg_c = m.group.inv(c)

    def translations(lib: SimpleNamespace) -> tuple[Callable, Callable]:
        # Left cancellation makes the second an exact two-sided inverse of the
        # first.  On blocks, a point's coordinates broadcast against the columns.
        add = _in_form(m, lib).group.add
        return partial(add, lib.const(c.coords)), partial(add, lib.const(neg_c.coords))

    return _primitive(m, {"kind": "left_translation", "center": list(c.coords)}, translations)


def point_reflection(m: GgvModel, a: GyroPoint) -> GyroMap:
    """``x -> 2 (x) a (-) x``: the involution that fixes exactly ``a``.

    Swaps any pair whose gyromidpoint is ``a`` and doubles gyrometric
    distances from its center.
    """
    m.group.validate(a)
    double_a = m.otimes(2.0, a).coords

    def reflections(lib: SimpleNamespace) -> tuple[Callable, Callable]:
        g, center = _in_form(m, lib).group, lib.const(double_a)
        add, inv = g.add, g.inv

        def reflect(x):
            return add(center, inv(x))

        return reflect, reflect

    return _primitive(m, {"kind": "point_reflection", "center": list(a.coords)}, reflections)


def ambient_rotation(m: GgvModel, matrix: Sequence[Sequence[float]]) -> GyroMap:
    """Map ball coordinates through an orthogonal matrix, a rotation or a reflection.

    Only ball models of dimension >= 2 support this primitive.  Both ball
    additions are equivariant under the whole orthogonal group, so every
    orthogonal matrix gives an isometry and no determinant is required.
    """
    if m.config.kind not in BALL_KINDS:
        raise PreconditionError(f"ambient rotations are a ball-model primitive, not {m.config.kind!r}")
    dim = m.config.dim
    if dim < 2:
        raise PreconditionError("ambient rotations need dimension >= 2")
    rows = tuple(tuple(float(x) for x in row) for row in matrix)
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise PreconditionError(f"rotation matrix must be {dim}x{dim}")
    for i in range(dim):
        for j in range(dim):
            gram = sum(rows[k][i] * rows[k][j] for k in range(dim))
            if not abs(gram - (1.0 if i == j else 0.0)) <= 1e-9:  # NaN and inf entries fail
                raise PreconditionError("rotation matrix is not orthogonal")

    def rotations(lib: SimpleNamespace) -> tuple[Callable, Callable]:
        # The same coordinate formula serves points and blocks; the inverse
        # is the transpose.
        basis = lib.orthonormal(rows)
        columns = tuple(zip(*basis))

        def rotate(x: tuple) -> tuple:
            return tuple(map(_dot, basis, repeat(x)))

        def unrotate(y: tuple) -> tuple:
            return tuple(map(_dot, columns, repeat(y)))

        return rotate, unrotate

    return _primitive(m, {"kind": "ambient_rotation", "matrix": [list(row) for row in rows]}, rotations)


def transport(domain: GgvModel, codomain: GgvModel) -> GyroMap:
    """Coordinate-identity bridge between two instances of the same model.

    Instances must share kind, dimension and radius: between models with
    different parameters the gyrometric value ranges differ, so no
    gyrometric-preserving surjection can exist.
    """
    if domain.tag != codomain.tag:
        raise PreconditionError(
            f"transport needs identically parametrized instances, got {domain.tag!r} and {codomain.tag!r}"
        )
    return _package_map(domain, codomain, (_Step(({"kind": "transport"},), _identities),))


def compose_maps(maps: Iterable[GyroMap]) -> GyroMap:
    """Compose maps left to right: the first map is applied first.

    The composition is the flat chain of the steps of its maps, and
    validates its argument once, on entry.
    """
    chain = list(maps)
    if not chain:
        raise PreconditionError("cannot compose an empty list of maps")
    for first, second in zip(chain, chain[1:]):
        if first.codomain_model.tag != second.domain_model.tag:
            raise PreconditionError(
                f"cannot chain {first.codomain_model.tag!r} into {second.domain_model.tag!r}"
            )
    if len(chain) == 1:
        return chain[0]
    steps = tuple(step for mp in chain for step in _steps(mp))
    return _package_map(chain[0].domain_model, chain[-1].codomain_model, steps)


def random_rotation_matrix(dim: int, rng: random.Random) -> tuple[tuple[float, ...], ...]:
    """Draw a uniform-ish rotation: QR of a Gaussian matrix, determinant fixed to +1."""
    gauss = np.array([[rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(dim)])
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    q = q * signs
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return tuple(tuple(float(x) for x in row) for row in q)


# ---------------------------------------------------------------------------
# Preservation checks and random map generation.
# ---------------------------------------------------------------------------

def _sample_pairs(m: GgvModel, rng: random.Random, margin: float, n: int) -> list[Block]:
    """``n`` pairs as two blocks, the first ``k`` of them the pairs of ``n = k``."""
    return sample_columns(m, rng, n, (Point(margin), Point(margin)))


def map_preservation_residual(T: GyroMap, n_pairs: int, seed: int) -> float:
    """Worst linearized gap between image distances and source distances.

    The pairs are drawn in a fixed order from ``seed``, so the pairs of a
    shorter check are a prefix of those of a longer one.
    """
    _count(n_pairs, "n_pairs")
    rng = random.Random(f"{seed}:preservation")
    m1, m2 = _in_form(T.domain_model, _BLOCK), _in_form(T.codomain_model, _BLOCK)
    apply = _form(T, _BLOCK)[0]
    a, b = _sample_pairs(T.domain_model, rng, 0.9, n_pairs)
    return worst_of(abs(m2.distance(apply(a), apply(b)) - m1.distance(a, b)))


def require_gyrometric_preserving(
    T: GyroMap, n_pairs: int = 100, seed: int = 0, tolerance: float = DEFAULT_TOLERANCE
) -> None:
    """Raise :class:`PreconditionError` unless ``T`` preserves the gyrometric.

    The check is skipped when ``T`` carries a record that settles it: same
    seed and at least as many pairs, so these pairs are a prefix of the
    recorded ones and their worst gap cannot exceed the recorded residual,
    which is within ``tolerance``.
    """
    _count(n_pairs, "n_pairs")
    if T.preservation is not None and n_pairs <= CONSTRUCTION_PAIRS:
        recorded_seed, recorded_residual = T.preservation
        if recorded_seed == seed and recorded_residual <= tolerance:
            return
    residual = map_preservation_residual(T, n_pairs, seed)
    if residual > tolerance:
        raise PreconditionError(
            f"map is not gyrometric preserving: residual {residual:.3e} over {n_pairs} pairs"
        )


# The random primitives, each drawn from the composition's stream.  Centers
# stay well inside the ball: a depth-six chain of translations compounds
# rapidity, and the checks downstream need headroom.
_RANDOM_PRIMITIVES = {
    "left_translation": lambda m, rng: left_translation(m, sample_point(m, rng, 0.7)),
    "point_reflection": lambda m, rng: point_reflection(m, sample_point(m, rng, 0.7)),
    "ambient_rotation": lambda m, rng: ambient_rotation(m, random_rotation_matrix(m.config.dim, rng)),
    "identity": lambda m, rng: identity_map(m),
}


def _available_kinds(m: GgvModel) -> tuple[str, ...]:
    rotations = m.config.kind in BALL_KINDS and m.config.dim >= 2
    return tuple(kind for kind in _RANDOM_PRIMITIVES if rotations or kind != "ambient_rotation")


def random_isometry(m: GgvModel, seed: int, depth: int, tolerance: float = DEFAULT_TOLERANCE) -> GyroMap:
    """Compose ``depth`` seeded random primitives into a gyrometric-preserving map.

    Each primitive is drawn from those the model supports: rotations only on
    ball models of dimension >= 2.  The construction is deterministic in
    ``(seed, depth)`` and the result is verified over ``CONSTRUCTION_PAIRS``
    pairs drawn from ``seed`` before being returned; the map carries the
    record of that check.
    """
    return _verified(_random_composition(m, seed, depth), seed, tolerance)


def _random_composition(m: GgvModel, seed: int, depth: int) -> GyroMap:
    """The seeded composition behind :func:`random_isometry`, not yet verified."""
    _count(depth, "depth")
    palette = _available_kinds(m)
    rng = random.Random(f"{seed}:isometry")
    return compose_maps([_RANDOM_PRIMITIVES[rng.choice(palette)](m, rng) for _ in range(depth)])


def _verified(T: GyroMap, seed: int, tolerance: float) -> GyroMap:
    """``T`` with the record of its construction check, or :class:`MapConstructionError`."""
    residual = map_preservation_residual(T, CONSTRUCTION_PAIRS, seed)
    if residual > tolerance:
        raise MapConstructionError(
            f"generated map failed preservation: residual {residual:.3e}, recipe {T.recipe!r}"
        )
    object.__setattr__(T, "preservation", (seed, residual))
    return T


def random_isometry_between(
    domain: GgvModel,
    codomain: GgvModel,
    seed: int,
    depth: int,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GyroMap:
    """A seeded gyrometric-preserving map between two distinct instances.

    The instances must carry the same parameters; the map is a composition
    acting in the domain, a transport bridge, and a composition acting in
    the codomain.  Only the whole map is verified, once, and it carries the
    record of that check.
    """
    _count(depth, "depth")
    if depth < 2:
        raise PreconditionError("cross-instance maps need depth >= 2 to act on both sides")
    d1 = depth // 2
    head = _random_composition(domain, seed, d1)
    tail = _random_composition(codomain, seed + 1, depth - d1)
    return _verified(compose_maps([head, transport(domain, codomain), tail]), seed, tolerance)


# ---------------------------------------------------------------------------
# Experiments.
# ---------------------------------------------------------------------------

def _exact_forms(T: GyroMap) -> tuple | None:
    """The models of ``T`` and its forward map at ``models.MP_DIGITS`` digits,
    with the lib's ``const``; ``None`` unless every kernel and step of ``T``
    is data: models with ``ops``, and a map with steps, none of them lifted."""
    m1, m2 = T.domain_model, T.codomain_model
    if m1.ops is None or m2.ops is None or not T.steps or any(step.lifted for step in T.steps):
        return None
    lib = _mp()
    return _in_form(m1, lib), _in_form(m2, lib), _form(T, lib)[0], lib.const


def _exact_T0(T: GyroMap) -> tuple | None:
    """``_exact_forms(T)`` with ``T0 = (-)T(e) (+) T`` in place of ``T``."""
    forms = _exact_forms(T)
    if forms is None:
        return None
    m1, m2, apply, const = forms
    neg_te = m2.group.inv(apply(const(T.domain_model.identity.coords)))
    return m1, m2, lambda x: m2.group.add(neg_te, apply(x)), const


def _settle(residuals: tuple[np.ndarray, ...], tolerance: float, exact: Callable[[], tuple | None],
            formula: Callable, *inputs) -> tuple[np.ndarray, ...]:
    """``residuals``, the columns ``formula`` gave on ``inputs`` in double,
    with each finite entry over ``tolerance`` replaced by its value at
    ``models.MP_DIGITS`` digits.

    ``exact()`` gives the models and the map that ``formula`` takes first, at
    that precision, and the lib's ``const``, which promotes the row's inputs;
    where it gives ``None`` the double values stand.  So rounding near the
    boundary cannot fail a correct map, while a formula that is wrong stays
    wrong at any precision.  A non-finite entry is not evaluated again, and
    fails; so does a row whose evaluation leaves a function's domain or
    divides by zero, which in double the boundary clamp may have hidden.
    """
    over = [np.isfinite(column) & (column > tolerance) for column in residuals]
    rows = np.flatnonzero(np.logical_or.reduce(over))
    forms = exact() if rows.size else None
    if forms is None:
        return residuals
    *models, const = forms
    settled = [column.copy() for column in residuals]
    for i in rows.tolist():
        row = [const(tuple(float(c[i]) for c in x) if isinstance(x, tuple) else float(x[i])) for x in inputs]
        try:
            values = list(map(float, formula(*models, *row)))
        except (DomainError, ZeroDivisionError):
            values = [math.inf] * len(settled)
        for column, flags, value in zip(settled, over, values):
            if flags[i]:
                column[i] = value
    return tuple(settled)


def _midpoint_gaps(m1: GgvModel, m2: GgvModel, apply: Callable, a, b) -> tuple:
    return (m2.distance(apply(_midpoint(m1, a, b)), _midpoint(m2, apply(a), apply(b))),)


def verify_midpoint_preservation(
    T: GyroMap, n_samples: int, seed: int, tolerance: float = DEFAULT_TOLERANCE
) -> MidpointReport:
    """Check ``T(P(a, b)) == P(T(a), T(b))`` over seeded sample pairs.

    A pair over ``tolerance`` in double is evaluated again at
    ``models.MP_DIGITS`` digits, and its residual is that value (see
    :func:`_settle`).
    """
    _count(n_samples)
    require_gyrometric_preserving(T, seed=seed, tolerance=tolerance)
    m1, m2 = _in_form(T.domain_model, _BLOCK), _in_form(T.codomain_model, _BLOCK)
    apply = _form(T, _BLOCK)[0]
    rng = random.Random(f"{seed}:midpoint")
    a, b = _sample_pairs(T.domain_model, rng, 0.9, n_samples)
    gaps = _midpoint_gaps(m1, m2, apply, a, b)
    (gaps,) = _settle(gaps, tolerance, partial(_exact_forms, T), _midpoint_gaps, a, b)
    worst = worst_of(gaps)
    return MidpointReport(n_samples, worst, worst <= tolerance, seed, tolerance)


def _pair_residuals(m1: GgvModel, m2: GgvModel, T0: Callable, a, b) -> tuple:
    # Additivity, coaddition and isometry of T0 on the pairs (a, b).
    g1, g2 = m1.group, m2.group
    ta, tb = T0(a), T0(b)
    return (m2.distance(T0(g1.add(a, b)), g2.add(ta, tb)),
            m2.distance(T0(_coplus(g1, a, b)), _coplus(g2, ta, tb)),
            abs(m2.distance(ta, tb) - m1.distance(a, b)))


def _homogeneity_gaps(m1: GgvModel, m2: GgvModel, T0: Callable, alpha, x, tx=None) -> tuple:
    # T0(alpha (x) x) against alpha (x) T0(x); tx is T0(x) when the caller holds it.
    tx = T0(x) if tx is None else tx
    return (m2.distance(T0(m1.otimes(alpha, x)), m2.otimes(alpha, tx)),)


def decompose_mazur_ulam(
    T: GyroMap, n_samples: int, seed: int, tolerance: float = DEFAULT_TOLERANCE
) -> DecompositionReport:
    """Split ``T`` as a left translation by ``T(e)`` followed by an isomorphism.

    ``T0 = (-)T(e) (+) T`` fixes the unit; the report records how well it
    preserves addition, coaddition, scalar action (dyadic ladder first, then
    general scalars), and the gyrometric.  A row over ``tolerance`` in double
    is evaluated again at ``models.MP_DIGITS`` digits, ``T(e)`` included, and
    its residual is that value (see :func:`_settle`).
    """
    _count(n_samples)
    require_gyrometric_preserving(T, seed=seed, tolerance=tolerance)
    translation_part = _point(T.codomain_model.tag, _form(T, _POINT)[0](T.domain_model.identity.coords))
    neg_te = T.codomain_model.group.inv(translation_part)
    m1, m2 = _in_form(T.domain_model, _BLOCK), _in_form(T.codomain_model, _BLOCK)
    apply = _form(T, _BLOCK)[0]
    exact = cache(partial(_exact_T0, T))

    def T0(x: Block) -> Block:
        return m2.group.add(neg_te.coords, apply(x))

    rng = random.Random(f"{seed}:decomposition")
    a, b = _sample_pairs(T.domain_model, rng, 0.8, n_samples)
    pairs = _pair_residuals(m1, m2, T0, a, b)
    additivity, coaddition, isometry = map(worst_of, _settle(pairs, tolerance, exact, _pair_residuals, a, b))

    # Homogeneity: base points stay deep inside the ball because the scalar
    # range pushes iterates toward the boundary.  One row per scalar and base
    # point, the dyadic ladder first.
    n_base = 3
    (base,) = sample_columns(T.domain_model, rng, n_base, (Point(0.6),))
    scalars = DYADIC_SCALARS + tuple(rng.uniform(-SCALAR_RANGE, SCALAR_RANGE) for _ in range(GENERAL_SCALARS))
    alpha = np.repeat(scalars, n_base)
    x = tuple(np.tile(column, len(scalars)) for column in base)
    tx = tuple(np.tile(column, len(scalars)) for column in T0(base))
    gaps = _homogeneity_gaps(m1, m2, T0, alpha, x, tx)
    (gaps,) = _settle(gaps, tolerance, exact, _homogeneity_gaps, alpha, x)
    dyadic = worst_of(gaps[:n_base * len(DYADIC_SCALARS)])
    homogeneity = worst_of(gaps)

    # The dyadic residual is part of the homogeneity residual.
    worst = max(additivity, homogeneity, isometry, coaddition)
    return DecompositionReport(
        translation_part=translation_part,
        additivity_residual=additivity,
        homogeneity_residual=homogeneity,
        isometry_residual=isometry,
        dyadic_residual=dyadic,
        coaddition_residual=coaddition,
        passed=worst <= tolerance,
        samples=n_samples,
        seed=seed,
        tolerance=tolerance,
    )


def _doubling_map(m1: GgvModel, m2: GgvModel, apply: Callable, inverse_apply: Callable, x1, x2) -> tuple:
    """The midpoints ``p`` of ``x1`` and ``x2`` and ``p'`` of their images, and
    the doubling map ``S = refl_p o T^-1 o refl_p' o T``, all in the form of
    the models ``m1`` and ``m2`` (see ``models._in_form``), with ``apply`` and
    ``inverse_apply`` the directions of ``T`` in the same form.

    ``refl_a`` is the point reflection ``x -> 2 (x) a (-) x``.  The caller
    validates ``p`` and ``p'`` where it needs them in the carrier.
    """
    p = _midpoint(m1, x1, x2)
    p_image = _midpoint(m2, apply(x1), apply(x2))
    centre, centre_image = m1.otimes(2.0, p), m2.otimes(2.0, p_image)
    add1, inv1, add2, inv2 = m1.group.add, m1.group.inv, m2.group.add, m2.group.inv

    def S(x):
        return add1(centre, inv1(inverse_apply(add2(centre_image, inv2(apply(x))))))

    return p, p_image, S


def defect_experiment(
    T: GyroMap,
    x1: GyroPoint,
    x2: GyroPoint,
    n_max: int,
    tolerance: float = DEFAULT_TOLERANCE,
) -> DefectTrace:
    """Drive the midpoint defect of ``T`` at ``(x1, x2)`` through the doubling map.

    With ``p`` the gyromidpoint of the arguments and ``p'`` the gyromidpoint
    of their images, the composition ``S = refl_p o T^-1 o refl_p' o T``
    fixes ``x1`` and ``x2`` while its iterates double the defect; staying
    under the bound ``2 lin(rho(x1, p))`` is only possible when the defect
    vanishes.  The chain stops at the first exact fixed point of ``S``, which
    leaves the trace unchanged.  The chain and its iterates run in double; a
    fixed-point residual over ``tolerance`` in double is evaluated again at
    ``models.MP_DIGITS`` digits, the midpoints and ``S`` taken again from
    the double arguments by :func:`_doubling_map`, when ``T`` has exact
    forms (:func:`_exact_forms`), and that value is the residual.  An
    evaluation that leaves a function's domain or divides by zero gives
    ``inf``, as in :func:`_settle`.
    """
    if not isinstance(n_max, int) or isinstance(n_max, bool) or not 0 <= n_max <= N_MAX_LIMIT:
        raise PreconditionError(f"n_max must be an integer in [0, {N_MAX_LIMIT}], got {n_max!r}")
    require_gyrometric_preserving(T, tolerance=tolerance)
    m1, m2 = T.domain_model, T.codomain_model
    m1.group.validate(x1)
    m1.group.validate(x2)
    a1, a2, distance1 = x1.coords, x2.coords, _in_form(m1, _POINT).distance
    apply, inverse_apply = _form(T, _POINT)
    p, p_image, S = _doubling_map(_in_form(m1, _POINT), _in_form(m2, _POINT), apply, inverse_apply, a1, a2)
    # The centres of the reflections, validated as point_reflection validates its centre.
    m1.group.validate(_point(m1.tag, p))
    m2.group.validate(_point(m2.tag, p_image))

    defect = _in_form(m2, _POINT).distance(apply(p), p_image)
    bound = 2.0 * distance1(a1, p)

    # S is a pure function of its coordinates, so once S(current) is current
    # bit for bit (repr tells -0.0 from 0.0; NaN never compares equal) every
    # later iterate is current and the chain stops.
    iterates = []
    current = p
    applied = 0
    for n in range(n_max + 1):
        while applied < 2 ** n:
            following = S(current)
            if following == current and repr(following) == repr(current):
                applied = 2 ** n_max
                break
            current = following
            applied += 1
        iterates.append(distance1(current, p))

    fixed_point_residual = worst_residual(distance1(S(a1), a1), distance1(S(a2), a2))
    exact = _exact_forms(T) if fixed_point_residual > tolerance else None
    if exact is not None:
        e1, e2, exact_apply, const = exact
        y1, y2 = const(a1), const(a2)
        try:
            S = _doubling_map(e1, e2, exact_apply, _form(T, _mp())[1], y1, y2)[2]
            fixed_point_residual = float(max(e1.distance(S(y1), y1), e1.distance(S(y2), y2)))
        except (DomainError, ZeroDivisionError):
            fixed_point_residual = math.inf
    passed = (
        defect <= tolerance
        and fixed_point_residual <= tolerance
        and all(it <= bound + tolerance for it in iterates)
    )
    return DefectTrace(defect, tuple(iterates), bound, fixed_point_residual, passed, tolerance)

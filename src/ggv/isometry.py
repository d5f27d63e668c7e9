"""Gyrometric-preserving maps and the numerical Mazur-Ulam experiments.

Maps are built compositionally from primitives with closed-form inverses:
left translations ``x -> c (+) x``, point reflections ``x -> 2 (x) a (-) x``,
ambient rotations (ball models, dimension >= 2), and the identity.  Every
generated map is checked to preserve the gyrometric before it is handed out,
and carries the record of that check so that the experiments need not repeat
it.

A package-built map validates its argument once per call, at the entry of
``apply``/``inverse_apply``, however deep the composition; the steps inside
trust the points their predecessors computed.  The experiments validate their
inputs at entry and then run on points they sampled or computed themselves.

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

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import MapConstructionError, PreconditionError
from .gyrogroup import GyroPoint, _point
from .sampling import sample_point
from .space import DEFAULT_TOLERANCE, GgvModel, _distance, _midpoint, worst_residual

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
GENERAL_SCALARS = 32


@dataclass(frozen=True, eq=False)
class GyroMap:
    """A bijection between model carriers with an explicit inverse.

    ``recipe`` lists the primitive maps of the composition as JSON-friendly
    descriptors; it exists for diagnostics and reproducibility only.
    ``preservation`` is ``(seed, residual)`` of the ``CONSTRUCTION_PAIRS``-pair
    check a generated map passed.  It is not a constructor argument, so a map
    rebuilt with ``dataclasses.replace`` carries none.
    """

    domain_model: GgvModel
    codomain_model: GgvModel
    apply: Callable[[GyroPoint], GyroPoint]
    inverse_apply: Callable[[GyroPoint], GyroPoint]
    recipe: tuple[dict, ...]
    preservation: tuple[int, float] | None = field(default=None, init=False, repr=False)


@dataclass(frozen=True)
class MidpointReport:
    """Worst linearized gap between T(P(a, b)) and P(T(a), T(b))."""

    samples: int
    max_residual: float
    passed: bool
    seed: int
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "property": "midpoint_preservation",
            "samples": self.samples,
            "max_residual": self.max_residual,
            "pass": self.passed,
            "seed": self.seed,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class DecompositionReport:
    """Residuals of the translation-plus-isomorphism decomposition."""

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

    def to_dict(self) -> dict:
        return {
            "property": "translation_isomorphism_decomposition",
            "translation_part": list(self.translation_part.coords),
            "additivity_residual": self.additivity_residual,
            "homogeneity_residual": self.homogeneity_residual,
            "isometry_residual": self.isometry_residual,
            "dyadic_residual": self.dyadic_residual,
            "coaddition_residual": self.coaddition_residual,
            "pass": self.passed,
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class DefectTrace:
    """Defect of a midpoint image and the doubling iterates that bound it.

    ``iterates[n]`` is the linearized gyrometric between ``S^(2^n)(p)`` and
    ``p``; every entry must stay below ``bound`` (up to tolerance), which
    forces the defect to vanish.
    """

    defect: float
    iterates: tuple[float, ...]
    bound: float
    fixed_point_residual: float
    passed: bool
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "property": "midpoint_defect",
            "defect": self.defect,
            "iterates": list(self.iterates),
            "bound": self.bound,
            "fixed_point_residual": self.fixed_point_residual,
            "pass": self.passed,
            "tolerance": self.tolerance,
        }


# ---------------------------------------------------------------------------
# Primitive maps.
# ---------------------------------------------------------------------------

def _checked(
    validate: Callable[[GyroPoint], None], unchecked: Callable[[GyroPoint], GyroPoint]
) -> Callable[[GyroPoint], GyroPoint]:
    """A map callable that validates its argument, then runs ``unchecked``.

    ``unchecked`` stays reachable as an attribute: compositions and the
    experiments call it on points that package code sampled or computed.
    """
    def call(x: GyroPoint) -> GyroPoint:
        validate(x)
        return unchecked(x)

    call.unchecked = unchecked
    return call


def _unchecked(T: GyroMap, inverse: bool = False) -> Callable[[GyroPoint], GyroPoint]:
    """``T.apply`` (or ``T.inverse_apply``) for arguments known to be carrier points.

    A package-built map skips its entry check.  Any other callable runs as
    given and its images are validated, since nothing vouches for them.
    """
    fn = T.inverse_apply if inverse else T.apply
    unchecked = getattr(fn, "unchecked", None)
    if unchecked is not None:
        return unchecked
    validate = (T.domain_model if inverse else T.codomain_model).group.validate

    def checked_image(x: GyroPoint) -> GyroPoint:
        y = fn(x)
        validate(y)
        return y

    return checked_image


def identity_map(m: GgvModel) -> GyroMap:
    """The identity of a carrier."""
    apply = _checked(m.group.validate, lambda x: x)
    return GyroMap(m, m, apply, apply, ({"kind": "identity"},))


def left_translation(m: GgvModel, c: GyroPoint) -> GyroMap:
    """``x -> c (+) x``; gyrometric preserving, inverted by translating by ``(-)c``."""
    m.group.validate(c)
    g = m.group
    neg_c = g.inv(c)

    def apply(x: GyroPoint) -> GyroPoint:
        return g.add(c, x)

    def inverse_apply(y: GyroPoint) -> GyroPoint:
        # Left cancellation makes this an exact two-sided inverse.
        return g.add(neg_c, y)

    recipe = ({"kind": "left_translation", "center": list(c.coords)},)
    return GyroMap(m, m, _checked(g.validate, apply), _checked(g.validate, inverse_apply), recipe)


def point_reflection(m: GgvModel, a: GyroPoint) -> GyroMap:
    """``x -> 2 (x) a (-) x``: the involution that fixes exactly ``a``.

    Swaps any pair whose gyromidpoint is ``a`` and doubles gyrometric
    distances from its center.
    """
    m.group.validate(a)
    g = m.group
    double_a = m.otimes(2.0, a)

    def reflect(x: GyroPoint) -> GyroPoint:
        return g.add(double_a, g.inv(x))

    apply = _checked(g.validate, reflect)
    recipe = ({"kind": "point_reflection", "center": list(a.coords)},)
    return GyroMap(m, m, apply, apply, recipe)


def ambient_rotation(m: GgvModel, matrix: Sequence[Sequence[float]]) -> GyroMap:
    """Rotate ball coordinates by an orthogonal matrix with determinant one.

    Only ball models of dimension >= 2 support this primitive; both ball
    additions are equivariant under ambient rotations.
    """
    if m.config.kind not in ("einstein", "mobius"):
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
            if abs(gram - (1.0 if i == j else 0.0)) > 1e-9:
                raise PreconditionError("rotation matrix is not orthogonal")
    tag = m.tag

    def apply(x: GyroPoint) -> GyroPoint:
        return _point(tag, tuple(sum(r * cx for r, cx in zip(row, x.coords)) for row in rows))

    def inverse_apply(y: GyroPoint) -> GyroPoint:
        return _point(tag, tuple(sum(rows[k][i] * y.coords[k] for k in range(dim)) for i in range(dim)))

    recipe = ({"kind": "ambient_rotation", "matrix": [list(row) for row in rows]},)
    return GyroMap(m, m, _checked(m.group.validate, apply), _checked(m.group.validate, inverse_apply), recipe)


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

    def apply(x: GyroPoint) -> GyroPoint:
        return _point(codomain.tag, x.coords)

    def inverse_apply(y: GyroPoint) -> GyroPoint:
        return _point(domain.tag, y.coords)

    return GyroMap(domain, codomain, _checked(domain.group.validate, apply),
                   _checked(codomain.group.validate, inverse_apply), ({"kind": "transport"},))


def compose_maps(maps: Iterable[GyroMap]) -> GyroMap:
    """Compose maps left to right: the first map is applied first.

    The composition validates its argument once, on entry, and runs the
    unchecked steps of its package-built maps.
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
    steps = [_unchecked(mp) for mp in chain]
    inverse_steps = [_unchecked(mp, inverse=True) for mp in reversed(chain)]

    def apply(x: GyroPoint) -> GyroPoint:
        for step in steps:
            x = step(x)
        return x

    def inverse_apply(y: GyroPoint) -> GyroPoint:
        for step in inverse_steps:
            y = step(y)
        return y

    domain, codomain = chain[0].domain_model, chain[-1].codomain_model
    recipe = tuple(step for mp in chain for step in mp.recipe)
    return GyroMap(domain, codomain, _checked(domain.group.validate, apply),
                   _checked(codomain.group.validate, inverse_apply), recipe)


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

def map_preservation_residual(T: GyroMap, n_pairs: int, seed: int) -> float:
    """Worst linearized gap between image distances and source distances.

    The pairs are drawn in a fixed order from ``seed``, so the pairs of a
    shorter check are a prefix of those of a longer one.
    """
    rng = random.Random(f"{seed}:preservation")
    m1, m2 = T.domain_model, T.codomain_model
    apply = _unchecked(T)
    worst = 0.0
    for _ in range(n_pairs):
        a, b = sample_point(m1, rng, 0.9), sample_point(m1, rng, 0.9)
        worst = worst_residual(worst, abs(_distance(m2, apply(a), apply(b)) - _distance(m1, a, b)))
    return worst


def require_gyrometric_preserving(
    T: GyroMap, n_pairs: int = 100, seed: int = 0, tolerance: float = DEFAULT_TOLERANCE
) -> None:
    """Raise :class:`PreconditionError` unless ``T`` preserves the gyrometric.

    The check is skipped when ``T`` carries a record that settles it: same
    seed and at least as many pairs, so these pairs are a prefix of the
    recorded ones and their worst gap cannot exceed the recorded residual,
    which is within ``tolerance``.
    """
    if T.preservation is not None and n_pairs <= CONSTRUCTION_PAIRS:
        recorded_seed, recorded_residual = T.preservation
        if recorded_seed == seed and recorded_residual <= tolerance:
            return
    residual = map_preservation_residual(T, n_pairs, seed)
    if residual > tolerance:
        raise PreconditionError(
            f"map is not gyrometric preserving: residual {residual:.3e} over {n_pairs} pairs"
        )


_PRIMITIVE_KINDS = ("left_translation", "point_reflection", "ambient_rotation", "identity")


def _available_kinds(m: GgvModel) -> tuple[str, ...]:
    if m.config.kind in ("einstein", "mobius") and m.config.dim >= 2:
        return _PRIMITIVE_KINDS
    return ("left_translation", "point_reflection", "identity")


def _random_primitive(m: GgvModel, kind: str, rng: random.Random) -> GyroMap:
    # Centers stay well inside the ball: a depth-six chain of translations
    # compounds rapidity, and the checks downstream need headroom.
    if kind == "left_translation":
        return left_translation(m, sample_point(m, rng, 0.7))
    if kind == "point_reflection":
        return point_reflection(m, sample_point(m, rng, 0.7))
    if kind == "ambient_rotation":
        return ambient_rotation(m, random_rotation_matrix(m.config.dim, rng))
    if kind == "identity":
        return identity_map(m)
    raise PreconditionError(f"unknown primitive kind {kind!r}")


def random_isometry(
    m: GgvModel,
    seed: int,
    depth: int,
    kinds: Sequence[str] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GyroMap:
    """Compose ``depth`` seeded random primitives into a gyrometric-preserving map.

    The construction is deterministic in ``(seed, depth, kinds)`` and the
    result is verified over ``CONSTRUCTION_PAIRS`` pairs drawn from ``seed``
    before being returned; the map carries the record of that check.
    """
    if depth < 1:
        raise PreconditionError(f"depth must be >= 1, got {depth}")
    palette = tuple(kinds) if kinds is not None else _available_kinds(m)
    allowed = _available_kinds(m)
    for kind in palette:
        if kind not in allowed:
            raise PreconditionError(f"primitive {kind!r} is not available for {m.tag}")
    rng = random.Random(f"{seed}:isometry")
    prims = [_random_primitive(m, rng.choice(palette), rng) for _ in range(depth)]
    return _verified(compose_maps(prims), seed, tolerance)


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
    the codomain.
    """
    if depth < 2:
        raise PreconditionError("cross-instance maps need depth >= 2 to act on both sides")
    d1 = depth // 2
    head = random_isometry(domain, seed, d1, tolerance=tolerance)
    tail = random_isometry(codomain, seed + 1, depth - d1, tolerance=tolerance)
    return _verified(compose_maps([head, transport(domain, codomain), tail]), seed, tolerance)


# ---------------------------------------------------------------------------
# Experiments.
# ---------------------------------------------------------------------------

def verify_midpoint_preservation(
    T: GyroMap, n_samples: int, seed: int, tolerance: float = DEFAULT_TOLERANCE
) -> MidpointReport:
    """Check ``T(P(a, b)) == P(T(a), T(b))`` over seeded sample pairs."""
    if n_samples < 1:
        raise PreconditionError("n_samples must be >= 1")
    require_gyrometric_preserving(T, seed=seed, tolerance=tolerance)
    m1, m2 = T.domain_model, T.codomain_model
    apply = _unchecked(T)
    rng = random.Random(f"{seed}:midpoint")
    worst = 0.0
    for _ in range(n_samples):
        a, b = sample_point(m1, rng, 0.9), sample_point(m1, rng, 0.9)
        image_of_mid = apply(_midpoint(m1, a, b))
        mid_of_images = _midpoint(m2, apply(a), apply(b))
        worst = worst_residual(worst, _distance(m2, image_of_mid, mid_of_images))
    return MidpointReport(n_samples, worst, worst <= tolerance, seed, tolerance)


def _dyadic_scalars() -> list[float]:
    values = {m / 2 ** n for n in range(DYADIC_DEPTH + 1) for m in range(-4 * 2 ** n, 4 * 2 ** n + 1)}
    return sorted(values)


def decompose_mazur_ulam(
    T: GyroMap, n_samples: int, seed: int, tolerance: float = DEFAULT_TOLERANCE
) -> DecompositionReport:
    """Split ``T`` as a left translation by ``T(e)`` followed by an isomorphism.

    ``T0 = (-)T(e) (+) T`` fixes the unit; the report records how well it
    preserves addition, coaddition, scalar action (dyadic ladder first, then
    general scalars), and the gyrometric.
    """
    if n_samples < 1:
        raise PreconditionError("n_samples must be >= 1")
    require_gyrometric_preserving(T, seed=seed, tolerance=tolerance)
    m1, m2 = T.domain_model, T.codomain_model
    g1, g2 = m1.group, m2.group
    apply = _unchecked(T)
    translation_part = apply(g1.identity)
    neg_te = g2.inv(translation_part)

    def T0(x: GyroPoint) -> GyroPoint:
        return g2.add(neg_te, apply(x))

    rng = random.Random(f"{seed}:decomposition")
    additivity = 0.0
    coaddition = 0.0
    isometry = 0.0
    for _ in range(n_samples):
        a, b = sample_point(m1, rng, 0.8), sample_point(m1, rng, 0.8)
        ta, tb = T0(a), T0(b)
        additivity = worst_residual(additivity, _distance(m2, T0(g1.add(a, b)), g2.add(ta, tb)))
        co1 = g1.add(a, g1.gyr(a, g1.inv(b), b))
        co2 = g2.add(ta, g2.gyr(ta, g2.inv(tb), tb))
        coaddition = worst_residual(coaddition, _distance(m2, T0(co1), co2))
        isometry = worst_residual(isometry, abs(_distance(m2, ta, tb) - _distance(m1, a, b)))

    # Homogeneity: base points stay deep inside the ball because the scalar
    # range pushes iterates toward the boundary.
    base_points = [sample_point(m1, rng, 0.6) for _ in range(3)]
    images = [T0(x) for x in base_points]

    def homogeneity_gap(worst: float, alpha: float) -> float:
        for x, tx in zip(base_points, images):
            worst = worst_residual(worst, _distance(m2, T0(m1.otimes(alpha, x)), m2.otimes(alpha, tx)))
        return worst

    dyadic = 0.0
    for alpha in _dyadic_scalars():
        dyadic = homogeneity_gap(dyadic, alpha)
    homogeneity = dyadic
    for _ in range(GENERAL_SCALARS):
        homogeneity = homogeneity_gap(homogeneity, rng.uniform(-SCALAR_RANGE, SCALAR_RANGE))

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
    vanishes.
    """
    if not isinstance(n_max, int) or n_max < 0 or n_max > N_MAX_LIMIT:
        raise PreconditionError(f"n_max must be an integer in [0, {N_MAX_LIMIT}], got {n_max!r}")
    require_gyrometric_preserving(T, tolerance=tolerance)
    m1, m2 = T.domain_model, T.codomain_model
    m1.group.validate(x1)
    m1.group.validate(x2)
    apply, inverse_apply = _unchecked(T), _unchecked(T, inverse=True)

    p = _midpoint(m1, x1, x2)
    p_image = _midpoint(m2, apply(x1), apply(x2))
    refl_p = _unchecked(point_reflection(m1, p))
    refl_p_image = _unchecked(point_reflection(m2, p_image))

    def S(x: GyroPoint) -> GyroPoint:
        return refl_p(inverse_apply(refl_p_image(apply(x))))

    defect = _distance(m2, apply(p), p_image)
    bound = 2.0 * _distance(m1, x1, p)

    iterates = []
    current = p
    applied = 0
    for n in range(n_max + 1):
        target = 2 ** n
        while applied < target:
            current = S(current)
            applied += 1
        iterates.append(_distance(m1, current, p))

    fixed_point_residual = worst_residual(_distance(m1, S(x1), x1), _distance(m1, S(x2), x2))
    passed = (
        defect <= tolerance
        and fixed_point_residual <= tolerance
        and all(it <= bound + tolerance for it in iterates)
    )
    return DefectTrace(defect, tuple(iterates), bound, fixed_point_residual, passed, tolerance)

"""Exact rational simulation of the torus and root-subgroup actions on the
total coordinate space.

This is the reference simulator: the tests check the invariance properties
with it, and check `cli._oracle_check`, which draws only zero patterns from
the same random stream, against it draw by draw. The CLI does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classgroup import ClassTable
from .demazure import DemazureRoot
from .fan import Fan


@dataclass(frozen=True)
class CoxPoint:
    """A point of the total coordinate space, one exact rational per ray."""

    fan: Fan
    coords: tuple[Fraction, ...]

    def zero_pattern(self) -> frozenset[int]:
        return frozenset(i for i, x in enumerate(self.coords) if x == 0)


def apply_root(point: CoxPoint, root: DemazureRoot, s) -> CoxPoint:
    """One-parameter root action: the distinguished coordinate moves by
    s times the root monomial, everything else stays."""
    fan = point.fan
    s = Fraction(s)
    monomial = Fraction(1)
    for other in range(fan.num_rays):
        if other == root.distinguished_ray:
            continue
        exponent = sum(a * b for a, b in zip(root.e, fan.ray_vector(other)))
        if exponent < 0:
            raise ValueError("root pairs negatively with a non-distinguished ray")
        if exponent:
            monomial *= point.coords[other] ** exponent
    coords = list(point.coords)
    coords[root.distinguished_ray] += s * monomial
    return CoxPoint(fan=fan, coords=tuple(coords))


def apply_torus(point: CoxPoint, t, classes: ClassTable) -> CoxPoint:
    """Diagonal action through the class characters: each coordinate scales
    by the product of the torus entries raised to its class vector."""
    t = tuple(Fraction(x) for x in t)
    if len(t) != classes.k or any(x == 0 for x in t):
        raise ValueError("torus element needs k nonzero entries")
    coords = []
    for ray in range(point.fan.num_rays):
        factor = Fraction(1)
        for tj, power in zip(t, classes.class_of(ray)):
            if power:
                factor *= tj**power
        coords.append(point.coords[ray] * factor)
    return CoxPoint(fan=point.fan, coords=tuple(coords))


def random_rational(rng, nonzero: bool = False) -> Fraction:
    """Small-height random rational, optionally bounded away from zero."""
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if value != 0 or not nonzero:
            return value


def random_stratum_point(fan: Fan, basic, rng) -> CoxPoint:
    """Random point of the stratum of a basic subset: members nonzero, hat
    rays zero, everything else unconstrained."""
    coords = []
    members = set(basic.rays)
    hat = set(basic.hat)
    for ray in range(fan.num_rays):
        if ray in hat:
            coords.append(Fraction(0))
        elif ray in members:
            coords.append(random_rational(rng, nonzero=True))
        elif rng.random() < 0.25:
            coords.append(Fraction(0))
        else:
            coords.append(random_rational(rng))
    return CoxPoint(fan=fan, coords=tuple(coords))

import random
from fractions import Fraction

import pytest

from unifan.coxspace import (
    apply_root,
    apply_torus,
    random_rational,
    random_stratum_point,
)
from unifan.orbits import enumerate_basic_subsets
from unifan.pipeline import analyze_fan

from conftest import (
    classes_independent,
    family,
    in_stratum,
    make_point,
    negative_surface,
    t_orbit_of,
)

ORACLE_FIXTURES = ["hirzebruch:1", "hirzebruch:2", "pn:2", "p1xp1", "wps:1,1,2", "wps:1,1,2,4"]


def root_at(analysis, e, ray):
    for r in analysis.roots:
        if r.e == e and r.distinguished_ray == ray:
            return r
    raise LookupError((e, ray))


class TestApplyRoot:
    def test_moves_distinguished_coordinate(self, f2):
        analysis = analyze_fan(f2)
        root = root_at(analysis, (0, -1), 1)
        point = make_point(f2, (1, 0, 1, 1))
        moved = apply_root(point, root, 3)
        assert moved.coords == (1, 3, 1, 1)

    def test_trivial_on_vanishing_monomial(self, f2):
        analysis = analyze_fan(f2)
        root = root_at(analysis, (0, -1), 1)
        point = make_point(f2, (1, 1, 0, 0))
        assert apply_root(point, root, 5).coords == point.coords

    def test_zero_parameter_is_identity(self, f2):
        analysis = analyze_fan(f2)
        point = make_point(f2, (2, 3, 5, 7))
        for root in analysis.roots:
            assert apply_root(point, root, 0).coords == point.coords


class TestApplyTorus:
    def test_scaling_by_class(self, f2):
        analysis = analyze_fan(f2)
        point = make_point(f2, (1, 1, 1, 1))
        scaled = apply_torus(point, (2, 3), analysis.classes)
        # classes: (1,0), (2,1), (1,0), (0,1)
        assert scaled.coords == (2, 12, 2, 3)

    def test_identity(self, f2):
        analysis = analyze_fan(f2)
        point = make_point(f2, (5, -1, Fraction(1, 3), 2))
        assert apply_torus(point, (1, 1), analysis.classes).coords == point.coords

    def test_negative_ray_scales_exactly(self, f2):
        analysis = analyze_fan(f2)
        point = make_point(f2, (1, 1, 1, 1))
        scaled = apply_torus(point, (7, 11), analysis.classes)
        assert scaled.coords[2] == 7
        assert scaled.coords[3] == 11


class TestTOrbitOf:
    def test_maximal_cone_pattern(self, f2):
        point = make_point(f2, (1, 1, 0, 0))
        assert t_orbit_of(point).ray_indices == (2, 3)

    def test_open_orbit(self, f2):
        point = make_point(f2, (1, 2, 3, 4))
        assert t_orbit_of(point).ray_indices == ()

    def test_excluded_locus(self, f2):
        point = make_point(f2, (1, 0, 1, 0))
        assert t_orbit_of(point) is None

    def test_torus_invariance(self, f2):
        rng = random.Random(5)
        analysis = analyze_fan(f2)
        for _ in range(100):
            coords = [
                Fraction(0) if rng.random() < 0.4 else random_rational(rng, nonzero=True)
                for _ in range(4)
            ]
            point = make_point(f2, coords)
            t = [random_rational(rng, nonzero=True) for _ in range(2)]
            scaled = apply_torus(point, t, analysis.classes)
            assert scaled.zero_pattern() == point.zero_pattern()
            assert t_orbit_of(scaled) == t_orbit_of(point)


class TestStratumInvariance:
    """Root subgroups in the unipotent group act trivially on strata whose
    member-or-hat set holds the distinguished ray, fix member coordinates in
    general, and preserve stratum membership."""

    @pytest.mark.parametrize("spec", ORACLE_FIXTURES)
    def test_trivial_action_on_frozen_rays(self, spec):
        fan = family(spec)
        analysis = analyze_fan(fan)
        rng = random.Random(2025)
        trials = 0
        for basic in enumerate_basic_subsets(analysis.classes, analysis.precedence):
            frozen = set(basic.rays) | set(basic.hat)
            roots = [
                r
                for r in analysis.roots
                if r.in_u and r.distinguished_ray in frozen
            ]
            for root in roots:
                for _ in range(12):
                    point = random_stratum_point(fan, basic, rng)
                    s = random_rational(rng, nonzero=True)
                    assert apply_root(point, root, s).coords == point.coords
                    trials += 1
        if analysis.verdict.finite:
            assert trials >= 20

    @pytest.mark.parametrize("spec", ORACLE_FIXTURES)
    def test_member_coordinates_constant_under_sequences(self, spec):
        fan = family(spec)
        analysis = analyze_fan(fan)
        rng = random.Random(77)
        in_u = [r for r in analysis.roots if r.in_u]
        for basic in enumerate_basic_subsets(analysis.classes, analysis.precedence):
            for _ in range(10):
                point = random_stratum_point(fan, basic, rng)
                moved = point
                for _ in range(rng.randint(1, 6)):
                    moved = apply_root(
                        moved, rng.choice(in_u), random_rational(rng)
                    )
                for ray in basic.rays:
                    assert moved.coords[ray] == point.coords[ray]
                assert in_stratum(moved, basic)

    @pytest.mark.parametrize("spec", ORACLE_FIXTURES)
    def test_stratum_invariant_under_torus(self, spec):
        fan = family(spec)
        analysis = analyze_fan(fan)
        rng = random.Random(31)
        for basic in enumerate_basic_subsets(analysis.classes, analysis.precedence):
            for _ in range(10):
                point = random_stratum_point(fan, basic, rng)
                t = [
                    random_rational(rng, nonzero=True)
                    for _ in range(analysis.classes.k)
                ]
                assert in_stratum(apply_torus(point, t, analysis.classes), basic)


def rational_kernel_vector(vectors):
    """A nonzero integer relation among Q-dependent vectors, or None."""
    if not vectors:
        return None
    rows = [[Fraction(v[i]) for v in vectors] for i in range(len(vectors[0]))]
    cols = len(vectors)
    pivots = {}
    r = 0
    for j in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][j] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][j] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j] != 0:
                c = rows[i][j]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[r])]
        pivots[j] = r
        r += 1
    free = [j for j in range(cols) if j not in pivots]
    if not free:
        return None
    j0 = free[0]
    coeffs = [Fraction(0)] * cols
    coeffs[j0] = Fraction(1)
    for pj, pr in pivots.items():
        coeffs[pj] = -rows[pr][j0]
    from math import lcm

    scale = lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * scale) for c in coeffs)


class TestInvariantMonomial:
    """On a stratum with Q-dependent member classes, the relation monomial is
    invariant under the torus and the unipotent root actions."""

    @pytest.mark.parametrize("maker", [lambda: negative_surface(2), lambda: family("wps:1,2,3")])
    def test_relation_monomial_constant(self, maker):
        fan = maker()
        analysis = analyze_fan(fan)
        rng = random.Random(404)
        dependent = [
            b
            for b in enumerate_basic_subsets(analysis.classes, analysis.precedence)
            if b.rays and not classes_independent(analysis.classes, b)
        ]
        assert dependent, "fixture should have a dependent basic subset"
        in_u = [r for r in analysis.roots if r.in_u]
        checked = 0
        for basic in dependent:
            relation = rational_kernel_vector(
                [analysis.classes.class_of(r) for r in basic.rays]
            )
            assert relation is not None and any(relation)

            def evaluate(point):
                value = Fraction(1)
                for ray, power in zip(basic.rays, relation):
                    value *= Fraction(point.coords[ray]) ** power
                return value

            for _ in range(25):
                point = random_stratum_point(fan, basic, rng)
                before = evaluate(point)
                t = [
                    random_rational(rng, nonzero=True)
                    for _ in range(analysis.classes.k)
                ]
                assert evaluate(apply_torus(point, t, analysis.classes)) == before
                moved = point
                for _ in range(3):
                    moved = apply_root(moved, rng.choice(in_u), random_rational(rng))
                assert evaluate(moved) == before
                checked += 1
        assert checked >= 25

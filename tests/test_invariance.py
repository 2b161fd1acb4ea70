"""The answer depends on the variety, not on its presentation: the verdict,
the orbit count and the orbit dimensions do not change under a change of
lattice basis or a renumbering of the rays, and they follow the product law
on X x Y."""

import random
from collections import Counter

import pytest

from unifan.fan import validate_fan
from unifan.pipeline import analyze_fan

from conftest import (
    RADIANT_FIXTURES,
    del_pezzo6,
    family,
    negative_surface,
    product_of,
    radiant_p3_draw,
    random_surfaces,
)


def random_unimodular(rng: random.Random, n: int):
    """A seeded matrix of GL(n, Z): signed row permutation of a product of
    elementary row additions."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    return [[-x for x in row] if rng.random() < 0.5 else row for row in m]


def change_basis(fan, g):
    rays = [[sum(a * x for a, x in zip(row, v)) for row in g] for v in fan.ray_vectors()]
    cones = [list(c.ray_indices) for c in fan.max_cones]
    return validate_fan(fan.dim, rays, cones, require_complete=True)


def renumber(fan, perm):
    """Ray i becomes ray perm[i]."""
    rays = [None] * fan.num_rays
    for i, v in enumerate(fan.ray_vectors()):
        rays[perm[i]] = list(v)
    cones = [[perm[i] for i in c.ray_indices] for c in fan.max_cones]
    return validate_fan(fan.dim, rays, cones, require_complete=True)


def invariants(fan):
    """Verdict, orbit count and the multiset of orbit dimensions."""
    analysis = analyze_fan(fan)
    verdict, catalog = analysis.verdict, analysis.catalog
    dims = Counter(r.dimension for r in catalog) if catalog is not None else None
    return verdict.finite, verdict.reason, verdict.orbit_count, dims


def transforms(fan, rng: random.Random):
    perm = rng.sample(range(fan.num_rays), fan.num_rays)
    yield change_basis(fan, random_unimodular(rng, fan.dim))
    yield renumber(fan, perm)
    yield renumber(change_basis(fan, random_unimodular(rng, fan.dim)), perm)


def p3_draw(steps: int):
    return validate_fan(3, *radiant_p3_draw(steps), require_complete=True)


CORPORA = {
    "surfaces": lambda: random_surfaces()
    + [family(spec) for spec in sorted(RADIANT_FIXTURES.values()) if spec != "wps:1,1,2,4"]
    + [del_pezzo6()]
    + [negative_surface(d) for d in range(1, 4)],
    "wps": lambda: [
        family(f"wps:1,1,{a},{b}") for a in range(1, 5) for b in range(1, 7) if (a, b) != (2, 2)
    ]
    + [family(spec) for spec in ("wps:1,1,2,4", "wps:1,2,3", "wps:1,1,1,2,4", "pn:4")],
    "p3_draws": lambda: [p3_draw(steps) for steps in range(1, 13)],
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_invariant_under_basis_change_and_renumbering(corpus):
    rng = random.Random(f"invariance:{corpus}")
    finite = 0
    for fan in CORPORA[corpus]():
        expected = invariants(fan)
        finite += expected[0]
        for moved in transforms(fan, rng):
            assert invariants(moved) == expected, (fan.rays, moved.rays)
    assert finite > 0


FACTORS = {
    "P1": lambda: family("pn:1"),
    "P2": lambda: family("pn:2"),
    "F0": lambda: family("p1xp1"),
    "F1": lambda: family("hirzebruch:1"),
    "F3": lambda: family("hirzebruch:3"),
    "P112": lambda: family("wps:1,1,2"),
    "P123": lambda: family("wps:1,2,3"),
    "dP6": del_pezzo6,
    "N2": lambda: negative_surface(2),
    "P1124": lambda: family("wps:1,1,2,4"),
    "P1123": lambda: family("wps:1,1,2,3"),
}


def product_pairs():
    names = sorted(FACTORS)
    dims = {name: FACTORS[name]().dim for name in names}
    return [(x, y) for x in names for y in names if x <= y and dims[x] + dims[y] <= 4]


@pytest.mark.parametrize("x, y", product_pairs())
def test_product_law(x, y):
    """The roots of X x Y are those of X and of Y, so U has finitely many
    orbits on X x Y iff it has on both factors; then each orbit is a product
    of orbits, so the counts multiply and the dimensions add."""
    fx, fy = FACTORS[x](), FACTORS[y]()
    finite_x, _, count_x, dims_x = invariants(fx)
    finite_y, _, count_y, dims_y = invariants(fy)
    finite, _, count, dims = invariants(product_of(fx, fy))
    assert finite == (finite_x and finite_y)
    if finite:
        assert count == count_x * count_y
        sums = Counter()
        for a, m in dims_x.items():
            for b, k in dims_y.items():
                sums[a + b] += m * k
        assert dims == sums

"""Every complete fan on the primitive vectors of the box [-2, 2]^2 with at
most five rays: the surface classification agrees with the verdict, and a
finite verdict's catalog is a partition of the fan."""

from itertools import combinations
from math import gcd

from unifan.fan import validate_fan
from unifan.families import cross_check
from unifan.pipeline import analyze_fan

from conftest import _ccw_sorted

BOX = 2
MAX_RAYS = 5


def box_surfaces(box: int, max_rays: int):
    """Each complete fan whose rays are primitive vectors in [-box, box]^2,
    with k <= max_rays rays: a set of directions in angular order whose
    consecutive turns are all strictly below a half turn, with one cone per
    consecutive pair. Each fan comes once, listed from its first direction."""
    primitive = _ccw_sorted(
        (x, y)
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
        if gcd(x, y) == 1
    )
    for k in range(3, max_rays + 1):
        for rays in combinations(primitive, k):
            turns = zip(rays, rays[1:] + rays[:1])
            if all(a[0] * b[1] - a[1] * b[0] > 0 for a, b in turns):
                cones = [[i, (i + 1) % k] for i in range(k)]
                yield validate_fan(2, list(rays), cones, require_complete=True)


def test_box_surfaces():
    fans = radiant = 0
    finite_orbits = {}
    for fan in box_surfaces(BOX, MAX_RAYS):
        analysis = analyze_fan(fan)
        fans += 1
        radiant += analysis.bilateral is not None
        assert cross_check(fan, analysis.verdict).agree, fan.rays
        if not analysis.verdict.finite:
            assert analysis.catalog is None
            continue
        catalog = analysis.catalog
        assert analysis.verdict.orbit_count == len(catalog)
        cones = sorted(c for record in catalog for c in record.t_orbit_cones)
        assert cones == sorted(fan.all_cones.values()), fan.rays
        count = len(catalog)
        finite_orbits[count] = finite_orbits.get(count, 0) + 1
    assert (fans, radiant) == (4284, 1905)
    assert finite_orbits == {3: 48, 4: 85}

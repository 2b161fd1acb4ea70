"""Product fans: orbit counts must multiply across factors, and the
torus-orbit decomposition must match what the action simulator sees."""

import random

from unifan.coxspace import random_stratum_point
from unifan.fan import validate_fan
from unifan.orbits import enumerate_basic_subsets
from unifan.pipeline import analyze_fan

from conftest import family, make_point, t_orbit_of


def p1_cubed():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    cones = [[i, j, k] for i in (0, 3) for j in (1, 4) for k in (2, 5)]
    return validate_fan(3, rays, cones, require_complete=True)


def p2_times_p1():
    rays = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
    cones = [[i, j, k] for i, j in [(0, 1), (1, 2), (2, 0)] for k in (3, 4)]
    return validate_fan(3, rays, cones, require_complete=True)


class TestProductFans:
    def test_p1_cubed_orbit_count(self):
        analysis = analyze_fan(p1_cubed())
        assert analysis.verdict.finite
        assert analysis.verdict.orbit_count == 2**3
        assert sum(len(r.t_orbit_cones) for r in analysis.catalog) == 27

    def test_p2_times_p1_orbit_count(self):
        analysis = analyze_fan(p2_times_p1())
        assert analysis.verdict.finite
        assert analysis.verdict.orbit_count == 3 * 2
        assert sum(len(r.t_orbit_cones) for r in analysis.catalog) == 21

    def test_p2_times_p1_dimensions_add(self):
        analysis = analyze_fan(p2_times_p1())
        dims = sorted(r.dimension for r in analysis.catalog)
        # factor dimensions {0,1,2} and {0,1} add pairwise
        assert dims == sorted(a + b for a in (0, 1, 2) for b in (0, 1))


class TestDecompositionAgainstSimulator:
    """The cone list of each orbit record matches the zero patterns the
    coordinate-space simulator assigns to stratum points."""

    SPECS = ["hirzebruch:2", "p1xp1", "wps:1,1,2", "wps:1,1,2,4", "pn:2"]

    def test_sampled_stratum_points_land_in_recorded_cones(self):
        rng = random.Random(1357)
        for spec in self.SPECS:
            fan = family(spec)
            analysis = analyze_fan(fan)
            for record in analysis.catalog:
                allowed = set(record.t_orbit_cones)
                for _ in range(40):
                    point = random_stratum_point(fan, record.basic, rng)
                    cone = t_orbit_of(point)
                    # a qualifying stratum avoids the excluded locus entirely
                    assert cone is not None
                    assert cone in allowed

    def test_every_recorded_cone_is_reached(self):
        for spec in self.SPECS:
            fan = family(spec)
            analysis = analyze_fan(fan)
            basics = enumerate_basic_subsets(analysis.classes, analysis.precedence)
            for record in analysis.catalog:
                for cone in record.t_orbit_cones:
                    zeros = set(cone.ray_indices)
                    point = make_point(
                        fan,
                        [0 if r in zeros else 1 for r in range(fan.num_rays)],
                    )
                    assert t_orbit_of(point) == cone
                    owners = [
                        b
                        for b in basics
                        if not (set(b.rays) & zeros) and set(b.hat) <= zeros
                    ]
                    assert len(owners) == 1
                    assert owners[0].rays == record.basic.rays

"""Randomized end-to-end checks on generated complete surface fans."""

import random
from itertools import combinations

from unifan.classgroup import radiant_classes
from unifan.demazure import compute_precedence
from unifan.families import cross_check
from unifan.fan import is_complete, validate_fan
from unifan.orbits import enumerate_basic_subsets
from unifan.pipeline import analyze_fan
from unifan.radiance import find_bilateral, iter_bilateral_structures

from conftest import random_complete_surface, random_surfaces


def test_generated_fans_validate_and_complete():
    for fan in random_surfaces():
        assert is_complete(fan)
        # removing one maximal cone always breaks completeness
        truncated = validate_fan(
            fan.dim,
            fan.ray_vectors(),
            [list(c.ray_indices) for c in fan.max_cones[1:]],
        )
        assert not is_complete(truncated)


def test_generated_fans_verdict_agrees_with_surface_recognizer():
    rng = random.Random(654)
    finite_seen = infinite_seen = 0
    for _ in range(60):
        fan = random_complete_surface(rng, extra_rays=rng.randint(0, 4))
        analysis = analyze_fan(fan)
        report = cross_check(fan, analysis.verdict)
        assert report.agree, (fan.ray_vectors(), analysis.verdict, report)
        if analysis.verdict.finite:
            finite_seen += 1
            total = sum(len(r.t_orbit_cones) for r in analysis.catalog)
            assert total == len(fan.all_cones)
            opens = [r for r in analysis.catalog if not r.basic.hat]
            assert len(opens) == 1 and opens[0].dimension == 2
        else:
            infinite_seen += 1
    # the sample is diverse enough to hit both verdicts
    assert finite_seen and infinite_seen


def test_generated_radiant_fans_partition_and_witness_invariance():
    rng = random.Random(987)
    radiant_seen = 0
    for _ in range(40):
        fan = random_complete_surface(rng, extra_rays=rng.randint(0, 4))
        bilateral = find_bilateral(fan)
        if bilateral is None:
            continue
        radiant_seen += 1
        classes = radiant_classes(fan, bilateral)
        precedence = compute_precedence(bilateral, classes)
        basics = enumerate_basic_subsets(classes, precedence)
        for size in range(fan.num_rays + 1):
            for zeros in combinations(range(fan.num_rays), size):
                zero_set = set(zeros)
                owners = sum(
                    1
                    for b in basics
                    if not (set(b.rays) & zero_set) and set(b.hat) <= zero_set
                )
                assert owners == 1
        witnesses = list(iter_bilateral_structures(fan))[:6]
        verdicts = {
            (a.verdict.finite, a.verdict.orbit_count)
            for a in (analyze_fan(fan, bilateral=w) for w in witnesses)
        }
        assert len(verdicts) == 1
    assert radiant_seen >= 5


def test_large_parameter_surface():
    # exactness sanity at a larger parameter: one long negative ray
    fan = validate_fan(
        2,
        [(1, 0), (0, 1), (-1, -50), (0, -1)],
        [[0, 1], [1, 2], [2, 3], [3, 0]],
        require_complete=True,
    )
    analysis = analyze_fan(fan)
    assert analysis.verdict.finite and analysis.verdict.orbit_count == 4
    assert len(analysis.roots) == 53
    assert [len(r.t_orbit_cones) for r in analysis.catalog] == [4, 2, 2, 1]

import json
import os
import subprocess
import sys
from itertools import combinations

import pytest

import unifan
import unifan.orbits

from unifan.classgroup import radiant_classes
from unifan.demazure import compute_precedence
from unifan.fan import _bits, ray_mask, validate_fan
from unifan.linalg import q_independent, rational_rank
from unifan.monoid import gamma_of_rayset
from unifan.orbits import enumerate_basic_subsets, non_free_witness, with_membership
from unifan.pipeline import analyze_fan
from unifan.radiance import find_bilateral, iter_bilateral_structures

from conftest import (
    P3_BLOWUP_CONES,
    P3_BLOWUP_RAYS,
    RADIANT_FIXTURES,
    NotFinite,
    classes_independent,
    family,
    finiteness_verdict,
    has_cone,
    minimal_basic,
    negative_surface,
    orbit_catalog,
    p1_power,
    pairwise_irreducibles,
    product_of,
    radiant_p3_draw,
    random_surfaces,
)


def prepared(fan):
    bilateral = find_bilateral(fan)
    classes = radiant_classes(fan, bilateral)
    precedence = compute_precedence(bilateral, classes)
    return classes, precedence


class TestEnumerateBasicSubsets:
    def test_hirzebruch_two_fan(self, f2):
        classes, precedence = prepared(f2)
        basics = enumerate_basic_subsets(classes, precedence)
        ray_sets = sorted(b.rays for b in basics)
        assert len(basics) == 10
        pairs = [rs for rs in ray_sets if len(rs) == 2]
        assert (0, 2) not in pairs  # the two rays of class (1,0)
        assert len(pairs) == 5

    def test_weighted_112(self, p112):
        classes, precedence = prepared(p112)
        basics = enumerate_basic_subsets(classes, precedence)
        assert sorted(b.rays for b in basics) == [(), (0,), (1,), (2,)]

    def test_p1xp1(self, p1xp1):
        classes, precedence = prepared(p1xp1)
        basics = enumerate_basic_subsets(classes, precedence)
        assert len(basics) == 9
        assert all(b.rays not in {(0, 2), (1, 3)} for b in basics)

    def test_hats_on_hirzebruch_two(self, f2):
        classes, precedence = prepared(f2)
        hats = {b.rays: b.hat for b in enumerate_basic_subsets(classes, precedence)}
        assert hats[()] == (0, 1, 2, 3)
        assert hats[(2,)] == (1, 3)
        assert hats[(0, 1)] == (2, 3)
        assert hats[(0, 3)] == (2,)
        assert hats[(1, 2)] == (3,)
        assert hats[(2, 3)] == ()

    def test_hat_disjoint_from_rays(self):
        for spec in sorted(RADIANT_FIXTURES.values()):
            fan = family(spec)
            classes, precedence = prepared(fan)
            for b in enumerate_basic_subsets(classes, precedence):
                assert not set(b.rays) & set(b.hat)


class TestInXHat:
    def test_negative_pair(self, f2):
        assert has_cone(f2, (2, 3))

    def test_opposite_rays(self, f2):
        assert not has_cone(f2, (1, 3))

    def test_empty(self, f2):
        assert has_cone(f2, ())


class TestMinimalBasic:
    def test_positive_pair_reduces(self, f2):
        classes, precedence = prepared(f2)
        monoid = gamma_of_rayset(classes, (0, 1))
        assert minimal_basic(classes, precedence, monoid) == (1, 2)

    def test_mixed_pair_reduces(self, f2):
        classes, precedence = prepared(f2)
        monoid = gamma_of_rayset(classes, (0, 3))
        assert minimal_basic(classes, precedence, monoid) == (2, 3)

    def test_already_minimal(self, p112):
        classes, precedence = prepared(p112)
        monoid = gamma_of_rayset(classes, (2,))
        assert minimal_basic(classes, precedence, monoid) == (2,)

    def test_same_monoid_and_membership(self, f2):
        # reducing to the minimal basic subset keeps the monoid and hat containment
        classes, precedence = prepared(f2)
        basics = enumerate_basic_subsets(classes, precedence)
        flagged = with_membership(f2, basics)
        by_rays = {b.rays: b for b in flagged}
        for b in flagged:
            if not b.rays:
                continue
            monoid = gamma_of_rayset(classes, b.rays)
            minimal = minimal_basic(classes, precedence, monoid)
            assert minimal in by_rays
            reduced = gamma_of_rayset(classes, minimal)
            assert set(reduced.generators) == set(
                g for g in monoid.generators if g in irr_set(monoid)
            )
            mini = by_rays[minimal]
            assert set(mini.hat) <= set(b.hat) | set(b.rays)
            if b.in_x_hat:
                assert mini.in_x_hat


def irr_set(monoid):
    from unifan.monoid import irreducibles

    return set(irreducibles(monoid))


class TestFinitenessVerdict:
    def test_weighted_123(self, p123):
        verdict = finiteness_verdict(p123)
        assert not verdict.finite
        assert verdict.reason == "non_free_monoid"
        assert verdict.witness_cone.ray_indices == (2,)
        assert verdict.witness_irreducibles == ((2,), (3,))

    def test_weighted_112(self, p112):
        verdict = finiteness_verdict(p112)
        assert verdict.finite and verdict.orbit_count == 3

    @pytest.mark.parametrize("d", [2, 3])
    def test_negative_surface(self, d):
        verdict = finiteness_verdict(negative_surface(d))
        assert not verdict.finite
        assert verdict.witness_cone.ray_indices == (2,)
        assert verdict.witness_irreducibles == ((0, 1), (1, 1), (d, 0))

    def test_negative_surface_needs_d_at_least_one(self):
        with pytest.raises(ValueError, match="d >= 1"):
            negative_surface(0)

    def test_del_pezzo(self, dp6):
        verdict = finiteness_verdict(dp6)
        assert not verdict.finite
        assert verdict.reason == "not_radiant"
        assert verdict.witness_cone is None

    def test_projective_line(self):
        verdict = finiteness_verdict(family("pn:1"))
        assert verdict.finite and verdict.orbit_count == 2


class TestOrbitCatalog:
    def test_weighted_112(self, p112):
        records = orbit_catalog(p112)
        assert [r.basic.rays for r in records] == [(2,), (0,), (1,)]
        assert [r.dimension for r in records] == [2, 1, 0]
        assert [len(r.t_orbit_cones) for r in records] == [4, 2, 1]

    def test_hirzebruch_two_fan(self, f2):
        records = orbit_catalog(f2)
        assert [len(r.t_orbit_cones) for r in records] == [4, 2, 2, 1]
        assert sum(len(r.t_orbit_cones) for r in records) == len(f2.all_cones)

    def test_p1xp1(self, p1xp1):
        records = orbit_catalog(p1xp1)
        assert [r.basic.rays for r in records] == [(2, 3), (0, 3), (1, 2), (0, 1)]

    def test_not_finite(self, p123):
        with pytest.raises(NotFinite):
            orbit_catalog(p123)

    def test_weighted_threefold_singleton_chain(self):
        # orbits of wps 1,1,2,4 are singleton-based; the hat of the i-th
        # record collects the negative ray and the earlier basis rays, and
        # the cone counts halve: 8, 4, 2, 1
        records = orbit_catalog(family("wps:1,1,2,4"))
        assert [r.basic.rays for r in records] == [(3,), (0,), (1,), (2,)]
        assert [r.basic.hat for r in records] == [(), (3,), (0, 3), (0, 1, 3)]
        assert [len(r.t_orbit_cones) for r in records] == [8, 4, 2, 1]
        for record in records:
            hat, members = set(record.basic.hat), set(record.basic.rays)
            for cone in record.t_orbit_cones:
                assert hat <= set(cone.ray_indices)
                assert not members & set(cone.ray_indices)

    def test_open_orbit_is_negative_set(self):
        for spec in sorted(RADIANT_FIXTURES.values()):
            fan = family(spec)
            records = orbit_catalog(fan)
            bilateral = find_bilateral(fan)
            opens = [r for r in records if not r.basic.hat]
            assert len(opens) == 1
            assert opens[0].basic.rays == bilateral.negative
            assert opens[0].dimension == fan.dim


class TestPartitionInvariant:
    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_every_zero_pattern_hits_exactly_one_stratum(self, spec):
        fan = family(spec)
        classes, precedence = prepared(fan)
        basics = enumerate_basic_subsets(classes, precedence)
        d = fan.num_rays
        for size in range(d + 1):
            for zeros in combinations(range(d), size):
                zero_set = set(zeros)
                owners = [
                    b.rays
                    for b in basics
                    if not (set(b.rays) & zero_set) and set(b.hat) <= zero_set
                ]
                assert len(owners) == 1, (zeros, owners)

    def test_infinite_fan_still_partitions(self):
        fan = negative_surface(2)
        classes, precedence = prepared(fan)
        basics = enumerate_basic_subsets(classes, precedence)
        for size in range(fan.num_rays + 1):
            for zeros in combinations(range(fan.num_rays), size):
                zero_set = set(zeros)
                owners = [
                    b
                    for b in basics
                    if not (set(b.rays) & zero_set) and set(b.hat) <= zero_set
                ]
                assert len(owners) == 1


class TestGaleDuality:
    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_independence_matches_complement_span(self, spec):
        fan = family(spec)
        classes, precedence = prepared(fan)
        for b in enumerate_basic_subsets(classes, precedence):
            complement = [
                fan.rays[r] for r in range(fan.num_rays) if r not in b.rays
            ]
            spans = rational_rank(complement) == fan.dim
            assert classes_independent(classes, b) == spans


class TestVerdictInvariance:
    @pytest.mark.parametrize(
        "spec", sorted(RADIANT_FIXTURES.values()) + ["wps:1,2,3", "wps:1,1,2,3"]
    )
    def test_all_bilateral_witnesses_agree(self, spec):
        fan = family(spec)
        verdicts = [
            analyze_fan(fan, bilateral=b).verdict
            for b in iter_bilateral_structures(fan)
        ]
        assert verdicts
        assert len({v.finite for v in verdicts}) == 1
        assert len({v.orbit_count for v in verdicts}) == 1

    def test_negative_surface_witnesses_agree(self):
        fan = negative_surface(2)
        verdicts = [
            analyze_fan(fan, bilateral=b).verdict
            for b in iter_bilateral_structures(fan)
        ]
        assert verdicts and all(not v.finite for v in verdicts)


class TestCatalogConsistency:
    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_torus_orbits_partition(self, spec):
        fan = family(spec)
        analysis = analyze_fan(fan)
        assert analysis.verdict.finite
        seen = []
        for record in analysis.catalog:
            seen.extend(record.t_orbit_cones)
        assert len(seen) == len(set(seen)) == len(fan.all_cones)
        full_dim = [r for r in analysis.catalog if r.dimension == fan.dim]
        assert len(full_dim) == 1

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_qualifying_basics_are_independent(self, spec):
        analysis = analyze_fan(family(spec))
        basics = enumerate_basic_subsets(analysis.classes, analysis.precedence)
        for b in with_membership(analysis.fan, basics):
            if b.in_x_hat:
                assert classes_independent(analysis.classes, b)

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_records_sorted(self, spec):
        records = orbit_catalog(family(spec))
        keys = [(-r.dimension, r.basic.rays) for r in records]
        assert keys == sorted(keys)


class TestInvariants:
    def test_invariant_survives_optimized_mode(self):
        """Under `python -O` asserts vanish; the invariant checks must not."""
        script = (
            "import unifan.orbits\n"
            "from unifan.families import build, parse_family\n"
            "from unifan.linalg import InvariantViolation\n"
            "from unifan.pipeline import analyze_fan\n"
            "if __debug__:\n"
            "    raise SystemExit(3)\n"
            "unifan.orbits.in_span = lambda vector, gens: False\n"
            "try:\n"
            "    analyze_fan(build(parse_family('pn:2')))\n"
            "except InvariantViolation:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = os.path.dirname(os.path.dirname(unifan.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_merged_classes_raise_in_optimized_mode(self):
        """A class table giving rays 0 and 1 of P1xP1 (classes (1, 0) and
        (0, 1)) the same class makes `semisimple_roots` raise under `-O`."""
        script = (
            "from dataclasses import replace\n"
            "from unifan.classgroup import radiant_classes\n"
            "from unifan.demazure import semisimple_roots\n"
            "from unifan.families import build, parse_family\n"
            "from unifan.linalg import InvariantViolation\n"
            "from unifan.radiance import find_bilateral\n"
            "if __debug__:\n"
            "    raise SystemExit(3)\n"
            "fan = build(parse_family('p1xp1'))\n"
            "bilateral = find_bilateral(fan)\n"
            "classes = radiant_classes(fan, bilateral)\n"
            "vectors = list(classes.classes)\n"
            "vectors[1] = vectors[0]\n"
            "try:\n"
            "    semisimple_roots(fan, bilateral, replace(classes, classes=tuple(vectors)))\n"
            "except InvariantViolation:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = os.path.dirname(os.path.dirname(unifan.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_zero_class_raises_in_optimized_mode(self):
        """A class table giving a positive ray of F2 the zero class, which
        would make its root slices unbounded, makes the class-table root
        enumeration raise under `-O`."""
        script = (
            "from dataclasses import replace\n"
            "from unifan.classgroup import radiant_classes\n"
            "from unifan.demazure import enumerate_roots\n"
            "from unifan.families import build, parse_family\n"
            "from unifan.linalg import InvariantViolation\n"
            "from unifan.radiance import find_bilateral\n"
            "if __debug__:\n"
            "    raise SystemExit(3)\n"
            "fan = build(parse_family('hirzebruch:2'))\n"
            "bilateral = find_bilateral(fan)\n"
            "classes = radiant_classes(fan, bilateral)\n"
            "vectors = list(classes.classes)\n"
            "vectors[bilateral.positive[0]] = (0,) * classes.k\n"
            "try:\n"
            "    enumerate_roots(fan, bilateral, replace(classes, classes=tuple(vectors)))\n"
            "except InvariantViolation:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = os.path.dirname(os.path.dirname(unifan.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr


def reference_non_free_witness(fan, classes):
    """The scan that tests every cone's complement monoid, free or not, with
    the pairwise irreducibles."""
    for cone in fan.all_cones.values():
        complement = [r for r in range(fan.num_rays) if r not in cone.ray_indices]
        monoid = gamma_of_rayset(classes, complement)
        irr = pairwise_irreducibles(monoid)
        if not q_independent(irr):
            return cone, tuple(irr)
    return None


def closed_complements(fan, classes):
    """The complement masks of the cones with 0 < size < dim that hold every
    ray of each of their rays' classes, in (size, lex) order."""
    every = (1 << fan.num_rays) - 1
    rays_of = {}
    for r in range(fan.num_rays):
        rays_of.setdefault(classes.class_of(r), set()).add(r)
    return [
        every & ~inside
        for inside, cone in fan.all_cones.items()
        if 0 < len(cone) < fan.dim
        and all(rays_of[classes.class_of(r)] <= set(cone.ray_indices) for r in cone)
    ]


class TestNonFreeWitness:
    @pytest.mark.parametrize(
        "spec", sorted(RADIANT_FIXTURES.values()) + ["wps:1,2,3", "wps:1,1,2,3"]
    )
    def test_matches_reference_on_fixtures(self, spec):
        fan = family(spec)
        classes, _ = prepared(fan)
        assert non_free_witness(fan, classes) == reference_non_free_witness(fan, classes)

    def test_matches_reference_on_random_surfaces(self):
        radiant = [fan for fan in random_surfaces() if find_bilateral(fan) is not None]
        assert len(radiant) >= 5
        for fan in radiant + [negative_surface(d) for d in (2, 3)]:
            classes, _ = prepared(fan)
            assert non_free_witness(fan, classes) == reference_non_free_witness(fan, classes)

    @pytest.mark.parametrize(
        "spec", sorted(RADIANT_FIXTURES.values()) + ["wps:1,2,3", "wps:1,1,2,3"]
    )
    def test_skips_the_empty_and_the_maximal_cones(self, monkeypatch, spec):
        """`gamma_of_rayset` receives exactly the complements of the closed
        cones with 0 < size < dim, once each, in (size, lex) order, up to the
        witness: never all rays or the complement of a maximal cone, whose
        monoids are always free. P1xP1 and P2 have no closed cone."""
        fan = family(spec)
        classes, _ = prepared(fan)
        received = []

        def recording(table, rays):
            rays = list(rays)
            received.append(ray_mask(rays))
            return gamma_of_rayset(table, rays)

        monkeypatch.setattr(unifan.orbits, "gamma_of_rayset", recording)
        witness = non_free_witness(fan, classes)
        assert witness == reference_non_free_witness(fan, classes)
        expected = closed_complements(fan, classes)
        if witness is not None:
            every = (1 << fan.num_rays) - 1
            expected = expected[: expected.index(every & ~ray_mask(witness[0])) + 1]
        assert received == expected
        assert bool(received) is (spec not in ("p1xp1", "pn:2"))

    def test_is_free_once_per_distinct_complement_set(self, monkeypatch):
        """Once per closed cone, and closed cones have distinct complement
        class sets: (P^1)^6 has no closed cone, so it makes no call, and
        F1 x F2 x P1 has 8, the four rays alone in their class and the four
        cones that pair one from each Hirzebruch factor."""
        tested = []
        is_free = unifan.orbits.is_free

        def counting(monoid):
            tested.append(monoid.generators)
            return is_free(monoid)

        monkeypatch.setattr(unifan.orbits, "is_free", counting)
        f1xf2xp1 = product_of(family("hirzebruch:1"), family("hirzebruch:2"), family("pn:1"))
        for fan, closed_count in [(p1_power(6), 0), (f1xf2xp1, 8)]:
            classes, _ = prepared(fan)
            tested.clear()
            assert non_free_witness(fan, classes) is None
            closed = closed_complements(fan, classes)
            assert len(closed) == closed_count
            assert tested == [gamma_of_rayset(classes, _bits(m)).generators for m in closed]
            assert len(set(tested)) == closed_count

    def test_fourteen_ray_blowup_is_quick(self):
        """A 14-ray radiant blow-up of P3 (class rank 11): the complement of
        cone (3,) is not free. The analysis enumerates no basic subset and
        ends well inside the timeout with a small traced peak; the search per
        membership query took 4.5 s and a 6.5 MB traced peak on this draw.
        The enumeration on its own finds 16185 basic subsets."""
        reason, cone, peak = analyze_without_enumeration(P3_BLOWUP_RAYS, P3_BLOWUP_CONES)
        assert reason == "non_free_monoid"
        assert cone == [3]
        assert peak < 4 * 2**20
        fan = validate_fan(3, P3_BLOWUP_RAYS, P3_BLOWUP_CONES, require_complete=True)
        classes, precedence = prepared(fan)
        assert len(enumerate_basic_subsets(classes, precedence)) == 16185

    def test_twenty_two_ray_blowup_is_decided_without_enumeration(self):
        """The 22-ray draw has 4194137 basic subsets, which took 17.4 s and
        570 MB to enumerate; its verdict needs none of them."""
        rays, cones = radiant_p3_draw(18)
        assert len(rays) == 22
        reason, cone, peak = analyze_without_enumeration(rays, cones)
        assert reason == "non_free_monoid"
        assert cone == [3]
        assert peak < 4 * 2**20


# Analyses the fan given as JSON arguments, with the basic-subset enumeration
# and the membership flags replaced, wherever unifan binds them, by functions
# that fail when called; prints the verdict's reason and witness cone and the
# analysis's traced memory peak as JSON.
ANALYZE_WITHOUT_ENUMERATION = """\
import json, sys, tracemalloc
import unifan.orbits, unifan.pipeline
from unifan.fan import ray_mask, validate_fan
from unifan.pipeline import analyze_fan


def forbidden(name):
    def call(*args, **kwargs):
        raise RuntimeError(f"analyze_fan called {name}")
    return call


for name in ("enumerate_basic_subsets", "with_membership"):
    for module in (unifan.orbits, unifan.pipeline):
        if hasattr(module, name):
            setattr(module, name, forbidden(name))
rays, cones = json.loads(sys.argv[1]), json.loads(sys.argv[2])
fan = validate_fan(3, rays, cones, require_complete=True)
tracemalloc.start()
verdict = analyze_fan(fan).verdict
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps([verdict.reason, list(verdict.witness_cone.ray_indices), peak]))
"""


def analyze_without_enumeration(rays, cones):
    src = os.path.dirname(os.path.dirname(unifan.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", ANALYZE_WITHOUT_ENUMERATION, json.dumps(rays), json.dumps(cones)],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)

import json
import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

import unifan.monoid
import unifan.orbits
from unifan import validate_fan
from unifan.classgroup import radiant_classes
from unifan.cli import main
from unifan.linalg import DegenerateGenerator, q_independent
from unifan.monoid import ClassMonoid, contains, gamma_of_rayset, in_span, irreducibles, is_free
from unifan.orbits import non_free_witness
from unifan.radiance import find_bilateral

from conftest import (
    CERTIFICATE_CORPORA,
    RADIANT_FIXTURES,
    family,
    full_rank_is_free,
    negative_surface,
    p1_power,
    pairwise_irreducibles,
    product_of,
    radiant_p3_draw,
    random_surfaces,
    reference_irreducibles,
)
from test_demazure import PRODUCTS
from test_linalg import reference_solve_nonneg


def table_of(fan):
    return radiant_classes(fan, find_bilateral(fan))


class TestGammaOfRayset:
    def test_weighted_123_complement_of_tau(self, p123):
        table = table_of(p123)
        monoid = gamma_of_rayset(table, [0, 1])
        assert monoid.generators == ((2,), (3,))

    def test_hirzebruch_two_without_first_negative(self, f2):
        table = table_of(f2)
        monoid = gamma_of_rayset(table, [0, 1, 3])
        assert monoid.generators == ((0, 1), (1, 0), (2, 1))

    def test_duplicates_collapse(self, f2):
        table = table_of(f2)
        monoid = gamma_of_rayset(table, [0, 1, 2, 3])
        assert monoid.generators == ((0, 1), (1, 0), (2, 1))

    def test_empty(self, f2):
        monoid = gamma_of_rayset(table_of(f2), [])
        assert monoid.generators == ()

    def test_zero_class_names_the_first_ray(self, f2):
        table = table_of(f2)
        zero = replace(table, classes=((1, 0), (0, 0), (1, 0), (0, 0)))
        with pytest.raises(DegenerateGenerator, match=r"^ray 1 has zero class$"):
            gamma_of_rayset(zero, [3, 0, 1])


class TestContains:
    def test_numerical(self, p123):
        monoid = gamma_of_rayset(table_of(p123), [0, 1])  # generators 2, 3
        assert contains(monoid, (5,))
        assert not contains(monoid, (1,))

    def test_rank_two_infeasible(self, f2):
        monoid = gamma_of_rayset(table_of(f2), [0, 1])  # (1,0) and (2,1)
        assert not contains(monoid, (0, 1))

    def test_zero_always(self, f2):
        assert contains(gamma_of_rayset(table_of(f2), []), (0, 0))
        assert contains(gamma_of_rayset(table_of(f2), [0]), (0, 0))


class TestIrreducibles:
    def test_numerical_2_3(self, p123):
        monoid = gamma_of_rayset(table_of(p123), [0, 1])
        assert irreducibles(monoid) == [(2,), (3,)]

    def test_reducible_generator_drops(self, f2):
        monoid = gamma_of_rayset(table_of(f2), [0, 1, 3])
        assert irreducibles(monoid) == [(0, 1), (1, 0)]

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_three_irreducibles_on_negative_surface(self, d):
        fan = negative_surface(d)
        table = table_of(fan)
        monoid = gamma_of_rayset(table, [0, 1, 3])  # complement of cone(tau1)
        assert irreducibles(monoid) == [(0, 1), (1, 1), (d, 0)]


def complement_monoids(fan):
    """The monoid of the rays outside each cone of a radiant fan."""
    table = table_of(fan)
    return [
        gamma_of_rayset(table, [r for r in range(fan.num_rays) if r not in cone])
        for cone in fan.all_cones.values()
    ]


class TestIrreduciblesAgainstPairwise:
    """One membership query per generator gives the same list, in the same
    order, as the pairwise definition it replaced."""

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_radiant_fixtures(self, spec):
        for monoid in complement_monoids(family(spec)):
            assert irreducibles(monoid) == pairwise_irreducibles(monoid)

    def test_random_surfaces(self):
        radiant = [fan for fan in random_surfaces() if find_bilateral(fan) is not None]
        assert len(radiant) >= 5
        for fan in radiant:
            for monoid in complement_monoids(fan):
                assert irreducibles(monoid) == pairwise_irreducibles(monoid)


def membership_queries(fan):
    """The (vector, generators) queries that `irreducibles` makes on every
    complement monoid of a radiant fan, then those that `build_catalog` makes
    for the rays of each maximal cone."""
    queries = []
    for monoid in complement_monoids(fan):
        gens = monoid.generators
        queries += [(g, [h for h in gens if h != g]) for g in gens]
    table = table_of(fan)
    for sigma in fan.max_cones:
        gens = tuple(sorted({table.class_of(r) for r in range(fan.num_rays) if r not in sigma}))
        queries += [(table.class_of(r), gens) for r in sigma]
    return queries


MEMBERSHIP_FANS = {spec: lambda spec=spec: [family(spec)] for spec in RADIANT_FIXTURES.values()}
MEMBERSHIP_FANS["P1^3"] = lambda: [p1_power(3)]
MEMBERSHIP_FANS["P2xP1"] = lambda: [product_of(family("pn:2"), family("pn:1"))]
MEMBERSHIP_FANS["random_surfaces"] = lambda: [
    fan for fan in random_surfaces() if find_bilateral(fan) is not None
]


class TestInSpanAgainstReference:
    """On real class tables, `in_span` (its shortcuts, then the search)
    answers every membership query of the analysis as the exhaustive search
    does."""

    @pytest.mark.parametrize("name", sorted(MEMBERSHIP_FANS))
    def test_analysis_queries(self, name):
        for fan in MEMBERSHIP_FANS[name]():
            for vector, gens in membership_queries(fan):
                expected = reference_solve_nonneg(vector, gens) is not None
                assert in_span(vector, gens) == expected, (vector, gens)


class TestInSpan:
    def test_trivial_cases(self):
        assert in_span((0, 0), [])
        assert in_span((2, 1), [(1, 0), (2, 1)])
        assert not in_span((0, 1), [(1, 0), (1, 1), (2, 3)])
        assert not in_span((2, 1), [])

    def test_search(self):
        assert in_span((3, 2), [(1, 0), (1, 1)])
        assert not in_span((3, 1), [(2, 0), (0, 1)])

    def test_units_alone_need_no_search(self, monkeypatch):
        def no_search(target, gens):
            raise AssertionError(f"searched for {target}")

        monkeypatch.setattr("unifan.monoid.solve_nonneg", no_search)
        assert in_span((10**6, 1), [(0, 1), (1, 0), (2, 3)])
        assert in_span((0, 7, 0), [(0, 1, 0), (1, 1, 1)])

    def test_matches_enumeration(self):
        rng = random.Random(5)
        units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for _ in range(300):
            gens = {tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(rng.randint(0, 3))}
            gens = sorted((gens | set(rng.sample(units, rng.randint(0, 2)))) - {(0, 0, 0)})
            target = tuple(rng.randint(0, 6) for _ in range(3))
            assert in_span(target, gens) == bool(all_representations(target, gens))


class TestIsFree:
    def test_numerical_2_3_not_free(self, p123):
        assert not is_free(gamma_of_rayset(table_of(p123), [0, 1]))

    def test_unit_span_free(self, f2):
        assert is_free(gamma_of_rayset(table_of(f2), [0, 1, 3]))

    def test_three_in_rank_two_not_free(self):
        fan = negative_surface(2)
        assert not is_free(gamma_of_rayset(table_of(fan), [0, 1, 3]))

    def test_empty_free(self, f2):
        assert is_free(gamma_of_rayset(table_of(f2), []))


def forbidden_irreducibles(monoid):
    raise AssertionError(f"irreducibles of {monoid.generators} computed")


def reference_is_free(monoid) -> bool:
    """True iff the irreducible elements are Q-linearly independent."""
    return q_independent(irreducibles(monoid))


def previous_is_free(monoid) -> bool:
    """The body of `is_free` before the rank-one certificate, verbatim."""
    gens = monoid.generators
    if gens and sum(1 for g in gens if sum(g) == 1) == len(gens[0]):
        return True
    return q_independent(irreducibles(monoid))


class TestIsFreeAgainstReference:
    """The certificates against the irreducibles they skip."""

    @pytest.mark.parametrize("name", sorted(CERTIFICATE_CORPORA))
    def test_complement_monoids(self, name):
        radiant = [fan for fan in CERTIFICATE_CORPORA[name]() if find_bilateral(fan) is not None]
        assert radiant
        for fan in radiant:
            for monoid in complement_monoids(fan):
                assert is_free(monoid) == reference_is_free(monoid), monoid.generators

    def test_rank_one_certificate(self):
        """On every class-table corpus, each rank-one monoid is decided by
        divisibility, without irreducibles, as the previous body decides it;
        both answers occur."""
        outcomes = {True: 0, False: 0}
        for name in sorted(CERTIFICATE_CORPORA):
            for fan in CERTIFICATE_CORPORA[name]():
                if find_bilateral(fan) is None or fan.num_rays != fan.dim + 1:
                    continue
                for monoid in complement_monoids(fan):
                    if monoid.generators:
                        expected = previous_is_free(monoid)
                        with pytest.MonkeyPatch.context() as patch:
                            patch.setattr("unifan.monoid.irreducibles", forbidden_irreducibles)
                            assert is_free(monoid) == expected, monoid.generators
                        outcomes[expected] += 1
        assert min(outcomes.values()) >= 5, outcomes

    def test_rank_one_by_hand(self, monkeypatch):
        monkeypatch.setattr("unifan.monoid.irreducibles", forbidden_irreducibles)
        for gens, free in [
            ([(1,)], True),
            ([(2,), (3,)], False),
            ([(2,), (4,), (8,)], True),
            ([(3,), (6,), (9,), (10,)], False),
            ([(4,), (6,)], False),
        ]:
            assert is_free(ClassMonoid(tuple(gens))) is free, gens

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_empty_cone_needs_no_irreducibles(self, monkeypatch, spec):
        """The empty cone's monoid holds every class, the units among them,
        so neither `is_free` nor the witness search computes its irreducibles."""
        fan = family(spec)
        table = table_of(fan)
        everything = gamma_of_rayset(table, range(fan.num_rays))
        queried = []

        def recording(monoid):
            queried.append(monoid)
            return irreducibles(monoid)

        monkeypatch.setattr("unifan.monoid.irreducibles", recording)
        assert is_free(everything)
        non_free_witness(fan, table)
        assert everything not in queried


def p3_draw(steps):
    return validate_fan(3, *radiant_p3_draw(steps), require_complete=True)


def distinct_complement_monoids(fans):
    """The nonempty complement monoids of every face of the radiant fans,
    each once, with the least dimension of a fan it comes from."""
    dims = {}
    for fan in fans:
        if find_bilateral(fan) is not None:
            for monoid in complement_monoids(fan):
                if monoid.generators:
                    dims[monoid] = min(dims.get(monoid, fan.dim), fan.dim)
    return dims


def assert_unit_elimination(dims, monkeypatch) -> Counter:
    """On each monoid, `irreducibles` and `is_free` answer as the references
    do. `irreducibles` queries each non-unit generator once, against all the
    other generators, and no unit generator; `is_free` passes `q_independent`
    at most dim rows. Counts the monoids with no unit and with only units."""
    queries, rows = [], []
    in_span, q_independent = unifan.monoid.in_span, unifan.monoid.q_independent

    def counted_in_span(vector, gens):
        queries.append((vector, list(gens)))
        return in_span(vector, gens)

    def counted_q_independent(vectors):
        rows.append(len(vectors))
        return q_independent(vectors)

    monkeypatch.setattr(unifan.monoid, "in_span", counted_in_span)
    monkeypatch.setattr(unifan.monoid, "q_independent", counted_q_independent)
    kinds = Counter()
    for monoid, dim in dims.items():
        gens = monoid.generators
        queries.clear()
        assert irreducibles(monoid) == reference_irreducibles(monoid), gens
        assert queries == [(g, [h for h in gens if h != g]) for g in gens if sum(g) > 1], gens
        rows.clear()
        assert is_free(monoid) == full_rank_is_free(monoid), gens
        assert all(n <= dim for n in rows), (gens, rows)
        units = sum(1 for g in gens if sum(g) == 1)
        kinds["no unit"] += units == 0
        kinds["only units"] += units == len(gens)
    return kinds


UNIT_ELIMINATION_CORPORA = {
    **CERTIFICATE_CORPORA,
    "demazure_products": lambda: [build() for build in PRODUCTS.values()],
    "radiant_p3_draws": lambda: [p3_draw(steps) for steps in range(15)],
}

# The corpora with class rank one members or other monoids of non-unit
# classes only; every corpus has monoids of unit classes only.
HAS_NO_UNIT_MONOIDS = {"box2-rays5", "family_specs", "fixtures", "smith_path"}


class TestUnitEliminationAgainstReference:
    """`irreducibles` without a query for unit generators, and `is_free` with
    the unit rows and columns eliminated, against the code they replaced."""

    @pytest.mark.parametrize("name", sorted(UNIT_ELIMINATION_CORPORA))
    def test_complement_monoids(self, monkeypatch, name):
        dims = distinct_complement_monoids(UNIT_ELIMINATION_CORPORA[name]())
        kinds = assert_unit_elimination(dims, monkeypatch)
        assert kinds["only units"] > 0
        assert (kinds["no unit"] > 0) == (name in HAS_NO_UNIT_MONOIDS), kinds

    def test_seeded_monoids(self, monkeypatch):
        """Generator sets no fan gives: some but not all units, with or
        without non-units. The rank test gets at most the non-units."""
        rng = random.Random(31)
        dims = {}
        for _ in range(400):
            k = rng.randint(2, 4)
            units = [tuple(int(i == j) for j in range(k)) for i in rng.sample(range(k), rng.randint(0, k - 1))]
            others = [tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(rng.randint(0, 4))]
            gens = tuple(sorted({g for g in units + others if sum(g) > 0}))
            if gens:
                dims[ClassMonoid(gens)] = sum(1 for g in gens if sum(g) > 1)
        kinds = assert_unit_elimination(dims, monkeypatch)
        assert min(kinds.values()) >= 20, kinds

    @pytest.mark.slow
    def test_radiant_p3_draws_to_thirty_steps(self, monkeypatch):
        fans = [p3_draw(steps) for steps in range(15, 31)]
        assert_unit_elimination(distinct_complement_monoids(fans), monkeypatch)

    def test_two_hundred_four_ray_draw(self, monkeypatch, capsys, tmp_path):
        """The references agree on the monoids of the closed cones that the
        witness search tests (on the draw's other faces the full-rank test
        takes seconds per monoid), and the default report's verdict and
        witness are those the references find."""
        rays, cones = radiant_p3_draw(200)
        fan = validate_fan(3, rays, cones, require_complete=True)
        classes = table_of(fan)
        tested = {}

        def recording(monoid):
            tested[monoid] = fan.dim
            return is_free(monoid)

        with monkeypatch.context() as patch:
            patch.setattr(unifan.orbits, "is_free", recording)
            witness = non_free_witness(fan, classes)
        assert witness is not None and len(tested) >= 1
        with monkeypatch.context() as patch:
            assert_unit_elimination(tested, patch)
        with monkeypatch.context() as patch:
            patch.setattr(unifan.orbits, "is_free", full_rank_is_free)
            patch.setattr(unifan.orbits, "irreducibles", reference_irreducibles)
            assert non_free_witness(fan, classes) == witness
        path = tmp_path / "draw200.json"
        path.write_text(json.dumps({"dim": 3, "rays": rays, "max_cones": cones}))
        assert main(["analyze", str(path), "--format", "json"]) == 0
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict["finite"] is False
        assert verdict["witness_cone"] == list(witness[0].ray_indices)
        assert verdict["witness_irreducibles"] == [list(g) for g in witness[1]]


def all_representations(target, gens):
    bounds = [
        min(target[j] // g[j] for j in range(len(target)) if g[j] > 0) for g in gens
    ]
    out = []
    for coeffs in product(*(range(b + 1) for b in bounds)):
        if all(
            sum(c * g[j] for c, g in zip(coeffs, gens)) == target[j]
            for j in range(len(target))
        ):
            out.append(coeffs)
    return out


class TestMonoidProperties:
    @pytest.mark.parametrize("spec", ["hirzebruch:2", "p1xp1", "wps:1,1,2", "wps:1,1,2,4"])
    def test_unique_factorization_when_free(self, spec):
        fan = family(spec)
        table = table_of(fan)
        monoid = gamma_of_rayset(table, range(fan.num_rays))
        assert is_free(monoid)
        irr = irreducibles(monoid)
        for gen in monoid.generators:
            assert len(all_representations(gen, irr)) == 1

    def test_removing_reducible_generator_keeps_membership(self, f2):
        rng = random.Random(11)
        table = table_of(f2)
        full = gamma_of_rayset(table, [0, 1, 2, 3])
        irr = irreducibles(full)
        reduced = gamma_of_rayset(table, [r for r in range(4) if table.class_of(r) in irr])
        for _ in range(100):
            target = (rng.randint(0, 8), rng.randint(0, 8))
            assert contains(full, target) == contains(reduced, target)

    def test_irreducibles_subset_of_generators(self, p123):
        for rays in ([0, 1], [0, 2], [1, 2], [0, 1, 2]):
            monoid = gamma_of_rayset(table_of(p123), rays)
            assert set(irreducibles(monoid)) <= set(monoid.generators)

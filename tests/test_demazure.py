import sys
from dataclasses import dataclass, fields, replace
from functools import reduce
from itertools import count, product
from operator import or_

import pytest

import unifan.demazure
import unifan.pipeline
from unifan.classgroup import ClassTable, radiant_classes
from unifan.cli import _root_counts
from unifan.demazure import (
    _certified_empty,
    _slice_system,
    choose_v,
    compute_precedence,
    enumerate_roots,
    mark_membership,
    semisimple_roots,
)
from unifan.linalg import (
    IntVec,
    InvariantViolation,
    LinearSystem,
    TooLarge,
    feasible,
    lattice_points,
)
from unifan.pipeline import FanAnalysis, analyze_fan
from unifan.radiance import find_bilateral

from conftest import (
    CERTIFICATE_CORPORA,
    FAMILY_SPECS,
    NON_RADIANT_CORPORA,
    RADIANT_FIXTURES,
    del_pezzo6,
    family,
    p1_power,
    precedes,
    product_of,
    random_surfaces,
)
from test_projection_chain import ROOTS_WORKLOAD


def brute_force_roots(fan, box=8):
    """Independent re-derivation: scan an integer box for the defining
    pairing pattern of a root at each ray."""
    found = []
    for rho in range(fan.num_rays):
        for e in product(range(-box, box + 1), repeat=fan.dim):
            pairings = [
                sum(a * b for a, b in zip(e, fan.rays[r]))
                for r in range(fan.num_rays)
            ]
            if pairings[rho] == -1 and all(
                p >= 0 for r, p in enumerate(pairings) if r != rho
            ):
                found.append((rho, e))
    return sorted(found)


def pairing(e, vec):
    return sum(a * b for a, b in zip(e, vec))


def semisimple_of(fan, bilateral):
    return semisimple_roots(fan, bilateral, radiant_classes(fan, bilateral))


def analyzed_roots(fan):
    bilateral = find_bilateral(fan)
    roots = enumerate_roots(fan)
    v = choose_v(fan, bilateral, semisimple_of(fan, bilateral))
    return mark_membership(roots, v), v, bilateral


class TestEnumerateRoots:
    def test_projective_plane(self, p2):
        roots = enumerate_roots(p2)
        assert len(roots) == 6
        assert all(r.semisimple for r in roots)
        assert brute_force_roots(p2) == sorted(
            (r.distinguished_ray, r.e) for r in roots
        )

    def test_hirzebruch_2(self, f2):
        roots = enumerate_roots(f2)
        assert len(roots) == 5
        by_kind = {}
        for r in roots:
            by_kind.setdefault(r.kind, []).append((r.e, r.distinguished_ray))
        assert sorted(by_kind["semisimple"]) == [((-1, 0), 0), ((1, 0), 2)]
        assert sorted(by_kind["unipotent"]) == [
            ((0, -1), 1),
            ((1, -1), 1),
            ((2, -1), 1),
        ]
        assert brute_force_roots(f2) == sorted(
            (r.distinguished_ray, r.e) for r in roots
        )

    def test_p1xp1(self, p1xp1):
        roots = enumerate_roots(p1xp1)
        assert len(roots) == 4
        assert all(r.semisimple for r in roots)
        assert {r.e for r in roots} == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_sorted_by_ray_then_e(self, f2):
        roots = enumerate_roots(f2)
        keys = [(r.distinguished_ray, r.e) for r in roots]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_semisimple_iff_negated_root(self, spec):
        fan = family(spec)
        roots = enumerate_roots(fan)
        all_e = {r.e for r in roots}
        for r in roots:
            assert r.semisimple == (tuple(-x for x in r.e) in all_e)


@dataclass(frozen=True)
class ReferenceRoot:
    """The frozen root record that `mark_membership` rebuilt with `replace`."""

    e: IntVec
    distinguished_ray: int
    semisimple: bool
    in_u: bool | None = None


def reference_enumerate_roots(fan):
    """Roots collected per ray, then sorted by (ray, e)."""
    n = fan.dim
    found = []
    for rho in range(fan.num_rays):
        system = LinearSystem.make(
            n,
            equalities=[(fan.rays[rho], -1)],
            inequalities=[
                (fan.rays[other], 0)
                for other in range(fan.num_rays)
                if other != rho
            ],
        )
        for e in lattice_points(system):
            found.append((rho, e))
    all_e = {e for _, e in found}
    return [
        ReferenceRoot(e=e, distinguished_ray=rho, semisimple=tuple(-x for x in e) in all_e)
        for rho, e in sorted(found)
    ]


def reference_mark_membership(roots, v):
    out = []
    for r in roots:
        in_u = True if not r.semisimple else pairing(r.e, v) > 0
        out.append(replace(r, in_u=in_u))
    return out


def root_fields(roots):
    return [(r.e, r.distinguished_ray, r.semisimple, r.in_u) for r in roots]


def assert_counts_from_slices(fan) -> None:
    """The report's four root counts, read off the slices, equal the counts
    over the analysis's root records, as the report once took them."""
    analysis = analyze_fan(fan)
    roots = analysis.roots
    assert _root_counts(analysis) == {
        "total": len(roots),
        "semisimple": sum(1 for r in roots if r.semisimple),
        "unipotent": sum(1 for r in roots if not r.semisimple),
        "in_unipotent_group": sum(1 for r in roots if r.in_u)
        if analysis.bilateral is not None
        else None,
    }


PRODUCTS = {
    "P1^3": lambda: p1_power(3),
    "P2xP1": lambda: product_of(family("pn:2"), family("pn:1")),
    "(P1)^6": lambda: p1_power(6),
    "dP6xP1": lambda: product_of(del_pezzo6(), family("pn:1")),
}


class TestRootRecordsAgainstReference:
    """Records built once in enumeration order and flagged in place equal
    the sorted frozen records the reference rebuilds, from the projection
    chain on every fan and from the class table on a radiant one; the
    report's counts read off the slices equal the counts over the records."""

    @staticmethod
    def assert_same(fan) -> bool:
        expected = reference_enumerate_roots(fan)
        assert root_fields(enumerate_roots(fan)) == root_fields(expected)
        assert_counts_from_slices(fan)
        bilateral = find_bilateral(fan)
        if bilateral is None:
            return False
        classes = radiant_classes(fan, bilateral)
        v = choose_v(fan, bilateral, semisimple_roots(fan, bilateral, classes))
        expected = root_fields(reference_mark_membership(expected, v))
        for roots in (enumerate_roots(fan), enumerate_roots(fan, bilateral, classes)):
            assert mark_membership(roots, v) is roots
            assert root_fields(roots) == expected
        return True

    def test_family_specs(self):
        assert sum(self.assert_same(family(spec)) for spec in FAMILY_SPECS) > 0

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_radiant_fixtures(self, spec):
        assert self.assert_same(family(spec))

    def test_random_surfaces(self):
        assert sum(self.assert_same(fan) for fan in random_surfaces()) >= 5

    @pytest.mark.parametrize("name", sorted(PRODUCTS))
    def test_products(self, name):
        assert self.assert_same(PRODUCTS[name]()) == (name != "dP6xP1")

    @pytest.mark.parametrize("spec", ROOTS_WORKLOAD)
    def test_roots_workload(self, spec):
        assert self.assert_same(family(spec))


class TestCertifiedEmptySlices:
    """The Farkas certificate of empty slices against the projection chain
    it short-cuts: on every non-radiant corpus the roots equal the
    reference's, the report's counts read off the slices equal the counts
    over the records, and every certified slice is rationally infeasible."""

    # corpus -> (fans, slices certified empty, empty slices not certified)
    COUNTS = {
        "dP6": (1, 6, 0),
        "dP6xP1": (1, 6, 0),
        "dP6xdP6": (1, 12, 0),
        "torsion_surface": (1, 0, 2),
        "box2-rays5": (2379, 7968, 3024),
        "draws": (18, 159, 11),
    }

    @pytest.mark.parametrize("name", sorted(NON_RADIANT_CORPORA))
    def test_against_reference(self, name):
        fans = NON_RADIANT_CORPORA[name]()
        certified = missed = 0
        for fan in fans:
            expected = reference_enumerate_roots(fan)
            assert root_fields(enumerate_roots(fan)) == root_fields(expected)
            assert_counts_from_slices(fan)
            holding = {r.distinguished_ray for r in expected}
            empty = _certified_empty(fan)
            for rho in range(fan.num_rays):
                if empty >> rho & 1:
                    assert not feasible(_slice_system(fan, rho)), (fan.rays, rho)
                    certified += 1
                else:
                    missed += rho not in holding
        assert (len(fans), certified, missed) == self.COUNTS[name]


def reference_choose_v(fan, bilateral, roots):
    """The record-based choice: `v` avoids the hyperplane of every root
    record flagged semisimple."""
    n = fan.dim
    basis_vectors = [fan.rays[i] for i in bilateral.positive]
    semisimple = [r for r in roots if r.semisimple]
    for c in count(2):
        coords = tuple(-(c**i) for i in range(n))
        v = tuple(
            sum(coords[i] * basis_vectors[i][t] for i in range(n)) for t in range(n)
        )
        if all(pairing(r.e, v) != 0 for r in semisimple):
            return v


class TestSemisimpleRootsAgainstEnumeration:
    """The equal-class ray pairs give exactly the roots that enumeration
    flags semisimple, and the same `v` as the record-based choice."""

    @staticmethod
    def assert_same(fan) -> bool:
        bilateral = find_bilateral(fan)
        if bilateral is None:
            return False
        semisimple = semisimple_of(fan, bilateral)
        roots = enumerate_roots(fan)
        assert sorted(semisimple) == sorted(r.e for r in roots if r.semisimple)
        expected = reference_choose_v(fan, bilateral, roots)
        assert choose_v(fan, bilateral, semisimple) == expected
        return True

    def test_family_specs(self):
        assert all(self.assert_same(family(spec)) for spec in FAMILY_SPECS)

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_radiant_fixtures(self, spec):
        assert self.assert_same(family(spec))

    def test_random_surfaces(self):
        assert sum(self.assert_same(fan) for fan in random_surfaces()) >= 5

    @pytest.mark.parametrize("name", sorted(PRODUCTS))
    def test_products(self, name):
        assert self.assert_same(PRODUCTS[name]()) == (name != "dP6xP1")


def corrupted(classes: ClassTable, a: int, b: int) -> ClassTable:
    """The class table with ray b given the class of ray a."""
    vectors = list(classes.classes)
    vectors[b] = vectors[a]
    return replace(classes, classes=tuple(vectors))


def zeroed(classes: ClassTable, ray: int) -> ClassTable:
    """The class table with ray's class replaced by the zero vector."""
    vectors = list(classes.classes)
    vectors[ray] = (0,) * classes.k
    return replace(classes, classes=tuple(vectors))


class TestClassTableRobustness:
    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_zero_positive_class_raises(self, spec):
        """A zero positive class would make the slices unbounded."""
        fan = family(spec)
        bilateral = find_bilateral(fan)
        classes = radiant_classes(fan, bilateral)
        for ray in bilateral.positive:
            with pytest.raises(InvariantViolation, match=f"class of ray {ray} is zero"):
                enumerate_roots(fan, bilateral, zeroed(classes, ray))

    @pytest.mark.parametrize(
        "spec",
        [f"wps:1,1,{sys.maxsize}", "wps:1,1,99999999999999999999999", "hirzebruch:99999999999999999999999"],
    )
    def test_unlistable_slice_raises_too_large(self, spec):
        """Ray 1's slice holds at least sys.maxsize + 1 roots (exactly that
        many on the first fan), more than a list can hold. The verdict reads
        no root, so only the root reads raise."""
        analysis = analyze_fan(family(spec))
        assert analysis.verdict.finite
        for name in ("root_slices", "v", "roots"):
            with pytest.raises(TooLarge, match="roots at ray 1 do not fit in a list"):
                getattr(analysis, name)


class TestSemisimpleRootsRobustness:
    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_merged_classes_raise(self, spec):
        fan = family(spec)
        bilateral = find_bilateral(fan)
        classes = radiant_classes(fan, bilateral)
        merged = 0
        for a in range(fan.num_rays):
            for b in range(fan.num_rays):
                if classes.class_of(a) != classes.class_of(b):
                    with pytest.raises(InvariantViolation, match="share a class"):
                        semisimple_roots(fan, bilateral, corrupted(classes, a, b))
                    merged += 1
        assert merged > 0 or spec == "pn:2"


def reference_semisimple_roots(fan, bilateral, classes) -> list[IntVec]:
    """Semisimple roots of a radiant fan, one per ordered pair of distinct
    rays (a, b) of equal class, in (a, b) order.

    The class table of a radiant fan is exact (the positive rays are a
    lattice basis, so Cl is free), so equal classes make D_b - D_a principal:
    it is div of the character e with <e, a> = -1, <e, b> = 1 and 0 on every
    other ray, read off the dual basis. The pairings are checked against the
    rays, so a class table that merges two classes raises.
    """
    position = {ray: i for i, ray in enumerate(bilateral.positive)}
    zero = (0,) * fan.dim
    by_class: dict[IntVec, list[int]] = {}
    for ray in range(fan.num_rays):
        by_class.setdefault(classes.class_of(ray), []).append(ray)
    found = []
    for a in range(fan.num_rays):
        for b in by_class[classes.class_of(a)]:
            if b == a:
                continue
            minus = bilateral.dual_basis[position[a]] if a in position else zero
            plus = bilateral.dual_basis[position[b]] if b in position else zero
            e = tuple(y - x for x, y in zip(minus, plus))
            for ray, vector in enumerate(fan.rays):
                if _dot(e, vector) != (-1 if ray == a else 1 if ray == b else 0):
                    raise InvariantViolation(
                        f"rays {a} and {b} share a class but no character "
                        f"has divisor D_{b} - D_{a}"
                    )
            found.append(e)
    return found


def reference_compute_precedence(bilateral, classes) -> frozenset[tuple[int, int]]:
    """The strict precedence order on rays, as the pairs (a, b) with a
    preceding b: equal classes, a negative and b positive, or both positive
    with a earlier in the basis order."""
    position = {ray: pos for pos, ray in enumerate(bilateral.positive)}
    negatives = set(bilateral.negative)
    by_class: dict[IntVec, list[int]] = {}
    for ray in list(bilateral.positive) + list(bilateral.negative):
        by_class.setdefault(classes.class_of(ray), []).append(ray)
    pairs = set()
    for carriers in by_class.values():
        negs = [r for r in carriers if r in negatives]
        pos = sorted((r for r in carriers if r not in negatives), key=position.get)
        for tau in negs:
            for eps in pos:
                pairs.add((tau, eps))
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                pairs.add((pos[i], pos[j]))
    return frozenset(pairs)


_dot = pairing  # the name `reference_semisimple_roots` uses, as in `demazure`


# Every corpus the class-table readers are checked on: the certificate
# corpora (family specs, fixtures, random surfaces, small products, the
# Smith-form surfaces, the box surfaces) and the products above.
CLASS_TABLE_CORPORA = {
    **CERTIFICATE_CORPORA,
    "PRODUCTS": lambda: [build() for build in PRODUCTS.values()],
}


def radiant_tables(name):
    """(fan, bilateral structure, class table) of each radiant fan of a corpus."""
    for fan in CLASS_TABLE_CORPORA[name]():
        bilateral = find_bilateral(fan)
        if bilateral is not None:
            yield fan, bilateral, radiant_classes(fan, bilateral)


class TestCarriersAgainstReference:
    """The readers of `ClassTable.carriers` equal the per-function class
    groupings they replace, the semisimple roots in list order too."""

    @pytest.mark.parametrize("name", sorted(CLASS_TABLE_CORPORA))
    def test_corpus(self, name):
        radiant = 0
        for fan, bilateral, classes in radiant_tables(name):
            assert semisimple_roots(fan, bilateral, classes) == reference_semisimple_roots(
                fan, bilateral, classes
            ), fan.rays
            assert compute_precedence(bilateral, classes) == reference_compute_precedence(
                bilateral, classes
            ), fan.rays
            radiant += 1
        assert radiant > 0 or name == "smith_path"


class TestClassTableCarriers:
    @pytest.mark.parametrize("name", sorted(CLASS_TABLE_CORPORA))
    def test_partition_by_class(self, name):
        """The distinct masks partition the rays, two rays share a mask iff
        they share a class, and a `replace` copy with a merged class gets its
        own index, so the merge reaches `semisimple_roots`."""
        for fan, bilateral, classes in radiant_tables(name):
            carriers = classes.carriers
            assert carriers is classes.carriers
            distinct = set(carriers)
            assert sum(m.bit_count() for m in distinct) == fan.num_rays
            assert reduce(or_, distinct) == (1 << fan.num_rays) - 1
            for a in range(fan.num_rays):
                assert carriers[a] >> a & 1
                for b in range(fan.num_rays):
                    same = classes.class_of(a) == classes.class_of(b)
                    assert (carriers[a] == carriers[b]) == same
            apart = [
                (a, b)
                for a in range(fan.num_rays)
                for b in range(fan.num_rays)
                if classes.class_of(a) != classes.class_of(b)
            ]
            if apart:
                a, b = apart[0]
                merged = corrupted(classes, a, b)
                assert merged.carriers[b] == carriers[a] | 1 << b
                with pytest.raises(InvariantViolation, match="share a class"):
                    semisimple_roots(fan, bilateral, merged)
                assert classes.carriers is carriers


def forbidden(name):
    def call(*args, **kwargs):
        raise RuntimeError(f"{name} was called")

    return call


class TestRootsOnDemand:
    """`analyze_fan` enumerates no root; `analysis.root_slices` is found,
    and `analysis.roots` built from it and flagged, on first read, equal to
    the eager records of the reference."""

    @pytest.mark.parametrize(
        "fan", [family("hirzebruch:2"), del_pezzo6()], ids=["F2", "dP6"]
    )
    def test_first_read_builds_the_records(self, fan, monkeypatch):
        with monkeypatch.context() as patch:
            for name in ("root_slices", "root_records", "mark_membership"):
                for module in (unifan.demazure, unifan.pipeline):
                    patch.setattr(module, name, forbidden(name))
            analysis = analyze_fan(fan)
        expected = reference_enumerate_roots(fan)
        if analysis.bilateral is not None:
            v = reference_choose_v(fan, analysis.bilateral, expected)
            assert analysis.v == v
            expected = reference_mark_membership(expected, v)
        else:
            assert all(r.in_u is None for r in analysis.roots)
        assert root_fields(analysis.roots) == root_fields(expected)
        assert analysis.roots is analysis.roots

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_verdict_computes_no_v(self, spec, monkeypatch):
        """The verdict and the catalog need no semisimple root and no `v`:
        with both names failing, `analyze_fan` gives the unpatched verdict
        and catalog, and `v` is found on first read, equal to the record-based
        choice."""
        expected = analyze_fan(family(spec))
        fan = family(spec)
        with monkeypatch.context() as patch:
            for name in ("semisimple_roots", "choose_v"):
                for module in (unifan.demazure, unifan.pipeline):
                    # pipeline imports no `semisimple_roots`; set it anyway
                    patch.setattr(module, name, forbidden(name), raising=False)
            analysis = analyze_fan(fan)
        assert analysis.verdict == expected.verdict
        assert analysis.catalog == expected.catalog
        assert "v" not in vars(analysis)
        roots = reference_enumerate_roots(fan)
        assert analysis.v == reference_choose_v(fan, analysis.bilateral, roots)

    @pytest.mark.parametrize(
        "fan, sliced",
        [
            (family("hirzebruch:2"), []),
            (family("wps:1,1,30,900"), []),
            (p1_power(3), []),
            (del_pezzo6(), []),
            (product_of(del_pezzo6(), family("pn:1")), [(0, 0, 1), (0, 0, -1)]),
        ],
        ids=["F2", "wps-1-1-30-900", "P1^3", "dP6", "dP6xP1"],
    )
    def test_radiant_fans_solve_no_linear_system(self, fan, sliced, monkeypatch):
        """On a radiant fan the records come from the class table and no
        `lattice_points` slice is taken. dP6 and dP6 x P1 are not radiant:
        every slice of dP6 is certified empty, and dP6 x P1 takes exactly
        the slices of its rays +-e_3, which hold roots."""
        calls = []
        real = unifan.demazure.lattice_points

        def counted(system):
            calls.append(system.equalities[0][0])
            return real(system)

        analysis = analyze_fan(fan)
        with monkeypatch.context() as patch:
            patch.setattr(unifan.demazure, "lattice_points", counted)
            roots = analysis.roots
        assert calls == sliced
        expected = reference_enumerate_roots(fan)
        if analysis.bilateral is not None:
            expected = reference_mark_membership(expected, analysis.v)
        assert root_fields(roots) == root_fields(expected)


class TestChooseV:
    def test_hirzebruch_two_fan(self, f2):
        _, v, bilateral = analyzed_roots(f2)
        assert v == (-1, -2)
        assert bilateral.coordinates(v) == (-1, -2)

    def test_projective_plane(self, p2):
        _, v, _ = analyzed_roots(p2)
        assert v == (-1, -2)

    def test_p1xp1(self, p1xp1):
        _, v, _ = analyzed_roots(p1xp1)
        assert v == (-1, -2)

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_choice_invariants(self, spec):
        fan = family(spec)
        roots, v, bilateral = analyzed_roots(fan)
        duals = bilateral.dual_basis
        chain = [pairing(d, v) for d in duals]
        assert chain[0] < 0
        assert all(a > b for a, b in zip(chain, chain[1:]))
        for r in roots:
            if r.semisimple:
                assert pairing(r.e, v) != 0
                assert r.in_u == (pairing(r.e, v) > 0)
            else:
                assert r.in_u


class TestAnalysisValues:
    def test_fan_analysis_has_exactly_seven_fields(self):
        """`v` is found on first read, not a field."""
        assert [f.name for f in fields(FanAnalysis)] == [
            "fan",
            "class_info",
            "bilateral",
            "classes",
            "precedence",
            "verdict",
            "catalog",
        ]

    def test_v_and_precedence_are_plain_values(self, f2):
        analysis = analyze_fan(f2)
        assert type(analysis.v) is tuple and analysis.v == (-1, -2)
        assert type(analysis.precedence) is frozenset
        assert analysis.precedence == frozenset({(2, 0)})

    def test_not_radiant_leaves_both_none(self):
        analysis = analyze_fan(del_pezzo6())
        assert analysis.bilateral is None
        assert analysis.v is None and analysis.precedence is None


class TestPrecedence:
    def test_hirzebruch_two_fan(self, f2):
        bilateral = find_bilateral(f2)
        prec = compute_precedence(bilateral, radiant_classes(f2, bilateral))
        assert prec == frozenset({(2, 0)})

    def test_weighted_112(self, p112):
        bilateral = find_bilateral(p112)
        prec = compute_precedence(bilateral, radiant_classes(p112, bilateral))
        assert prec == frozenset({(2, 0)})

    def test_p1xp1(self, p1xp1):
        bilateral = find_bilateral(p1xp1)
        prec = compute_precedence(bilateral, radiant_classes(p1xp1, bilateral))
        assert prec == frozenset({(2, 0), (3, 1)})

    def test_projective_plane_chain(self, p2):
        bilateral = find_bilateral(p2)
        prec = compute_precedence(bilateral, radiant_classes(p2, bilateral))
        assert prec == frozenset({(2, 0), (2, 1), (0, 1)})

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_strict_partial_order(self, spec):
        fan = family(spec)
        bilateral = find_bilateral(fan)
        classes = radiant_classes(fan, bilateral)
        prec = compute_precedence(bilateral, classes)
        for a, b in prec:
            assert a != b
            assert classes.class_of(a) == classes.class_of(b)
            assert (b, a) not in prec
        for a, b in prec:
            for c, d in prec:
                if b == c:
                    assert (a, d) in prec


class TestRootCharacterizations:
    """The precedence order matches the root-pairing patterns exactly."""

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_unique_semisimple_root_per_pair(self, spec):
        fan = family(spec)
        roots, _, bilateral = analyzed_roots(fan)
        prec = compute_precedence(bilateral, radiant_classes(fan, bilateral))
        for a in range(fan.num_rays):
            for b in range(fan.num_rays):
                if a == b:
                    continue
                matches = [
                    r
                    for r in roots
                    if r.distinguished_ray == b
                    and r.in_u
                    and pairing(r.e, fan.rays[a]) == 1
                    and all(
                        pairing(r.e, fan.rays[c]) == 0
                        for c in range(fan.num_rays)
                        if c not in (a, b)
                    )
                ]
                assert len(matches) <= 1
                assert precedes(prec, a, b) == (len(matches) == 1)
                if matches:
                    assert matches[0].semisimple

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_positive_pair_characterization(self, spec):
        fan = family(spec)
        roots, _, bilateral = analyzed_roots(fan)
        prec = compute_precedence(bilateral, radiant_classes(fan, bilateral))
        root_index = {(r.e, r.distinguished_ray): r for r in roots}
        duals = bilateral.dual_basis
        for i, eps_i in enumerate(bilateral.positive):
            for j, eps_j in enumerate(bilateral.positive):
                if i == j:
                    continue
                e = tuple(x - y for x, y in zip(duals[i], duals[j]))
                root = root_index.get((e, eps_j))
                holds = (
                    root is not None
                    and root.in_u
                    and all(
                        pairing(e, fan.rays[tau]) == 0
                        for tau in bilateral.negative
                    )
                )
                assert precedes(prec, eps_i, eps_j) == holds

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_negative_positive_characterization(self, spec):
        fan = family(spec)
        roots, _, bilateral = analyzed_roots(fan)
        prec = compute_precedence(bilateral, radiant_classes(fan, bilateral))
        root_index = {(r.e, r.distinguished_ray): r for r in roots}
        duals = bilateral.dual_basis
        for tau in bilateral.negative:
            for j, eps_j in enumerate(bilateral.positive):
                e = tuple(-x for x in duals[j])
                root = root_index.get((e, eps_j))
                holds = (
                    root is not None
                    and root.in_u
                    and pairing(e, fan.rays[tau]) == 1
                    and all(
                        pairing(e, fan.rays[other]) == 0
                        for other in bilateral.negative
                        if other != tau
                    )
                )
                assert precedes(prec, tau, eps_j) == holds


def monomial_count(target: int, weights) -> int:
    """Number of a in N^len(weights) with sum(a_i * weights_i) == target."""
    ways = [1] + [0] * target
    for w in weights:
        for t in range(w, target + 1):
            ways[t] += ways[t - w]
    return ways[target]


def wps_weights(spec: str) -> tuple[int, ...]:
    """Weight of each ray of `family(spec)`, in ray order: the unit vectors
    carry the weights after the first, the negative ray the first."""
    head, _, rest = spec.partition(":")
    weights = (1,) * (int(rest) + 1) if head == "pn" else tuple(int(w) for w in rest.split(","))
    return weights[1:] + weights[:1]


class TestRootCountsFromWeights:
    """Cox's description of roots as degree-0 monomials x^a / x_rho: on a
    weighted projective space the roots at ray rho are counted by the
    a in N^(rays - rho) with sum a_rho' * w_rho' == w_rho."""

    @pytest.mark.parametrize(
        "specs",
        [
            [s for s in FAMILY_SPECS if s.startswith(("wps:", "pn:"))],
            ["wps:1,1,2,4,8,16,32,64"],
            ["pn:14"],
        ],
        ids=["family-specs", "wps-chain-to-64", "pn-14"],
    )
    def test_per_ray_count(self, specs):
        """On the projection chain and on the class table alike."""
        for spec in specs:
            fan = family(spec)
            bilateral = find_bilateral(fan)
            weights = wps_weights(spec)
            expected = [
                monomial_count(w, weights[:rho] + weights[rho + 1 :])
                for rho, w in enumerate(weights)
            ]
            for roots in (
                enumerate_roots(fan),
                enumerate_roots(fan, bilateral, radiant_classes(fan, bilateral)),
            ):
                per_ray = [0] * fan.num_rays
                for root in roots:
                    per_ray[root.distinguished_ray] += 1
                assert per_ray == expected, spec

    @pytest.mark.parametrize("spec, total", [("wps:1,1,2,4,8,16,32,64", 29414), ("pn:14", 210)])
    def test_total(self, spec, total):
        weights = wps_weights(spec)
        assert total == sum(
            monomial_count(w, weights[:rho] + weights[rho + 1 :]) for rho, w in enumerate(weights)
        )

from itertools import combinations

import pytest

import unifan.linalg as linalg
import unifan.radiance as radiance
from unifan.classgroup import ClassGroupInfo, class_group
from unifan.fan import validate_fan
from unifan.linalg import NotUnimodular, invert_unimodular
from unifan.radiance import BilateralStructure, find_bilateral, iter_bilateral_structures

from conftest import (
    FAMILY_SPECS,
    RADIANT_FIXTURES,
    del_pezzo6,
    family,
    negative_surface,
    p1_power,
    product_of,
    radiant_p3_draw,
    random_surfaces,
    reference_invert_unimodular,
    reference_smith_normal_form,
)


def mul_vec(rows, vector):
    return tuple(sum(a * b for a, b in zip(row, vector)) for row in rows)


def reference_bilateral_structures(fan):
    """The search over every dim-subset of the rays, in lexicographic order,
    that the search over maximal cones replaced."""
    n = fan.dim
    indices = range(fan.num_rays)
    out = []
    for combo in combinations(indices, n):
        basis = tuple(fan.rays[i] for i in combo)
        try:
            dual = invert_unimodular(tuple(zip(*basis)))
        except NotUnimodular:
            continue
        others = [i for i in indices if i not in combo]
        if all(
            all(c <= 0 for c in mul_vec(dual, fan.rays[i])) for i in others
        ):
            out.append(
                BilateralStructure(positive=combo, negative=tuple(others), dual_basis=dual)
            )
    return out


class TestFindBilateral:
    def test_hirzebruch_two_fan(self, f2):
        b = find_bilateral(f2)
        assert b.positive == (0, 1)
        assert b.negative == (2, 3)
        assert b.dual_basis == ((1, 0), (0, 1))

    def test_del_pezzo_absent(self):
        assert find_bilateral(del_pezzo6()) is None

    def test_weighted_123(self, p123):
        b = find_bilateral(p123)
        assert b.positive == (0, 1)
        assert b.negative == (2,)

    def test_negative_surface(self):
        b = find_bilateral(negative_surface(3))
        assert b.positive == (0, 1)
        assert b.negative == (2, 3)


class TestBilateralInvariants:
    def test_negative_coordinates(self):
        for spec in ("hirzebruch:3", "wps:1,1,2,4", "p1xp1"):
            fan = family(spec)
            for b in iter_bilateral_structures(fan):
                for tau in b.negative:
                    assert all(c <= 0 for c in b.coordinates(fan.rays[tau]))
                for pos, eps in enumerate(b.positive):
                    coords = b.coordinates(fan.rays[eps])
                    assert coords == tuple(
                        1 if t == pos else 0 for t in range(fan.dim)
                    )

    def test_multiple_witnesses_exist(self, f2, p1xp1, p2):
        assert len(list(iter_bilateral_structures(f2))) == 2
        assert len(list(iter_bilateral_structures(p1xp1))) == 4
        assert len(list(iter_bilateral_structures(p2))) == 3

    def test_first_witness_is_lexicographic(self, p1xp1):
        structures = list(iter_bilateral_structures(p1xp1))
        assert structures[0].positive == (0, 1)
        assert find_bilateral(p1xp1).positive == (0, 1)


class TestMaximalConeSearch:
    """Every bilateral basis spans a maximal cone, so searching the maximal
    cones yields the same structures, in the same order, as searching all
    dim-subsets of the rays."""

    def test_family_builds_and_fixtures(self):
        fans = [family(spec) for spec in FAMILY_SPECS + ["wps:1,2,3"]]
        fans += [del_pezzo6()] + [negative_surface(d) for d in (1, 2, 3, 5)]
        for fan in fans:
            assert list(iter_bilateral_structures(fan)) == reference_bilateral_structures(fan)

    def test_random_surfaces(self):
        fans = random_surfaces()
        assert len(fans) == 30
        found = 0
        for fan in fans:
            structures = list(iter_bilateral_structures(fan))
            assert structures == reference_bilateral_structures(fan)
            found += bool(structures)
        assert 0 < found < len(fans)


def reference_class_group(fan):
    """The class group read off the diagonal of the reference Smith form."""
    _, s, _ = reference_smith_normal_form(fan.ray_vectors())
    diag = [s[i][i] for i in range(min(fan.num_rays, fan.dim))]
    return ClassGroupInfo(
        free_rank=fan.num_rays - sum(1 for x in diag if x != 0),
        torsion_invariants=tuple(x for x in diag if x > 1),
    )


def cross_check_fans():
    fans = [family(spec) for spec in FAMILY_SPECS]
    fans += [family(spec) for spec in sorted(RADIANT_FIXTURES.values())]
    fans += random_surfaces()
    fans += [p1_power(3), product_of(family("pn:2"), family("pn:1")), p1_power(6)]
    fans.append(validate_fan(3, *radiant_p3_draw(14), require_complete=True))
    return fans


class TestAgainstReferenceInverse:
    """The bilateral search and the class group are unchanged when the
    inverse and the invariant factors come from the reference Smith form."""

    def test_find_bilateral_and_class_group(self, monkeypatch):
        fans = cross_check_fans()
        found = [find_bilateral(fan) for fan in fans]
        groups = [class_group(fan) for fan in fans]
        monkeypatch.setattr(radiance, "invert_unimodular", reference_invert_unimodular)
        assert found == [find_bilateral(fan) for fan in fans]
        assert groups == [reference_class_group(fan) for fan in fans]
        assert None in found and any(found)

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_success_path_needs_no_smith_form(self, monkeypatch, spec):
        def forbidden(a):
            raise AssertionError("smith_normal_form was called")

        fan = family(spec)
        monkeypatch.setattr(linalg, "smith_normal_form", forbidden)
        assert find_bilateral(fan) is not None

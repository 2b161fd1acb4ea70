import pytest

import unifan.classgroup as classgroup_module
from unifan.classgroup import ClassGroupInfo, class_group, radiant_classes
from unifan.linalg import InvariantViolation, smith_normal_form
from unifan.radiance import BilateralStructure, find_bilateral

from conftest import (
    CERTIFICATE_CORPORA,
    RADIANT_FIXTURES,
    family,
    p112_first_cone_det2,
    torsion_surface,
)


def reference_class_group(fan) -> ClassGroupInfo:
    """Cokernel of the character-to-divisor pairing map.

    The invariant factors of the (num_rays x dim) matrix of primitive ray
    vectors give the free rank and torsion invariants of the class group.
    """
    factors = smith_normal_form(fan.rays)
    return ClassGroupInfo(
        free_rank=fan.num_rays - sum(1 for x in factors if x != 0),
        torsion_invariants=tuple(x for x in factors if x > 1),
    )


class TestClassGroup:
    def test_weighted_112(self, p112):
        info = class_group(p112)
        assert info.free_rank == 1
        assert info.torsion_invariants == ()

    def test_hirzebruch(self, f2):
        info = class_group(f2)
        assert info.free_rank == 2
        assert info.torsion_invariants == ()

    def test_p1xp1(self, p1xp1):
        assert class_group(p1xp1).free_rank == 2

    def test_del_pezzo(self, dp6):
        assert class_group(dp6).free_rank == 4

    def test_torsion_example(self):
        info = class_group(torsion_surface())
        assert info.free_rank == 1
        assert info.torsion_invariants == (2,)

    def test_rank_formula(self):
        fan = family("wps:1,1,2,4")
        info = class_group(fan)
        assert info.free_rank == fan.num_rays - fan.dim
        assert info.torsion_invariants == ()


class TestClassGroupAgainstReference:
    """The unimodular-first-cone certificate against the Smith form it skips."""

    @pytest.mark.parametrize("name", sorted(CERTIFICATE_CORPORA))
    def test_corpus(self, name):
        for fan in CERTIFICATE_CORPORA[name]():
            assert class_group(fan) == reference_class_group(fan), fan.rays

    @pytest.mark.parametrize("name", ["family_specs", "fixtures", "products"])
    def test_no_smith_form_behind_a_unimodular_first_cone(self, monkeypatch, name):
        def forbidden(a):
            raise AssertionError("smith_normal_form was called")

        monkeypatch.setattr(classgroup_module, "smith_normal_form", forbidden)
        for fan in CERTIFICATE_CORPORA[name]():
            class_group(fan)

    def test_smith_form_behind_a_first_cone_of_determinant_two(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(a)
            return smith_normal_form(a)

        monkeypatch.setattr(classgroup_module, "smith_normal_form", counting)
        fan = p112_first_cone_det2()
        assert class_group(fan) == ClassGroupInfo(free_rank=1, torsion_invariants=())
        assert calls == [fan.rays]


class TestRadiantClasses:
    def test_hirzebruch_two_classes(self, f2):
        table = radiant_classes(f2, find_bilateral(f2))
        assert table.class_of(0) == (1, 0)
        assert table.class_of(2) == (1, 0)
        assert table.class_of(1) == (2, 1)
        assert table.class_of(3) == (0, 1)
        assert table.class_of(0) == table.class_of(2)
        e2 = table.class_of(1)
        assert tuple(2 * a + b for a, b in zip(table.class_of(2), table.class_of(3))) == e2

    def test_weighted_112(self, p112):
        table = radiant_classes(p112, find_bilateral(p112))
        assert table.class_of(2) == (1,)
        assert table.class_of(0) == (1,)
        assert table.class_of(1) == (2,)

    def test_p1xp1_units(self, p1xp1):
        table = radiant_classes(p1xp1, find_bilateral(p1xp1))
        assert table.class_of(0) == table.class_of(2) == (1, 0)
        assert table.class_of(1) == table.class_of(3) == (0, 1)

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_defining_relations(self, spec):
        # sum over rays of <m, n_rho> * class(rho) vanishes for unit characters m
        fan = family(spec)
        table = radiant_classes(fan, find_bilateral(fan))
        for coord in range(fan.dim):
            total = [0] * table.k
            for r, primitive in enumerate(fan.rays):
                for t in range(table.k):
                    total[t] += primitive[coord] * table.class_of(r)[t]
            assert not any(total)

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_free_rank_equals_negative_count(self, spec):
        fan = family(spec)
        bilateral = find_bilateral(fan)
        assert class_group(fan).free_rank == len(bilateral.negative)

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_entries_nonnegative(self, spec):
        fan = family(spec)
        table = radiant_classes(fan, find_bilateral(fan))
        assert all(x >= 0 for cls in table.classes for x in cls)


class TestRadiantClassesInvariants:
    """A structure that is not bilateral breaks the class table's invariants;
    each break raises InvariantViolation, not AssertionError."""

    def test_negative_entry(self, p2):
        bogus = BilateralStructure(
            positive=(0, 1), negative=(2,), dual_basis=((-1, 0), (0, -1))
        )
        with pytest.raises(InvariantViolation, match="negative entry"):
            radiant_classes(p2, bogus)

    def test_defining_relations_fail(self, p2):
        bogus = BilateralStructure(
            positive=(0, 1), negative=(2,), dual_basis=((1, 1), (0, 1))
        )
        with pytest.raises(InvariantViolation, match="defining relations"):
            radiant_classes(p2, bogus)

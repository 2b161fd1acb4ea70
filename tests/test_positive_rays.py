"""`Fan.positive_rays`, the sign masks of each maximal cone's dual
functionals, against the three scans that read the kept inverses before it:
the `below` masks of `is_complete`, the empty-slice certificate and the
bilateral acceptance test, kept here as written as the references."""

from operator import mul

import pytest

import unifan.radiance as radiance
from unifan.classgroup import class_group
from unifan.demazure import _certified_empty, root_slices
from unifan.families import NotApplicable, cross_check
from unifan.fan import Cone, Fan, is_complete, ray_mask, validate_fan
from unifan.pipeline import analyze_fan
from unifan.radiance import BilateralStructure, find_bilateral, iter_bilateral_structures

from conftest import (
    FAMILY_SPECS,
    NON_RADIANT_CORPORA,
    box2_rays5,
    family,
    radiant_p3_draw,
    random_surfaces,
)
from test_demazure import PRODUCTS
from test_fan import CRAMER_FAN, RAW_DATA, previous_is_complete, reference_is_complete


def previous_below(fan, i):
    """Per dual functional of maximal cone i, the mask of the rays where it
    is <= 0: the lazy `below` list that `is_complete` built for cone 0."""
    d, m = fan.cone_inverse(i)
    return [
        ray_mask(r for r, vector in enumerate(fan.rays) if d * sum(map(mul, row, vector)) <= 0)
        for row in m
    ]


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def previous_certified_empty(fan: Fan) -> int:
    """`demazure._certified_empty` as it was before it read the masks: the
    signs of d * M r, one list of positive rows per outside ray."""
    n = fan.dim
    full = (1 << fan.num_rays) - 1
    empty = 0
    for i, cone in enumerate(fan.max_cones):
        if empty == full:
            break
        sigma = cone.ray_indices
        if len(sigma) != n or all(empty >> u & 1 for u in sigma):
            continue
        # sigma is simplicial and full-dimensional, so b is nonsingular
        d, m = fan.cone_inverse(i)
        for r, vector in enumerate(fan.rays):
            if r not in sigma:
                positive = [u for u, row in zip(sigma, m) if d * _dot(row, vector) > 0]
                if len(positive) == 1:
                    empty |= 1 << positive[0]
    return empty


def previous_bilateral_structures(fan: Fan):
    """`iter_bilateral_structures` as it was before it read the masks: each
    unimodular candidate built, then its coordinates tested."""
    n = fan.dim
    indices = range(fan.num_rays)
    for k, cone in enumerate(fan.max_cones):
        combo = cone.ray_indices
        if len(combo) != n:
            continue
        d, m = fan.cone_inverse(k)
        if d not in (1, -1):
            continue
        dual = tuple(tuple(d * x for x in row) for row in m)
        candidate = BilateralStructure(
            positive=combo,
            negative=tuple(i for i in indices if i not in combo),
            dual_basis=dual,
        )
        if all(
            all(c <= 0 for c in candidate.coordinates(fan.rays[i]))
            for i in candidate.negative
        ):
            yield candidate


def raw_fan(data) -> Fan:
    """A `Fan` of raw data, also data that `validate_fan` rejects."""
    maximal = tuple(sorted(Cone(tuple(sorted(c))) for c in data[2]))
    return Fan(data[0], tuple(map(tuple, data[1])), maximal)


CORPORA = {
    "family_specs": lambda: [family(spec) for spec in FAMILY_SPECS],
    "random_surfaces": random_surfaces,
    "products": lambda: [build() for build in PRODUCTS.values()],
    "radiant_p3_draws": lambda: [
        validate_fan(3, *radiant_p3_draw(steps), require_complete=True) for steps in (4, 6, 14, 18)
    ],
    "box2-rays5": box2_rays5,
    **{f"non_radiant:{name}": build for name, build in NON_RADIANT_CORPORA.items()},
    "cramer-fan": lambda: [validate_fan(*CRAMER_FAN)],
    "raw_data": lambda: [raw_fan(data) for data in RAW_DATA.values()],
}

# The raw data that fails test (a) or (b) of `is_complete`, so that test (c),
# which alone reads the masks there, is never reached.
NOT_REACHING_C = {"cone-removed", "p2-folded", "folded-cycle", "one-cone-3"}


def nonsingular_cones(fan):
    """(index, rays) of each maximal cone with `dim` independent rays."""
    for i, cone in enumerate(fan.max_cones):
        if len(cone) == fan.dim and fan.cone_inverse(i) is not None:
            yield i, cone.ray_indices


class TestPositiveRaysAgainstPrevious:
    """Each consumer of the masks against the scan it replaced, on every
    corpus; and the masks against the complements of the `below` masks."""

    def test_raw_data_has_the_wrap_through_q(self):
        assert "double-wrap-through-q" in RAW_DATA
        fan = raw_fan(RAW_DATA["double-wrap-through-q"])
        assert is_complete(fan) is previous_is_complete(fan) is False

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_masks(self, name):
        checked = 0
        for fan in CORPORA[name]():
            full = (1 << fan.num_rays) - 1
            for i, cone in nonsingular_cones(fan):
                masks = fan.positive_rays(i)
                assert masks == tuple(full ^ b for b in previous_below(fan, i)), (fan, i)
                for u, p in zip(cone, masks):
                    assert p >> u & 1 and p & ray_mask(cone) == 1 << u
                checked += 1
        assert checked

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_certified_empty(self, name):
        fans = CORPORA[name]()
        assert [_certified_empty(fan) for fan in fans] == list(map(previous_certified_empty, fans))

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_bilateral_structures(self, name):
        for fan in CORPORA[name]():
            expected = list(previous_bilateral_structures(fan))
            assert list(iter_bilateral_structures(fan)) == expected
            assert find_bilateral(fan) == (expected[0] if expected else None)

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_is_complete(self, name):
        for fan in CORPORA[name]():
            if name == "raw_data":
                assert is_complete(fan) is previous_is_complete(fan)
            else:
                assert is_complete(fan) is previous_is_complete(fan) is reference_is_complete(fan)

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_mask_tier_settles_what_the_ridge_and_below_tiers_did(self, name):
        """Where test (c) is reached, a cone misses a mask of cone 0 iff it
        shares a ridge with cone 0 or lies in one of its `below` masks: the
        ridge tier removed from `is_complete` settled nothing more."""
        fans = CORPORA[name]()
        if name == "raw_data":
            fans = [raw_fan(data) for key, data in RAW_DATA.items() if key not in NOT_REACHING_C]
        ridges = 0
        for fan in fans:
            first = fan.positive_rays(0)
            below = previous_below(fan, 0)
            first_mask = ray_mask(fan.max_cones[0].ray_indices)
            for cone in fan.max_cones[1:]:
                mask = ray_mask(cone.ray_indices)
                ridge = (mask & first_mask).bit_count() == fan.dim - 1
                ridges += ridge
                settled = ridge or any(mask & b == mask for b in below)
                assert any(not mask & p for p in first) is settled, (fan, cone)
        assert ridges


class TestMaskReaders:
    @pytest.mark.parametrize("name", ["family_specs", "non_radiant:draws", "random_surfaces"])
    def test_bilateral_builds_no_rejected_structure(self, monkeypatch, name):
        built = []

        def counting(**fields):
            built.append(fields["positive"])
            return BilateralStructure(**fields)

        fans = CORPORA[name]()
        monkeypatch.setattr(radiance, "BilateralStructure", counting)
        yielded = [s.positive for fan in fans for s in iter_bilateral_structures(fan)]
        assert built == yielded

    def test_each_cone_masked_at_most_once_per_fan(self, monkeypatch):
        """Validation, analysis, the class group, the cross-check and the
        root slices of one fan compute each cone's masks at most once."""
        computed = []
        kept = Fan.kept

        def counting(fan, key, compute):
            def counted():
                computed.append((id(fan), key))
                return compute()

            return kept(fan, key, counted)

        data = [
            (fan.dim, fan.rays, [c.ray_indices for c in fan.max_cones])
            for name in ("family_specs", "products", "non_radiant:draws", "non_radiant:dP6")
            for fan in CORPORA[name]()
        ]
        monkeypatch.setattr(Fan, "kept", counting)
        fans = []
        for dim, rays, cones in data:
            fan = validate_fan(dim, rays, cones, require_complete=True)
            analysis = analyze_fan(fan)
            class_group(fan)
            try:
                cross_check(fan, analysis.verdict)
            except NotApplicable:
                pass
            root_slices(fan)
            root_slices(fan, analysis.bilateral, analysis.classes)
            analyze_fan(fan)
            fans.append(fan)
        masked = [entry for entry in computed if entry[1][0] == "positive_rays"]
        assert len(masked) == len(set(masked)) > len(fans)

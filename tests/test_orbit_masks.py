"""The bitmask orbit layer against the search it replaced, and the catalog
read off the maximal cones against the catalog filtered from the basic
subsets.

The `reference_*` functions are earlier implementations of `unifan.orbits`,
kept verbatim as slow paths: one `solve_nonneg` search per membership query,
one monoid per cone and one scan of every cone per record; and the catalog of
the basic subsets inside the quotient domain, with each record's cones grown
from its hat set (`reference_mask_catalog`).
"""

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations
from math import comb

import pytest

from unifan import validate_fan
from unifan.classgroup import ClassTable, radiant_classes
from unifan.demazure import compute_precedence
from unifan.fan import Cone, Fan, ray_mask
from unifan.linalg import IntVec, InvariantViolation, q_independent
from unifan.monoid import gamma_of_rayset, in_span, irreducibles, is_free
from unifan.orbits import (
    OrbitRecord,
    _bits,
    build_catalog,
    enumerate_basic_subsets,
    non_free_witness,
    with_membership,
)
from unifan.radiance import find_bilateral

from conftest import (
    FAMILY_SPECS,
    P3_BLOWUP_CONES,
    P3_BLOWUP_RAYS,
    RADIANT_FIXTURES,
    classes_independent,
    family,
    negative_surface,
    p1_power,
    precedes,
    product_of,
    random_surfaces,
)


@dataclass(frozen=True)
class ReferenceBasicSubset:
    """A ray set none of whose classes lies in the monoid of the others.

    `hat` collects the rays whose class falls outside the generated monoid,
    plus equal-class rays preceding a member; the two sets never meet.
    """

    rays: tuple[int, ...]
    hat: tuple[int, ...]
    classes_independent: bool
    in_x_hat: bool | None = None


def _is_basic(classes: ClassTable, rays: tuple[int, ...]) -> bool:
    for rho in rays:
        others = [classes.class_of(r) for r in rays if r != rho]
        if in_span(classes.class_of(rho), others):
            return False
    return True


def _hat_of(classes: ClassTable, precedence: frozenset[tuple[int, int]], rays) -> tuple[int, ...]:
    member_set = set(rays)
    gens = gamma_of_rayset(classes, rays).generators if rays else ()
    hat = []
    for rho in range(len(classes.classes)):
        if rho in member_set:
            continue
        outside = not in_span(classes.class_of(rho), gens)
        if outside or any(precedes(precedence, rho, member) for member in rays):
            hat.append(rho)
    return tuple(hat)


def reference_enumerate_basic_subsets(
    classes: ClassTable, precedence: frozenset[tuple[int, int]]
) -> list[ReferenceBasicSubset]:
    """All basic subsets, found by pruned depth-first search.

    Supersets of non-basic sets are non-basic (the monoid only grows), so
    the search only extends basic prefixes. The empty set is basic.
    """
    d = len(classes.classes)
    found: list[tuple[int, ...]] = []

    def descend(prefix: tuple[int, ...]) -> None:
        found.append(prefix)
        start = prefix[-1] + 1 if prefix else 0
        for nxt in range(start, d):
            candidate = prefix + (nxt,)
            if _is_basic(classes, candidate):
                descend(candidate)

    descend(())
    out = []
    for rays in found:
        hat = _hat_of(classes, precedence, rays)
        if set(rays) & set(hat):
            raise InvariantViolation(f"basic subset {rays} meets its hat set {hat}")
        out.append(
            ReferenceBasicSubset(
                rays=rays,
                hat=hat,
                classes_independent=q_independent(
                    [classes.class_of(r) for r in rays]
                ),
            )
        )
    return out


def reference_in_x_hat(fan: Fan, hat) -> bool:
    """Whether the stratum of a basic subset meets the quotient domain:
    some maximal cone must contain the whole hat set."""
    wanted = set(hat)
    return any(wanted <= set(c.ray_indices) for c in fan.max_cones)


def reference_with_membership(fan: Fan, basics) -> list[ReferenceBasicSubset]:
    return [replace(b, in_x_hat=reference_in_x_hat(fan, b.hat)) for b in basics]


def reference_non_free_witness(fan: Fan, classes: ClassTable):
    """First cone (by size, then lex) whose complement monoid is not free,
    together with that monoid's irreducibles; None when all are free.

    Freeness depends only on the generator set, and many cones share one,
    so each distinct set is tested once.
    """
    free: set[tuple[IntVec, ...]] = set()
    for cone in fan.all_cones.values():
        complement = [r for r in range(fan.num_rays) if r not in cone.ray_indices]
        monoid = gamma_of_rayset(classes, complement)
        if monoid.generators in free:
            continue
        if not is_free(monoid):
            return cone, tuple(irreducibles(monoid))
        free.add(monoid.generators)
    return None


def reference_build_catalog(fan: Fan, basics, negative_rays) -> list[OrbitRecord]:
    """One record per basic subset inside the quotient domain.

    The torus orbits absorbed by a record are the cones wedged between the
    hat set and the complement of the basic set; records are sorted by
    descending dimension, then by ray set.
    """
    records = []
    for b in basics:
        if not b.in_x_hat:
            continue
        member_set = set(b.rays)
        hat_set = set(b.hat)
        cones = tuple(
            c
            for c in fan.all_cones.values()
            if hat_set <= set(c.ray_indices) and not member_set & set(c.ray_indices)
        )
        records.append(
            OrbitRecord(basic=b, dimension=fan.dim - len(b.hat), t_orbit_cones=cones)
        )
    records.sort(key=lambda r: (-r.dimension, r.basic.rays))
    open_records = [r for r in records if not r.basic.hat]
    if len(open_records) != 1:
        raise InvariantViolation(f"{len(open_records)} open orbits, expected one")
    if open_records[0].basic.rays != tuple(sorted(negative_rays)):
        raise InvariantViolation("the open orbit is not the negative-ray stratum")
    return records


def reference_cones_between(all_cones: dict[int, Cone], num_rays: int, hat: int, members: int):
    """The cones of `fan.all_cones` containing the hat set and meeting no
    member, by size, then lex. They are found by growing the hat one ray
    at a time, in increasing order, among the face-closed cone masks."""
    free_rays = _bits(((1 << num_rays) - 1) & ~(hat | members))
    found = []
    stack = [(hat, 0)]
    while stack:
        cone, start = stack.pop()
        found.append(all_cones[cone])
        for i in range(start, len(free_rays)):
            bigger = cone | 1 << free_rays[i]
            if bigger in all_cones:
                stack.append((bigger, i + 1))
    found.sort(key=lambda c: (len(c), c.ray_indices))
    return found


def reference_mask_catalog(fan: Fan, basics, negative_rays) -> list[OrbitRecord]:
    """One record per basic subset inside the quotient domain.

    The torus orbits absorbed by a record are the cones wedged between the
    hat set and the complement of the basic set; records are sorted by
    descending dimension, then by ray set.
    """
    records = [
        OrbitRecord(
            basic=b,
            dimension=fan.dim - b.hat_mask.bit_count(),
            t_orbit_cones=tuple(
                reference_cones_between(fan.all_cones, fan.num_rays, b.hat_mask, b.rays_mask)
            ),
        )
        for b in basics
        if b.in_x_hat
    ]
    records.sort(key=lambda r: (-r.dimension, r.basic.rays))
    open_records = [r for r in records if not r.basic.hat_mask]
    if len(open_records) != 1:
        raise InvariantViolation(f"{len(open_records)} open orbits, expected one")
    if open_records[0].basic.rays != tuple(sorted(negative_rays)):
        raise InvariantViolation("the open orbit is not the negative-ray stratum")
    return records


def assert_affine_paving(fan: Fan, records) -> None:
    """The facts of a finite catalog that make the orbits an affine paving
    with one torus-fixed point each (Bialynicki-Birula): the cones of each
    record form the interval [hat, sigma] of a maximal cone sigma; its basic
    set is rays - sigma; each maximal cone is the sigma of one record; and
    counting F_q-points, sum over records of q^dim = sum over cones of
    (q - 1)^(dim - |cone|), so the records of each dimension j number the
    q^j coefficient of the fan's h-polynomial."""
    full = (1 << fan.num_rays) - 1
    tops = []
    for record in records:
        masks = [ray_mask(c.ray_indices) for c in record.t_orbit_cones]
        top = 0
        for m in masks:
            top |= m
        hat = record.basic.hat_mask
        free = [r for r in _bits(top) if not hat >> r & 1]
        interval = {hat | ray_mask(c) for k in range(len(free) + 1) for c in combinations(free, k)}
        assert len(masks) == len(interval) and set(masks) == interval
        assert record.basic.rays_mask == full & ~top
        assert record.dimension == fan.dim - hat.bit_count()
        tops.append(top)
    assert sorted(tops) == sorted(ray_mask(c.ray_indices) for c in fan.max_cones)
    faces = Counter(len(c) for c in fan.all_cones.values())
    h = [0] * (fan.dim + 1)
    for size, count in faces.items():
        m = fan.dim - size
        for j in range(m + 1):
            h[j] += count * comb(m, j) * (-1) ** (m - j)
    assert [sum(1 for r in records if r.dimension == j) for j in range(fan.dim + 1)] == h


def radiant_p3_subdivisions(count=24, seed=7):
    """Seeded star subdivisions of P3 with 5 to 10 rays. Only cones whose
    ray sum has no positive coordinate, never the cone of the unit vectors,
    are subdivided, so every draw stays radiant."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
        cones = [list(c) for c in combinations(range(4), 3)]
        for _ in range(rng.randint(1, 6)):
            sums = {tuple(c): tuple(map(sum, zip(*(rays[i] for i in c)))) for c in cones}
            sigma = rng.choice([c for c in cones if c != [0, 1, 2] and max(sums[tuple(c)]) <= 0])
            rays.append(sums[tuple(sigma)])
            cones.remove(sigma)
            cones += [sorted([i for i in sigma if i != drop] + [len(rays) - 1]) for drop in sigma]
        out.append(validate_fan(3, rays, cones, require_complete=True))
    return out


def radiant(fans):
    return [fan for fan in fans if find_bilateral(fan) is not None]


CORPORA = {
    "family_specs": lambda: radiant(family(spec) for spec in FAMILY_SPECS),
    "fixtures": lambda: [family(spec) for spec in sorted(RADIANT_FIXTURES.values())],
    "random_surfaces": lambda: radiant(random_surfaces()),
    "p1_powers": lambda: [p1_power(k) for k in range(1, 7)],
    "products": lambda: [
        product_of(family("pn:2"), family("pn:1")),
        product_of(family("pn:2"), family("pn:2")),
    ],
    "negative_surface": lambda: [negative_surface(2)],
    "p3_star_subdivisions": lambda: radiant_p3_subdivisions(),
}


def prepared(fan):
    bilateral = find_bilateral(fan)
    classes = radiant_classes(fan, bilateral)
    return classes, compute_precedence(bilateral, classes)


def record_fields(basics, classes):
    return [(b.rays, b.hat, b.in_x_hat, classes_independent(classes, b)) for b in basics]


def catalog_fields(records):
    return [(r.basic.rays, r.basic.hat, r.dimension, r.t_orbit_cones) for r in records]


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_mask_layer_matches_reference(corpus):
    fans = CORPORA[corpus]()
    assert len(fans) >= (20 if corpus == "p3_star_subdivisions" else 1)
    for fan in fans:
        classes, precedence = prepared(fan)
        fast = with_membership(fan, enumerate_basic_subsets(classes, precedence))
        slow = reference_with_membership(
            fan, reference_enumerate_basic_subsets(classes, precedence)
        )
        assert record_fields(fast, classes) == [
            (b.rays, b.hat, b.in_x_hat, b.classes_independent) for b in slow
        ]
        witness = non_free_witness(fan, classes)
        assert witness == reference_non_free_witness(fan, classes)
        if witness is None:
            reference = reference_mask_catalog(fan, fast, classes.negative)
            assert catalog_fields(reference) == catalog_fields(
                reference_build_catalog(fan, slow, classes.negative)
            )
            assert_affine_paving(fan, reference)
            assert catalog_fields(build_catalog(fan, classes, precedence)) == catalog_fields(
                reference
            )


def test_star_subdivisions_stay_small_and_varied():
    fans = radiant_p3_subdivisions()
    assert all(5 <= fan.num_rays <= 10 for fan in fans)
    assert len({fan.num_rays for fan in fans}) >= 4
    assert len(radiant(fans)) == len(fans)


# SHA-256 of repr([(rays, hat), ...]) and of repr([(rays, hat, in_x_hat,
# classes_independent), ...]) over the records of the 14-ray blow-up draw,
# computed with the reference implementation above (about 4.5 s).
FOURTEEN_RAY_RAYS_HAT_SHA256 = "83b32df3d176527dc7d25d63696099d303bb1598bcd270daa73c5c3205401388"
FOURTEEN_RAY_RECORDS_SHA256 = "99497ca625df7be3643814593e738bece05c13255715fbecb766cef9f3b0facb"


def test_fourteen_ray_draw_matches_pinned_reference():
    fan = validate_fan(3, P3_BLOWUP_RAYS, P3_BLOWUP_CONES, require_complete=True)
    classes, precedence = prepared(fan)
    basics = with_membership(fan, enumerate_basic_subsets(classes, precedence))
    assert len(basics) == 16185
    pairs = [(b.rays, b.hat) for b in basics]
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == FOURTEEN_RAY_RAYS_HAT_SHA256
    records = record_fields(basics, classes)
    assert hashlib.sha256(repr(records).encode()).hexdigest() == FOURTEEN_RAY_RECORDS_SHA256

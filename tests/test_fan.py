import random
import re
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, product

import pytest

import unifan.fan as fan_module
from unifan.fan import (
    Cone,
    DuplicateRay,
    Fan,
    FanConditionViolated,
    NonPrimitiveRay,
    NonSimplicialCone,
    NotComplete,
    _pairwise_intersection_ok,
    is_complete,
    ray_mask,
    validate_fan,
)
from unifan.linalg import feasible

from conftest import (
    FAMILY_SPECS,
    RADIANT_FIXTURES,
    cones_with_rayset,
    family,
    has_cone,
    random_surfaces,
)

HIRZ2_RAYS = [(1, 0), (0, 1), (-1, -2), (0, -1)]
HIRZ2_CONES = [[0, 1], [1, 2], [2, 3], [3, 0]]


def orthant_fan():
    return validate_fan(2, [(1, 0), (0, 1)], [[0, 1]])


def line_fan():
    return validate_fan(1, [(1,), (-1,)], [[0], [1]])


class TestValidateFan:
    def test_hirzebruch_like_fan(self):
        fan = validate_fan(2, HIRZ2_RAYS, HIRZ2_CONES)
        assert fan.num_rays == 4
        assert len(fan.max_cones) == 4
        assert len(fan.all_cones) == 9
        assert Cone(()) in fan.all_cones.values()

    def test_non_primitive_ray(self):
        with pytest.raises(NonPrimitiveRay):
            validate_fan(2, [(2, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [2, 0]])

    def test_zero_ray(self):
        with pytest.raises(NonPrimitiveRay):
            validate_fan(2, [(0, 0), (0, 1)], [[0, 1]])

    def test_duplicate_ray(self):
        with pytest.raises(DuplicateRay):
            validate_fan(2, [(1, 0), (1, 0)], [[0, 1]])

    def test_non_simplicial(self):
        with pytest.raises(NonSimplicialCone):
            validate_fan(2, [(1, 0), (0, 1), (1, 1)], [[0, 1, 2]])

    def test_overlapping_cones(self):
        with pytest.raises(FanConditionViolated):
            validate_fan(2, [(1, 0), (0, 1), (1, 1), (1, -1)], [[0, 1], [2, 3]])

    def test_shared_ray_overlap(self):
        # cone(e1, e2) and cone(e1, e1+2e2) overlap beyond their common ray
        with pytest.raises(FanConditionViolated):
            validate_fan(2, [(1, 0), (0, 1), (1, 2)], [[0, 1], [0, 2]])

    def test_unused_ray(self):
        with pytest.raises(FanConditionViolated):
            validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1]])

    def test_touching_at_origin_is_fine(self):
        fan = validate_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1], [2, 3]])
        assert len(fan.max_cones) == 2

    def test_redundant_faces_normalized(self):
        # listed faces and duplicates of maximal cones are dropped
        fan = validate_fan(
            2, HIRZ2_RAYS, HIRZ2_CONES + [[0], [1, 2], [2]], require_complete=True
        )
        reference = validate_fan(2, HIRZ2_RAYS, HIRZ2_CONES)
        assert fan.max_cones == reference.max_cones
        assert fan.all_cones == reference.all_cones

    def test_require_complete(self):
        with pytest.raises(NotComplete):
            validate_fan(2, [(1, 0), (0, 1)], [[0, 1]], require_complete=True)

    @pytest.mark.parametrize(
        "dim, rays, cones, message",
        [
            (2, [(1.9, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [2, 0]], "ray 0"),
            (2, [(1, 0), (0, True), (-1, -1)], [[0, 1], [1, 2], [2, 0]], "ray 1"),
            (2, [(1, 0), (0, 1), (-1, -1)], [[0, 1.2], [1, 2], [2, 0]], "cone (0, 1.2)"),
            (2, [(1, 0), (0, 1), (-1, -1)], [[0, True], [1, 2], [2, 0]], "cone (0, True)"),
            (True, [(1,), (-1,)], [[0], [1]], "dimension True"),
            (1.0, [(1,), (-1,)], [[0], [1]], "dimension 1.0"),
        ],
        ids=[
            "float-ray-entry",
            "bool-ray-entry",
            "float-cone-index",
            "bool-cone-index",
            "bool-dim",
            "float-dim",
        ],
    )
    def test_non_integer_input_is_rejected(self, dim, rays, cones, message):
        # Rounding 1.9 to 1 or reading True as 1 would validate a different fan.
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_fan(dim, rays, cones, require_complete=True)


class TestIsComplete:
    def test_hirzebruch_two_fan(self):
        assert is_complete(validate_fan(2, HIRZ2_RAYS, HIRZ2_CONES))

    def test_orthant(self):
        assert not is_complete(orthant_fan())

    def test_line_fan(self):
        assert is_complete(line_fan())

    def test_half_line(self):
        assert not is_complete(validate_fan(1, [(1,)], [[0]]))

    def test_random_vector_membership(self):
        rng = random.Random(1234)
        fans = [validate_fan(2, HIRZ2_RAYS, HIRZ2_CONES), orthant_fan(), family("wps:1,1,2,4")]
        for fan in fans:
            complete = is_complete(fan)
            covered = True
            for _ in range(500):
                vec = tuple(
                    Fraction(rng.randint(-99, 99), rng.randint(1, 20))
                    for _ in range(fan.dim)
                )
                if all(x == 0 for x in vec):
                    continue
                if not any(
                    _in_simplicial_cone([fan.rays[i] for i in c], vec)
                    for c in fan.max_cones
                ):
                    covered = False
                    break
            assert covered == complete


def _in_simplicial_cone(generators, vec):
    """Exact membership: solve for barycentric coefficients over Q."""
    dim = len(vec)
    cols = len(generators)
    rows = [[Fraction(generators[j][i]) for j in range(cols)] + [Fraction(vec[i])] for i in range(dim)]
    pivots = []
    r = 0
    for j in range(cols):
        pivot = next((i for i in range(r, dim) if rows[i][j] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][j] for x in rows[r]]
        for i in range(dim):
            if i != r and rows[i][j] != 0:
                c = rows[i][j]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[r])]
        pivots.append(j)
        r += 1
    for i in range(r, dim):
        if rows[i][cols] != 0:
            return False
    coeffs = {pj: rows[i][cols] for i, pj in enumerate(pivots)}
    return all(coeffs.get(j, Fraction(0)) >= 0 for j in range(cols))


class TestConesWithRayset:
    def test_single_ray(self, f2):
        got = cones_with_rayset(f2, {2})
        assert [c.ray_indices for c in got] == [(2,), (1, 2), (2, 3)]

    def test_empty_set_returns_all(self, f2):
        assert len(cones_with_rayset(f2, set())) == 9

    def test_not_a_face(self, f2):
        assert cones_with_rayset(f2, {0, 2}) == []


class TestFanInvariants:
    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_face_count_identity(self, spec):
        fan = family(spec)
        union = {()}
        for cone in fan.max_cones:
            from itertools import combinations

            for size in range(1, len(cone.ray_indices) + 1):
                union.update(combinations(cone.ray_indices, size))
        assert len(fan.all_cones) == len(union)

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_pairwise_rayset_intersections_are_cones(self, spec):
        fan = family(spec)
        for a in fan.all_cones.values():
            for b in fan.all_cones.values():
                meet = tuple(sorted(set(a.ray_indices) & set(b.ray_indices)))
                assert has_cone(fan, meet)

    def test_all_cones_sorted_by_size_then_lex(self, f2):
        keys = [(len(c.ray_indices), c.ray_indices) for c in f2.all_cones.values()]
        assert keys == sorted(keys)


P1 = (1, [(1,), (-1,)], [[0], [1]])
P2 = (2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [2, 0]])
DP6 = (2, [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)], [[i, (i + 1) % 6] for i in range(6)])

# Six rays turning by less than a half turn each time, twice around the
# origin: every ridge check passes, but the cones cover the plane twice.
DOUBLE_WRAP_RAYS = [(1, 0), (-1, 2), (-1, -2), (1, 1), (-1, 0), (1, -2)]
DOUBLE_WRAP_CONES = [[i, (i + 1) % 6] for i in range(6)]


def product_data(factors):
    """Raw data of a product fan: block-diagonal rays, products of cones."""
    dim = sum(d for d, _, _ in factors)
    rays, offsets, shift = [], [], 0
    for d, f_rays, _ in factors:
        offsets.append(len(rays))
        rays += [(0,) * shift + tuple(r) + (0,) * (dim - shift - d) for r in f_rays]
        shift += d
    cones = [
        sorted(i + off for cone, off in zip(choice, offsets) for i in cone)
        for choice in product(*(f_cones for _, _, f_cones in factors))
    ]
    return dim, rays, cones


def suspended_double_wrap():
    """The double wrap coned off to +e3 and -e3: a 3-dimensional double cover."""
    rays = [(x, y, 0) for x, y in DOUBLE_WRAP_RAYS] + [(0, 0, 1), (0, 0, -1)]
    cones = [[i, (i + 1) % 6, apex] for i in range(6) for apex in (6, 7)]
    return 3, rays, cones


def reference_is_complete(fan) -> bool:
    """Completeness via the ridge-pairing criterion.

    A validated simplicial fan covers the ambient space exactly when all
    maximal cones are full-dimensional, every ridge lies in exactly two of
    them, and the ridge-adjacency graph is connected. The fan must already
    satisfy the pairwise-intersection axiom.
    """
    n = fan.dim
    if not fan.max_cones:
        return False
    if any(len(c) != n for c in fan.max_cones):
        return False
    ridge_owners: dict[tuple, list[int]] = {}
    for ci, cone in enumerate(fan.max_cones):
        for ridge in combinations(cone.ray_indices, n - 1):
            ridge_owners.setdefault(ridge, []).append(ci)
    if any(len(owners) != 2 for owners in ridge_owners.values()):
        return False
    adjacency = {ci: set() for ci in range(len(fan.max_cones))}
    for a, b in ridge_owners.values():
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(fan.max_cones)


def lp_verdict(dim, rays, cones):
    """The LP path: pairwise intersections, then the ridge-pairing test."""
    cones = [Cone(tuple(sorted(c))) for c in cones]
    if not all(_pairwise_intersection_ok(dim, rays, a, b) for a, b in combinations(cones, 2)):
        return False
    return reference_is_complete(validate_fan(dim, rays, [c.ray_indices for c in cones]))


def certificate(dim, rays, cones):
    """`is_complete` on raw data, also data that `validate_fan` rejects: the
    certificate reads only `dim`, `rays` and `max_cones`."""
    maximal = tuple(sorted(Cone(tuple(sorted(c))) for c in cones))
    return is_complete(Fan(dim, tuple(map(tuple, rays)), maximal))


def _data(fan):
    return fan.dim, fan.ray_vectors(), [list(c.ray_indices) for c in fan.max_cones]


def _truncations(fan):
    """The fan with one maximal cone dropped, once per maximal cone. Rays
    left in no cone are dropped and the others renumbered in order."""
    dim, rays, cones = _data(fan)
    for drop in range(len(cones)):
        rest = cones[:drop] + cones[drop + 1 :]
        used = sorted({i for c in rest for i in c})
        new = {old: k for k, old in enumerate(used)}
        yield validate_fan(dim, [rays[i] for i in used], [[new[i] for i in c] for c in rest])


class TestCompleteCertificate:
    """The integer certificate against the pairwise-LP path it short-cuts."""

    def test_random_surfaces_and_truncations(self):
        for fan in random_surfaces():
            dim, rays, cones = _data(fan)
            assert certificate(dim, rays, cones) is lp_verdict(dim, rays, cones) is True
            for drop in range(len(cones)):
                rest = cones[:drop] + cones[drop + 1 :]
                assert certificate(dim, rays, rest) is lp_verdict(dim, rays, rest) is False

    @pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
    def test_radiant_fixtures(self, spec):
        data = _data(family(spec))
        assert certificate(*data) is lp_verdict(*data) is True

    @pytest.mark.parametrize(
        "factors", [[P1] * 3, [P2, P1], [DP6]], ids=["P1^3", "P2xP1", "dP6"]
    )
    def test_products_and_del_pezzo(self, factors):
        data = product_data(factors)
        assert certificate(*data) is lp_verdict(*data) is True

    @pytest.mark.parametrize(
        "data, error, message",
        [
            (
                (2, DOUBLE_WRAP_RAYS, DOUBLE_WRAP_CONES),
                FanConditionViolated,
                "cones (0, 1) and (2, 3) overlap beyond a common face",
            ),
            (
                suspended_double_wrap(),
                FanConditionViolated,
                "cones (0, 1, 6) and (2, 3, 6) overlap beyond a common face",
            ),
            (
                (2, HIRZ2_RAYS, HIRZ2_CONES[1:]),
                NotComplete,
                "the fan does not cover the ambient space",
            ),
            (
                # P2 with (-1, -1) replaced by (1, 1): the ridge through
                # (0, 1) has both neighbouring rays, (1, 0) and (1, 1), on one side
                (2, [(1, 0), (0, 1), (1, 1)], P2[2]),
                FanConditionViolated,
                "cones (0, 1) and (0, 2) overlap beyond a common face",
            ),
            (
                # turns +90, -27, +162, +135 degrees: winds once, so q is
                # covered once, but the ridges through (0, 1) and (1, 2) fold
                (2, [(1, 0), (0, 1), (1, 2), (-1, -1)], HIRZ2_CONES),
                FanConditionViolated,
                "cones (0, 1) and (1, 2) overlap beyond a common face",
            ),
        ],
        ids=["double-wrap", "suspended-double-wrap", "cone-removed", "p2-folded", "folded-cycle"],
    )
    def test_rejected_fans_keep_lp_errors(self, data, error, message):
        assert certificate(*data) is False
        with pytest.raises(error) as info:
            validate_fan(*data, require_complete=True)
        assert str(info.value) == message


class TestNoLpForCompleteFans:
    """Validating a complete fan solves no LP; a rejected one still does."""

    @pytest.mark.parametrize(
        "factors, num_cones, require_complete",
        [
            ([P1] * 7, 2**7, True),
            ([DP6] * 3, 6**3, True),
            ([P1] * 7, 2**7, False),
            ([DP6] * 3, 6**3, False),
        ],
        ids=["P1^7", "dP6^3", "P1^7-completeness-not-required", "dP6^3-completeness-not-required"],
    )
    def test_valid_complete_fan_calls_feasible_zero_times(
        self, monkeypatch, factors, num_cones, require_complete
    ):
        # raising on the first call fails fast: the LP path takes minutes on dP6^3
        def forbidden(system):
            raise AssertionError("feasible was called")

        monkeypatch.setattr(fan_module, "feasible", forbidden)
        fan = validate_fan(*product_data(factors), require_complete=require_complete)
        assert len(fan.max_cones) == num_cones
        assert is_complete(fan)

    def test_double_wrap_reaches_lp_fallback(self, monkeypatch):
        calls = []

        def counting(system):
            calls.append(system)
            return feasible(system)

        monkeypatch.setattr(fan_module, "feasible", counting)
        with pytest.raises(FanConditionViolated):
            validate_fan(2, DOUBLE_WRAP_RAYS, DOUBLE_WRAP_CONES, require_complete=True)
        assert calls


class TestIsCompleteAgainstReference:
    """`is_complete` is the certificate; the ridge-graph walk is the reference."""

    def _check(self, fans):
        for fan in fans:
            assert is_complete(fan) is reference_is_complete(fan) is True
            for truncated in _truncations(fan):
                assert is_complete(truncated) is reference_is_complete(truncated) is False

    def test_family_specs(self):
        self._check(family(spec) for spec in FAMILY_SPECS)

    def test_fixtures_and_random_surfaces(self):
        self._check([family(spec) for spec in sorted(RADIANT_FIXTURES.values())] + random_surfaces())

    def test_products(self):
        self._check(validate_fan(*product_data(f)) for f in ([P1] * 3, [P2, P1], [DP6]))
        for factors in ([P1] * 7, [DP6] * 3):
            fan = validate_fan(*product_data(factors))
            assert is_complete(fan) is reference_is_complete(fan) is True

    def test_small_incomplete_fans(self):
        for fan in (orthant_fan(), validate_fan(1, [(1,)], [[0]])):
            assert is_complete(fan) is reference_is_complete(fan) is False
        assert is_complete(line_fan()) is reference_is_complete(line_fan()) is True

    def test_double_wrap_without_require_complete_keeps_lp_error(self):
        with pytest.raises(FanConditionViolated) as info:
            validate_fan(2, DOUBLE_WRAP_RAYS, DOUBLE_WRAP_CONES)
        assert str(info.value) == "cones (0, 1) and (2, 3) overlap beyond a common face"

    def test_truncated_fan_validates_without_require_complete(self):
        fan = validate_fan(2, HIRZ2_RAYS, HIRZ2_CONES[1:])
        assert len(fan.max_cones) == 3
        assert not is_complete(fan)


class TestFaceIndex:
    """`all_cones` maps each cone's ray mask to its `Cone`, in (size, lex) order."""

    def test_ray_mask(self):
        assert ray_mask(()) == 0 and ray_mask((0, 2, 5)) == 0b100101 == ray_mask({5, 0, 2})

    def test_index_matches_all_cones(self):
        fans = [family(spec) for spec in sorted(RADIANT_FIXTURES.values())] + random_surfaces()
        for fan in fans:
            cones = list(fan.all_cones.values())
            assert list(fan.all_cones) == [ray_mask(c.ray_indices) for c in cones]
            assert cones == sorted(cones, key=lambda c: (len(c), c.ray_indices))

    def test_has_cone_reads_the_index(self, f2):
        assert has_cone(f2, {3, 2}) and has_cone(f2, ()) and has_cone(f2, [0])
        assert not has_cone(f2, (0, 2)) and not has_cone(f2, (0, 1, 2))

    def test_index_is_not_part_of_equality_hash_or_repr(self):
        a = validate_fan(2, HIRZ2_RAYS, HIRZ2_CONES)
        b = validate_fan(2, HIRZ2_RAYS, list(reversed(HIRZ2_CONES)))
        assert a == b and hash(a) == hash(b)
        assert a.all_cones is not b.all_cones
        assert "all_cones" not in repr(a)
        assert a.all_cones == b.all_cones and a == b and hash(a) == hash(b)

    def test_fan_has_exactly_three_fields(self):
        assert [f.name for f in fields(Fan)] == ["dim", "rays", "max_cones"]


def reference_faces(dim, rays, max_cones):
    """The face list as validation used to build it before any check: every
    proper face of every listed cone, the maximal list normalized against
    them, then the sorted `Cone`s and their masks. Returns the maximal cones
    and the (mask, cone) pairs in order."""
    cones = [Cone(tuple(sorted(set(raw)))) for raw in max_cones]
    cones = sorted(set(cones), key=fan_module._sort_key)
    proper_faces = set()
    for c in cones:
        for size in range(len(c.ray_indices)):
            proper_faces.update(combinations(c.ray_indices, size))
    maximal = [c for c in cones if c.ray_indices not in proper_faces]
    faces = proper_faces | {c.ray_indices for c in maximal} | {()}
    all_cones = tuple(sorted((Cone(f) for f in faces), key=fan_module._sort_key))
    return tuple(maximal), [(ray_mask(c.ray_indices), c) for c in all_cones]


def noisy(cones, rng):
    """The cone list with random faces of its cones and duplicates listed
    too, each cone's indices shuffled and the list in random order."""
    out = [list(c) for c in cones]
    for _ in range(len(cones)):
        cone = rng.choice(cones)
        out.append(rng.sample(list(cone), rng.randint(0, len(cone))))
        out.append(list(rng.choice(cones)))
    for c in out:
        rng.shuffle(c)
    rng.shuffle(out)
    return out


class TestFaceIndexAgainstReference:
    """`max_cones` and the on-demand `all_cones` against the face list that
    validation built eagerly before."""

    def _check(self, dim, rays, cones):
        maximal, faces = reference_faces(dim, rays, cones)
        fan = validate_fan(dim, rays, cones)
        assert "all_cones" not in vars(fan)
        assert fan.max_cones == maximal
        assert list(fan.all_cones.items()) == faces

    def _data_sets(self):
        """Complete fans, and each with one maximal cone dropped; dP6^2 whole
        only, as its truncations cost one LP per pair of its 35 cones."""
        fans = [family(spec) for spec in sorted(RADIANT_FIXTURES.values())] + random_surfaces()
        fans += [validate_fan(*product_data(f)) for f in ([P1] * 3, [P2, P1], [DP6])]
        for fan in fans:
            yield _data(fan)
            yield from map(_data, _truncations(fan))
        yield product_data([DP6] * 2)

    def test_fixtures_surfaces_products_and_truncations(self):
        for data in self._data_sets():
            self._check(*data)

    def test_redundant_faces_and_duplicates(self):
        rng = random.Random(18)
        for dim, rays, cones in self._data_sets():
            self._check(dim, rays, noisy(cones, rng))

    @pytest.mark.parametrize(
        "data",
        [
            (2, HIRZ2_RAYS, HIRZ2_CONES + [[0], [2, 1], [2], [1, 0], [], [0, 3]]),
            (2, HIRZ2_RAYS, HIRZ2_CONES[1:] + [[1], [3, 2], [2, 3]]),
            (2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1], [2, 3], [3], []]),
            (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0)], [[1, 0], [2], [3], [0], [0, 1]]),
            (1, [(1,)], [[0], [0], []]),
            (1, [], [[]]),
        ],
        ids=[
            "complete-with-faces",
            "incomplete-with-faces",
            "two-quadrants",
            "mixed-dims",
            "ray",
            "empty-cone",
        ],
    )
    def test_listed_faces(self, data):
        self._check(*data)


ONE_CONE_30 = (30, [tuple(int(i == j) for j in range(30)) for i in range(30)], [list(range(30))])


class TestHostileInput:
    """Validation reads the maximal cones only, so a fan with one cone of
    dimension 30 is judged without its 2^30 faces."""

    def test_one_cone_of_dimension_30_builds_no_face(self, monkeypatch):
        real = fan_module.combinations

        def bounded(items, r):
            for n, item in enumerate(real(items, r)):
                if n == 1000:
                    raise AssertionError("validation enumerates faces")
                yield item

        monkeypatch.setattr(fan_module, "combinations", bounded)
        fan = validate_fan(*ONE_CONE_30)
        assert "all_cones" not in vars(fan)
        assert not is_complete(fan)
        with pytest.raises(NotComplete):
            validate_fan(*ONE_CONE_30, require_complete=True)

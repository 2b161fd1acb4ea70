"""Fan data model, validation and the completeness certificate from the listed
cones alone, the mask-keyed face index `Fan.all_cones`, built on first read,
and `Fan.kept`, the memo of the facts the stages share about one fan."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd
from operator import mul

from .linalg import IntMat, IntVec, LinearSystem, feasible, int_det, rational_rank, scaled_inverse


class FanError(Exception):
    """Base class for fan validation failures."""


class NonPrimitiveRay(FanError):
    pass


class DuplicateRay(FanError):
    pass


class NonSimplicialCone(FanError):
    pass


class FanConditionViolated(FanError):
    pass


class NotComplete(FanError):
    pass


@dataclass(frozen=True, order=True)
class Cone:
    """A cone of a simplicial fan, stored as its sorted ray-index set."""

    ray_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ray_indices)

    def __contains__(self, ray_index: int) -> bool:
        return ray_index in self.ray_indices

    def __iter__(self):
        return iter(self.ray_indices)


def _is_int(value) -> bool:
    """Ints only: bools, JSON `true`/`false` among them, are a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _sort_key(cone: Cone):
    return (len(cone.ray_indices), cone.ray_indices)


def ray_mask(rays) -> int:
    """The ray set as an integer bitmask: bit r is ray r."""
    out = 0
    for r in rays:
        out |= 1 << r
    return out


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, ascending: the rays of a ray mask."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class Fan:
    """A validated simplicial fan; geometry always derives from `rays`, the
    primitive vector of ray i at position i."""

    dim: int
    rays: tuple[IntVec, ...]
    max_cones: tuple[Cone, ...]

    @cached_property
    def all_cones(self) -> dict[int, Cone]:
        """Every cone by its ray mask, in (size, lex) order, built on first read."""
        by_size = [{()}] + [set() for _ in range(self.dim)]
        for cone in self.max_cones:
            for size in range(1, len(cone) + 1):
                by_size[size].update(combinations(cone.ray_indices, size))
        return {ray_mask(f): Cone(f) for faces in by_size for f in sorted(faces)}

    @cached_property
    def _memo(self) -> dict:
        return {}

    def kept(self, key, compute):
        """compute(), found on the first call with `key` and kept on this
        `Fan`, outside the fields: the facts the stages share (the maximal
        cones' inverses and positive-ray masks, the class group, the first
        bilateral structure and the class table of each structure asked for)
        are found once per `Fan` and die with it. A compute that raises
        keeps nothing."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def cone_inverse(self, i: int) -> tuple[int, IntMat] | None:
        """`scaled_inverse` of the matrix whose columns are the rays of
        maximal cone i, which must have `dim` rays: (d, d*b^-1) with
        d = +-det b, or None when the rays are dependent. Kept, so each cone
        is eliminated at most once per `Fan`. Its signs are read in this
        module only; other modules read `positive_rays`."""
        cone = self.max_cones[i].ray_indices
        return self.kept(
            ("cone_inverse", i),
            lambda: scaled_inverse(tuple(zip(*(self.rays[u] for u in cone)))),
        )

    def positive_rays(self, i: int) -> tuple[int, ...]:
        """For each ray u of maximal cone i, in order, the mask of the rays
        where u's dual functional m_u (1 at u, 0 on the cone's other rays)
        is positive: u itself and each outside ray r with d*(row_u . r) > 0,
        (d, rows) the cone's nonsingular `cone_inverse`. Kept, like it."""

        def compute():
            cone = self.max_cones[i].ray_indices
            d, m = self.cone_inverse(i)
            outside = [(1 << r, v) for r, v in enumerate(self.rays) if r not in cone]
            masks = [1 << u for u in cone]
            for k, row in enumerate(m):
                for bit, vector in outside:
                    if d * sum(map(mul, row, vector)) > 0:
                        masks[k] |= bit
            return tuple(masks)

        return self.kept(("positive_rays", i), compute)

    @property
    def num_rays(self) -> int:
        return len(self.rays)

    def ray_vectors(self) -> list[IntVec]:
        return list(self.rays)


def _pairwise_intersection_ok(fan_dim, rays, c1: Cone, c2: Cone) -> bool:
    """Exact test that cone(c1) meet cone(c2) equals the cone on common rays.

    A point of both cones that needs a positive weight outside the common
    ray set would witness a violation; the normalized system below is
    feasible exactly when such a point exists.
    """
    common = set(c1.ray_indices) & set(c2.ray_indices)
    vars1 = list(c1.ray_indices)
    vars2 = list(c2.ray_indices)
    num = len(vars1) + len(vars2)
    equalities = []
    for coord in range(fan_dim):
        vec = [rays[i][coord] for i in vars1] + [-rays[j][coord] for j in vars2]
        equalities.append((tuple(vec), 0))
    norm = [1 if i not in common else 0 for i in vars1] + [
        1 if j not in common else 0 for j in vars2
    ]
    equalities.append((tuple(norm), 1))
    nonneg = [(tuple(int(p == q) for q in range(num)), 0) for p in range(num)]
    system = LinearSystem.make(num, equalities=equalities, inequalities=nonneg)
    return not feasible(system)


def validate_fan(dim, rays, max_cones, require_complete: bool = False) -> Fan:
    """Validate raw fan data from its listed cones, building no face.

    Checks ray primitivity and distinctness, simpliciality of every cone,
    and that no ray is unused, then asks `is_complete` once (integer
    determinants, no LP, linear in the number of cones). A cone with `dim`
    rays is simplicial iff its determinant is nonzero; that determinant is
    kept and handed to `is_complete`, so no maximal cone is eliminated
    twice. A narrower cone is checked by its rank. A true answer
    proves the cones form a complete fan. Only on a false one is every pair
    of maximal cones checked to meet in a common face (one exact rational
    LP per pair), so the error raised names the first offending pair; a fan
    that passes is incomplete, which raises NotComplete when
    require_complete is set. The dimension, the ray entries and the cone
    indices must be ints and not bools: anything else raises ValueError
    instead of being rounded to a different fan.
    """
    if not _is_int(dim):
        raise ValueError(f"fan dimension {dim!r} is not an integer")
    if dim < 1:
        raise ValueError("fan dimension must be positive")
    ray_vecs = []
    for i, raw in enumerate(rays):
        vec = tuple(raw)
        if not all(_is_int(x) for x in vec):
            raise ValueError(f"ray {i} = {vec} has a non-integer entry")
        if len(vec) != dim:
            raise ValueError(f"ray {i} has dimension {len(vec)}, expected {dim}")
        g = 0
        for x in vec:
            g = gcd(g, abs(x))
        if g != 1:
            raise NonPrimitiveRay(f"ray {i} = {vec} is not a primitive vector")
        ray_vecs.append(vec)
    seen = {}
    for i, vec in enumerate(ray_vecs):
        if vec in seen:
            raise DuplicateRay(f"rays {seen[vec]} and {i} coincide: {vec}")
        seen[vec] = i

    cones = []
    dets = {}  # determinant of each listed cone with `dim` rays, by its indices
    for raw in max_cones:
        if not all(_is_int(i) for i in raw):
            raise ValueError(f"cone {tuple(raw)} has a non-integer ray index")
        idx = tuple(sorted(set(raw)))
        if len(idx) != len(raw):
            raise ValueError(f"repeated ray index in cone {tuple(raw)}")
        if any(i < 0 or i >= len(ray_vecs) for i in idx):
            raise ValueError(f"ray index out of range in cone {idx}")
        rows = [ray_vecs[i] for i in idx]
        if len(idx) == dim:
            dets[idx] = int_det(rows)
            independent = dets[idx] != 0
        else:
            independent = rational_rank(rows) == len(idx)
        if not independent:
            raise NonSimplicialCone(
                f"rays {idx} are linearly dependent; cone is not simplicial"
            )
        cones.append(Cone(idx))

    # Normalize the maximal list: drop duplicates and proper faces of other
    # listed cones; the faces of all listed cones are those of the maximal
    # ones. A simplicial cone has at most `dim` rays, so only a narrower one
    # can be a proper face: it is tested against the cones of its rarest ray.
    listed = {ray_mask(c.ray_indices): c for c in sorted(cones, key=_sort_key)}
    holders = [[] for _ in ray_vecs]  # per ray, the masks of the listed cones holding it
    for m, c in listed.items():
        for r in c.ray_indices:
            holders[r].append(m)
    maximal = []
    for m, c in listed.items():
        near = () if len(c) == dim else min((holders[r] for r in c), key=len, default=listed)
        if not any(m & o == m != o for o in near):
            maximal.append(c)

    used = {i for c in maximal for i in c.ray_indices}
    missing = sorted(set(range(len(ray_vecs))) - used)
    if missing:
        raise FanConditionViolated(f"rays {missing} belong to no maximal cone")

    fan = Fan(dim=dim, rays=tuple(ray_vecs), max_cones=tuple(maximal))
    if not is_complete(fan, [dets.get(c.ray_indices) for c in maximal]):
        for c1, c2 in combinations(maximal, 2):
            if not _pairwise_intersection_ok(dim, ray_vecs, c1, c2):
                raise FanConditionViolated(
                    f"cones {c1.ray_indices} and {c2.ray_indices} overlap beyond a common face"
                )
        if require_complete:
            raise NotComplete("the fan does not cover the ambient space")
    return fan


def is_complete(fan: Fan, dets=None) -> bool:
    """Whether the fan covers the ambient space, by an integer certificate
    that its simplicial cones form a complete fan.

    The pseudomanifold / consistent-orientation / covering-degree-1
    characterisation of triangulations (De Loera-Rambau-Santos,
    *Triangulations*, Springer 2010, ch. 4), applied to the sphere:

    (a) every cone has `dim` rays and every ridge lies in exactly two cones;
    (b) the two rays opposite a ridge R lie strictly on opposite sides of
        its hyperplane: det(R, a) and det(R, b), with the same row order
        of R, are nonzero of opposite signs;
    (c) q = the sum of the rays of maximal[0], interior to that cone, lies
        in no other cone tau, so the covering degree is 1. Two exact tests
        settle tau, cheapest first:
        1. tau misses the mask of some dual functional m_u of maximal[0]
           (`positive_rays(0)`): m_u <= 0 on tau, but m_u(q) = 1. A tau
           sharing a ridge R = maximal[0] - {u} does, so a bit count settles
           it: by (a) the two are the cones of R, so by (b) tau's ray a
           opposite R lies strictly across R's hyperplane, the zero set of
           m_u, from u, and m_u(u) = 1 gives m_u(a) < 0.
        2. Otherwise the coefficients of q in tau's rays, read off the kept
           `cone_inverse` (d, d*b^-1) of tau: the coefficient at row i has
           the sign of d*(row_i . q), so q is in tau iff all are >= 0.

    (a) and (b) make the cones cover every generic point the same number
    of times; (c) makes that number 1, which rules out a fan that wraps
    around twice. True proves the fan valid and complete. On cones that meet
    in common faces, False proves the fan incomplete: a complete such fan
    passes (a), and it cannot fail (b) or (c), since no two of its cones
    overlap. The cones must already be known to be simplicial; every `Fan`
    that `validate_fan` returns has simplicial cones meeting in common
    faces, so there the answer is exact either way. `dets`, when given,
    holds the determinants of the maximal cones' ray rows in order, as
    `validate_fan` has them; otherwise they are computed here.
    """
    dim, rays, maximal = fan.dim, fan.rays, fan.max_cones
    if not maximal or any(len(c) != dim for c in maximal):
        return False
    if dets is None:
        dets = [int_det([rays[i] for i in c.ray_indices]) for c in maximal]
    masks = [ray_mask(c.ray_indices) for c in maximal]
    # det(R, a) is det(cone) with a's row moved last: dim-1-pos transpositions.
    ridge_sides: dict[int, list[bool]] = {}
    for cone, mask, det in zip(maximal, masks, dets):
        if det == 0:
            return False
        for pos, a in enumerate(cone.ray_indices):
            ridge_sides.setdefault(mask ^ 1 << a, []).append((det > 0) == ((dim - 1 - pos) % 2 == 0))
    if any(len(sides) != 2 or sides[0] == sides[1] for sides in ridge_sides.values()):
        return False
    q = tuple(sum(col) for col in zip(*(rays[i] for i in maximal[0].ray_indices)))
    first = fan.positive_rays(0)
    for j, mask in enumerate(masks[1:], 1):
        if (mask & masks[0]).bit_count() == dim - 1 or any(not mask & p for p in first):
            continue
        d, m = fan.cone_inverse(j)
        if all(d * sum(map(mul, row, q)) >= 0 for row in m):
            return False
    return True

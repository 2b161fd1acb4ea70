"""Basic subsets, their hat sets, the non-free witness, and the orbit
catalog with its torus-orbit decomposition.

Ray sets are integer bitmasks (bit r is ray r). The catalog of a finite
verdict is read off the maximal cones, one record each (`build_catalog`).
The basic subsets form a search tree under one per-node rule
(`_basic_subset_rule`). `unifan analyze --check` walks all of it only on a
finite verdict, to check the catalog against the search it replaced
(`enumerate_basic_subsets`); on an infinite verdict it draws its trials by
seeded random descents (`random_basic_subsets`), one path each.

In the search, monoid membership needs no search per query. In a
radiant class table every class that is not a unit vector belongs to a
positive ray, so at most `dim` classes are not units; each gets the bit of
its first ray, read off `ClassTable.carriers`. A ray set S then has the key
(U, q): U is the mask of the unit coordinates covered by its unit classes
and q the mask of its non-unit classes. The antichain A(c, q) holds the
minimal supports of the residuals c - sum a_i p_i >= 0 with every p_i in q,
and c lies in the monoid of S iff some support in A(c, q) is a subset of U.
Each A(c, q) is built on first use and kept for the life of one rule, so
the draws of one oracle run share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator

from .classgroup import ClassTable
from .fan import Cone, Fan, _bits, _sort_key, ray_mask
from .linalg import IntVec, InvariantViolation
from .monoid import gamma_of_rayset, in_span, irreducibles, is_free


@dataclass(slots=True)
class BasicSubset:
    """A ray set none of whose classes lies in the monoid of the others.

    The record holds two masks: bit r of `rays_mask` is set iff ray r is a
    member, bit r of `hat_mask` iff it is in the hat set. The hat set collects
    the rays whose class falls outside the generated monoid, plus equal-class
    rays preceding a member; the two sets never meet. `rays` and `hat` are
    derived on access.
    """

    rays_mask: int
    hat_mask: int
    in_x_hat: bool | None = None

    @property
    def rays(self) -> tuple[int, ...]:
        return _bits(self.rays_mask)

    @property
    def hat(self) -> tuple[int, ...]:
        return _bits(self.hat_mask)


@dataclass(frozen=True)
class OrbitRecord:
    basic: BasicSubset
    dimension: int
    t_orbit_cones: tuple[Cone, ...]


@dataclass(frozen=True)
class Verdict:
    finite: bool
    orbit_count: int | None = None
    reason: str | None = None  # "not_radiant" | "non_free_monoid"
    witness_cone: Cone | None = None
    witness_irreducibles: tuple[IntVec, ...] | None = None


def _support(vector) -> int:
    return ray_mask(j for j, x in enumerate(vector) if x)


def _antichain(vector: IntVec, gens) -> tuple[int, ...]:
    """Minimal supports of the residuals vector - sum a_i g_i >= 0, found by
    walking every residual once."""
    seen = {vector}
    stack = [vector]
    supports = set()
    while stack:
        residual = stack.pop()
        supports.add(_support(residual))
        for g in gens:
            nxt = tuple(x - y for x, y in zip(residual, g))
            if min(nxt) >= 0 and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return tuple(m for m in supports if not any(o != m and o & m == o for o in supports))


# The root of the basic-subset search: the empty set, with an empty key.
_ROOT = (0, (), 0, 0, 0, 0, 0)


def _basic_subset_rule(classes: ClassTable, precedence: frozenset[tuple[int, int]]):
    """The per-node rule of the basic-subset search, as a function of a node.

    A node is (mask, non-unit members, U, rays of the unit classes in U, q,
    precedence predecessors of the members, first ray that may extend it);
    `_ROOT` is the empty set. The rule returns the node's `BasicSubset`, with
    its hat, and its children, the basic sets S + x with x above every
    member, in descending order of x, so that a stack pops them in lex
    order.

    Supersets of non-basic sets are non-basic (the monoid only grows), so
    the search only extends basic sets; the empty set is basic. S + x is
    basic iff the class of x lies outside the monoid of S and no member's
    class lies in the monoid of the others. A basic set has pairwise distinct
    classes, so the key of S + x - r is that of S with the bits of x set and
    those of r cleared. A unit class lies in a monoid only as a generator, so
    only the non-unit members, at most `dim`, need a test, and a unit class is
    outside the monoid of S iff its coordinate is not in U. Each antichain is
    built on first use and kept for the life of the rule.
    """
    cls, carriers = classes.classes, classes.carriers
    d = len(cls)
    unit_bit = [0] * d  # the coordinate of a unit class
    unit_rays = [0] * d  # the rays of that unit class
    q_bit = [0] * d  # the bit of a non-unit class: its first ray
    for r, c in enumerate(cls):
        if sum(c) == 1:
            unit_bit[r], unit_rays[r] = _support(c), carriers[r]
        else:
            q_bit[r] = carriers[r] & -carriers[r]
    every_unit_ray = ray_mask(r for r in range(d) if unit_bit[r])
    firsts = [r for r in range(d) if q_bit[r] == 1 << r]  # one ray per non-unit class
    predecessors = [0] * d
    for a, b in precedence:
        predecessors[b] |= 1 << a

    antichains: dict[int, dict[IntVec, tuple[int, ...]]] = {}  # q -> class -> A

    def member(c: IntVec, units: int, q: int) -> bool:
        """Whether class c lies in the monoid of key (units, q)."""
        chains = antichains.get(q)
        if chains is None:
            chains = antichains[q] = {}
        chain = chains.get(c)
        if chain is None:
            chain = chains[c] = _antichain(c, [cls[i] for i in _bits(q)])
        for m in chain:
            if m & units == m:
                return True
        return False

    def expand(node):
        mask, members, units, covered, q, preceding, start = node
        outside = every_unit_ray & ~covered
        for r in firsts:
            if not member(cls[r], units, q):
                outside |= carriers[r]
        children = []
        candidates = outside >> start << start
        while candidates:
            x = candidates.bit_length() - 1
            candidates ^= 1 << x
            units_x, q_x = units | unit_bit[x], q | q_bit[x]
            for r in members:
                if member(cls[r], units_x, q_x & ~q_bit[r]):
                    break
            else:
                children.append(
                    (
                        mask | 1 << x,
                        members + (x,) if q_bit[x] else members,
                        units_x,
                        covered | unit_rays[x],
                        q_x,
                        preceding | predecessors[x],
                        x + 1,
                    )
                )
        return BasicSubset(mask, (outside | preceding) & ~mask), children

    return expand


def enumerate_basic_subsets(
    classes: ClassTable, precedence: frozenset[tuple[int, int]]
) -> list[BasicSubset]:
    """All basic subsets, found by depth-first search in lex order."""
    expand = _basic_subset_rule(classes, precedence)
    out: list[BasicSubset] = []
    stack = [_ROOT]
    while stack:
        basic, children = expand(stack.pop())
        out.append(basic)
        stack += children
    return out


def random_basic_subsets(
    classes: ClassTable, precedence: frozenset[tuple[int, int]], rng
) -> Iterator[BasicSubset]:
    """Endless seeded draws of basic subsets, one descent of the search each.

    A descent starts at the empty set. At a node with k children it stops
    with probability 1/(k + 1), yielding the node's record, and otherwise
    moves to a uniformly chosen child. Every basic subset can be drawn, not
    uniformly, and a draw costs at most one root-to-leaf path. All draws share
    one rule, and so one antichain cache, and expand each node once: records
    drawn twice are one object.
    """
    expand = _basic_subset_rule(classes, precedence)
    expanded = {}  # mask -> (record, children)
    while True:
        node = _ROOT
        while True:
            step = expanded.get(node[0])
            if step is None:
                step = expanded[node[0]] = expand(node)
            basic, children = step
            pick = rng.randrange(len(children) + 1)
            if pick == len(children):
                yield basic
                break
            node = children[pick]


def with_membership(fan: Fan, basics) -> list[BasicSubset]:
    """Fill the `in_x_hat` flag of each record in place: the stratum of a
    basic subset meets the quotient domain iff some maximal cone contains
    the whole hat set, which in a simplicial fan holds iff the hat set is a
    cone, one lookup in `fan.all_cones`."""
    for b in basics:
        b.in_x_hat = b.hat_mask in fan.all_cones
    return basics


def non_free_witness(fan: Fan, classes: ClassTable):
    """First cone (by size, then lex) whose complement monoid is not free,
    together with that monoid's irreducibles; None when all are free.

    Only closed cones are tested: those that hold every carrier
    (`ClassTable.carriers`) of each of their rays. The closure of a cone F,
    the union of the carriers F holds in full, is a face of F, and the first
    non-free cone is closed:
    - for r in F outside its closure, a carrier of r's class lies outside F,
      so that class is already a generator of Gamma(F); hence Gamma(F) =
      Gamma(closure);
    - an empty closure gives every class, which is N^k and free (below);
    - any other closure is a smaller cone, so it was visited and tested
      first.

    Only the cones with 0 < size < dim are tested; on a radiant class table
    the others are free. The empty cone's monoid holds every class, the k
    unit classes of the negative rays among them, and every class is
    nonnegative, so it is N^k. A maximal cone sigma has dim rays and k
    outside it. Its rays are a Q-basis of N_Q, so every divisor is linearly
    equivalent over Q to one supported outside sigma: those k classes span
    Cl_Q, of rank k, so they are independent, and so are the irreducibles
    among them.
    """
    carriers = classes.carriers
    for inside, cone in fan.all_cones.items():
        if len(cone) == fan.dim:
            break  # (size, lex) order: only maximal cones are left
        if not inside:
            continue
        for r in cone.ray_indices:
            if carriers[r] & ~inside:
                break
        else:
            complement = [r for r in range(fan.num_rays) if not inside >> r & 1]
            monoid = gamma_of_rayset(classes, complement)
            if not is_free(monoid):
                return cone, tuple(irreducibles(monoid))
    return None


def build_catalog(
    fan: Fan, classes: ClassTable, precedence: frozenset[tuple[int, int]]
) -> list[OrbitRecord]:
    """The orbit catalog of a finite verdict, one record per maximal cone.

    With finitely many orbits, each orbit is an affine space holding exactly
    one torus-fixed point (Bialynicki-Birula), so the record of a maximal
    cone sigma has the basic set S = rays - sigma. Its hat holds the rays of
    sigma whose class lies outside the monoid of S's classes, plus the
    precedence predecessors of S's members; it absorbs the torus orbits of
    the faces of sigma that contain the hat. Records are sorted by
    descending dimension, then by ray set. The records' cones must partition
    the fan's cones, and the one open orbit must be the negative-ray stratum.
    """
    full = (1 << fan.num_rays) - 1
    span = cache(in_span)  # keyed by (class, generators), for this call only
    records, claimed = [], []
    for sigma in fan.max_cones:
        inside = ray_mask(sigma.ray_indices)
        members = full & ~inside
        gens = tuple(sorted({classes.class_of(r) for r in _bits(members)}))
        hat = ray_mask(a for a, b in precedence if members >> b & 1)
        hat |= ray_mask(r for r in sigma.ray_indices if not span(classes.class_of(r), gens))
        free = inside & ~hat
        masks, sub = [], free
        while True:  # every submask of `free`, once
            masks.append(hat | sub)
            if not sub:
                break
            sub = (sub - 1) & free
        claimed += masks
        records.append(
            OrbitRecord(
                basic=BasicSubset(members, hat, in_x_hat=True),
                dimension=fan.dim - hat.bit_count(),
                t_orbit_cones=tuple(sorted((fan.all_cones[m] for m in masks), key=_sort_key)),
            )
        )
    if len(claimed) != len(fan.all_cones) or fan.all_cones.keys() != set(claimed):
        raise InvariantViolation("the orbits' torus-orbit cones do not partition the fan")
    records.sort(key=lambda r: (-r.dimension, r.basic.rays))
    open_records = [r for r in records if not r.basic.hat_mask]
    if len(open_records) != 1:
        raise InvariantViolation(f"{len(open_records)} open orbits, expected one")
    if open_records[0].basic.rays != tuple(sorted(classes.negative)):
        raise InvariantViolation("the open orbit is not the negative-ray stratum")
    return records

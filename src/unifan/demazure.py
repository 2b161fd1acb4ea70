"""Demazure roots, the defining vector of the maximal unipotent subgroup,
and the precedence order on rays."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import count, repeat
from operator import add, sub

from .classgroup import ClassTable
from .fan import Fan, _bits
from .linalg import IntVec, InvariantViolation, LinearSystem, TooLarge, lattice_points
from .radiance import BilateralStructure


@dataclass(slots=True)
class DemazureRoot:
    """A character pairing to -1 with exactly one ray and >= 0 with the rest.

    `in_u` is None until a defining vector has been chosen; `mark_membership`
    then sets it in place, so the record is mutable and unhashable. Unipotent
    roots always end up in the maximal unipotent subgroup, semisimple ones
    only when they pair positively with the chosen vector.
    """

    e: IntVec
    distinguished_ray: int
    semisimple: bool
    in_u: bool | None = None

    @property
    def kind(self) -> str:
        return "semisimple" if self.semisimple else "unipotent"


def root_slices(
    fan: Fan,
    bilateral: BilateralStructure | None = None,
    classes: ClassTable | None = None,
) -> tuple[list[list[IntVec]], frozenset[IntVec]]:
    """Each ray's Demazure roots, sorted, and the set of semisimple ones.

    Given the bilateral structure and class table of a radiant fan, each
    ray's roots are read off the class table (`_class_table_slices`) and the
    semisimple roots are the equal-class pair vectors of `semisimple_roots`.
    Otherwise each ray's roots are the bounded lattice slice pairing to -1
    with that ray and nonnegatively with all others: [] when
    `_certified_empty` proves the slice empty, else from the projection
    chain of `lattice_points` (in lex order), and a root is semisimple iff
    its negative is a root too. A root pairs to -1 with exactly one ray, so
    it lies in exactly one slice.
    """
    if bilateral is None or classes is None:
        empty = _certified_empty(fan)
        slices = [
            [] if empty >> rho & 1 else lattice_points(_slice_system(fan, rho))
            for rho in range(fan.num_rays)
        ]
        all_e = {e for found in slices for e in found}
        semisimple = frozenset(e for e in all_e if tuple([-x for x in e]) in all_e)
    else:
        slices = _class_table_slices(bilateral, classes)
        semisimple = frozenset(semisimple_roots(fan, bilateral, classes))
    return slices, semisimple


def root_records(slices, semisimple) -> list[DemazureRoot]:
    """One unflagged record per root of `root_slices`, sorted by (ray, e)."""
    return [
        DemazureRoot(e, rho, e in semisimple)
        for rho, found in enumerate(slices)
        for e in found
    ]


def enumerate_roots(
    fan: Fan,
    bilateral: BilateralStructure | None = None,
    classes: ClassTable | None = None,
) -> list[DemazureRoot]:
    """All Demazure roots of a complete fan as records, sorted by (ray, e)."""
    return root_records(*root_slices(fan, bilateral, classes))


def _slice_system(fan: Fan, rho: int) -> LinearSystem:
    """<e, rho> = -1 and <e, ray> >= 0 for every other ray."""
    return LinearSystem.make(
        fan.dim,
        equalities=[(fan.rays[rho], -1)],
        inequalities=[
            (fan.rays[other], 0) for other in range(fan.num_rays) if other != rho
        ],
    )


def _certified_empty(fan: Fan) -> int:
    """Mask of the rays whose slice a one-cone Farkas certificate proves empty.

    Take a maximal cone sigma holding rho and a ray r outside it, and write
    r = sum_u a_u u over sigma's rays. If a_rho > 0 and a_u <= 0 for every
    other u, then a_rho rho = r + sum_u (-a_u) u, so an e with <e, rho> = -1
    pairs negatively with r or with another u: the slice at rho is empty.
    a_u > 0 iff r is in u's mask of `fan.positive_rays`, and u is in its
    own mask only, so rho is certified when its mask less the rays in two
    masks holds another ray; sigma need not be a lattice basis. Sufficient,
    not complete: an uncertified slice may still be empty. Cones whose rays
    are all certified are skipped, and the scan stops once every ray is.
    """
    n = fan.dim
    full = (1 << fan.num_rays) - 1
    empty = 0
    for i, cone in enumerate(fan.max_cones):
        if empty == full:
            break
        sigma = cone.ray_indices
        if len(sigma) != n or all(empty >> u & 1 for u in sigma):
            continue
        masks = fan.positive_rays(i)
        once = twice = 0
        for p in masks:
            twice |= once & p
            once |= p
        for u, p in zip(sigma, masks):
            if p & ~twice != 1 << u:
                empty |= 1 << u
    return empty


def _class_table_slices(
    bilateral: BilateralStructure, classes: ClassTable
) -> list[list[IntVec]]:
    """Each ray's roots on a radiant fan, sorted, with no linear system.

    In the positive-ray basis u, a character is e = sum_i c_i dual[i] with
    c_i = <e, u_i>, and it pairs to -sum_i c_i cls_t(u_i) with the negative
    ray of class e_t. So the roots at u_j are c_j = -1 and c_i >= 0 for the
    other i with sum c_i cls(u_i) <= cls(u_j) componentwise: a knapsack
    walk whose every leaf is a root, finite because no class is zero. At a
    negative ray the sum must equal its unit class, so its roots are the
    dual[i] of the u_i of that class: the equal-class pairs.

    A level whose `top` is sys.maxsize or more raises `TooLarge`: it takes
    top + 1 steps and each step's subtree holds at least one leaf, so the
    slice has more roots than any Python list can hold.
    """
    dual = bilateral.dual_basis
    cls = [classes.class_of(ray) for ray in bilateral.positive]
    for ray, c in zip(bilateral.positive, cls):
        if not any(c):
            raise InvariantViolation(f"class of ray {ray} is zero")
    support = [[t for t, x in enumerate(c) if x] for c in cls]
    slices: list[list[IntVec]] = [[] for _ in classes.classes]
    for tau in bilateral.negative:
        same = classes.carriers[tau]
        slices[tau] = sorted(dual[i] for i, u in enumerate(bilateral.positive) if same >> u & 1)
    for j, rho in enumerate(bilateral.positive):
        # Largest classes first, so the last level, emitted in bulk, is the longest.
        others = sorted((i for i in range(len(cls)) if i != j), key=lambda i: -sum(cls[i]))
        found: list[IntVec] = []

        def walk(level: int, budget: list[int], e: IntVec) -> None:
            if level == len(others):
                found.append(e)
                return
            i = others[level]
            c, d = cls[i], dual[i]
            top = min(budget[t] // c[t] for t in support[i])
            if top >= sys.maxsize:
                raise TooLarge(f"the Demazure roots at ray {rho} do not fit in a list")
            if level == len(others) - 1:
                # e, e + d, ..., e + top*d, built one coordinate column at a time
                columns = (
                    range(x, x + (top + 1) * y, y) if y else repeat(x, top + 1)
                    for x, y in zip(e, d)
                )
                found.extend(zip(*columns))
                return
            for _ in range(top + 1):
                walk(level + 1, budget, e)
                budget = list(map(sub, budget, c))
                e = tuple(map(add, e, d))

        walk(0, list(cls[j]), tuple([-x for x in dual[j]]))
        found.sort()
        slices[rho] = found
    return slices


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def semisimple_roots(fan: Fan, bilateral: BilateralStructure, classes: ClassTable) -> list[IntVec]:
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
    found = []
    for a, same in enumerate(classes.carriers):
        for b in _bits(same & ~(1 << a)):
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


def choose_v(fan: Fan, bilateral: BilateralStructure, semisimple) -> IntVec:
    """Deterministic choice of the lattice vector `v` defining the unipotent
    subgroup, given the semisimple root vectors: its coordinates in the
    positive-ray basis are negative and strictly decreasing, and it pairs
    nonzero with every semisimple root.

    Tries coordinates (-1, -c, -c^2, ...) in the positive-ray basis for
    c = 2, 3, ...; the chain of strictly decreasing negatives is automatic
    and each rejected c kills a nonzero polynomial, so the search ends.
    """
    n = fan.dim
    basis_vectors = [fan.rays[i] for i in bilateral.positive]
    for c in count(2):
        coords = tuple(-(c**i) for i in range(n))
        v = tuple(
            sum(coords[i] * basis_vectors[i][t] for i in range(n)) for t in range(n)
        )
        if all(_dot(e, v) != 0 for e in semisimple):
            return v
    raise InvariantViolation("unreachable")


def mark_membership(roots, v: IntVec) -> list[DemazureRoot]:
    """Set the in_u flag of each root in place and return the same list:
    unipotent roots always, semisimple ones when they pair positively with
    the chosen vector `v`."""
    for r in roots:
        r.in_u = not r.semisimple or _dot(r.e, v) > 0
    return roots


def compute_precedence(
    bilateral: BilateralStructure, classes: ClassTable
) -> frozenset[tuple[int, int]]:
    """The strict precedence order on rays, as the pairs (a, b) with a
    preceding b: equal classes, a negative and b positive, or both positive
    with a earlier in the basis order. A negative ray has no basis position,
    so it reads as -1, before every positive one."""
    position = {ray: pos for pos, ray in enumerate(bilateral.positive)}
    return frozenset(
        (a, b)
        for b, after in position.items()
        for a in _bits(classes.carriers[b])
        if position.get(a, -1) < after
    )

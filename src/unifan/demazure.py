"""Demazure roots, the defining vector of the maximal unipotent subgroup,
and the precedence order on rays."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from operator import add, sub

from .classgroup import ClassTable
from .fan import Fan
from .linalg import IntVec, InvariantViolation, LinearSystem, lattice_points
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


def enumerate_roots(
    fan: Fan,
    bilateral: BilateralStructure | None = None,
    classes: ClassTable | None = None,
) -> list[DemazureRoot]:
    """All Demazure roots of a complete fan, sorted by (ray, e).

    Given the bilateral structure and class table of a radiant fan, each
    ray's roots are read off the class table (`_class_table_slices`) and a
    root is semisimple iff it is one of the equal-class pair vectors of
    `semisimple_roots`. Otherwise each ray's roots are the bounded lattice
    slice pairing to -1 with that ray and nonnegatively with all others,
    from the projection chain of `lattice_points` (in lex order), and a root
    is semisimple iff its negative is a root too.
    """
    if bilateral is None or classes is None:
        slices = [lattice_points(_slice_system(fan, rho)) for rho in range(fan.num_rays)]
        all_e = {e for found in slices for e in found}
        semisimple = {e for e in all_e if tuple([-x for x in e]) in all_e}
    else:
        slices = _class_table_slices(bilateral, classes)
        semisimple = set(semisimple_roots(fan, bilateral, classes))
    return [
        DemazureRoot(e, rho, e in semisimple)
        for rho, found in enumerate(slices)
        for e in found
    ]


def _slice_system(fan: Fan, rho: int) -> LinearSystem:
    """<e, rho> = -1 and <e, ray> >= 0 for every other ray."""
    return LinearSystem.make(
        fan.dim,
        equalities=[(fan.rays[rho], -1)],
        inequalities=[
            (fan.rays[other], 0) for other in range(fan.num_rays) if other != rho
        ],
    )


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
    """
    dual = bilateral.dual_basis
    cls = [classes.class_of(ray) for ray in bilateral.positive]
    for ray, c in zip(bilateral.positive, cls):
        if not any(c):
            raise InvariantViolation(f"class of ray {ray} is zero")
    support = [[t for t, x in enumerate(c) if x] for c in cls]
    slices: list[list[IntVec]] = [[] for _ in classes.classes]
    for tau in bilateral.negative:
        unit = classes.class_of(tau)
        slices[tau] = sorted(dual[i] for i, c in enumerate(cls) if c == unit)
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
            if level == len(others) - 1:
                found.append(e)
                for _ in range(top):
                    e = tuple(map(add, e, d))
                    found.append(e)
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

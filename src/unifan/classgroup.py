"""Divisor class group computation and per-ray classes in the negative-ray basis."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fan import Fan
from .linalg import IntVec, InvariantViolation, smith_normal_form


@dataclass(frozen=True)
class ClassGroupInfo:
    free_rank: int
    torsion_invariants: tuple[int, ...]


@dataclass(frozen=True)
class ClassTable:
    """Classes of the prime invariant divisors in the negative-ray basis.

    Every class vector lives in the free monoid spanned by the negative-ray
    classes, so all entries are nonnegative; the class of the j-th negative
    ray is the j-th unit vector.
    """

    k: int
    negative: tuple[int, ...]
    classes: tuple[IntVec, ...]

    def class_of(self, ray_index: int) -> IntVec:
        return self.classes[ray_index]

    @cached_property
    def carriers(self) -> tuple[int, ...]:
        """For each ray, the mask of the rays of its class, itself included.
        Built on first read and kept outside the fields, so a `replace` copy
        builds its own, and equality, hash and repr are the fields' alone."""
        union: dict[IntVec, int] = {}
        for r, c in enumerate(self.classes):
            union[c] = union.get(c, 0) | 1 << r
        return tuple(union[c] for c in self.classes)


def class_group(fan: Fan) -> ClassGroupInfo:
    """Cokernel of the character-to-divisor pairing map.

    The invariant factors of the (num_rays x dim) matrix of primitive ray
    vectors give the free rank and torsion invariants of the class group.

    Certificate first: when the first maximal cone has `dim` rays with a
    determinant of +-1, the group is free of rank num_rays - dim and no
    Smith form is computed. Proof: the invariant factors multiply to the gcd
    of the maximal minors (Newman, *Integral Matrices*, 1972), and a minor
    of +-1 makes that gcd 1, so all `dim` factors are 1. The determinant is
    the d of `fan.cone_inverse(0)`, which the completeness certificate and
    the bilateral search read too, so the cone is eliminated once per fan.
    The group is kept on the fan (`Fan.kept`), so a second call, such as
    the cross-check's after `analyze_fan`, computes nothing.
    """
    return fan.kept("class_group", lambda: _class_group(fan))


def _class_group(fan: Fan) -> ClassGroupInfo:
    first = fan.max_cones[0] if fan.max_cones else ()
    if len(first) == fan.dim and fan.cone_inverse(0)[0] in (1, -1):
        return ClassGroupInfo(free_rank=fan.num_rays - fan.dim, torsion_invariants=())
    factors = smith_normal_form(fan.rays)
    return ClassGroupInfo(
        free_rank=fan.num_rays - sum(1 for x in factors if x != 0),
        torsion_invariants=tuple(x for x in factors if x > 1),
    )


def radiant_classes(fan: Fan, bilateral) -> ClassTable:
    """Class of every ray in the basis of negative-ray classes.

    The positive-ray classes come from pairing the dual basis against the
    negative rays; entries are nonnegative because negative rays sit in the
    closed negative orthant of the chosen basis.

    The table is kept on the fan under the structure passed in (`Fan.kept`),
    so a table found for one bilateral structure never stands in for
    another's, and a structure whose table raises keeps nothing.
    """
    return fan.kept(("radiant_classes", bilateral), lambda: _class_table(fan, bilateral))


def _class_table(fan: Fan, bilateral) -> ClassTable:
    k = len(bilateral.negative)
    dual = bilateral.dual_basis
    classes: list[IntVec | None] = [None] * fan.num_rays
    for j, tau in enumerate(bilateral.negative):
        classes[tau] = tuple(1 if t == j else 0 for t in range(k))
    negative_vectors = [fan.rays[tau] for tau in bilateral.negative]
    for i, eps in enumerate(bilateral.positive):
        row = dual[i]
        cls = tuple(-sum(a * b for a, b in zip(row, nj)) for nj in negative_vectors)
        if any(x < 0 for x in cls):
            raise InvariantViolation(f"class of ray {eps} has a negative entry: {cls}")
        classes[eps] = cls

    # Exactness check: the pairing of any character with the ray vectors is
    # a relation among the classes.
    n = fan.dim
    for coord in range(n):
        total = [0] * k
        for r, primitive in enumerate(fan.rays):
            pairing = primitive[coord]
            for t in range(k):
                total[t] += pairing * classes[r][t]
        if any(total):
            raise InvariantViolation("ray classes do not satisfy the defining relations")

    return ClassTable(
        k=k,
        negative=tuple(bilateral.negative),
        classes=tuple(classes),
    )

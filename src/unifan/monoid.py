"""Affine submonoids of the nonnegative class lattice: membership,
irreducible elements, and the freeness test."""

from __future__ import annotations

from dataclasses import dataclass

from .classgroup import ClassTable
from .linalg import DegenerateGenerator, IntVec, q_independent, solve_nonneg


@dataclass(frozen=True)
class ClassMonoid:
    """Submonoid of (Z>=0)^k generated by ray classes.

    Duplicate class vectors are collapsed to one generator each (the monoid
    is generated by a set of elements), kept in sorted order.
    """

    generators: tuple[IntVec, ...]


def gamma_of_rayset(classes: ClassTable, ray_indices) -> ClassMonoid:
    """The monoid generated by the classes of the given rays."""
    gens = set()
    for ray in sorted(ray_indices):
        vec = classes.class_of(ray)
        if all(x == 0 for x in vec):
            raise DegenerateGenerator(f"ray {ray} has zero class")
        gens.add(vec)
    return ClassMonoid(generators=tuple(sorted(gens)))


def in_span(vector: IntVec, gens) -> bool:
    """Whether a nonnegative vector is a nonnegative integer combination of
    the nonzero generators.

    The trusted shortcuts run before the search: zero and the generators
    themselves are members; a unit vector that is not a generator is not, as
    it is no sum of nonzero nonnegative vectors other than itself; with no
    generators nothing else is; and a vector on the unit generators'
    coordinates is a member, as they absorb it. Only what is left reaches
    `solve_nonneg`, which searches the non-unit generators for a yes or no.
    """
    if not any(vector) or vector in gens:
        return True
    if sum(vector) == 1 or not gens:
        return False
    units = {g.index(1) for g in gens if sum(g) == 1}
    if all(j in units for j, x in enumerate(vector) if x):
        return True
    return solve_nonneg(vector, gens)


def contains(monoid: ClassMonoid, vector) -> bool:
    """Monoid membership; the zero vector always belongs."""
    vector = tuple(int(x) for x in vector)
    if any(x < 0 for x in vector):
        raise ValueError("membership is only defined for nonnegative vectors")
    return in_span(vector, monoid.generators)


def irreducibles(monoid: ClassMonoid) -> list[IntVec]:
    """Generators that are not sums of two or more generators, in order.

    A unit generator is irreducible with no query: a sum of two or more
    nonzero nonnegative vectors has coordinate sum at least 2. A non-unit
    generator g is reducible iff g lies in the monoid of the generators
    other than g, so each non-unit generator costs one membership query.
    Proof: the generators are distinct nonzero vectors of the nonnegative
    lattice. If g = h_1 + ... + h_m with m >= 2, then g - h_i is the nonzero
    sum of the other terms, so h_i != g for every i. Conversely, a
    combination of generators other than g that equals g has coefficients
    summing to at least 1, as g is nonzero, and not exactly 1, as that would
    make a generator other than g equal to g.
    """
    gens = monoid.generators
    return [g for g in gens if sum(g) == 1 or not in_span(g, [h for h in gens if h != g])]


def is_free(monoid: ClassMonoid) -> bool:
    """True iff the irreducible elements are Q-linearly independent.

    Certificates first, so that no irreducible is computed:
    - When the generators include all k unit vectors, the monoid is N^k and
      free. Proof: every nonnegative vector is a sum of units, so the
      irreducibles are exactly the k units, which are independent.
    - When k = 1, the monoid is free iff its least generator g divides every
      other generator. Proof: g is irreducible, as a sum of two or more
      generators is at least 2g. If g divides every generator, each other
      generator is a sum of copies of g, so g is the only irreducible, and a
      nonzero vector is independent. Otherwise, let h be the least generator
      that g does not divide. Every generator below h is a multiple of g, so
      h is no sum of them, and h is irreducible too. Two irreducibles in Q^1
      are dependent.

    Otherwise the unit rows are eliminated before the rank test. Let J be
    the coordinates of the unit generators; every unit generator is
    irreducible, so these are the unit irreducibles. Only the non-unit
    irreducibles, with the J coordinates deleted, reach `q_independent`.
    Proof: order the columns J first. The unit irreducibles are the rows
    (I, 0); subtracting from each non-unit row its J entries times the unit
    rows leaves (0, N), where N is that row with the J coordinates deleted.
    Row operations keep the rank, so the rank of the irreducibles is |J|
    plus the rank of the rows N, and they are independent iff the rows N
    are. On a radiant class table at most dim classes are not unit
    vectors, so the rank test has at most dim rows however many rays the
    fan has.
    """
    gens = monoid.generators
    if not gens or sum(1 for g in gens if sum(g) == 1) == len(gens[0]):
        return True
    if len(gens[0]) == 1:
        least = gens[0][0]
        return all(g % least == 0 for (g,) in gens)
    units = {g.index(1) for g in gens if sum(g) == 1}
    rest = [g for g in irreducibles(monoid) if sum(g) != 1]
    return q_independent([[x for j, x in enumerate(g) if j not in units] for g in rest])

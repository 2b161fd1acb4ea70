"""Detection of the bilateral structure: a ray basis with all other rays
in the closed negative orthant."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .fan import Fan
from .linalg import IntMat, NotUnimodular, invert_unimodular


@dataclass(frozen=True)
class BilateralStructure:
    """Ordered positive rays forming a lattice basis, the negative rays, and
    the dual basis: the tuple of its rows, where row i pairs to 1 with the
    i-th positive primitive and to 0 with the others."""

    positive: tuple[int, ...]
    negative: tuple[int, ...]
    dual_basis: IntMat

    def coordinates(self, vector) -> tuple[int, ...]:
        """Coordinates of a lattice vector in the positive-ray basis."""
        return tuple(sum(a * b for a, b in zip(row, vector)) for row in self.dual_basis)


def iter_bilateral_structures(fan: Fan) -> Iterator[BilateralStructure]:
    """Yield every bilateral structure of a complete fan, candidates in
    lexicographic index order.

    Only maximal cones are candidates: if p_1..p_n is a basis with every
    other ray in the closed negative orthant, then cone(p_1..p_n) is a
    maximal cone. Proof: w = p_1 + ... + p_n lies in some maximal cone
    sigma, so w = sum of c_rho * rho over the rays of sigma with c_rho >= 0.
    In the basis coordinates the i-th coordinate of w is 1, that of p_j is
    0 for j != i, and that of every other ray is <= 0; hence p_i is a ray of
    sigma with c_{p_i} >= 1. So sigma, which has n rays, is cone(p_1..p_n).
    `fan.max_cones` is lex-sorted, so the sequence yielded is the one over
    all n-subsets of the rays.
    """
    n = fan.dim
    indices = range(fan.num_rays)
    for cone in fan.max_cones:
        combo = cone.ray_indices
        if len(combo) != n:
            continue
        try:
            dual = invert_unimodular(tuple(zip(*(fan.rays[i] for i in combo))))
        except NotUnimodular:
            continue
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


def find_bilateral(fan: Fan) -> BilateralStructure | None:
    """First bilateral structure in the fixed search order, or None.

    The positive rays are ordered by ascending input index; that ordering is
    the convention all downstream orderings build on, so the first witness
    makes every report reproducible from the input file alone.
    """
    return next(iter_bilateral_structures(fan), None)

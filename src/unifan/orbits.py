"""Basic subsets, their hat sets, the non-free witness, and the orbit
catalog with its torus-orbit decomposition."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .classgroup import ClassTable
from .demazure import PrecedenceRelation
from .fan import Cone, Fan
from .linalg import IntVec, InvariantViolation, q_independent
from .monoid import ClassMonoid, gamma_of_rayset, in_span, irreducibles, is_free


@dataclass(frozen=True)
class BasicSubset:
    """A ray set none of whose classes lies in the monoid of the others.

    `hat` collects the rays whose class falls outside the generated monoid,
    plus equal-class rays preceding a member; the two sets never meet.
    """

    rays: tuple[int, ...]
    hat: tuple[int, ...]
    classes_independent: bool
    in_x_hat: bool | None = None


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


def _is_basic(classes: ClassTable, rays: tuple[int, ...]) -> bool:
    for rho in rays:
        others = [classes.class_of(r) for r in rays if r != rho]
        if in_span(classes.class_of(rho), others):
            return False
    return True


def _hat_of(classes: ClassTable, precedence: PrecedenceRelation, rays) -> tuple[int, ...]:
    member_set = set(rays)
    gens = gamma_of_rayset(classes, rays).generators if rays else ()
    hat = []
    for rho in range(len(classes.classes)):
        if rho in member_set:
            continue
        outside = not in_span(classes.class_of(rho), gens)
        if outside or any(precedence.precedes(rho, member) for member in rays):
            hat.append(rho)
    return tuple(hat)


def enumerate_basic_subsets(
    classes: ClassTable, precedence: PrecedenceRelation
) -> list[BasicSubset]:
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
            BasicSubset(
                rays=rays,
                hat=hat,
                classes_independent=q_independent(
                    [classes.class_of(r) for r in rays]
                ),
            )
        )
    return out


def in_x_hat(fan: Fan, hat) -> bool:
    """Whether the stratum of a basic subset meets the quotient domain:
    some maximal cone must contain the whole hat set."""
    wanted = set(hat)
    return any(wanted <= set(c.ray_indices) for c in fan.max_cones)


def with_membership(fan: Fan, basics) -> list[BasicSubset]:
    return [replace(b, in_x_hat=in_x_hat(fan, b.hat)) for b in basics]


def minimal_basic(
    classes: ClassTable, precedence: PrecedenceRelation, monoid: ClassMonoid
) -> tuple[int, ...]:
    """The unique minimal basic subset generating the same monoid.

    For each irreducible class, pick the earliest carrier in the precedence
    order: the unique negative ray when one carries it, otherwise the
    lowest-position positive ray.
    """
    negatives = set(classes.negative)
    position = {ray: pos for pos, ray in enumerate(classes.positive)}
    chosen = []
    for cls in irreducibles(monoid):
        carriers = [
            r for r in range(len(classes.classes)) if classes.class_of(r) == cls
        ]
        negs = [r for r in carriers if r in negatives]
        if negs:
            chosen.append(negs[0])
        else:
            chosen.append(min(carriers, key=position.get))
    return tuple(sorted(chosen))


def non_free_witness(fan: Fan, classes: ClassTable):
    """First cone (by size, then lex) whose complement monoid is not free,
    together with that monoid's irreducibles; None when all are free.

    Freeness depends only on the generator set, and many cones share one,
    so each distinct set is tested once.
    """
    free: set[tuple[IntVec, ...]] = set()
    for cone in fan.all_cones:
        complement = [r for r in range(fan.num_rays) if r not in cone.ray_indices]
        monoid = gamma_of_rayset(classes, complement)
        if monoid.generators in free:
            continue
        if not is_free(monoid):
            return cone, tuple(irreducibles(monoid))
        free.add(monoid.generators)
    return None


def build_catalog(fan: Fan, basics, negative_rays) -> list[OrbitRecord]:
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
            for c in fan.all_cones
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

"""End-to-end analysis of a validated complete simplicial fan: the verdict
and, when it is finite, the orbit catalog."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .classgroup import ClassGroupInfo, ClassTable, class_group, radiant_classes
from .demazure import (
    DemazureRoot,
    choose_v,
    compute_precedence,
    enumerate_roots,
    mark_membership,
    semisimple_roots,
)
from .fan import Fan
from .linalg import IntVec
from .orbits import OrbitRecord, Verdict, build_catalog, non_free_witness
from .radiance import BilateralStructure, find_bilateral


@dataclass(frozen=True)
class FanAnalysis:
    fan: Fan
    class_info: ClassGroupInfo
    bilateral: BilateralStructure | None
    classes: ClassTable | None
    v: IntVec | None
    precedence: frozenset[tuple[int, int]] | None
    verdict: Verdict
    catalog: list[OrbitRecord] | None

    @cached_property
    def roots(self) -> list[DemazureRoot]:
        """Every Demazure root in (ray, e) order, built on first read. On a
        radiant fan the records are read off the class table and each
        carries its `in_u` flag for the chosen `v`; on any other fan they
        come from the projection chain and `in_u` stays None."""
        roots = enumerate_roots(self.fan, self.bilateral, self.classes)
        if self.v is not None:
            mark_membership(roots, self.v)
        return roots


def analyze_fan(fan: Fan, bilateral: BilateralStructure | None = None) -> FanAnalysis:
    """Run the whole verdict pipeline on a validated complete fan.

    An explicit bilateral structure can be supplied to exercise a witness
    other than the first one found; the verdict must not depend on it.
    Each stage fills its own fields; those of stages that never ran stay None.
    The semisimple roots that fix `v` are the equal-class ray pairs, so no
    root record is built here: `roots` is enumerated when first read.
    """
    class_info = class_group(fan)
    if bilateral is None:
        bilateral = find_bilateral(fan)
    classes = v = precedence = catalog = None
    if bilateral is None:
        verdict = Verdict(finite=False, reason="not_radiant")
    else:
        classes = radiant_classes(fan, bilateral)
        v = choose_v(fan, bilateral, semisimple_roots(fan, bilateral, classes))
        precedence = compute_precedence(bilateral, classes)
        witness = non_free_witness(fan, classes)
        if witness is not None:
            cone, irr = witness
            verdict = Verdict(
                finite=False,
                reason="non_free_monoid",
                witness_cone=cone,
                witness_irreducibles=irr,
            )
        else:
            catalog = build_catalog(fan, classes, precedence)
            verdict = Verdict(finite=True, orbit_count=len(catalog))
    return FanAnalysis(
        fan=fan,
        class_info=class_info,
        bilateral=bilateral,
        classes=classes,
        v=v,
        precedence=precedence,
        verdict=verdict,
        catalog=catalog,
    )


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
    mark_membership,
    root_records,
    root_slices,
)
from .fan import Fan
from .linalg import IntVec
from .orbits import OrbitRecord, Verdict, build_catalog, non_free_witness
from .radiance import BilateralStructure, find_bilateral


@dataclass(frozen=True)
class FanAnalysis:
    """The verdict pipeline's results on one fan. The fields are what the
    verdict and the catalog need; `v`, `root_slices` and `roots` are found on
    first read, since no verdict or catalog byte depends on them."""

    fan: Fan
    class_info: ClassGroupInfo
    bilateral: BilateralStructure | None
    classes: ClassTable | None
    precedence: frozenset[tuple[int, int]] | None
    verdict: Verdict
    catalog: list[OrbitRecord] | None

    @cached_property
    def v(self) -> IntVec | None:
        """The lattice vector defining the maximal unipotent subgroup, found
        on first read by `choose_v` from the semisimple set of `root_slices`;
        None off radiant fans. It only picks which semisimple roots lie in U."""
        if self.bilateral is None:
            return None
        return choose_v(self.fan, self.bilateral, self.root_slices[1])

    @cached_property
    def root_slices(self) -> tuple[list[list[IntVec]], frozenset[IntVec]]:
        """Each ray's Demazure roots, sorted, and the set of semisimple ones,
        found on first read (see `demazure.root_slices`): from the class
        table on a radiant fan, from the projection chain on any other."""
        return root_slices(self.fan, self.bilateral, self.classes)

    @cached_property
    def roots(self) -> list[DemazureRoot]:
        """Every Demazure root in (ray, e) order, built on first read from
        `root_slices`. On a radiant fan each record carries its `in_u` flag
        for the chosen `v`; on any other fan `in_u` stays None."""
        roots = root_records(*self.root_slices)
        if self.v is not None:
            mark_membership(roots, self.v)
        return roots


def analyze_fan(fan: Fan, bilateral: BilateralStructure | None = None) -> FanAnalysis:
    """Run the whole verdict pipeline on a validated complete fan.

    An explicit bilateral structure can be supplied to exercise a witness
    other than the first one found; the verdict must not depend on it.
    Each stage fills its own fields; those of stages that never ran stay None.
    The verdict needs the class table and the precedence order but no root
    and no `v`, so none is found here: `v`, `root_slices` and `roots` are
    found when first read. The class group, the first bilateral structure
    and the class table are kept on the fan (`Fan.kept`), so
    `families.cross_check(fan, verdict)` afterwards recomputes none of them.
    """
    class_info = class_group(fan)
    if bilateral is None:
        bilateral = find_bilateral(fan)
    classes = precedence = catalog = None
    if bilateral is None:
        verdict = Verdict(finite=False, reason="not_radiant")
    else:
        classes = radiant_classes(fan, bilateral)
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
        precedence=precedence,
        verdict=verdict,
        catalog=catalog,
    )

"""Builders for the classified fan families and the classification
cross-checkers for surfaces and class-group rank one."""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .classgroup import class_group, radiant_classes
from .fan import Fan, validate_fan
from .orbits import Verdict
from .radiance import find_bilateral


class InvalidSpec(Exception):
    pass


class NotApplicable(Exception):
    """Neither classification recognizer covers the fan."""


@dataclass(frozen=True)
class FamilySpec:
    kind: str  # "wps" | "hirzebruch" | "p1xp1" | "pn"
    weights: tuple[int, ...] = ()
    parameter: int = 0


@dataclass(frozen=True)
class CheckReport:
    recognizers: tuple[str, ...]
    predictions: tuple[bool, ...]
    verdict_finite: bool
    agree: bool
    weights: tuple[int, ...] | None = None
    negative_patterns: tuple[tuple[int, ...], ...] | None = None


def parse_family(text: str) -> FamilySpec:
    """Parse a family spec string: wps:1,1,2 | hirzebruch:d | p1xp1 | pn:n."""
    head, _, tail = text.partition(":")
    head = head.strip().lower()
    if head == "p1xp1":
        if tail:
            raise InvalidSpec("p1xp1 takes no parameters")
        return FamilySpec(kind="p1xp1")
    if head in ("hirzebruch", "pn"):
        try:
            return FamilySpec(kind=head, parameter=_integer(tail))
        except ValueError:
            raise InvalidSpec(f"{head} needs one integer parameter") from None
    if head == "wps":
        try:
            return FamilySpec(kind="wps", weights=tuple(_integer(w) for w in tail.split(",")))
        except ValueError:
            raise InvalidSpec("wps needs a comma-separated weight list") from None
    raise InvalidSpec(f"unknown family {head!r}")


def _integer(field: str) -> int:
    """The value of a field written as ASCII `0|-?[1-9][0-9]*`; ValueError
    otherwise. `int` alone also reads `1_0`, `+2`, ` 3`, `01` and non-ASCII
    digits, and raises ValueError past its digit limit."""
    if not re.fullmatch("0|-?[1-9][0-9]*", field):
        raise ValueError(f"not a canonical integer: {field!r}")
    return int(field)


def build(spec: FamilySpec) -> Fan:
    """Construct the fan of a family member; output always validates complete."""
    if spec.kind == "wps":
        return _build_weighted_projective(spec.weights)
    if spec.kind == "pn":
        if spec.parameter < 1:
            raise InvalidSpec("projective space needs dimension >= 1")
        return _build_weighted_projective((1,) * (spec.parameter + 1))
    if spec.kind == "hirzebruch":
        if spec.parameter < 0:
            raise InvalidSpec("hirzebruch parameter must be >= 0")
        return _build_hirzebruch(spec.parameter)
    if spec.kind == "p1xp1":
        return _build_hirzebruch(0)
    raise InvalidSpec(f"unknown family kind {spec.kind!r}")


def _build_hirzebruch(a: int) -> Fan:
    rays = [(1, 0), (0, 1), (-1, -a), (0, -1)]
    return validate_fan(2, rays, [[0, 1], [1, 2], [2, 3], [3, 0]], require_complete=True)


def _build_weighted_projective(weights: tuple[int, ...]) -> Fan:
    # Radiant normal form only: unit first weight, remaining weights coprime
    # so the single negative ray is a primitive vector.
    if len(weights) < 2:
        raise InvalidSpec("need at least two weights")
    if weights[0] != 1:
        raise InvalidSpec("only weighted projective spaces with unit first weight")
    ds = weights[1:]
    if any(d < 1 for d in ds):
        raise InvalidSpec("weights must be positive")
    g = 0
    for d in ds:
        g = gcd(g, d)
    if g != 1:
        raise InvalidSpec(
            f"weights {weights} give a non-primitive negative ray (gcd {g})"
        )
    n = len(ds)
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-d for d in ds))
    max_cones = [list(c) for c in combinations(range(n + 1), n)]
    return validate_fan(n, rays, max_cones, require_complete=True)


def _divisibility_chain(sorted_weights) -> bool:
    return all(
        b % a == 0 for a, b in zip(sorted_weights, sorted_weights[1:])
    )


def cross_check(fan: Fan, verdict: Verdict) -> CheckReport:
    """Independent classification recognizers against the computed verdict.

    Rank-one class group: finite exactly for weight multisets starting 1, 1
    with a divisibility chain. Surfaces: finite exactly for the three known
    negative-ray patterns, up to swapping the basis coordinates.

    The class group, the first bilateral structure and its class table are
    kept on the fan (`Fan.kept`), so after `analyze_fan(fan)` this
    recomputes none of them. An analysis made with another structure does
    not stand in: the recognizers always read the first one.
    """
    info = class_group(fan)
    rank_one = info.free_rank == 1 and not info.torsion_invariants
    if not rank_one and fan.dim != 2:
        raise NotApplicable(
            "no recognizer for this fan (dim > 2 with class rank != 1)"
        )
    bilateral = find_bilateral(fan)
    recognizers: list[str] = []
    predictions: list[bool] = []
    weights = None
    patterns = None

    if rank_one:
        recognizers.append("class-rank-one")
        if bilateral is None:
            predictions.append(False)
        else:
            classes = radiant_classes(fan, bilateral)
            weights = tuple(
                sorted([1] + [classes.class_of(eps)[0] for eps in bilateral.positive])
            )
            predictions.append(
                weights[0] == 1 and weights[1] == 1 and _divisibility_chain(weights)
            )

    if fan.dim == 2:
        recognizers.append("surface")
        if bilateral is None:
            predictions.append(False)
        else:
            patterns = tuple(
                sorted(
                    tuple(-c for c in bilateral.coordinates(fan.rays[tau]))
                    for tau in bilateral.negative
                )
            )
            predictions.append(_surface_pattern_finite(patterns))

    agree = all(p == verdict.finite for p in predictions)
    return CheckReport(
        recognizers=tuple(recognizers),
        predictions=tuple(predictions),
        verdict_finite=verdict.finite,
        agree=agree,
        weights=weights,
        negative_patterns=patterns,
    )


def _surface_pattern_finite(patterns) -> bool:
    for candidate in (patterns, tuple(sorted((b, a) for a, b in patterns))):
        if len(candidate) == 1:
            a, b = candidate[0]
            if a == 1 and b >= 1:
                return True
        elif len(candidate) == 2:
            first, second = candidate
            if (first, second) == ((0, 1), (1, 0)):
                return True
            if first == (0, 1) and second[0] == 1 and second[1] >= 1:
                return True
    return False

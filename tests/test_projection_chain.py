"""The projection-chain kernel of `unifan.linalg` against the kernel it replaced.

The reference below is the earlier `feasible`/`lattice_points`, verbatim:
Gauss-Jordan elimination of the equalities over `Fraction`, one
Fourier-Motzkin projection per coordinate for its range, then a scan of the
bounding box filtered by the original constraints. It is slow and kept only
as the oracle the chain must agree with: same points in the same order, the
same Unbounded cases, the same rational feasibility.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from unifan import demazure, linalg
from unifan import fan as fan_module
from unifan.demazure import enumerate_roots
from unifan.linalg import IntVec, InvariantViolation, LinearSystem, Unbounded, _gcd_many

from conftest import FAMILY_SPECS, family, p1_power, random_surfaces
from test_fan import DOUBLE_WRAP_CONES, DOUBLE_WRAP_RAYS
from test_products import p1_cubed, p2_times_p1


# ---------------------------------------------------------------- reference


def _normalize_ineq(coeffs, rhs):
    g = _gcd_many(coeffs)
    if g > 1 and rhs % g == 0:
        return tuple(c // g for c in coeffs), rhs // g
    return tuple(coeffs), rhs


def _fm_eliminate(ineqs, num_vars, keep=None):
    """Fourier-Motzkin projection of integer inequalities c.x >= b.

    Eliminates every variable except `keep` (all of them when None) and
    returns the surviving constraints, deduplicated.
    """
    current = {_normalize_ineq(c, b) for c, b in ineqs}
    for j in range(num_vars):
        if j == keep:
            continue
        pos, neg, rest = [], [], []
        for c, b in current:
            if c[j] > 0:
                pos.append((c, b))
            elif c[j] < 0:
                neg.append((c, b))
            else:
                rest.append((c, b))
        new = set(rest)
        for cp, bp in pos:
            for cn, bn in neg:
                mp, mn = -cn[j], cp[j]
                combined = tuple(mp * a + mn * b_ for a, b_ in zip(cp, cn))
                new.add(_normalize_ineq(combined, mp * bp + mn * bn))
        current = new
    return current


def _reduce_equalities(system: LinearSystem):
    """Gaussian elimination of the equalities over Q.

    Returns (offset, basis, ineqs) describing x = offset + basis @ t with the
    inequalities rewritten over the free parameters t (integer coefficients),
    or None when the equalities alone are inconsistent.
    """
    dim = system.dim
    rows = [[Fraction(x) for x in vec] + [Fraction(b)] for vec, b in system.equalities]
    pivots = []
    r = 0
    for j in range(dim):
        pivot = next((i for i in range(r, len(rows)) if rows[i][j] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pr = rows[r]
        rows[r] = [x / pr[j] for x in pr]
        pr = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][j] != 0:
                c = rows[i][j]
                rows[i] = [x - c * y for x, y in zip(rows[i], pr)]
        pivots.append(j)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][dim] != 0:
            return None
    free = [j for j in range(dim) if j not in pivots]

    # x_j for pivot columns in terms of the free parameters.
    offset = [Fraction(0)] * dim
    basis = [[Fraction(0)] * len(free) for _ in range(dim)]
    for idx, j in enumerate(free):
        basis[j][idx] = Fraction(1)
    for i, pj in enumerate(pivots):
        offset[pj] = rows[i][dim]
        for idx, fj in enumerate(free):
            basis[pj][idx] = -rows[i][fj]

    ineqs = []
    for vec, b in system.inequalities:
        const = sum(Fraction(vec[j]) * offset[j] for j in range(dim))
        coeffs = [
            sum(Fraction(vec[j]) * basis[j][idx] for j in range(dim))
            for idx in range(len(free))
        ]
        scale = math.lcm(*(f.denominator for f in coeffs + [const])) if coeffs or const else 1
        ineqs.append(
            (
                tuple(int(f * scale) for f in coeffs),
                int((Fraction(b) - const) * scale),
            )
        )
    return offset, basis, ineqs


def _constants_consistent(constraints):
    for c, b in constraints:
        if all(x == 0 for x in c) and b > 0:
            return False
    return True


def feasible(system: LinearSystem) -> bool:
    """Exact rational feasibility of the system."""
    reduced = _reduce_equalities(system)
    if reduced is None:
        return False
    _, basis, ineqs = reduced
    num_free = len(basis[0]) if basis else 0
    if num_free == 0:
        return all(b <= 0 for c, b in ineqs)
    return _constants_consistent(_fm_eliminate(ineqs, num_free))


def _functional_range(ineqs, num_free, coeffs, const):
    """Exact (min, max) of coeffs.t + const over the t-polyhedron.

    Either bound may be None (unbounded). Assumes the polyhedron is
    nonempty. Implemented by adjoining w = coeffs.t + const and projecting
    onto w.
    """
    scale = math.lcm(*(f.denominator for f in list(coeffs) + [const])) if coeffs or const else 1
    icoeffs = [int(f * scale) for f in coeffs]
    iconst = int(const * scale)
    extended = [(tuple(c) + (0,), b) for c, b in ineqs]
    # scale*w - coeffs.t >= const and the reverse
    extended.append((tuple(-c for c in icoeffs) + (scale,), iconst))
    extended.append((tuple(icoeffs) + (-scale,), -iconst))
    projected = _fm_eliminate(extended, num_free + 1, keep=num_free)
    lo = hi = None
    for c, b in projected:
        a = c[num_free]
        if a > 0:
            val = Fraction(b, a)
            lo = val if lo is None else max(lo, val)
        elif a < 0:
            val = Fraction(b, a)
            hi = val if hi is None else min(hi, val)
        elif b > 0:
            raise InvariantViolation("projection of a nonempty polyhedron is inconsistent")
    return lo, hi


def lattice_points(system: LinearSystem) -> list[IntVec]:
    """All integer solutions of the system, sorted lexicographically.

    Exact rational bounds for every coordinate are established first via
    Fourier-Motzkin; a box scan filtered by the original constraints then
    yields the points. Raises Unbounded when a coordinate has no finite
    bound.
    """
    reduced = _reduce_equalities(system)
    if reduced is None:
        return []
    offset, basis, ineqs = reduced
    num_free = len(basis[0]) if basis else 0

    if num_free == 0:
        if any(b > 0 for _, b in ineqs):
            return []
        candidate = tuple(offset)
        if all(f.denominator == 1 for f in candidate):
            return [tuple(int(f) for f in candidate)]
        return []

    if not _constants_consistent(_fm_eliminate(ineqs, num_free)):
        return []

    ranges = []
    for j in range(system.dim):
        lo, hi = _functional_range(ineqs, num_free, basis[j], offset[j])
        if lo is None or hi is None:
            raise Unbounded(f"coordinate {j} is unbounded")
        ranges.append(range(math.ceil(lo), math.floor(hi) + 1))

    def satisfies(point):
        for vec, b in system.equalities:
            if sum(v * x for v, x in zip(vec, point)) != b:
                return False
        for vec, b in system.inequalities:
            if sum(v * x for v, x in zip(vec, point)) < b:
                return False
        return True

    return [pt for pt in product(*ranges) if satisfies(pt)]


# ------------------------------------------------------------------ helpers


def outcome(kernel, system):
    """What a lattice-point kernel says about a system, Unbounded included."""
    try:
        return kernel(system)
    except Unbounded:
        return "unbounded"


def _random_vec(rng, dim, spread):
    return tuple(rng.randint(-spread, spread) for _ in range(dim))


def seeded_system(rng, seen):
    """A small system in dimension 0-4 with 0-3 equalities, some of them
    repeated (a multiple of an earlier one), dependent (the sum of two
    earlier ones) or contradicting an earlier one; tallies what it drew."""
    dim = rng.randint(0, 4)
    ineqs = []
    boxed = dim > 2 or rng.random() < 0.7
    if boxed:
        bound = rng.randint(1, 3)
        for j in range(dim):
            unit = tuple(1 if t == j else 0 for t in range(dim))
            ineqs.append((unit, -bound))
            ineqs.append((tuple(-x for x in unit), -bound))
    for _ in range(rng.randint(0, 3)):
        ineqs.append((_random_vec(rng, dim, 3), rng.randint(-6, 3)))
    eqs = []
    for _ in range(rng.randint(0, 3)):
        draw = rng.random()
        if eqs and draw < 0.25:
            vec, b = rng.choice(eqs)
            k = rng.choice((-2, 1, 3))
            eqs.append((tuple(k * x for x in vec), k * b))
            seen["repeated"] += 1
        elif len(eqs) >= 2 and draw < 0.45:
            (v1, b1), (v2, b2) = rng.sample(eqs, 2)
            eqs.append((tuple(x + y for x, y in zip(v1, v2)), b1 + b2))
            seen["dependent"] += 1
        elif eqs and draw < 0.55:
            vec, b = rng.choice(eqs)
            eqs.append((vec, b + rng.choice((-1, 1))))
            seen["contradicting"] += 1
        else:
            eqs.append((_random_vec(rng, dim, 2), rng.randint(-2, 2)))
    seen[f"dim {dim}"] += 1
    seen[f"{len(eqs)} equalities"] += 1
    return LinearSystem.make(dim, equalities=eqs, inequalities=ineqs)


def fan_data(fan):
    return fan.dim, fan.ray_vectors(), [c.ray_indices for c in fan.max_cones]


# The fans of the benchmark's roots workload, by family spec.
ROOTS_WORKLOAD = [
    "wps:1,1,2,4,8,16,32",
    "wps:1,1,2,6,12,24,48",
    "wps:1,1,1,2,4,8,16",
    "wps:1,1,20,400",
    "wps:1,1,30,900",
    "hirzebruch:500",
    "hirzebruch:1000",
]


# -------------------------------------------------------------------- tests


class TestSeededSystems:
    def test_chain_matches_reference(self):
        rng = random.Random(6061)
        seen = {
            key: 0
            for key in [f"dim {d}" for d in range(5)]
            + [f"{k} equalities" for k in range(4)]
            + ["repeated", "dependent", "contradicting"]
        }
        results = {"points": 0, "empty": 0, "unbounded": 0, "rationally infeasible": 0}
        for _ in range(600):
            system = seeded_system(rng, seen)
            expected = outcome(lattice_points, system)
            assert outcome(linalg.lattice_points, system) == expected, system
            rational = feasible(system)
            assert linalg.feasible(system) == rational, system
            if not rational:
                results["rationally infeasible"] += 1
            elif expected == "unbounded":
                results["unbounded"] += 1
            else:
                results["points" if expected else "empty"] += 1
        assert min(seen.values()) >= 20, seen
        assert min(results.values()) >= 20, results

    def test_half_integer_equality_with_a_free_coordinate_is_unbounded(self):
        # 2x = 1 is rationally feasible but has no integer point; y is free.
        system = LinearSystem.make(2, equalities=[((2, 0), 1)])
        assert linalg.feasible(system)
        for kernel in (lattice_points, linalg.lattice_points):
            with pytest.raises(Unbounded):
                kernel(system)

    def test_infeasible_unbounded_system_has_no_points(self):
        # x >= 1 and x <= 0 with y free: infeasibility wins over unboundedness.
        system = LinearSystem.make(2, inequalities=[((1, 0), 1), ((-1, 0), 0)])
        assert not linalg.feasible(system)
        assert lattice_points(system) == linalg.lattice_points(system) == []

    def test_dimension_zero(self):
        empty = LinearSystem.make(0)
        contradiction = LinearSystem.make(0, equalities=[((), 1)])
        assert lattice_points(empty) == linalg.lattice_points(empty) == [()]
        assert lattice_points(contradiction) == linalg.lattice_points(contradiction) == []
        assert linalg.feasible(empty) and not linalg.feasible(contradiction)


class TestEnumerateRootsAgainstReference:
    """enumerate_roots on the projection chain equals it on the box scan."""

    @staticmethod
    def assert_same_roots(monkeypatch, fans):
        for fan in fans:
            roots = enumerate_roots(fan)
            with monkeypatch.context() as patch:
                patch.setattr(demazure, "lattice_points", lattice_points)
                assert enumerate_roots(fan) == roots

    def test_family_specs(self, monkeypatch):
        self.assert_same_roots(monkeypatch, [family(spec) for spec in FAMILY_SPECS])

    def test_random_surfaces(self, monkeypatch):
        self.assert_same_roots(monkeypatch, random_surfaces())

    def test_roots_workload(self, monkeypatch):
        self.assert_same_roots(monkeypatch, [family(spec) for spec in ROOTS_WORKLOAD])


class TestPairwiseSystemsAgainstReference:
    @pytest.mark.parametrize(
        "data",
        [
            fan_data(p1_cubed()),
            fan_data(p2_times_p1()),
            fan_data(p1_power(4)),
            (2, DOUBLE_WRAP_RAYS, DOUBLE_WRAP_CONES),
        ],
        ids=["P1^3", "P2xP1", "P1^4", "double-wrap"],
    )
    def test_feasible_matches_reference(self, monkeypatch, data):
        dim, rays, cones = data
        answers = []

        def both(system):
            answer = linalg.feasible(system)
            assert answer == feasible(system), system
            answers.append(answer)
            return answer

        monkeypatch.setattr(fan_module, "feasible", both)
        maximal = [fan_module.Cone(tuple(sorted(c))) for c in cones]
        for c1, c2 in combinations(maximal, 2):
            fan_module._pairwise_intersection_ok(dim, rays, c1, c2)
        assert len(answers) == len(maximal) * (len(maximal) - 1) // 2

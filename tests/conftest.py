import random
from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import combinations, product
from math import gcd

import pytest

from unifan import validate_fan
from unifan.coxspace import CoxPoint
from unifan.families import build, parse_family
from unifan.fan import Cone, Fan, ray_mask
from unifan.linalg import NotUnimodular, q_independent
from unifan.monoid import contains, in_span, irreducibles
from unifan.orbits import OrbitRecord, Verdict
from unifan.pipeline import analyze_fan
from unifan.radiance import find_bilateral


def family(spec: str):
    return build(parse_family(spec))


# Radiant fixture fans used by the property suites, keyed by a short name.
RADIANT_FIXTURES = {
    "F1": "hirzebruch:1",
    "F2": "hirzebruch:2",
    "P2": "pn:2",
    "P1xP1": "p1xp1",
    "P112": "wps:1,1,2",
    "P1124": "wps:1,1,2,4",
}


# One spec per family member of the criterion-8 sweep, plus projective spaces.
FAMILY_SPECS = (
    [f"hirzebruch:{d}" for d in range(11)]
    + ["p1xp1"]
    + [f"pn:{n}" for n in range(1, 5)]
    + [
        "wps:1,1" + "".join(f",{t}" for t in tail)
        for n in range(1, 5)
        for tail in product(range(1, 7), repeat=n - 1)
    ]
)


def _ccw_sorted(rays):
    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1

    def compare(a, b):
        if half(a) != half(b):
            return half(a) - half(b)
        cross = a[0] * b[1] - a[1] * b[0]
        return -1 if cross > 0 else 1

    return sorted(rays, key=cmp_to_key(compare))


def random_complete_surface(rng, extra_rays=4, spread=5):
    """Axis rays plus random primitive rays, fanned by angular order.

    Consecutive gaps stay below a half turn because the four axis rays are
    always present, so the construction is a valid complete simplicial fan.
    """
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    while len(rays) < 4 + extra_rays:
        x, y = rng.randint(-spread, spread), rng.randint(-spread, spread)
        if (x, y) == (0, 0):
            continue
        g = gcd(abs(x), abs(y))
        rays.add((x // g, y // g))
    ordered = _ccw_sorted(rays)
    cones = [[i, (i + 1) % len(ordered)] for i in range(len(ordered))]
    return validate_fan(2, ordered, cones, require_complete=True)


def random_surfaces(count=30, seed=321):
    """Seeded draws of `random_complete_surface` with 0 to 5 extra rays."""
    rng = random.Random(seed)
    return [random_complete_surface(rng, extra_rays=rng.randint(0, 5)) for _ in range(count)]


def box_surfaces(box: int, max_rays: int):
    """Each complete fan whose rays are primitive vectors in [-box, box]^2,
    with k <= max_rays rays: a set of directions in angular order whose
    consecutive turns are all strictly below a half turn, with one cone per
    consecutive pair. Each fan comes once, listed from its first direction."""
    primitive = _ccw_sorted(
        (x, y)
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
        if gcd(x, y) == 1
    )
    for k in range(3, max_rays + 1):
        for rays in combinations(primitive, k):
            turns = zip(rays, rays[1:] + rays[:1])
            if all(a[0] * b[1] - a[1] * b[0] > 0 for a, b in turns):
                cones = [[i, (i + 1) % k] for i in range(k)]
                yield validate_fan(2, list(rays), cones, require_complete=True)


def p1_power(k: int):
    """The fan of (P^1)^k: rays +-e_i, one maximal cone per sign pattern."""
    rays = [tuple(s if j == i else 0 for j in range(k)) for s in (1, -1) for i in range(k)]
    cones = [[i + k * flip for i, flip in enumerate(flips)] for flips in product((0, 1), repeat=k)]
    return validate_fan(k, rays, cones, require_complete=True)


# The seed-0 draw "P3-radiant-blowup10-seed0-0" of the benchmark's blowups
# workload: ten radiant star subdivisions of P3, 14 rays, class rank 11.
P3_BLOWUP_RAYS = [
    [1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [0, -1, 0], [0, 0, -1],
    [0, -1, -2], [-1, -2, 0], [0, -2, -3], [-2, -3, 0], [-3, -4, 0],
    [0, -2, -1], [-1, 0, -2], [-6, -8, -1],
]
P3_BLOWUP_CONES = [
    [0, 1, 2], [0, 1, 5], [0, 2, 4], [0, 3, 8], [0, 3, 11], [0, 4, 11],
    [0, 5, 6], [0, 6, 8], [1, 2, 3], [1, 3, 12], [1, 5, 12], [2, 3, 10],
    [2, 4, 7], [2, 7, 9], [2, 9, 10], [3, 4, 7], [3, 4, 11], [3, 5, 6],
    [3, 5, 12], [3, 6, 8], [3, 7, 9], [3, 9, 13], [3, 10, 13], [9, 10, 13],
]


def star_subdivided(fan: Fan, steps: int, seed) -> Fan:
    """`steps` star subdivisions of `fan`, made as the benchmark's blowups
    workload makes its draws but with no radiance filter: each step replaces
    a maximal cone drawn by `random.Random(seed)` by the cones joining its
    facets to the primitive vector of its ray sum."""
    rng = random.Random(seed)
    rays = list(fan.rays)
    cones = [list(c.ray_indices) for c in fan.max_cones]
    for _ in range(steps):
        sigma = rng.choice(cones)
        total = [sum(rays[i][k] for i in sigma) for k in range(fan.dim)]
        g = gcd(*total)
        rays.append(tuple(x // g for x in total))
        kept = [c for c in cones if c != sigma]
        cones = sorted(kept + [sorted([i for i in sigma if i != drop] + [len(rays) - 1]) for drop in sigma])
    return validate_fan(fan.dim, rays, cones, require_complete=True)


def product_of(*fans):
    """Fan of a product: block-diagonal rays, products of maximal cones."""
    dim = sum(f.dim for f in fans)
    rays, cones_per_factor, shift, base = [], [], 0, 0
    for f in fans:
        for v in f.ray_vectors():
            rays.append((0,) * shift + tuple(v) + (0,) * (dim - shift - f.dim))
        cones_per_factor.append([[i + base for i in c] for c in f.max_cones])
        shift += f.dim
        base += f.num_rays
    cones = [sum(choice, []) for choice in product(*cones_per_factor)]
    return validate_fan(dim, rays, cones, require_complete=True)


def radiant_p3_draw(steps: int):
    """The draw `random.Random(f"x{steps}")` of `steps` radiant star
    subdivisions of P3, made as the benchmark's blowups workload makes its
    draws: each step replaces a random maximal cone whose ray sum has no
    positive coordinate, never the cone of the unit vectors, by the cones
    joining its facets to that sum. Returns (rays, cones) with 4 + steps rays."""
    rng = random.Random(f"x{steps}")
    rays = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
    cones = [list(c) for c in combinations(range(4), 3)]
    for _ in range(steps):
        sums = {tuple(c): [sum(rays[i][k] for i in c) for k in range(3)] for c in cones}
        sigma = rng.choice([c for c in cones if c != [0, 1, 2] and max(sums[tuple(c)]) <= 0])
        rays = rays + [sums[tuple(sigma)]]
        kept = [c for c in cones if c != sigma]
        cones = sorted(kept + [sorted([i for i in sigma if i != drop] + [len(rays) - 1]) for drop in sigma])
    return rays, cones


# The Smith normal form with its transforms, and the inverse read off them,
# that `linalg.smith_normal_form` and `linalg.invert_unimodular` replaced:
# the slow exact path the fast ones are cross-checked against.


def reference_smith_normal_form(a):
    """Return (U, S, V) with U*a*V = S in Smith normal form.

    U and V are unimodular; S is diagonal with nonnegative invariant
    factors satisfying d1 | d2 | ... .
    """
    s = [list(row) for row in a]
    m, n = len(s), len(s[0]) if s else 0
    if any(len(row) != n for row in s):
        raise ValueError("ragged rows")
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def add_row(dst, src, c):
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_col(dst, src, c):
        for row in s:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        # Pick the smallest-magnitude nonzero entry of the trailing block
        # as pivot; the magnitude strictly decreases on every restart.
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot != (t, t):
            if pivot[0] != t:
                swap_rows(t, pivot[0])
            if pivot[1] != t:
                swap_cols(t, pivot[1])
        if s[t][t] < 0:
            negate_row(t)

        restart = False
        for i in range(t + 1, m):
            if s[i][t] != 0:
                add_row(i, t, -(s[i][t] // s[t][t]))
                if s[i][t] != 0:
                    restart = True
        if restart:
            continue
        for j in range(t + 1, n):
            if s[t][j] != 0:
                add_col(j, t, -(s[t][j] // s[t][t]))
                if s[t][j] != 0:
                    restart = True
        if restart:
            continue

        # Enforce the divisibility chain: drag any non-multiple into row t
        # and restart the reduction with a smaller pivot.
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % s[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    for i in range(min(m, n)):
        if s[i][i] < 0:
            negate_row(i)

    return tuple(map(tuple, u)), tuple(map(tuple, s)), tuple(map(tuple, v))


def reference_invert_unimodular(b):
    """Exact integer inverse of a matrix with |det| = 1.

    Raises NotUnimodular when the determinant is not a unit; the rows of
    the inverse's transpose are the dual basis of b's rows.
    """
    if any(len(row) != len(b) for row in b):
        raise ValueError("matrix is not square")
    u, s, v = reference_smith_normal_form(b)
    factors = [s[i][i] for i in range(len(b))]
    if any(x != 1 for x in factors):
        raise NotUnimodular(f"matrix has invariant factors {factors}")
    # u*b*v = 1  =>  b^{-1} = v*u
    u_cols = tuple(zip(*u))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in u_cols) for row in v)


class NotFinite(Exception):
    """Orbit catalog requested for a fan whose verdict is not finite."""


def finiteness_verdict(fan: Fan, bilateral=None) -> Verdict:
    """Decide whether a maximal unipotent subgroup has finitely many orbits."""
    return analyze_fan(fan, bilateral=bilateral).verdict


def orbit_catalog(fan: Fan) -> list[OrbitRecord]:
    """The orbit records of a finite-verdict fan; raises NotFinite otherwise."""
    analysis = analyze_fan(fan)
    if not analysis.verdict.finite:
        raise NotFinite(f"verdict is infinite ({analysis.verdict.reason})")
    return analysis.catalog


def has_cone(fan: Fan, ray_indices) -> bool:
    return ray_mask(ray_indices) in fan.all_cones


def precedes(precedence, a: int, b: int) -> bool:
    return (a, b) in precedence


def cones_with_rayset(fan: Fan, ray_indices) -> list[Cone]:
    """All fan cones containing the given rays, sorted by size then lex."""
    wanted = set(ray_indices)
    return [c for c in fan.all_cones.values() if wanted <= set(c.ray_indices)]


def make_point(fan: Fan, values) -> CoxPoint:
    values = tuple(Fraction(x) for x in values)
    if len(values) != fan.num_rays:
        raise ValueError("one coordinate per ray expected")
    return CoxPoint(fan=fan, coords=values)


def t_orbit_of(point: CoxPoint) -> Cone | None:
    """The cone whose ray set equals the zero pattern, when there is one.

    None means the point lies in the excluded locus: its zero pattern is no
    cone of the fan, so it sits outside every quotient chart.
    """
    pattern = tuple(sorted(point.zero_pattern()))
    if has_cone(point.fan, pattern):
        return Cone(pattern)
    return None


def classes_independent(classes, basic) -> bool:
    """Whether the classes of a basic subset's rays are Q-linearly independent."""
    return q_independent([classes.class_of(r) for r in basic.rays])


def in_stratum(point: CoxPoint, basic) -> bool:
    zeros = point.zero_pattern()
    return not (set(basic.rays) & zeros) and set(basic.hat) <= zeros


def pairwise_irreducibles(monoid):
    """Reference: g is reducible when g - h is a nonzero monoid element for
    some generator h (one membership query per pair of generators)."""
    out = []
    for g in monoid.generators:
        reducible = False
        for h in monoid.generators:
            rest = tuple(a - b for a, b in zip(g, h))
            if any(x < 0 for x in rest) or all(x == 0 for x in rest):
                continue
            if contains(monoid, rest):
                reducible = True
                break
        if not reducible:
            out.append(g)
    return out


# `monoid.irreducibles` and `monoid.is_free` as they were before unit
# generators skipped their membership query and the rank test dropped the
# unit rows and columns: the slow path the unit elimination is checked
# against. Verbatim, but for the reference `is_free` calling the reference
# `irreducibles`.
def reference_irreducibles(monoid):
    gens = monoid.generators
    return [g for g in gens if not in_span(g, [h for h in gens if h != g])]


def full_rank_is_free(monoid) -> bool:
    gens = monoid.generators
    if not gens or sum(1 for g in gens if sum(g) == 1) == len(gens[0]):
        return True
    if len(gens[0]) == 1:
        least = gens[0][0]
        return all(g % least == 0 for (g,) in gens)
    return q_independent(reference_irreducibles(monoid))


def minimal_basic(classes, precedence, monoid):
    """The unique minimal basic subset generating the same monoid.

    For each irreducible class, pick the earliest carrier in the precedence
    order: the unique negative ray when one carries it, otherwise the
    lowest-position positive ray. The positive rays are the non-negative
    ones, and the basis lists them in ascending order.
    """
    negatives = set(classes.negative)
    chosen = []
    for cls in irreducibles(monoid):
        carriers = [
            r for r in range(len(classes.classes)) if classes.class_of(r) == cls
        ]
        negs = [r for r in carriers if r in negatives]
        if negs:
            chosen.append(negs[0])
        else:
            chosen.append(min(carriers))
    return tuple(sorted(chosen))


def del_pezzo6():
    return validate_fan(
        2,
        [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
        [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]],
        require_complete=True,
    )


def negative_surface(d: int):
    """Radiant surface with negative rays -(1, d) and -(1, 0), for d >= 1;
    at d = 0 the two negative rays coincide."""
    if d < 1:
        raise ValueError(f"negative_surface needs d >= 1, got {d}")
    return validate_fan(
        2,
        [(1, 0), (0, 1), (-1, -d), (-1, 0)],
        [[0, 1], [1, 3], [2, 3], [0, 2]],
        require_complete=True,
    )


def torsion_surface():
    """Complete surface fan whose ray matrix has invariant factors (1, 2):
    its class group is Z + Z/2."""
    return validate_fan(
        2, [(1, 0), (-1, 2), (-1, -2)], [[0, 1], [1, 2], [2, 0]], require_complete=True
    )


def p112_first_cone_det2():
    """P(1,1,2) with its rays listed so that the first maximal cone, (0, 1),
    has determinant 2, which sends `class_group` to the Smith form."""
    return validate_fan(
        2, [(-1, -2), (1, 0), (0, 1)], [[0, 1], [1, 2], [2, 0]], require_complete=True
    )


@cache
def box2_rays5():
    """The 4284 complete fans of `box_surfaces(2, 5)`, enumerated once."""
    return tuple(box_surfaces(2, 5))


# The corpora on which each exact certificate (completeness, class group,
# freeness) is checked against the slow path it short-cuts.
CERTIFICATE_CORPORA = {
    "family_specs": lambda: [family(spec) for spec in FAMILY_SPECS],
    "fixtures": lambda: [family(spec) for spec in sorted(RADIANT_FIXTURES.values())],
    "random_surfaces": random_surfaces,
    "products": lambda: [p1_power(3), product_of(family("pn:2"), family("pn:1")), del_pezzo6()],
    "smith_path": lambda: [torsion_surface(), p112_first_cone_det2()],
    "box2-rays5": box2_rays5,
}


def non_radiant(fans):
    return [fan for fan in fans if find_bilateral(fan) is None]


def non_radiant_draws():
    """The non-radiant fans among seeded star subdivisions of P3, P4 and
    dP6 x P1. With fewer subdivisions, every P3 and P4 draw of these seeds
    is radiant."""
    bases = {"P3": family("pn:3"), "P4": family("pn:4"), "dP6xP1": product_of(del_pezzo6(), family("pn:1"))}
    plan = [("P3", 4, 8), ("P3", 5, 8), ("P4", 6, 8), ("dP6xP1", 4, 8)]
    return non_radiant(
        star_subdivided(bases[base], steps, f"{base}:{steps}:{k}")
        for base, steps, draws in plan
        for k in range(draws)
    )


# The non-radiant corpora on which root enumeration, with its Farkas
# certificate of empty slices, is checked against the projection chain.
NON_RADIANT_CORPORA = {
    "dP6": lambda: [del_pezzo6()],
    "dP6xP1": lambda: [product_of(del_pezzo6(), family("pn:1"))],
    "dP6xdP6": lambda: [product_of(del_pezzo6(), del_pezzo6())],
    "torsion_surface": lambda: [torsion_surface()],
    "box2-rays5": lambda: non_radiant(box2_rays5()),
    "draws": non_radiant_draws,
}


@pytest.fixture(scope="session")
def f2():
    return family("hirzebruch:2")


@pytest.fixture(scope="session")
def p2():
    return family("pn:2")


@pytest.fixture(scope="session")
def p112():
    return family("wps:1,1,2")


@pytest.fixture(scope="session")
def p1xp1():
    return family("p1xp1")


@pytest.fixture(scope="session")
def p123():
    return family("wps:1,2,3")


@pytest.fixture(scope="session")
def dp6():
    return del_pezzo6()

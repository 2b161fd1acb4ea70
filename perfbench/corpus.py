"""Fan corpora of the four workloads, and the answers each fan must get.

Every expected answer here is derived from the fan's construction or from a
closed formula, never by calling unifan: the benchmark must be able to catch
the program giving a wrong verdict.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product


@dataclass
class FanInput:
    """One fan of a corpus: its name, its fan-file payload and what the
    benchmark expects of the report. `spec` is set for the library path,
    `path` once the fan file is written. Maximal cones are kept sorted, the
    order the program reports them in."""

    name: str
    dim: int = 0
    rays: list = field(default_factory=list)
    max_cones: list = field(default_factory=list)
    spec: tuple | None = None
    expect: dict = field(default_factory=dict)
    drawn: bool = False
    path: str = ""

    def __post_init__(self):
        self.max_cones = sorted(sorted(c) for c in self.max_cones)

    def payload(self) -> dict:
        return {"dim": self.dim, "rays": self.rays, "max_cones": self.max_cones}

    @property
    def key(self) -> str:
        """Digest key: the name, or for a seeded draw its fan-file content,
        so that equal draws from different seeds share a digest."""
        if not self.drawn:
            return self.name
        return hashlib.sha256(json.dumps(self.payload()).encode()).hexdigest()


# ---------------------------------------------------------------- factors


def projective_space(n: int):
    rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rays.append([-1] * n)
    return n, rays, [list(c) for c in combinations(range(n + 1), n)]


def hirzebruch_factor(a: int):
    return 2, [[1, 0], [0, 1], [-1, -a], [0, -1]], [[0, 1], [1, 2], [2, 3], [3, 0]]


def del_pezzo6_factor():
    rays = [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]]
    return 2, rays, [[i, (i + 1) % 6] for i in range(6)]


def product_fan(factors):
    """Fan of a product: block-diagonal rays, products of maximal cones."""
    dim = sum(f[0] for f in factors)
    rays, offsets, shift, ray_base = [], [], 0, 0
    for d, f_rays, _ in factors:
        offsets.append(ray_base)
        for r in f_rays:
            rays.append([0] * shift + list(r) + [0] * (dim - shift - d))
        shift += d
        ray_base += len(f_rays)
    cones = [
        sorted(i + off for cone, off in zip(choice, offsets) for i in cone)
        for choice in product(*(f[2] for f in factors))
    ]
    return dim, rays, sorted(cones)


def face_count(max_cones) -> int:
    """Number of cones of a simplicial fan, the zero cone included."""
    faces = set()
    for cone in max_cones:
        for k in range(len(cone) + 1):
            faces.update(combinations(sorted(cone), k))
    return len(faces)


# ---------------------------------------------------------- closed formulas


def divisibility_chain(weights) -> bool:
    w = sorted(weights)
    return all(b % a == 0 for a, b in zip(w, w[1:]))


def wps_expect(weights) -> dict:
    """Weighted projective space P(1, 1, ...): finite exactly for a
    divisibility chain, then with one orbit per homogeneous coordinate."""
    finite = divisibility_chain(weights)
    return {"finite": finite, "orbit_count": len(weights) if finite else None}


def _partitions(target: int, parts) -> int:
    """Ways to write target as a nonnegative combination of the parts."""
    ways = [1] + [0] * target
    for p in parts:
        for t in range(p, target + 1):
            ways[t] += ways[t - p]
    return ways[target]


def wps_root_count(weights) -> int:
    """Demazure roots of a weighted projective space: a root with
    distinguished coordinate i is a monomial of degree w_i in the others."""
    return sum(
        _partitions(w, weights[:i] + weights[i + 1 :]) for i, w in enumerate(weights)
    )


def hirzebruch_root_count(a: int) -> int:
    return 4 if a == 0 else a + 3


def _solve(rows, rhs):
    """Exact solution x of sum_i x_i * rows[i] = rhs, or None if singular."""
    n = len(rows)
    m = [[Fraction(rows[i][r]) for i in range(n)] + [Fraction(rhs[r])] for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][n] / m[r][r] for r in range(n)]


def _unimodular(rows) -> bool:
    """Whether the rows form a lattice basis: every unit vector has integer
    coordinates in them."""
    n = len(rows)
    for k in range(n):
        x = _solve(rows, [1 if j == k else 0 for j in range(n)])
        if x is None or any(c.denominator != 1 for c in x):
            return False
    return True


def is_radiant(rays, max_cones) -> bool:
    """Whether some lattice basis of rays has every other ray in its closed
    negative orthant. Such a basis always spans a maximal cone: the cone
    whose relative interior holds the sum of the basis must contain every
    basis ray, since no other ray has a positive coordinate, and a
    simplicial cone has at most dim rays. So only maximal cones are tried."""
    for cone in max_cones:
        basis = [rays[i] for i in cone]
        if not _unimodular(basis):
            continue
        others = (rays[i] for i in range(len(rays)) if i not in cone)
        if all(all(c <= 0 for c in _solve(basis, r)) for r in others):
            return True
    return False


# ------------------------------------------------------------------ corpora


def sweep(rng: random.Random) -> list[FanInput]:
    """The criterion-8 corpus: hirzebruch:0..10 and wps:1,1,t for t in
    {1..6}^(n-1), n = 1..4, in seed-permuted order."""
    out = [
        FanInput(
            name=f"hirzebruch:{d}",
            spec=("hirzebruch", (), d),
            expect={"finite": True, "orbit_count": 4},
        )
        for d in range(11)
    ]
    for n in range(1, 5):
        for tail in product(range(1, 7), repeat=n - 1):
            weights = (1, 1) + tail
            out.append(
                FanInput(
                    name="wps:" + ",".join(map(str, weights)),
                    spec=("wps", weights, 0),
                    expect=wps_expect(weights),
                )
            )
    rng.shuffle(out)
    return out


PRODUCTS = {
    "P1^6": ["P1"] * 6,
    "P2^3": ["P2"] * 3,
    "F1xF2xP1": ["F1", "F2", "P1"],
    "F2^2xP1": ["F2", "F2", "P1"],
    "P2xP1^3": ["P2", "P1", "P1", "P1"],
}
# Per factor: its fan, orbit count and number of torus orbits (= cones).
FACTORS = {
    "P1": (projective_space(1), 2, 3),
    "P2": (projective_space(2), 3, 7),
    "F1": (hirzebruch_factor(1), 4, 9),
    "F2": (hirzebruch_factor(2), 4, 9),
}


def products(rng: random.Random) -> list[FanInput]:
    """Finite radiant products: orbit and torus-orbit counts multiply."""
    out = []
    for name, parts in PRODUCTS.items():
        dim, rays, cones = product_fan([FACTORS[p][0] for p in parts])
        orbits, torus = 1, 1
        for p in parts:
            orbits *= FACTORS[p][1]
            torus *= FACTORS[p][2]
        out.append(
            FanInput(
                name=name,
                dim=dim,
                rays=rays,
                max_cones=cones,
                expect={
                    "finite": True,
                    "orbit_count": orbits,
                    "num_cones": torus,
                    "radiant": True,
                },
            )
        )
    rng.shuffle(out)
    return out


ROOT_SPECS = [
    ("wps", (1, 1, 2, 4, 8, 16, 32)),
    ("wps", (1, 1, 2, 6, 12, 24, 48)),
    ("wps", (1, 1, 1, 2, 4, 8, 16)),
    ("wps", (1, 1, 20, 400)),
    ("wps", (1, 1, 30, 900)),
    ("hirzebruch", 500),
    ("hirzebruch", 1000),
]


def roots(rng: random.Random) -> list[FanInput]:
    """High-weight divisibility chains with large root lists."""
    out = []
    for kind, param in ROOT_SPECS:
        if kind == "wps":
            ds = param[1:]
            n = len(ds)
            rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
            rays.append([-d for d in ds])
            cones = [list(c) for c in combinations(range(n + 1), n)]
            expect = {**wps_expect(param), "roots": wps_root_count(param)}
            name = "wps:" + ",".join(map(str, param))
            dim = n
        else:
            dim, rays, cones = hirzebruch_factor(param)
            expect = {
                "finite": True,
                "orbit_count": 4,
                "roots": hirzebruch_root_count(param),
            }
            name = f"hirzebruch:{param}"
        expect["radiant"] = True
        out.append(FanInput(name=name, dim=dim, rays=rays, max_cones=cones, expect=expect))
    rng.shuffle(out)
    return out


def star_subdivide(rays, cones, rng: random.Random, keep_radiant: bool = False):
    """Replace a random maximal cone by the cones over its facets joined
    with the sum of its rays (the blow-up of a torus-fixed point).

    With keep_radiant, the cone is drawn among those whose ray sum has no
    positive coordinate, other than the cone of the unit vectors; then the
    unit vectors stay a basis with every other ray in the closed negative
    orthant, and the fan stays radiant."""
    dim = len(rays[0])

    def ray_sum(cone):
        return [sum(rays[i][k] for i in cone) for k in range(dim)]

    choices = cones
    if keep_radiant:
        choices = [c for c in cones if c != list(range(dim)) and max(ray_sum(c)) <= 0]
    sigma = rng.choice(choices)
    new = len(rays)
    rays = rays + [ray_sum(sigma)]
    kept = [c for c in cones if c != sigma]
    kept += [sorted([i for i in sigma if i != drop] + [new]) for drop in sigma]
    return rays, sorted(kept)


BASES = {
    "P3": projective_space(3),
    "P4": projective_space(4),
    "dP6xP1": product_fan([del_pezzo6_factor(), projective_space(1)]),
}


def blowups(seed: int, plan) -> list[FanInput]:
    """Iterated star subdivisions drawn from the seed, plus dP6 x dP6.
    `plan` lists [base fan, subdivisions, draws, keep radiant] entries.
    Every draw is kept as drawn."""
    rng = random.Random(f"blowups:{seed}")
    out = []
    for base, steps, draws, keep_radiant in plan:
        for k in range(draws):
            dim, rays, cones = BASES[base]
            for _ in range(steps):
                rays, cones = star_subdivide(rays, cones, rng, keep_radiant)
            kind = "radiant-blowup" if keep_radiant else "blowup"
            out.append(
                FanInput(
                    name=f"{base}-{kind}{steps}-seed{seed}-{k}",
                    dim=dim,
                    rays=rays,
                    max_cones=cones,
                    expect={"radiant": is_radiant(rays, cones), "smooth": True},
                    drawn=True,
                )
            )
    dim, rays, cones = product_fan([del_pezzo6_factor()] * 2)
    out.append(
        FanInput(
            name="dP6^2",
            dim=dim,
            rays=rays,
            max_cones=cones,
            expect={"radiant": False, "smooth": True},
        )
    )
    rng.shuffle(out)
    return out

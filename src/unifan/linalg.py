"""Exact integer linear algebra kernel.

Everything in this module is computed with Python's arbitrary-precision
integers, fraction-free; no floating point is used anywhere. The kernel
provides the invariant factors of a Smith normal form; scaled and
unimodular inverses, rational ranks and determinants by fraction-free
elimination (Bareiss); nonnegative integer feasibility; and, for linear
systems, rational feasibility and bounded lattice-point enumeration over
one chain of exact integer projections (equality substitution, then
Fourier-Motzkin).

A vector is a tuple of ints and a matrix is the tuple of its row tuples;
the functions here accept any sequence of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


class NotUnimodular(Exception):
    """A square integer matrix has |det| != 1 where a lattice basis was required."""


class DegenerateGenerator(Exception):
    """A zero vector was offered as a monoid generator."""


class Unbounded(Exception):
    """The solution set of a linear system is unbounded in some coordinate."""


class InvariantViolation(Exception):
    """A mathematical invariant of the analysis failed: a bug, not bad input."""


class TooLarge(Exception):
    """An exact result has more entries than a Python list can hold."""


def _gcd_many(values) -> int:
    g = 0
    for x in values:
        g = math.gcd(g, abs(x))
    return g


def smith_normal_form(a) -> IntVec:
    """Invariant factors d1 | d2 | ... of an integer matrix.

    They are the min(m, n) nonnegative diagonal entries of its Smith normal
    form, reached by integer row and column operations on the matrix alone:
    no transform is kept, as no caller needs one.
    """
    s = [list(row) for row in a]
    m, n = len(s), len(s[0]) if s else 0
    if any(len(row) != n for row in s):
        raise ValueError("ragged rows")

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
        pi, pj = pivot
        s[t], s[pi] = s[pi], s[t]
        for row in s:
            row[t], row[pj] = row[pj], row[t]
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]

        restart = False
        for i in range(t + 1, m):
            if s[i][t] != 0:
                c = s[i][t] // s[t][t]
                s[i] = [x - c * y for x, y in zip(s[i], s[t])]
                restart = restart or s[i][t] != 0
        if restart:
            continue
        for j in range(t + 1, n):
            if s[t][j] != 0:
                c = s[t][j] // s[t][t]
                for row in s:
                    row[j] -= c * row[t]
                restart = restart or s[t][j] != 0
        if restart:
            continue

        # Enforce the divisibility chain: drag any non-multiple into row t
        # and restart the reduction with a smaller pivot.
        offender = next(
            (i for i in range(t + 1, m) if any(x % s[t][t] for x in s[i][t + 1 :])), None
        )
        if offender is not None:
            s[t] = [x + y for x, y in zip(s[t], s[offender])]
            continue
        t += 1

    return tuple(abs(s[i][i]) for i in range(min(m, n)))


def scaled_inverse(b) -> tuple[int, IntMat] | None:
    """(d, d*b^-1) with d = +-det(b) for a square integer matrix b, or None
    when b is singular.

    Fraction-free Gauss-Jordan elimination on [b | 1]: every entry stays an
    integer minor, so each division is exact, and the left block ends as
    d*1 and the right block as d*b^-1, with d the last pivot. A row whose
    lead entry is 0 is left as it is when the pivot equals the previous
    one, since (p*x - 0*y) // p = x.
    """
    n = len(b)
    if any(len(row) != n for row in b):
        raise ValueError("matrix is not square")
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(b)]
    d = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return None
        m[k], m[pivot] = m[pivot], m[k]
        rk = m[k]
        p = rk[k]
        for i, ri in enumerate(m):
            lead = ri[k]
            if i != k and (lead or p != d):
                m[i] = [(p * x - lead * y) // d for x, y in zip(ri, rk)]
        d = p
    return d, tuple(tuple(row[n:]) for row in m)


def invert_unimodular(b) -> IntMat:
    """Exact integer inverse of a matrix with |det| = 1.

    Reads it off `scaled_inverse`'s (d, d*b^-1) when d is a unit. Raises
    NotUnimodular, naming b's invariant factors, when d is not a unit or b
    is singular. The rows of the inverse's transpose are the dual basis of
    b's rows.
    """
    scaled = scaled_inverse(b)
    if scaled is not None and scaled[0] in (1, -1):
        d, m = scaled
        return tuple(tuple(d * x for x in row) for row in m)
    raise NotUnimodular(f"matrix has invariant factors {list(smith_normal_form(b))}")


def _bareiss(rows) -> tuple[int, int]:
    """Fraction-free forward elimination (Bareiss, Math. Comp. 22, 1968).

    Columns without a pivot are skipped. Every intermediate entry is an
    integer minor, so each division below is exact. Returns the rank and the
    last pivot, signed by the row swaps: for a square nonsingular matrix
    that is the determinant.
    """
    m = [list(row) for row in rows]
    n = len(m)
    cols = len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for j in range(cols):
        if m[rank][j] == 0:
            pivot = next((i for i in range(rank + 1, n) if m[i][j] != 0), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        rk = m[rank]
        pk = rk[j]
        rank += 1
        if rank == n:
            return rank, sign * pk
        for ri in m[rank:]:
            lead = ri[j]
            for c in range(j + 1, cols):
                ri[c] = (ri[c] * pk - lead * rk[c]) // prev
        prev = pk
    return rank, sign * prev


def int_det(rows) -> int:
    """Determinant of a square integer matrix, without fractions."""
    rows = list(rows)
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    rank, pivot = _bareiss(rows)
    return pivot if rank == len(rows) else 0


def rational_rank(vectors) -> int:
    """Rank over the rationals of a list of integer vectors."""
    return _bareiss(vectors)[0]


def q_independent(vectors) -> bool:
    """True iff the integer vectors are linearly independent over Q."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return True
    dim = len(vectors[0])
    if any(len(v) != dim for v in vectors):
        raise ValueError("vectors of mixed dimension")
    return rational_rank(vectors) == len(vectors)


def solve_nonneg(target, gens) -> bool:
    """Whether target is a nonnegative integer combination of gens.

    A unit generator e_j absorbs any amount of coordinate j, so the target
    is reached iff some combination of the non-unit generators leaves a
    residual supported on the unit coordinates. Only the non-unit generators
    are searched, depth-first with each coefficient bounded by min over j
    with g_j > 0 of residual_j // g_j, and failed states are remembered for
    the length of the call. No coefficient vector is built.
    """
    target = tuple(int(x) for x in target)
    gens = [tuple(int(x) for x in g) for g in gens]
    if any(x < 0 for x in target) or any(x < 0 for g in gens for x in g):
        raise ValueError("solve_nonneg expects nonnegative data")
    for g in gens:
        if all(x == 0 for x in g):
            raise DegenerateGenerator("zero vector among generators")

    def mask(vec) -> int:
        return sum(1 << j for j, x in enumerate(vec) if x)

    # Bit masks of coordinates: units by the unit generators (one distinct
    # bit each), reach[p] by the non-unit generators nonunit[p:].
    units = sum({1 << g.index(1) for g in gens if sum(g) == 1})
    nonunit = [g for g in gens if sum(g) != 1]
    reach = [0] * (len(nonunit) + 1)
    for p in range(len(nonunit) - 1, -1, -1):
        reach[p] = reach[p + 1] | mask(nonunit[p])

    failed = set()

    def search(p, residual) -> bool:
        """Whether nonunit[p:] can leave a residual that the units absorb."""
        support = mask(residual)
        if not support & ~units:
            return True
        if support & ~(units | reach[p]):
            return False
        if (p, residual) in failed:
            return False
        g = nonunit[p]
        bound = min(residual[j] // g[j] for j in range(len(g)) if g[j] > 0)
        for a in range(bound + 1):
            if search(p + 1, tuple(r - a * x for r, x in zip(residual, g))):
                return True
        failed.add((p, residual))
        return False

    return search(0, target)


@dataclass(frozen=True)
class LinearSystem:
    """Integer linear constraints: v.x == b equalities and v.x >= b inequalities."""

    dim: int
    equalities: tuple[tuple[IntVec, int], ...] = ()
    inequalities: tuple[tuple[IntVec, int], ...] = ()

    def __post_init__(self):
        for vec, _ in list(self.equalities) + list(self.inequalities):
            if len(vec) != self.dim:
                raise ValueError("constraint dimension mismatch")

    @classmethod
    def make(cls, dim, equalities=(), inequalities=()):
        return cls(
            dim,
            tuple((tuple(int(x) for x in v), int(b)) for v, b in equalities),
            tuple((tuple(int(x) for x in v), int(b)) for v, b in inequalities),
        )


def _normalize(coeffs, rhs, is_eq):
    """Canonical row (c, b, is_eq) of c.x == b or c.x >= b, or None for a tautology.

    An inequality is divided by the gcd of c when b is a multiple of it; an
    equality by the gcd of c and b, with its last nonzero coefficient made
    positive. A surviving row with c == 0 is a contradiction.
    """
    g = _gcd_many(coeffs)
    if g == 0:
        return None if (rhs == 0 if is_eq else rhs <= 0) else (coeffs, rhs, is_eq)
    if is_eq:
        g = math.gcd(g, rhs)
        if next(x for x in reversed(coeffs) if x) < 0:
            g = -g
    elif rhs % g:
        return coeffs, rhs, is_eq
    return tuple(x // g for x in coeffs), rhs // g, is_eq


def _projection_chain(system: LinearSystem):
    """Exact rational projections of the system onto x_0..x_j, for every j.

    Eliminates x_{n-1}, ..., x_0 in turn, as in the Omega test (Pugh, CACM
    1992). When an equality involves x_j, the one with the smallest
    coefficient p on x_j is substituted into every other row r as
    p*r - r_j*pivot, which keeps everything integer; otherwise x_j is removed
    by Fourier-Motzkin. levels[j] holds the rows (c, b, is_eq) of the
    projection onto x_0..x_j that involve x_j, with len(c) == j + 1;
    levels[:j + 1] together are that projection. Returns None when a
    contradiction is left after x_0, i.e. the system is rationally
    infeasible.
    """
    rows = {_normalize(c, b, True) for c, b in system.equalities}
    rows |= {_normalize(c, b, False) for c, b in system.inequalities}
    rows.discard(None)
    levels = [[] for _ in range(system.dim)]
    for j in range(system.dim - 1, -1, -1):
        on = levels[j]
        new = set()
        for c, b, is_eq in rows:
            if c[j]:
                on.append((c, b, is_eq))
            else:
                new.add((c[:j], b, is_eq))
        # Normalized equalities have a positive last coefficient, c[j] here.
        pivot = min((r for r in on if r[2]), key=lambda r: r[0][j], default=None)
        if pivot is not None:
            a, b0, _ = pivot
            p = a[j]
            for c, b, is_eq in on:
                if (c, b, is_eq) != pivot:
                    q = c[j]
                    combined = tuple(p * x - q * y for x, y in zip(c[:j], a))
                    new.add(_normalize(combined, p * b - q * b0, is_eq))
        else:
            pos = [(c, b) for c, b, _ in on if c[j] > 0]
            neg = [(c, b) for c, b, _ in on if c[j] < 0]
            for cp, bp in pos:
                for cn, bn in neg:
                    mp, mn = -cn[j], cp[j]
                    combined = tuple(mp * x + mn * y for x, y in zip(cp[:j], cn))
                    new.add(_normalize(combined, mp * bp + mn * bn, False))
        new.discard(None)
        rows = new
    return None if rows else levels


def feasible(system: LinearSystem) -> bool:
    """Exact rational feasibility: the projection chain ends without a contradiction."""
    return _projection_chain(system) is not None


def lattice_points(system: LinearSystem) -> list[IntVec]:
    """All integer solutions of the system, sorted lexicographically.

    Walks the projection chain depth-first: with x_0..x_{j-1} fixed, x_j
    takes, in ascending order, the integers that the rows of levels[j]
    allow. The levels are exact projections, so every leaf is a solution
    and no point is tested afterwards. Returns [] when the system is
    rationally infeasible and raises Unbounded when some level bounds its
    coordinate neither by an equality nor from both sides.
    """
    levels = _projection_chain(system)
    if levels is None:
        return []
    for j, rows in enumerate(levels):
        lower = any(is_eq or c[j] > 0 for c, _, is_eq in rows)
        upper = any(is_eq or c[j] < 0 for c, _, is_eq in rows)
        if not (lower and upper):
            raise Unbounded(f"coordinate {j} is unbounded")

    points = []

    def walk(prefix):
        j = len(prefix)
        if j == system.dim:
            points.append(prefix)
            return
        lo, hi = [], []
        for c, b, is_eq in levels[j]:
            r = b - sum(x * y for x, y in zip(c, prefix))
            a = c[j]
            if is_eq or a > 0:
                lo.append(-(-r // a))
            if is_eq or a < 0:
                hi.append(r // a)
        for x in range(max(lo), min(hi) + 1):
            walk(prefix + (x,))

    walk(())
    return points

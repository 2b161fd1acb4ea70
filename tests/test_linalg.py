import random
from itertools import product

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import unifan.linalg as linalg
from unifan.linalg import (
    DegenerateGenerator,
    LinearSystem,
    NotUnimodular,
    Unbounded,
    feasible,
    int_det,
    invert_unimodular,
    lattice_points,
    q_independent,
    rational_rank,
    scaled_inverse,
    smith_normal_form,
    solve_nonneg,
)

from conftest import reference_invert_unimodular, reference_smith_normal_form


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def random_matrix(rng, m, n, bound):
    """An m x n matrix as row tuples, its entries drawn in row-major order."""
    entries = [rng.randint(-bound, bound) for _ in range(m * n)]
    return tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(m))


def is_row_tuple_matrix(mat) -> bool:
    return type(mat) is tuple and all(
        type(row) is tuple and all(type(x) is int for x in row) for row in mat
    )


class TestSmithNormalForm:
    """`smith_normal_form` returns the invariant factors; the reference
    reduction keeps U and V, so its S is checked against the matrix."""

    def check_identity(self, a):
        """U·A·V == S with U and V unimodular for the reference, checked with
        sympy products, and the factors equal to S's diagonal and sympy's."""
        u, s, v = reference_smith_normal_form(a)
        U, S, V = sympy.Matrix(u), sympy.Matrix(s), sympy.Matrix(v)
        assert U * sympy.Matrix(a) * V == S
        assert abs(U.det()) == 1
        assert abs(V.det()) == 1
        factors = smith_normal_form(a)
        assert factors == tuple(s[i][i] for i in range(len(factors)))
        if a and a[0]:
            expected = sympy_snf(sympy.Matrix(a), domain=sympy.ZZ)
            assert factors == tuple(abs(int(expected[i, i])) for i in range(len(factors)))
        return s

    def test_identity(self):
        assert self.check_identity(identity(2)) == identity(2)
        assert smith_normal_form(identity(2)) == (1, 1)

    def test_diag_2_3(self):
        assert self.check_identity(((2, 0), (0, 3))) == ((1, 0), (0, 6))
        assert smith_normal_form(((2, 0), (0, 3))) == (1, 6)

    def test_weighted_projective_ray_matrix(self):
        # ray matrix of the weight-(1,1,2) fan: cokernel has rank one
        assert smith_normal_form(((1, 0), (0, 1), (-1, -2))) == (1, 1)

    def test_returns_a_tuple_of_ints(self):
        factors = smith_normal_form([[2, 4, 4], [-6, 6, 12]])
        assert type(factors) is tuple and all(type(x) is int for x in factors)
        assert factors == (2, 6)
        assert smith_normal_form(()) == ()

    def test_ragged_rows(self):
        with pytest.raises(ValueError, match="ragged rows"):
            smith_normal_form(((1, 0), (1,)))

    def test_random_matrices(self):
        rng = random.Random(20240811)
        for _ in range(200):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            a = random_matrix(rng, m, n, 9)
            s = self.check_identity(a)
            diag = [s[i][i] for i in range(min(m, n))]
            assert all(x >= 0 for x in diag)
            for x, y in zip(diag, diag[1:]):
                assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert s[i][j] == 0

    def test_larger_entries(self):
        rng = random.Random(777)
        for _ in range(20):
            m, n = rng.randint(3, 6), rng.randint(3, 6)
            s = self.check_identity(random_matrix(rng, m, n, 50))
            diag = [s[i][i] for i in range(min(m, n))]
            for x, y in zip(diag, diag[1:]):
                assert (x == 0 and y == 0) or (x != 0 and y % x == 0)

    def test_agrees_with_reference_on_random_shapes(self):
        rng = random.Random(5000)
        for _ in range(5000):
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            a = random_matrix(rng, m, n, 9)
            _, s, _ = reference_smith_normal_form(a)
            assert smith_normal_form(a) == tuple(s[i][i] for i in range(min(m, n)))


class TestInvertUnimodular:
    def test_identity(self):
        assert invert_unimodular(identity(3)) == identity(3)

    def test_shear(self):
        assert invert_unimodular(((1, 1), (0, 1))) == ((1, -1), (0, 1))

    def test_returns_tuples_of_int_tuples(self):
        assert is_row_tuple_matrix(invert_unimodular([[2, 1], [1, 1]]))
        assert invert_unimodular(()) == ()

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular, match=r"invariant factors \[1, 2\]"):
            invert_unimodular(((2, 0), (0, 1)))

    def test_not_square(self):
        with pytest.raises(ValueError, match="matrix is not square"):
            invert_unimodular(((1, 0, 0), (0, 1, 0)))

    def test_random_inverses(self):
        rng = random.Random(7)
        count = 0
        while count < 40:
            n = rng.randint(1, 4)
            b = random_matrix(rng, n, n, 5)
            if abs(sympy.Matrix(b).det()) != 1:
                continue
            count += 1
            assert sympy.Matrix(invert_unimodular(b)) * sympy.Matrix(b) == sympy.eye(n)

    def test_singular_message(self):
        with pytest.raises(NotUnimodular) as info:
            invert_unimodular(((1, 2), (2, 4)))
        assert str(info.value) == "matrix has invariant factors [1, 0]"


class TestScaledInverse:
    """(d, d * b^-1) with |d| = |det b| against sympy, and None on a
    singular matrix."""

    def check(self, b):
        det = sympy.Matrix(b).det()
        got = scaled_inverse(b)
        if det == 0:
            assert got is None, b
            return False
        d, m = got
        assert abs(d) == abs(det), b
        assert is_row_tuple_matrix(m)
        assert sympy.Matrix(m) * sympy.Matrix(b) == d * sympy.eye(len(b)), b
        return True

    def test_random_square_matrices(self):
        rng = random.Random(22)
        nonsingular = sum(self.check(random_matrix(rng, n, n, 4)) for n in range(1, 6) for _ in range(60))
        assert 250 < nonsingular < 300

    def test_random_singular_matrices(self):
        """The last row a combination of the others."""
        rng = random.Random(23)
        for n in range(1, 6):
            for _ in range(30):
                rows = random_matrix(rng, n - 1, n, 4) if n > 1 else ()
                coeffs = [rng.randint(-2, 2) for _ in rows]
                last = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n))
                assert not self.check(rows + (last,))

    def test_empty_and_not_square(self):
        assert scaled_inverse(()) == (1, ())
        with pytest.raises(ValueError, match="matrix is not square"):
            scaled_inverse(((1, 0, 0), (0, 1, 0)))


def previous_scaled_inverse(b):
    """`scaled_inverse` before rows with a zero lead entry under an unchanged
    pivot were left untouched, kept verbatim as its reference."""
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
            if i != k:
                lead = ri[k]
                m[i] = [(p * x - lead * y) // d for x, y in zip(ri, rk)]
        d = p
    return d, tuple(tuple(row[n:]) for row in m)


class TestScaledInverseAgainstPrevious:
    """The row skip changes no output: random, near-identity and singular
    square matrices of sizes 1 to 6."""

    def test_seeded_matrices(self):
        rng = random.Random(24)
        kinds = {"random": 0, "near-identity": 0, "singular": 0}
        for trial in range(20000):
            n = rng.randint(1, 6)
            kind = ("random", "near-identity", "singular")[trial % 3]
            if kind == "random":
                b = random_matrix(rng, n, n, 3)
            elif kind == "near-identity":
                rows = [list(row) for row in identity(n)]
                for _ in range(rng.randint(0, 2)):
                    rows[rng.randrange(n)][rng.randrange(n)] = rng.randint(-3, 3)
                b = tuple(map(tuple, rows))
            else:
                rows = list(random_matrix(rng, n - 1, n, 3))
                coeffs = [rng.randint(-2, 2) for _ in rows]
                last = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n))
                rows.insert(rng.randint(0, n - 1), last)
                b = tuple(rows)
            got = scaled_inverse(b)
            assert got == previous_scaled_inverse(b), b
            kinds[kind] += got is None
        # every kind has nonsingular draws, and every singular draw is singular
        assert kinds["singular"] == 6666
        assert kinds["random"] < 3000 and kinds["near-identity"] < 3000


def outcome(invert, b):
    """The inverse, or the NotUnimodular message."""
    try:
        return invert(b)
    except NotUnimodular as exc:
        return f"NotUnimodular: {exc}"


def random_unimodular(rng, n, steps):
    """The identity after `steps` random elementary row operations: a row
    swap, a row negation or adding a multiple of one row to another."""
    rows = [list(row) for row in identity(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        kind = rng.randrange(3)
        if kind == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 1 or i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            c = rng.randint(-3, 3)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return tuple(map(tuple, rows))


class TestInvertUnimodularAgainstReference:
    """Fraction-free Gauss-Jordan against the inverse read off the Smith
    transforms: the same inverse or the same NotUnimodular message."""

    def test_random_square_matrices(self):
        rng = random.Random(20000)
        failures = 0
        for _ in range(20000):
            n = rng.randint(0, 5)
            b = random_matrix(rng, n, n, 3)
            want = outcome(reference_invert_unimodular, b)
            assert outcome(invert_unimodular, b) == want, b
            failures += isinstance(want, str)
        # most draws are not unimodular, so the messages are compared too
        assert 10000 < failures < 20000

    def test_random_unimodular_matrices(self):
        rng = random.Random(8)
        for n in range(1, 9):
            for _ in range(30):
                b = random_unimodular(rng, n, rng.randint(0, 4 * n))
                inverse = invert_unimodular(b)
                assert inverse == reference_invert_unimodular(b)
                assert sympy.Matrix(inverse) * sympy.Matrix(b) == sympy.eye(n)


class TestInverseNeedsNoSmithForm:
    """The Smith form only names the factors of a matrix that fails."""

    def test_unimodular_matrices(self, monkeypatch):
        def forbidden(a):
            raise AssertionError("smith_normal_form was called")

        monkeypatch.setattr(linalg, "smith_normal_form", forbidden)
        rng = random.Random(9)
        for n in range(6):
            b = random_unimodular(rng, n, 3 * n)
            assert sympy.Matrix(invert_unimodular(b)) * sympy.Matrix(b) == sympy.eye(n)
        with pytest.raises(AssertionError, match="smith_normal_form was called"):
            invert_unimodular(((2, 0), (0, 1)))


class TestIntDet:
    def test_matches_sympy_on_random_matrices(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.2:
                rows[rng.randrange(n)] = list(rows[rng.randrange(n)])  # often singular
            assert int_det(rows) == sympy.Matrix(rows).det()

    def test_zero_leading_pivot(self):
        assert int_det([[0, 1], [1, 0]]) == -1
        assert int_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1

    def test_empty_and_non_square(self):
        assert int_det([]) == 1
        with pytest.raises(ValueError):
            int_det([[1, 2]])


class TestRationalRank:
    def test_matches_sympy_on_random_matrices(self):
        rng = random.Random(2025)
        for _ in range(300):
            rows_n, cols_n = rng.randint(1, 7), rng.randint(1, 7)  # tall, square and wide
            rows = [
                [rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(cols_n)]
                for _ in range(rows_n)
            ]
            if rows_n > 1 and rng.random() < 0.4:
                a, b = rng.sample(range(rows_n), 2)
                c = rng.randint(-3, 3)
                rows[a] = [c * x + y for x, y in zip(rows[b], rows[a - 1])]  # rank-deficient
            assert rational_rank(rows) == sympy.Matrix(rows).rank()

    def test_skips_columns_without_pivot(self):
        assert rational_rank([[0, 2, 4], [0, 1, 2], [0, 0, 3]]) == 2
        assert rational_rank([[0, 0], [0, 0]]) == 0

    def test_tall_and_wide(self):
        assert rational_rank([[1, 2], [2, 4], [3, 6], [0, 1]]) == 2
        assert rational_rank([[1, 0, 0, 7], [0, 1, 0, 7]]) == 2

    def test_empty(self):
        assert rational_rank([]) == 0


class TestQIndependent:
    def test_independent_pair(self):
        assert q_independent([(1, 0), (2, 1)])

    def test_proportional(self):
        assert not q_independent([(1, 1), (2, 2)])

    def test_hirzebruch_classes(self):
        # classes of the two basis rays on the d=2 surface
        assert q_independent([(1, 0), (2, 1)])

    def test_empty(self):
        assert q_independent([])

    def test_too_many(self):
        assert not q_independent([(0, 1), (1, 1), (2, 0)])


class TestSolveNonneg:
    def test_scalar(self):
        assert solve_nonneg((5,), [(2,), (3,)]) is True

    def test_infeasible_pair(self):
        assert solve_nonneg((0, 1), [(1, 0), (2, 1)]) is False

    def test_parity(self):
        assert solve_nonneg((1, 1), [(2, 0), (0, 1)]) is False

    def test_zero_target(self):
        assert solve_nonneg((0, 0), [(1, 0), (0, 1)]) is True

    def test_degenerate(self):
        with pytest.raises(DegenerateGenerator):
            solve_nonneg((1,), [(0,)])

    @pytest.mark.parametrize(
        "target, gens", [((-1, 2), [(1, 0), (0, 1)]), ((1, 2), [(1, 0), (2, -1)])]
    )
    def test_negative_data(self, target, gens):
        with pytest.raises(ValueError, match=r"^solve_nonneg expects nonnegative data$"):
            solve_nonneg(target, gens)

    def test_against_brute_force(self):
        rng = random.Random(99)
        for _ in range(150):
            k = rng.randint(1, 3)
            num = rng.randint(1, 4)
            gens = []
            while len(gens) < num:
                g = tuple(rng.randint(0, 4) for _ in range(k))
                if any(g):
                    gens.append(g)
            target = tuple(rng.randint(0, 10) for _ in range(k))
            got = solve_nonneg(target, gens)
            bounds = [
                min(target[j] // g[j] for j in range(k) if g[j] > 0) for g in gens
            ]
            solutions = [
                coeffs
                for coeffs in product(*(range(b + 1) for b in bounds))
                if all(
                    sum(c * g[j] for c, g in zip(coeffs, gens)) == target[j]
                    for j in range(k)
                )
            ]
            assert got == bool(solutions), (target, gens)


def reference_solve_nonneg(target, gens):
    """The exhaustive depth-first search over every generator that
    `solve_nonneg` replaced; kept verbatim as its reference."""
    target = tuple(int(x) for x in target)
    gens = [tuple(int(x) for x in g) for g in gens]
    if any(x < 0 for x in target) or any(x < 0 for g in gens for x in g):
        raise ValueError("solve_nonneg expects nonnegative data")
    for g in gens:
        if all(x == 0 for x in g):
            raise DegenerateGenerator("zero vector among generators")

    def bound(g, residual):
        return min(residual[j] // g[j] for j in range(len(g)) if g[j] > 0)

    def descend(idx, residual, prefix):
        if all(x == 0 for x in residual):
            return prefix + (0,) * (len(gens) - idx)
        if idx == len(gens):
            return None
        g = gens[idx]
        for a in range(bound(g, residual) + 1):
            rem = tuple(r - a * x for r, x in zip(residual, g))
            if any(x < 0 for x in rem):
                break
            found = descend(idx + 1, rem, prefix + (a,))
            if found is not None:
                return found
        return None

    return descend(0, target, ())


class TestSolveNonnegAgainstReference:
    """The unit-absorbing search finds a solution exactly when the exhaustive
    search does."""

    @staticmethod
    def unit(k, j):
        return tuple(1 if t == j else 0 for t in range(k))

    def draw(self, rng, kind):
        k = rng.randint(1, 6)
        num = rng.randint(1, 8)
        gens = []
        while len(gens) < num:
            if kind == "units" or (kind == "mixed" and rng.random() < 0.5):
                g = self.unit(k, rng.randrange(k))
            elif kind == "duplicates" and gens and rng.random() < 0.4:
                g = rng.choice(gens)
            else:
                g = tuple(rng.randint(0, 3) for _ in range(k))
            if any(g):
                gens.append(g)
        target = tuple(rng.randint(0, 6) for _ in range(k))
        return target, gens

    def test_random_cases(self):
        rng = random.Random(2024)
        seen = {"units": 0, "mixed": 0, "duplicates": 0, "infeasible": 0}
        for case in range(600):
            kind = ("units", "mixed", "duplicates", "mixed")[case % 4]
            target, gens = self.draw(rng, kind)
            expected = reference_solve_nonneg(target, gens)
            assert solve_nonneg(target, gens) == (expected is not None), (target, gens)
            units = [sum(g) == 1 for g in gens]
            seen["units"] += all(units)
            seen["mixed"] += any(units) and not all(units)
            seen["duplicates"] += len(set(gens)) < len(gens)
            seen["infeasible"] += expected is None
        assert min(seen.values()) >= 50, seen

    def test_units_absorb_after_non_units(self):
        # (3, 1) needs the non-unit (1, 1) once and e_0 twice, in that order.
        gens = [(0, 2), (1, 1), (1, 0)]
        assert reference_solve_nonneg((3, 1), gens) == (0, 1, 2)
        assert solve_nonneg((3, 1), gens) is True

    def test_unit_coordinate_must_be_covered(self):
        # e_0 absorbs coordinate 0 only; coordinate 1 stays odd.
        gens = [(1, 0), (0, 2)]
        assert solve_nonneg((4, 3), gens) is False
        assert reference_solve_nonneg((4, 3), gens) is None

    def test_empty_generators(self):
        assert solve_nonneg((0, 0), []) is True
        assert solve_nonneg((1, 0), []) is False


class TestLatticePoints:
    def test_unit_square(self):
        system = LinearSystem.make(
            2,
            inequalities=[
                ((1, 0), 0),
                ((-1, 0), -1),
                ((0, 1), 0),
                ((0, -1), -1),
            ],
        )
        assert lattice_points(system) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_projective_plane_root_slice(self):
        system = LinearSystem.make(
            2,
            equalities=[((1, 0), -1)],
            inequalities=[((0, 1), 0), ((-1, -1), 0)],
        )
        assert lattice_points(system) == [(-1, 0), (-1, 1)]

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            lattice_points(LinearSystem.make(2, equalities=[((1, 0), -1)]))

    def test_infeasible(self):
        system = LinearSystem.make(
            1, inequalities=[((1,), 1), ((-1,), 0)]
        )
        assert lattice_points(system) == []

    def test_matches_box_scan(self):
        rng = random.Random(4242)
        for _ in range(120):
            dim = rng.randint(1, 3)
            bound = rng.randint(1, 4)
            ineqs = []
            for j in range(dim):
                unit = tuple(1 if t == j else 0 for t in range(dim))
                ineqs.append((unit, -bound))
                ineqs.append((tuple(-x for x in unit), -bound))
            for _ in range(rng.randint(0, 3)):
                vec = tuple(rng.randint(-3, 3) for _ in range(dim))
                ineqs.append((vec, rng.randint(-6, 3)))
            eqs = []
            if rng.random() < 0.4:
                vec = tuple(rng.randint(-2, 2) for _ in range(dim))
                if any(vec):
                    eqs.append((vec, rng.randint(-2, 2)))
            system = LinearSystem.make(dim, equalities=eqs, inequalities=ineqs)
            expected = [
                pt
                for pt in product(range(-bound, bound + 1), repeat=dim)
                if all(
                    sum(v * x for v, x in zip(vec, pt)) == b for vec, b in eqs
                )
                and all(
                    sum(v * x for v, x in zip(vec, pt)) >= b for vec, b in ineqs
                )
            ]
            assert lattice_points(system) == expected


class TestFeasible:
    def test_feasible_box(self):
        system = LinearSystem.make(1, inequalities=[((1,), 0), ((-1,), -1)])
        assert feasible(system)

    def test_infeasible_equalities(self):
        system = LinearSystem.make(
            2, equalities=[((1, 1), 0), ((2, 2), 1)]
        )
        assert not feasible(system)

    def test_fractional_vertex(self):
        # feasibility is rational: 2x = 1 with 0 <= x <= 1 is feasible over Q
        system = LinearSystem.make(
            1, equalities=[((2,), 1)], inequalities=[((1,), 0), ((-1,), -1)]
        )
        assert feasible(system)
        assert lattice_points(system) == []

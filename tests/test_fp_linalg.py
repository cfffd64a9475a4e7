import itertools
import random

import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from coherence_lab import fp_linalg as fl
from coherence_lab.fp_linalg import FpMatrix


def test_kernel_zero_matrix():
    assert len(fl.kernel_basis(FpMatrix.zeros(2, 3, 2))) == 3


def test_kernel_identity():
    assert fl.kernel_basis(FpMatrix.identity(4, 3)) == []


def test_kernel_f3_example():
    # All 9 vectors over F_3 were enumerated by hand: the null space of
    # [1 2] is spanned by (1, 1) since 1 + 2 = 0 mod 3.
    basis = fl.kernel_basis(FpMatrix.from_rows([[1, 2]], 3))
    assert len(basis) == 1
    v = basis[0]
    assert v in ([1, 1], [2, 2])


def test_solve_identity():
    m = FpMatrix.identity(2, 3)
    assert fl.solve(m, [1, 0]) == [1, 0]


def test_solve_tie_break_lexicographic():
    assert fl.solve(FpMatrix.from_rows([[1, 1]], 2), [1]) == [1, 0]


def test_solve_no_solution():
    assert fl.solve(FpMatrix.from_rows([[0, 0]], 2), [1]) is None


def test_solve_rhs_length():
    with pytest.raises(fl.DimensionMismatch):
        fl.solve(FpMatrix.identity(2, 2), [1, 0, 0])


def test_prime_check():
    with pytest.raises(ValueError):
        FpMatrix.zeros(1, 1, 4)
    assert fl.is_prime(2) and fl.is_prime(13)
    assert not any(fl.is_prime(n) for n in (0, 1, 4, 9))


def test_solve_inverts_random_invertible():
    rng = random.Random(0)
    for p in (2, 3, 5):
        for _ in range(30):
            n = rng.randint(1, 6)
            while True:
                m = FpMatrix.from_rows(
                    [[rng.randrange(p) for _ in range(n)] for _ in range(n)], p
                )
                if fl.rank(m) == n:
                    break
            x = [rng.randrange(p) for _ in range(n)]
            rhs = [
                sum(m.entry(i, j) * x[j] for j in range(n)) % p for i in range(n)
            ]
            assert fl.solve(m, rhs) == x


def _rref_reference(rows, p):
    """Independent pure-Python reduced echelon form, same pivot rule."""
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if work[i][c] % p), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][c], p - 2, p)
        work[r] = [x * inv % p for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] % p:
                f = work[i][c]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots


def test_rref_matches_independent_reference():
    rng = random.Random(12)
    for p in (2, 3, 5):
        for _ in range(60):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            got, got_piv = fl.rref(FpMatrix.from_rows(data, p))
            want, want_piv = _rref_reference(data, p)
            assert got.to_rows() == want
            assert got_piv == want_piv


def test_rank_nullity_and_kernel_substitution():
    rng = random.Random(1)
    for p in (2, 3, 5):
        for _ in range(40):
            rows = rng.randint(1, 7)
            cols = rng.randint(1, 7)
            m = FpMatrix.from_rows(
                [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], p
            )
            basis = fl.kernel_basis(m)
            assert fl.rank(m) + len(basis) == cols
            for v in basis:
                for i in range(rows):
                    assert sum(m.entry(i, j) * v[j] for j in range(cols)) % p == 0


# Independent oracle: sympy's DomainMatrix over GF(p).

ORACLE_PRIMES = (2, 3, 5, 13)


def _sympy_matrix(rows, p, ncols):
    K = GF(p)
    return DomainMatrix([[K(x) for x in r] for r in rows], (len(rows), ncols), K)


def _ints(dm, p):
    return [[int(x) % p for x in r] for r in dm.to_list()]


def _random_rows(rng, p, nrows, ncols):
    """A random matrix, often rank-deficient: a product through a random
    inner dimension."""
    inner = rng.randint(0, min(nrows, ncols))
    left = [[rng.randrange(p) for _ in range(inner)] for _ in range(nrows)]
    right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(inner)]
    return [
        [sum(left[i][k] * right[k][j] for k in range(inner)) % p for j in range(ncols)]
        for i in range(nrows)
    ]


def test_rank_rref_kernel_match_sympy():
    rng = random.Random(20)
    for p in ORACLE_PRIMES:
        for _ in range(40):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            data = _random_rows(rng, p, nrows, ncols)
            m = FpMatrix.from_rows(data, p)
            oracle = _sympy_matrix(data, p, ncols)
            assert fl.rank(m) == oracle.rank()
            red, pivots = fl.rref(m)
            want, want_pivots = oracle.rref()
            assert red.to_rows() == _ints(want, p)
            assert tuple(pivots) == tuple(want_pivots)
            basis = fl.kernel_basis(m)
            nullity = oracle.nullspace().shape[0]
            assert len(basis) == nullity
            if basis:
                ours = _sympy_matrix(basis, p, ncols)
                assert ours.rank() == nullity
                assert not any(map(any, _ints(oracle * ours.transpose(), p)))


def test_rowspace_rows_independent_of_spanning_set():
    rng = random.Random(21)
    for p in ORACLE_PRIMES:
        for _ in range(30):
            dim = rng.randint(1, 7)
            a = _random_rows(rng, p, rng.randint(1, 6), dim)
            # A second spanning set: an invertible recombination of a, plus a
            # zero row and one redundant combination, shuffled.
            k = len(a)
            while True:
                u = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
                if _sympy_matrix(u, p, k).rank() == k:
                    break
            b = [
                [sum(u[i][j] * a[j][c] for j in range(k)) % p for c in range(dim)]
                for i in range(k)
            ]
            b.append([0] * dim)
            b.append([(x + y) % p for x, y in zip(b[0], b[-2])])
            rng.shuffle(b)
            rows_a = fl.RowSpace(a, p, dim).rows.tolist()
            assert fl.RowSpace(b, p, dim).rows.tolist() == rows_a
            want = [r for r in _ints(_sympy_matrix(a, p, dim).rref()[0], p) if any(r)]
            assert rows_a == want


def test_rowspace_contains_stack_matches_rank():
    rng = random.Random(22)
    for p in ORACLE_PRIMES:
        for _ in range(30):
            dim = rng.randint(1, 7)
            a = _random_rows(rng, p, rng.randint(1, 5), dim)
            space = fl.RowSpace(a, p, dim)
            stack = [[rng.randrange(p) for _ in range(dim)] for _ in range(4)]
            coeffs = [rng.randrange(p) for _ in a]
            stack.append([sum(c * r[j] for c, r in zip(coeffs, a)) % p for j in range(dim)])
            stack.append([0] * dim)
            base = fl.rank(FpMatrix.from_rows(a, p))
            want = [fl.rank(FpMatrix.from_rows(a + [v], p)) == base for v in stack]
            assert space.contains(stack).tolist() == want
            assert [bool(space.contains(v)) for v in stack] == want
            assert want[-2] and want[-1]


def test_rowspace_low_part_matches_brute_force():
    rng = random.Random(23)
    for p in ORACLE_PRIMES:
        for _ in range(20):
            dim = rng.randint(1, 6)
            space = fl.RowSpace(_random_rows(rng, p, rng.randint(1, 4), dim), p, dim)
            rows = space.rows.tolist()
            if p ** len(rows) > 3000:
                continue
            members = {
                tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(dim))
                for coeffs in itertools.product(range(p), repeat=len(rows))
            }
            for cut in range(dim + 1):
                low = space.low_part(cut).tolist()
                assert low == [r for r in rows if not any(r[:cut])]
                # Its span is exactly the members vanishing before cut.
                assert len([v for v in members if not any(v[:cut])]) == p ** len(low)

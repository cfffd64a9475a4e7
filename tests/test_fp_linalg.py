import itertools
import math
import random

import numpy as np
import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

import fp_reference
from coherence_lab import fp_linalg as fl
from coherence_lab import skew_checks
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
    # Miller-Rabin range: sympy's isprime as the oracle, plus pseudoprimes.
    from sympy import isprime

    rng = random.Random(3)
    for n in list(range(2000)) + [rng.randrange(2, 10**24) for _ in range(300)]:
        assert fl.is_prime(n) == isprime(n), n
    assert fl.is_prime(1000000000000000009)
    assert not fl.is_prime(561)  # Carmichael number
    assert not fl.is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not fl.is_prime(1000000016000000063)  # (10^9 + 7)(10^9 + 9)
    with pytest.raises(ValueError):
        fl.is_prime(fl.MR_EXACT_BOUND)


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


def test_rowspace_leaves_the_input_alone():
    # Entries outside [0, p), with and without rows that vanish mod p: the
    # caller's array is never written, and zero rows do not change the space.
    p = 5
    full = np.array([[7, -3, 0, 12], [1, 2, 3, 4], [-1, 8, 2, 0]], dtype=np.int64)
    padded = np.array([[5, -10, 0, 15], *full, [0, 0, 0, 0]], dtype=np.int64)
    want = fl.RowSpace(full.tolist(), p, 4).rows.tolist()
    for a in (full, padded):
        before = a.copy()
        space = fl.RowSpace(a, p, 4)
        assert np.array_equal(a, before)
        assert space.rows.tolist() == want
        assert not np.shares_memory(space.rows, a)


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


def _prime_near(n, step):
    while not fl.is_prime(n):
        n += step
    return n


def _python_mulmod(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def test_mulmod_exact_at_float_bound():
    import numpy as np

    rng = random.Random(22)
    inner = 4
    # Largest p with inner * (p-1)^2 < 2^53: float64 products, every exact
    # sum just below 2^53.
    lo = _prime_near(math.isqrt((2**53 - 1) // inner) + 1, -1)
    assert inner * (lo - 1) ** 2 < 2**53
    # Smallest prime above it: Python-int products, sums just above 2^53
    # where float64 cannot hold every integer.
    hi = _prime_near(lo + 1, 1)
    assert inner * (hi - 1) ** 2 >= 2**53
    for p in (lo, hi):
        a = [[p - 1] * inner]
        a += [[rng.randrange(p) for _ in range(inner)] for _ in range(4)]
        b = [[p - 1] * 3]
        b += [[rng.randrange(p) for _ in range(3)] for _ in range(inner - 1)]
        got = fl._mulmod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
        assert got.tolist() == _python_mulmod(a, b, p)
    # The Python-int branch matters: an odd exact sum above 2^53 is not a
    # float64 value.
    a = np.array([[hi - 2] * (inner - 1) + [hi - 1]], dtype=np.int64)
    b = np.full((inner, 1), hi - 2, dtype=np.int64)
    exact = (inner - 1) * (hi - 2) ** 2 + (hi - 1) * (hi - 2)
    assert exact > 2**53 and exact % 2 == 1
    assert int((a.astype(float) @ b.astype(float))[0, 0]) != exact
    assert fl._mulmod(a, b, hi).tolist() == [[exact % hi]]
    # Above 2^63 an int64 product would wrap; the Python-int one is exact.
    p = 2**31 - 1
    a = [[p - 1] * 6] + [[rng.randrange(p) for _ in range(6)] for _ in range(3)]
    b = [[rng.randrange(p) for _ in range(3)] for _ in range(5)] + [[p - 1] * 3]
    exact = 6 * (p - 1) ** 2
    assert exact >= 2**63
    wide = np.full((1, 6), p - 1, dtype=np.int64)
    assert int((wide @ wide.T)[0, 0]) != exact
    assert fl._mulmod(wide, wide.T, p).tolist() == [[exact % p]]
    got = fl._mulmod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
    assert got.tolist() == _python_mulmod(a, b, p)


# The sparse elimination against the dense reference loop and sympy.

SPARSE_PRIMES = (2, 3, 5, 13, 2**31 - 1)


def _sympy_rref(a, p):
    """RREF and pivots of an int array over GF(p), by sympy's sparse
    DomainMatrix."""
    K = GF(p)
    rows = {}
    for i, j in zip(*np.nonzero(a)):
        rows.setdefault(int(i), {})[int(j)] = K(int(a[i, j]))
    red, pivots = DomainMatrix(rows, a.shape, K).rref()
    out = np.zeros(a.shape, dtype=np.int64)
    for i, row in red.to_sdm().items():
        for j, x in row.items():
            out[i, j] = int(x) % p
    return out, list(pivots)


def _check_rref(a, p):
    """_rref on a reduced array equals the dense reference and sympy."""
    got = a.copy()
    pivots = fl._rref(got, p)
    want = a.copy()
    assert pivots == fp_reference.rref(want, p)
    assert np.array_equal(got, want)
    if a.size:
        red, sym_pivots = _sympy_rref(a, p)
        assert pivots == sym_pivots
        assert np.array_equal(got, red)
    return got, pivots


def _sparse_structured(rng, p, nrows, ncols):
    """Unreduced rows with 1-4 nonzeros, duplicates, combinations of two
    earlier rows, and rows of multiples of p, which vanish only mod p."""
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        row = [0] * ncols
        if len(rows) >= 2 and roll < 0.25:
            x, y = rng.sample(rows, 2)
            c, d = rng.randrange(p), rng.randrange(p)
            row = [(c * u + d * v) % p for u, v in zip(x, y)]
        elif rows and roll < 0.4:
            row = list(rng.choice(rows))
        elif ncols and roll < 0.5:
            for _ in range(rng.randint(1, 4)):
                row[rng.randrange(ncols)] = p * rng.choice((-2, -1, 1, 2))
        elif ncols:
            for _ in range(rng.randint(1, 4)):
                row[rng.randrange(ncols)] = rng.randrange(1, p) + p * rng.randint(-1, 1)
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols)


@pytest.mark.parametrize("p", SPARSE_PRIMES)
def test_sparse_rref_matches_dense_reference_and_sympy(p):
    rng = random.Random(p)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 3), (2, 15), (15, 2), (24, 9), (9, 24), (40, 40)]
    for nrows, ncols in shapes:
        assert fl._rref(np.zeros((nrows, ncols), dtype=np.int64), p) == []
        for _ in range(12 if ncols else 1):
            raw = _sparse_structured(rng, p, nrows, ncols)
            got, pivots = _check_rref(raw % p, p)
            # RowSpace drops rows that are zero as given and keeps those
            # that vanish only mod p; the space is the same.
            space = fl.RowSpace(raw, p, ncols)
            assert space.pivots == pivots
            assert np.array_equal(space.rows, got[: len(pivots)])


def test_sparse_rref_on_verify_skew_blocks(monkeypatch):
    # Every elimination input of the relation check at (2,8,4,3): the
    # per-degree syzygy blocks and the span(S) blocks, as `_assemble` builds
    # them, and the membership solves.
    seen = []
    real = fl._rref

    def record(a, p):
        seen.append((a.copy(), p))
        return real(a, p)

    monkeypatch.setattr(fl, "_rref", record)
    report = skew_checks.verify_relations(2, 1, 1, 4, 8, 3)
    monkeypatch.undo()
    assert report.ok and report.interior_checked == 222
    assert len(seen) == 18
    assert max(a.shape for a, _ in seen) == (627, 356)
    for a, p in seen:
        _check_rref(a, p)


def test_large_prime_kernel_and_membership_exact():
    # p = 2^31 - 1: 6 (p-1)^2 exceeds 2^63, so int64 products would wrap.
    p = 2**31 - 1
    rng = random.Random(31)
    for _ in range(50):
        data = [[rng.randrange(p) for _ in range(6)] for _ in range(4)]
        want, pivots = _rref_reference(data, p)
        space = fl.RowSpace(data, p, 6)
        assert space.pivots == pivots
        assert space.rows.tolist() == want[: len(pivots)]
        basis = fl.kernel_basis(FpMatrix.from_rows(data, p))
        assert len(basis) == 6 - len(pivots)
        assert _python_mulmod(data, [list(c) for c in zip(*basis)], p) == [
            [0] * len(basis) for _ in data
        ]
        coeffs = [rng.randrange(p) for _ in data]
        member = [sum(c * r[j] for c, r in zip(coeffs, data)) % p for j in range(6)]
        other = [rng.randrange(p) for _ in range(6)]
        outside = len(_rref_reference(data + [other], p)[1]) > len(pivots)
        assert space.contains([member, other]).tolist() == [True, not outside]

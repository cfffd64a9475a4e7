import itertools
import operator
import random

import numpy as np
import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

import fp_reference
from coherence_lab import fp_linalg as fl
from coherence_lab import skew_checks
from coherence_lab.echelon import MR_EXACT_BOUND, is_prime
from coherence_lab.fp_linalg import FpMatrix
from fp_reference import matrix


def test_kernel_zero_matrix():
    basis = fl.kernel_basis(matrix(np.zeros((2, 3), dtype=np.int64), 2))
    assert basis == [{0: 1}, {1: 1}, {2: 1}]


def test_kernel_identity():
    assert fl.kernel_basis(matrix(np.eye(4, dtype=np.int64), 3)) == []


def test_kernel_f3_example():
    # All 9 vectors over F_3 were enumerated by hand: the null space of
    # [1 2] is spanned by (1, 1) since 1 + 2 = 0 mod 3.
    basis = fl.kernel_basis(matrix([[1, 2]], 3))
    assert len(basis) == 1
    v = basis[0]
    assert v in ({0: 1, 1: 1}, {0: 2, 1: 2})


def test_solve_identity():
    m = matrix(np.eye(2, dtype=np.int64), 3)
    assert fl.solve(m, [1, 0]) == {0: 1}


def test_solve_tie_break_lexicographic():
    assert fl.solve(matrix([[1, 1]], 2), [1]) == {0: 1}


def test_solve_no_solution():
    assert fl.solve(matrix([[0, 0]], 2), [1]) is None


def test_solve_rhs_length():
    with pytest.raises(fl.DimensionMismatch):
        fl.solve(matrix(np.eye(2, dtype=np.int64), 2), [1, 0, 0])


def test_prime_check():
    with pytest.raises(ValueError, match="not prime"):
        FpMatrix([{0: 1}], 1, 4)
    assert is_prime(2) and is_prime(13)
    assert not any(is_prime(n) for n in (0, 1, 4, 9))
    # Miller-Rabin range: sympy's isprime as the oracle, plus pseudoprimes.
    from sympy import isprime

    rng = random.Random(3)
    for n in list(range(2000)) + [rng.randrange(2, 10**24) for _ in range(300)]:
        assert is_prime(n) == isprime(n), n
    assert is_prime(1000000000000000009)
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(1000000016000000063)  # (10^9 + 7)(10^9 + 9)
    with pytest.raises(ValueError):
        is_prime(MR_EXACT_BOUND)


def test_solve_inverts_random_invertible():
    rng = random.Random(0)
    for p in (2, 3, 5):
        for _ in range(30):
            n = rng.randint(1, 6)
            while True:
                data = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                m = matrix(data, p)
                if fl.rank(m) == n:
                    break
            x = [rng.randrange(p) for _ in range(n)]
            rhs = [sum(data[i][j] * x[j] for j in range(n)) % p for i in range(n)]
            got = fl.solve(m, rhs)
            assert got == {j: v for j, v in enumerate(x) if v}
            assert list(got) == sorted(got)


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
            got, got_piv = fl.rref(matrix(data, p))
            want, want_piv = _rref_reference(data, p)
            assert got == want
            assert got_piv == want_piv


def test_rank_nullity_and_kernel_substitution():
    rng = random.Random(1)
    for p in (2, 3, 5):
        for _ in range(40):
            rows = rng.randint(1, 7)
            cols = rng.randint(1, 7)
            data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            m = matrix(data, p)
            basis = fp_reference.dense_rows(fl.kernel_basis(m), cols).tolist()
            assert fl.rank(m) + len(basis) == cols
            for v in basis:
                for i in range(rows):
                    assert sum(data[i][j] * v[j] for j in range(cols)) % p == 0


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
            m = matrix(data, p)
            oracle = _sympy_matrix(data, p, ncols)
            assert fl.rank(m) == oracle.rank()
            red, pivots = fl.rref(m)
            want, want_pivots = oracle.rref()
            assert red == _ints(want, p)
            assert tuple(pivots) == tuple(want_pivots)
            basis = fp_reference.dense_rows(fl.kernel_basis(m), ncols).tolist()
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
            basis_a = fl.RowSpace(matrix(a, p)).basis
            assert fl.RowSpace(matrix(b, p)).basis == basis_a
            want = [r for r in _ints(_sympy_matrix(a, p, dim).rref()[0], p) if any(r)]
            assert fp_reference.dense_rows(list(basis_a.values()), dim).tolist() == want


def test_rowspace_leaves_the_input_alone(monkeypatch):
    # Entries outside [0, p), with and without rows that vanish mod p: no
    # caller's array and no row dict of a matrix is written, zero rows do
    # not change the space, no result shares a dict or list with an input,
    # and RowSpace eliminates the caller's matrix itself, a transposed one
    # included, rather than a copy of it; its rows, densified here, are the
    # array reduced mod p.
    p = 5
    full = np.array([[7, -3, 0, 12], [1, 2, 3, 4], [-1, 8, 2, 0]], dtype=np.int64)
    padded = np.array([[5, -10, 0, 15], *full, [0, 0, 0, 0]], dtype=np.int64)
    want = fl.RowSpace(matrix(full.tolist(), p)).basis
    seen = []
    real = fl._rref
    monkeypatch.setattr(fl, "_rref", lambda m: seen.append(m) or real(m))
    for a in (full, padded):
        rhs = 3 * a[:, 0] - a[:, 2]  # m x = rhs for x = (3, 0, -1, 0)
        before, rhs_before = a.copy(), rhs.copy()
        m = matrix(a, p)
        rows, copies = list(m.data), [dict(row) for row in m.data]
        assert np.array_equal(fp_reference.dense(m), a % p)
        space = fl.RowSpace(m)
        assert seen[-1] is m
        t = matrix(a.T, p)
        t_rows, t_copies = list(t.data), [dict(row) for row in t.data]
        t_space = fl.RowSpace(t)
        assert seen[-1] is t and np.array_equal(fp_reference.dense(t), a.T % p)
        red, pivots = fl.rref(m)
        basis = fl.kernel_basis(m)
        x = fl.solve(m, rhs)
        inside = space.contains(m)
        assert np.array_equal(a, before) and np.array_equal(rhs, rhs_before)
        for held, kept, now in ((rows, copies, m.data), (t_rows, t_copies, t.data)):
            assert len(now) == len(held) and all(map(operator.is_, now, held))
            assert now == kept
        assert space.basis == want and inside == [True] * len(a)
        want_rows = fp_reference.dense_rows(list(want.values()), 4)
        assert want_rows.tolist() == red[: len(pivots)]
        assert not ((a @ fp_reference.dense_rows(basis, 4).T) % p).any()
        assert not ((a @ fp_reference.dense_rows([x], 4)[0] - rhs) % p).any()
        results = [*space.basis.values(), *t_space.basis.values(), *basis, x, *red]
        assert not {id(r) for r in rows + t_rows} & {id(r) for r in results}


def test_rowspace_contains_stack_matches_rank():
    rng = random.Random(22)
    for p in ORACLE_PRIMES:
        for _ in range(30):
            dim = rng.randint(1, 7)
            a = _random_rows(rng, p, rng.randint(1, 5), dim)
            space = fl.RowSpace(matrix(a, p))
            stack = [[rng.randrange(p) for _ in range(dim)] for _ in range(4)]
            coeffs = [rng.randrange(p) for _ in a]
            stack.append([sum(c * r[j] for c, r in zip(coeffs, a)) % p for j in range(dim)])
            stack.append([0] * dim)
            base = fl.rank(matrix(a, p))
            want = [fl.rank(matrix(a + [v], p)) == base for v in stack]
            assert space.contains(matrix(stack, p)) == want
            assert [bool(space.contains(matrix([v], p))[0]) for v in stack] == want
            assert want[-2] and want[-1]


def test_rowspace_contains_matches_brute_force():
    # Members, non-members, zero rows and entries outside [0, p): contains
    # agrees with w - sum of w[c] * row_c over the pivots c of an
    # independent pure-Python reduced basis, on Python ints, at p = 13 and
    # above 2^32, where (p - 1)^2 exceeds int64.
    for p in (13, _prime_near(2**32, 1)):
        rng = random.Random(24 + p)
        dim = 61
        gens = [
            [rng.randrange(1, p) if rng.random() < 0.08 else 0 for _ in range(dim)]
            for _ in range(30)
        ]
        members = []
        for _ in range(40):
            coeffs = [rng.randrange(p) for _ in gens]
            members.append(
                [sum(c * g[j] for c, g in zip(coeffs, gens)) % p for j in range(dim)]
            )
        others = [
            [rng.randrange(-p, p) if rng.random() < 0.03 else 0 for _ in range(dim)]
            for _ in range(45)
        ]
        queries = members + others + [[0] * dim] * 3
        rng.shuffle(queries)
        reduced, pivots = _rref_reference(gens, p)
        want = []
        for w in queries:
            r = [x % p for x in w]
            for c, row in zip(pivots, reduced):
                f = r[c]
                r = [(x - f * y) % p for x, y in zip(r, row)]
            want.append(not any(r))
        space = fl.RowSpace(matrix(gens, p))
        got = space.contains(matrix(queries, p))
        assert got == want
        assert 0 < got.count(False) and got.count(True) >= len(members) + 3


def test_rowspace_low_part_matches_brute_force():
    rng = random.Random(23)
    for p in ORACLE_PRIMES:
        for _ in range(20):
            dim = rng.randint(1, 6)
            space = fl.RowSpace(matrix(_random_rows(rng, p, rng.randint(1, 4), dim), p))
            rows = fp_reference.dense_rows(list(space.basis.values()), dim).tolist()
            if p ** len(rows) > 3000:
                continue
            members = {
                tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(dim))
                for coeffs in itertools.product(range(p), repeat=len(rows))
            }
            for cut in range(dim + 1):
                low = fp_reference.dense_rows(space.low_part(cut), dim).tolist()
                assert low == [r for r in rows if not any(r[:cut])]
                # Its span is exactly the members vanishing before cut.
                assert len([v for v in members if not any(v[:cut])]) == p ** len(low)


def _prime_near(n, step):
    while not is_prime(n):
        n += step
    return n


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
    """_rref on the entries of an array with entries in any range leaves the
    array alone, stores no value outside [1, p), and its basis equals the
    nonzero rows of the dense reference and of sympy, both run on the array
    reduced into [0, p)."""
    before = a.copy()
    basis = fl._rref(matrix(a, p))
    assert np.array_equal(a, before)
    assert all(0 < v < p for row in basis.values() for v in row.values())
    pivots = list(basis)
    got = fp_reference.dense_rows(list(basis.values()), a.shape[1])
    want = a % p
    assert pivots == fp_reference.rref(want, p)
    assert np.array_equal(got, want[: len(pivots)])
    if a.size:
        red, sym_pivots = _sympy_rref(a % p, p)
        assert pivots == sym_pivots
        assert np.array_equal(got, red[: len(pivots)])
    return basis


def _sparse_structured(rng, p, nrows, ncols):
    """Unreduced rows with 1-4 nonzeros (negative ones among them), zero
    rows, duplicates, combinations of two earlier rows, and rows of multiples
    of p, which vanish only mod p."""
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
        elif ncols and roll > 0.9:
            pass  # a zero row
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
        _check_rref(np.zeros((nrows, ncols), dtype=np.int64), p)
        for _ in range(12 if ncols else 1):
            raw = _sparse_structured(rng, p, nrows, ncols)
            basis = _check_rref(raw, p)
            space = fl.RowSpace(matrix(raw, p))
            assert list(space.basis) == list(basis)
            assert space.basis == basis


def test_sparse_rref_on_verify_skew_blocks(monkeypatch):
    # Every elimination input of the relation check at (2,8,4,3): the
    # per-degree syzygy blocks as `_assemble` builds them, the membership
    # solves, and the span(S) blocks, whose columns are coordinate codes;
    # each is densified here over the columns some row reaches, in
    # ascending order, which keeps its echelon form. The S multiples that
    # truncate to nothing are dropped before assembly, so no block has a
    # zero row: the largest span(S) block is 627 x 356 (792 x 356 with 165
    # zero rows when they were kept).
    seen = []
    real = fl._rref

    def record(m):
        at = {c: i for i, c in enumerate(sorted({c for row in m.data for c in row}))}
        rows = [{at[c]: v for c, v in row.items()} for row in m.data]
        seen.append((fp_reference.dense_rows(rows, len(at)), m.p))
        return real(m)

    monkeypatch.setattr(fl, "_rref", record)
    report = skew_checks.verify_relations(2, 1, 1, 4, 8, 3)
    monkeypatch.undo()
    assert report.ok and report.kernel_dim == 222
    assert len(seen) == 18
    assert max(a.shape for a, _ in seen) == (627, 356)
    assert max((~a.any(axis=1)).sum() for a, _ in seen) == 0
    for a, p in seen:
        _check_rref(a, p)


def test_large_prime_kernel_and_membership_exact():
    # p = 2^31 - 1: 6 (p-1)^2 exceeds 2^63, so int64 products would wrap.
    p = 2**31 - 1
    rng = random.Random(31)
    for _ in range(50):
        data = [[rng.randrange(p) for _ in range(6)] for _ in range(4)]
        want, pivots = _rref_reference(data, p)
        space = fl.RowSpace(matrix(data, p))
        assert list(space.basis) == pivots
        got = fp_reference.dense_rows(list(space.basis.values()), 6)
        assert got.tolist() == want[: len(pivots)]
        basis = fp_reference.dense_rows(fl.kernel_basis(matrix(data, p)), 6).tolist()
        assert len(basis) == 6 - len(pivots)
        for v in basis:
            assert not any(_python_rows_times(data, v, p))
        coeffs = [rng.randrange(p) for _ in data]
        member = [sum(c * r[j] for c, r in zip(coeffs, data)) % p for j in range(6)]
        other = [rng.randrange(p) for _ in range(6)]
        outside = len(_rref_reference(data + [other], p)[1]) > len(pivots)
        assert space.contains(matrix([member, other], p)) == [True, not outside]


# The constructor on rows built entry by entry against the dense helper.


def _python_rows_times(a, x, p):
    """a . x mod p for each row of a, on Python ints."""
    return [sum(int(u) * int(v) for u, v in zip(row, x)) % p for row in a]


def _rows_of_entries(rng, raw, p):
    """The rows of raw as the constructor takes them, filled entry by entry
    in a random order, so that a row's columns come unsorted: its nonzeros,
    and entries of multiples of p (zero among them) at some zero positions,
    each reduced mod p and dropped when it vanishes."""
    row, col = np.nonzero(raw)
    entries = [(int(r), int(c), int(raw[r, c])) for r, c in zip(row, col)]
    zr, zc = np.nonzero(raw == 0)
    for e in rng.sample(range(len(zr)), min(len(zr), 3)):
        entries.append((int(zr[e]), int(zc[e]), p * rng.choice((-1, 0, 2))))
    rng.shuffle(entries)
    rows = [{} for _ in range(len(raw))]
    for r, c, x in entries:
        if x % p:
            rows[r][c] = x % p
    return rows


@pytest.mark.parametrize("p", SPARSE_PRIMES)
def test_entries_constructor_matches_dense(p):
    # Unreduced values, values that vanish mod p, zero rows and columns, and
    # 0 x n and n x 0 shapes: the constructor on rows filled entry by entry
    # and the dense helper hold the same entries and give the same rank,
    # rref, kernel and solve, which match sympy and the dense reference on
    # the reduced array.
    rng = random.Random(500 + p)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 3), (2, 15), (15, 2), (24, 9), (9, 24)]
    for nrows, ncols in shapes:
        for _ in range(8 if nrows and ncols else 1):
            raw = _sparse_structured(rng, p, nrows, ncols)
            dense = matrix(raw, p)
            ents = FpMatrix(_rows_of_entries(rng, raw, p), ncols, p)
            assert (dense.rows, dense.cols, dense.data) == (ents.rows, ents.cols, ents.data)
            reduced = raw % p
            assert np.array_equal(fp_reference.dense(ents), reduced)
            want_pivots = fp_reference.rref(reduced.copy(), p)
            want = _sympy_rref(reduced, p)[0] if raw.size else reduced
            x = [rng.randrange(p) for _ in range(ncols)]
            rhs = [_python_rows_times(raw, x, p)]
            rhs.append([(v + 1) % p for v in rhs[0]])  # often inconsistent
            for m in (dense, ents):
                assert fl.rank(m) == len(want_pivots)
                red, pivots = fl.rref(m)
                assert pivots == want_pivots and red == want.tolist()
                basis = fp_reference.dense_rows(fl.kernel_basis(m), ncols)
                assert len(basis) == ncols - len(pivots)
                for v in basis.tolist():
                    assert not any(_python_rows_times(raw, v, p))
                for b in rhs:
                    aug = np.column_stack([reduced, np.array(b, dtype=np.int64)])
                    red, piv = _sympy_rref(aug, p)
                    got = fl.solve(m, b)
                    if ncols in piv:
                        assert got is None
                    else:
                        want_x = zip(piv, red[: len(piv), ncols].tolist())
                        assert got == {c: v for c, v in want_x if v}
            assert fl.kernel_basis(dense) == fl.kernel_basis(ents)


def test_prime_above_int64_exact():
    # Values are Python ints, so a prime above 2^63 is admitted: rank,
    # kernel and solve at 2^64 - 59 are exact and match sympy.
    from sympy import isprime

    big = 2**64 - 59
    assert isprime(big) and is_prime(big)
    rng = random.Random(64)
    data = [[rng.randrange(big) for _ in range(5)] for _ in range(3)]
    data.append([(u + 2 * v) % big for u, v in zip(data[0], data[1])])
    for m in (matrix(data, big), matrix(np.array(data, dtype=object), big)):
        oracle = _sympy_matrix(data, big, 5)
        assert fl.rank(m) == oracle.rank() == 3
        basis = fl.kernel_basis(m)
        assert len(basis) == oracle.nullspace().shape[0] == 2
        for v in basis:
            assert not any(_python_rows_times(data, [v.get(j, 0) for j in range(5)], big))
        rhs = _python_rows_times(data, [rng.randrange(big) for _ in range(5)], big)
        aug = [row + [b] for row, b in zip(data, rhs)]
        red, piv = _sympy_matrix(aug, big, 6).rref()
        red = _ints(red, big)
        assert fl.solve(m, rhs) == {c: red[i][5] for i, c in enumerate(piv) if red[i][5]}
        assert fl.solve(m, [(b + 1) % big for b in rhs]) is None
    assert fl.rank(matrix([[1, 2], [3, 4]], big)) == 2
    assert fl.kernel_basis(matrix([[1, 2]], big)) == [{1: 1, 0: big - 2}]
    assert fl.solve(matrix([[big - 1, 2]], big), [big - 3]) == {0: 3}


def test_assemble_emits_each_entry_once(monkeypatch):
    # A column is a {code: value} dict, so two terms of one product sent to
    # one code would leave a single entry. On every block of the relation
    # check at (2,8,4,3), each column that the index map (syzygy and
    # membership blocks, span(S)) or the flattening (membership targets,
    # span(S) queries) makes holds exactly as many entries as its product
    # has terms after truncation, counted by ring multiplication.
    from coherence_lab import skew_poly
    from coherence_lab.skew_series import TruncSeries

    SkewPoly = skew_poly.SkewPoly
    real_shifted, real_column = skew_poly._Coords.shifted, skew_poly._Coords.column
    calls, columns = [0, 0], []

    def tuple_of(ctx, terms):
        comps = {}
        for comp, x, mono, c in terms:
            comps.setdefault(comp, {}).setdefault(x, {})[mono] = c
        return [
            SkewPoly(ctx, {x: TruncSeries(ctx.base, t) for x, t in comps[k].items()})
            for k in sorted(comps)
        ]

    def shifted(coords, terms, xs, ms):
        out = list(real_shifted(coords, terms, xs, ms))
        calls[0] += 1
        ctx = coords.ctx
        polys = tuple_of(ctx, terms)
        for x, m, (row, _) in zip(xs, ms, out):
            mu = SkewPoly(ctx, {x: TruncSeries(ctx.base, {m: 1})})
            columns.append((row, [mu * poly for poly in polys]))
        return out

    def column(coords, polys):
        calls[1] += 1
        row = real_column(coords, polys)
        columns.append((row, polys))
        return row

    monkeypatch.setattr(skew_poly._Coords, "shifted", shifted)
    monkeypatch.setattr(skew_poly._Coords, "column", column)
    report = skew_checks.verify_relations(2, 1, 1, 4, 8, 3)
    monkeypatch.undo()
    assert report.ok
    # In the degree-6 syzygy block every product of s and of t loses a
    # term. syzygy_bounded decides that from the products, so the index map
    # makes those two groups too, and none of their columns is assembled.
    assert calls == [48, 227]
    for row, polys in columns:
        assert len(row) == sum(len(c.terms) for poly in polys for c in poly.coeffs.values())
    assert len(columns) > 1000


@pytest.mark.parametrize("p", [3, _prime_near(2**32, 1)])
def test_substitution_checks_fire(monkeypatch, p):
    # With one entry of the reduced basis changed, kernel_basis and solve
    # fail their substitution checks; unchanged, they pass them. Above 2^32,
    # (p - 1)^2 exceeds int64 and the checks multiply on Python ints.
    assert ((p - 1) ** 2 >= 2**63) == (p > 3)
    rng = random.Random(p)
    data = [[rng.randrange(p) for _ in range(6)] for _ in range(4)]
    for v in fp_reference.dense_rows(fl.kernel_basis(matrix(data, p)), 6).tolist():
        assert not any(_python_rows_times(data, v, p))
    b = _python_rows_times(data, [rng.randrange(p) for _ in range(6)], p)
    x = fp_reference.dense_rows([fl.solve(matrix(data, p), b)], 6)[0].tolist()
    assert _python_rows_times(data, x, p) == b
    m = matrix([[1, 1, 0], [0, 1, 1]], p)
    rhs = [2, 2]
    assert fl.solve(m, rhs) == {1: 2}
    assert fl.kernel_basis(m) == [{0: 1, 1: p - 1, 2: 1}]
    real = fl._rref

    def tampered(a):
        # The last column is not a pivot of m, nor of m with rhs appended.
        basis = real(a)
        first = basis[0]
        first[a.cols - 1] = (first.get(a.cols - 1, 0) + 1) % a.p
        return basis

    monkeypatch.setattr(fl, "_rref", tampered)
    with pytest.raises(AssertionError, match="kernel vector failed"):
        fl.kernel_basis(m)
    with pytest.raises(AssertionError, match="solve result failed"):
        fl.solve(m, rhs)

"""Exact linear algebra over GF(p)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from relcomp import gfp
from relcomp.errors import ParamError
from relcomp.gfp import PrimeMatrix, kernel_basis, rank, rref, stack
from relcomp.ring import RingCtx

PRIMES = (2, 3, 5, 32003, 2147483647)


def random_matrix(rng, rows, cols, p):
    return PrimeMatrix(rng.integers(0, p, size=(rows, cols)), p)


def test_rref_identity():
    m = PrimeMatrix(np.eye(4, dtype=np.int64), 7)
    red, pivots = rref(m)
    assert np.array_equal(red.a, np.eye(4, dtype=np.int64))
    assert list(pivots) == [0, 1, 2, 3]


def test_rank_of_zero():
    assert rank(PrimeMatrix(np.zeros((3, 5), dtype=np.int64), 5)) == 0


def test_kernel_of_invertible_is_empty():
    m = PrimeMatrix(np.array([[1, 2], [3, 4]]), 32003)
    assert kernel_basis(m).rows == 0


def test_kernel_vectors_annihilate():
    rng = np.random.default_rng(5)
    for p in (2, 5, 32003):
        for _ in range(30):
            m = random_matrix(rng, int(rng.integers(1, 8)),
                              int(rng.integers(1, 8)), p)
            ker = kernel_basis(m)
            if ker.rows:
                prod = m.matmul(PrimeMatrix(ker.a.T, p))
                assert not prod.a.any()


def test_rank_plus_kernel_is_column_count():
    rng = np.random.default_rng(11)
    for p in (2, 3, 32003):
        for _ in range(40):
            rows = int(rng.integers(1, 10))
            cols = int(rng.integers(1, 10))
            m = random_matrix(rng, rows, cols, p)
            assert rank(m) + kernel_basis(m).rows == cols


def test_rank_is_transpose_invariant():
    rng = np.random.default_rng(17)
    for _ in range(40):
        m = random_matrix(rng, int(rng.integers(1, 9)),
                          int(rng.integers(1, 9)), 32003)
        assert rank(m) == rank(PrimeMatrix(m.a.T, m.p))


def test_stack_concatenates_rows():
    a = PrimeMatrix(np.ones((2, 3), dtype=np.int64), 7)
    b = PrimeMatrix(np.zeros((1, 3), dtype=np.int64), 7)
    s = stack([a, b])
    assert s.rows == 3 and s.cols == 3


def test_stack_rejects_mismatched_widths():
    a = PrimeMatrix(np.ones((2, 3), dtype=np.int64), 7)
    b = PrimeMatrix(np.ones((2, 4), dtype=np.int64), 7)
    with pytest.raises(Exception):
        stack([a, b])


def test_rref_reproducible_pivot_choice():
    m = PrimeMatrix(np.array([[0, 2, 1], [0, 4, 3], [1, 1, 1]]), 5)
    red1, piv1 = rref(m)
    red2, piv2 = rref(PrimeMatrix(m.a.copy(), 5))
    assert np.array_equal(red1.a, red2.a) and list(piv1) == list(piv2)


# Reference elimination: separate Gauss-Jordan and forward-elimination loops
# and a kernel built entry by entry, kept as the oracle of the one pivot loop.


def _oracle_inv(x, p):
    return pow(int(x), p - 2, p)


def oracle_rref(a, p):
    a = a.copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * _oracle_inv(a[r, c], p)) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit] = (a[hit] - np.outer(col[hit], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def oracle_rank(a, p):
    a = a.copy()
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        below = a[r + 1:, c]
        hit = np.nonzero(below)[0]
        if hit.size:
            factor = (below[hit] * _oracle_inv(a[r, c], p)) % p
            a[r + 1:][hit, c:] = (a[r + 1:][hit, c:] - np.outer(factor, a[r, c:])) % p
        r += 1
    return r


def oracle_kernel(a, p):
    red, pivots = oracle_rref(a, p)
    cols = a.shape[1]
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for r, c in enumerate(pivots):
            basis[k, c] = (-red[r, f]) % p
    return basis


@st.composite
def prime_matrices(draw):
    """Dense matrices, or rank-deficient products of two thin ones."""
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    entries = st.integers(0, p - 1)
    if draw(st.booleans()):
        return PrimeMatrix(draw(arrays(np.int64, (rows, cols), elements=entries)), p)
    k = draw(st.integers(0, 3))
    left = draw(arrays(np.int64, (rows, k), elements=entries)).astype(object)
    right = draw(arrays(np.int64, (k, cols), elements=entries)).astype(object)
    return PrimeMatrix(((left @ right) % p).astype(np.int64), p)


# moduli at which the fewest updates fit in int64 between reductions of the
# loop, u = 2**63 // (p-1)**2 (gfp module docstring): 2 and 8
LOOP_PRIMES = (2147483647, 1073741789)


def falling_rows(p):
    """Rows 0..9 have 1 on the diagonal and p - 1 right of it; rows 9 and 8
    repeat.  In the rref the multiplier of row 0 at pivot k is -2**(k-1),
    near p, so its entries fall by nearly (p-1)**2 at each of 9 pivots in a
    row: more than either bound allows without a reduction."""
    a = np.triu(np.full((10, 16), p - 1, dtype=np.int64), 1)
    np.fill_diagonal(a, 1)
    return PrimeMatrix(a[[*range(10), 9, 8]], p)


@st.composite
def wide_deficient_matrices(draw):
    """10x16 matrices whose rows are multiples of a few random rows."""
    p = draw(st.sampled_from(LOOP_PRIMES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(0, p, size=(draw(st.integers(1, 8)), 16))
    rows = base[rng.integers(0, base.shape[0], size=10)]
    return PrimeMatrix(rows * rng.integers(1, p, size=(10, 1)) % p, p)


@settings(max_examples=300, deadline=None)
@given(st.one_of(prime_matrices(), wide_deficient_matrices()))
@example(PrimeMatrix.zeros(0, 5, 7))
@example(PrimeMatrix.zeros(4, 0, 2))
@example(PrimeMatrix(np.array([[0, 2, 1], [0, 4, 3], [1, 1, 1]]), 5))
@example(falling_rows(2147483647))
@example(falling_rows(1073741789))
def test_elimination_matches_loop_oracle(m):
    red, pivots = rref(m)
    want_red, want_pivots = oracle_rref(m.a, m.p)
    assert list(pivots) == want_pivots
    assert np.array_equal(red.a, want_red)
    assert rank(m) == oracle_rank(m.a, m.p)
    assert np.array_equal(kernel_basis(m).a, oracle_kernel(m.a, m.p))


def test_kernel_of_zero_row_matrix_is_identity():
    for p in PRIMES:
        for cols in (0, 1, 6):
            ker = kernel_basis(PrimeMatrix.zeros(0, cols, p))
            assert np.array_equal(ker.a, np.eye(cols, dtype=np.int64))


def test_matrix_modulus_must_be_a_prime_below_2_31():
    # modulo 4 the pivot 2 has no inverse: [[0, 1]] would be offered as a
    # kernel vector of [[2, 1]], and 2*0 + 1*1 is not 0
    with pytest.raises(ParamError):
        kernel_basis(PrimeMatrix([[2, 1]], 4))
    for bad in (0, 1, 4, 9, 561, 2047, 2**31, 2**61 - 1):
        with pytest.raises(ParamError) as matrix_err:
            PrimeMatrix.zeros(1, 1, bad)
        with pytest.raises(ParamError) as ring_err:
            RingCtx(1, bad)
        assert str(matrix_err.value) == str(ring_err.value)
    for good in PRIMES:
        assert PrimeMatrix.zeros(1, 1, good).p == good


def test_constructor_reduces_its_input():
    m = PrimeMatrix([[-1, 7, 15], [-15, 2**40, -(2**40)]], 7)
    assert m.a.tolist() == [[6, 0, 1], [6, 2**40 % 7, -(2**40) % 7]]
    assert m.a.dtype == np.int64


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 6), st.integers(0, 40),
       st.integers(0, 6), st.integers(0, 2**32 - 1))
@example(2147483647, 2, 2**15 + 3, 2, 0)  # two chunks of each limb product
def test_matmul_matches_exact_product(p, rows, inner, cols, seed):
    rng = np.random.default_rng(seed)
    left = rng.integers(0, p, size=(rows, inner))
    right = rng.integers(0, p, size=(inner, cols))
    if seed % 2:  # the largest terms
        left[:], right[:] = p - 1, p - 1
    want = (left.astype(object) @ right.astype(object)) % p
    got = PrimeMatrix(left, p).matmul(PrimeMatrix(right, p))
    assert got.a.dtype == np.int64
    assert np.array_equal(got.a, want.astype(np.int64))


# --- the float64 panel path --------------------------------------------------


def _largest_float_prime():
    p = int((2**53 / gfp._PANEL) ** 0.5) + 2
    while not (gfp._float_ok(p) and gfp._is_prime(p)):
        p -= 1
    return p


P_FLOAT_MAX = _largest_float_prime()
P_FLOAT_NEXT = next(q for q in range(P_FLOAT_MAX + 1, 2 * P_FLOAT_MAX)
                    if gfp._is_prime(q))
PANEL_PRIMES = (2, 3, 5, 32003, P_FLOAT_MAX, P_FLOAT_NEXT)


def test_float_bound_is_where_the_dispatch_stops():
    assert gfp._float_ok(P_FLOAT_MAX) and not gfp._float_ok(P_FLOAT_NEXT)
    rng = np.random.default_rng(3)
    a = rng.integers(0, P_FLOAT_MAX, size=(400, 300))
    assert gfp._working_copy(a, P_FLOAT_MAX).dtype == np.float64
    assert gfp._working_copy(a, P_FLOAT_NEXT).dtype == np.int64
    assert gfp._working_copy(a, 2147483647).dtype == np.int64


def test_reduce_is_exact_up_to_the_bound():
    rng = np.random.default_rng(11)
    for p in (2, 3, 32003, P_FLOAT_MAX):
        bound = 2**53 - 2 * p
        top = bound // p * p
        near = [q + d for q in (top, -top, top - p, p, 0, -p) for d in range(-2, 3)]
        xs = [x for x in near if abs(x) <= bound]
        xs += [bound, -bound] + rng.integers(-bound, bound, size=1000).tolist()
        got = np.array(xs, dtype=np.float64)
        assert got.astype(np.int64).tolist() == xs  # all exact in float64
        gfp._reduce(got, p)
        assert got.astype(np.int64).tolist() == [x % p for x in xs]


@st.composite
def panel_matrices(draw):
    """Dense, rank-deficient and sparse matrices across several panels."""
    p = draw(st.sampled_from(PANEL_PRIMES))
    rows, cols = draw(st.integers(0, 200)), draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "low-rank", "sparse"]))
    if kind == "dense":
        a = rng.integers(0, p, size=(rows, cols))
    elif kind == "low-rank":
        k = draw(st.integers(0, 40))
        a = (rng.integers(0, p, size=(rows, k))
             @ rng.integers(0, p, size=(k, cols))) % p
    else:
        density = draw(st.sampled_from([0.005, 0.02, 0.1]))
        a = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
    return PrimeMatrix(a, p)


@settings(max_examples=60, deadline=None)
@given(panel_matrices())
@example(PrimeMatrix(np.random.default_rng(1).integers(
    0, P_FLOAT_MAX, size=(160, 200)), P_FLOAT_MAX))  # would pass 2**53 unreduced
@example(PrimeMatrix(np.full((70, 90), 5), 7))
@example(PrimeMatrix.zeros(0, 100, 32003))
@example(PrimeMatrix.zeros(100, 0, 32003))
def test_panel_path_matches_loop_oracle(m):
    with pytest.MonkeyPatch.context() as mp:
        if gfp._float_ok(m.p):
            # send every matrix down the panel path, whatever its size
            mp.setattr(gfp, "_working_copy", lambda a, p: a.astype(np.float64))
        else:
            assert gfp._working_copy(m.a, m.p).dtype == np.int64
        red, pivots = rref(m)
        got_rank = rank(m)
        ker = kernel_basis(m)
    want_red, want_pivots = oracle_rref(m.a, m.p)
    assert list(pivots) == want_pivots
    assert red.a.dtype == np.int64 and np.array_equal(red.a, want_red)
    assert got_rank == oracle_rank(m.a, m.p)
    assert np.array_equal(ker.a, oracle_kernel(m.a, m.p))


def test_large_dense_matrices_take_the_panel_path(monkeypatch):
    calls = []
    panels = gfp._eliminate_panels

    def counting(a, p, full):
        calls.append(a.shape)
        return panels(a, p, full)

    monkeypatch.setattr(gfp, "_eliminate_panels", counting)
    rng = np.random.default_rng(7)
    p = 32003
    dense = PrimeMatrix((rng.integers(0, p, size=(400, 60))
                         @ rng.integers(0, p, size=(60, 300))) % p, p)
    want_red, want_pivots = oracle_rref(dense.a, p)
    red, pivots = rref(dense)
    assert np.array_equal(red.a, want_red) and pivots == want_pivots
    assert rank(dense) == len(want_pivots) == 60
    assert kernel_basis(dense).rows == 300 - 60
    assert calls == [(400, 300)] * 3
    # sparse: the panel path as well, since only the size picks it
    sparse = PrimeMatrix(dense.a * (rng.random((400, 300)) < 0.005), p)
    assert rank(sparse) == oracle_rank(sparse.a, p)
    assert len(calls) == 4
    # small or too large a modulus: the pivot loop
    rank(PrimeMatrix(dense.a[:200, :200], p))
    rank(PrimeMatrix(dense.a, 2147483647))
    assert len(calls) == 4

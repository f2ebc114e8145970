"""Ring contexts, polynomials, contraction, and seeded form streams."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relcomp.errors import DegreeError, ParamError
from relcomp.gfp import PrimeMatrix
from relcomp.ring import (
    FormStream,
    HomogPoly,
    RingCtx,
    contraction_map,
)
from relcomp.ring import _monomials

from oracles import NumpyFormStream, monomials_recursive


def test_basis_is_lex_descending():
    ring = RingCtx(3, 7)
    basis = ring.basis(2)
    assert basis[0] == (2, 0, 0)
    assert basis[-1] == (0, 0, 2)
    assert basis == sorted(basis, reverse=True)
    assert len(basis) == ring.dim(2) == 6


def test_monomials_match_the_recursive_enumeration():
    # stars and bars lists the tuples of the recursion, in the same order
    for n in range(1, 8):
        for d in range(13):
            assert list(map(tuple, _monomials(n, d).tolist())) == monomials_recursive(n, d)


def test_dim_matches_binomial():
    ring = RingCtx(4, 7)
    for d in range(6):
        assert ring.dim(d) == len(ring.basis(d))
    assert ring.dim(-1) == 0


def test_parse_and_text_round_trip():
    ring = RingCtx(3, 32003)
    f = HomogPoly.parse(ring, "3*x1^2*x2 + x3^3 + 5*x1*x2*x3")
    again = HomogPoly.parse(ring, f.text())
    assert f == again
    assert f.degree == 3


def test_parse_accepts_dual_variable_names():
    ring = RingCtx(2, 101)
    assert HomogPoly.parse(ring, "y1^2 + y2^2") == HomogPoly.parse(
        ring, "x1^2 + x2^2")


def test_parse_rejects_mixed_degrees():
    ring = RingCtx(2, 7)
    with pytest.raises(DegreeError):
        HomogPoly.parse(ring, "x1 + x2^2")


def test_multiplication_is_commutative_and_graded():
    ring = RingCtx(3, 32003)
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = HomogPoly(ring, 2, rng.integers(0, 32003, ring.dim(2)))
        g = HomogPoly(ring, 3, rng.integers(0, 32003, ring.dim(3)))
        assert f * g == g * f
        assert (f * g).degree == 5


def test_mult_map_agrees_with_product():
    ring = RingCtx(3, 32003)
    rng = np.random.default_rng(9)
    f = HomogPoly(ring, 2, rng.integers(0, 32003, ring.dim(2)))
    g = HomogPoly(ring, 2, rng.integers(0, 32003, ring.dim(2)))
    m = ring.mult_map(f, 2)
    v = m.matmul(PrimeMatrix(g.coeffs.reshape(-1, 1), 32003)).a.ravel()
    assert HomogPoly(ring, 4, v) == f * g


def test_contraction_of_pure_power():
    ring = RingCtx(2, 32003)
    big = ring.monomial((4, 0))  # dual form y1^4
    m = contraction_map(big, 1)
    x1 = ring.variable(1)
    v = m.matmul(PrimeMatrix(x1.coeffs.reshape(-1, 1), 32003)).a.ravel()
    # x1 o y1^4 = y1^3: contraction has no coefficients
    assert HomogPoly(ring, 3, v) == ring.monomial((3, 0))


def test_contraction_adjunction():
    # F(g*h) = (g o F)(h) for the dot pairing, x^a o y^b = 1 at b = a
    ring = RingCtx(3, 32003)
    rng = np.random.default_rng(21)
    for _ in range(10):
        g = HomogPoly(ring, 2, rng.integers(0, 32003, ring.dim(2)))
        h = HomogPoly(ring, 2, rng.integers(0, 32003, ring.dim(2)))
        big = HomogPoly(ring, 4, rng.integers(0, 32003, ring.dim(4)))
        lhs = int(np.dot((g * h).coeffs, big.coeffs) % 32003)
        m = contraction_map(big, 2)
        gof = m.matmul(PrimeMatrix(g.coeffs.reshape(-1, 1), 32003)).a.ravel()
        rhs = int(np.dot(h.coeffs, gof) % 32003)
        assert lhs == rhs


def test_contraction_refuses_overdeep():
    ring = RingCtx(2, 7)
    with pytest.raises(DegreeError):
        contraction_map(ring.monomial((1, 1)), 3)


def test_form_stream_is_deterministic():
    ring = RingCtx(3, 32003)
    a = FormStream(ring, seed=5).forms([2, 3, 4])
    b = FormStream(ring, seed=5).forms([2, 3, 4])
    assert all(x == y for x, y in zip(a, b))
    c = FormStream(ring, seed=6).form(2)
    assert c != a[0]


def test_form_stream_never_returns_zero():
    ring = RingCtx(1, 2)
    stream = FormStream(ring, seed=1)
    for _ in range(20):
        assert not stream.form(1).is_zero()


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 32003, 1073741827, 2147483647]),
    n=st.integers(1, 12),
    seed=st.integers(0, 2 ** 70),
    calls=st.lists(st.tuples(st.just("form"), st.integers(-1, 3))
                   | st.tuples(st.just("coefficients"), st.integers(0, 9)), max_size=8),
)
# odd counts leave half a 64-bit output kept for the next call
@example(p=2, n=3, seed=2 ** 70, calls=[("coefficients", 1), ("coefficients", 0),
                                        ("form", -1), ("coefficients", 3), ("form", 2)])
def test_form_stream_matches_the_numpy_oracle(p, n, seed, calls):
    ring = RingCtx(n, p)
    stream, oracle = FormStream(ring, seed), NumpyFormStream(ring, seed)
    for call, arg in calls:
        got, want = getattr(stream, call)(arg), getattr(oracle, call)(arg)
        if call == "form":
            assert got == want
            got, want = got.coeffs, want.coeffs
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)


def test_form_stream_first_draws_are_pinned():
    """The draws themselves, should numpy ever change what its Generator
    draws: every pinned digest rests on them."""
    assert FormStream(RingCtx(3, 32003), seed=1).coefficients(10).tolist() == [
        233, 8706, 7508, 22034, 18518, 3123, 21240, 18459, 30940, 17382]
    assert FormStream(RingCtx(4, 2), seed=1).coefficients(24).tolist() == [
        1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0]


@pytest.mark.parametrize("seed", [-1, 1.5, None])
def test_form_stream_refuses_a_seed_that_is_not_a_natural_number(seed):
    with pytest.raises(ParamError):
        FormStream(RingCtx(2, 5), seed)


def test_variable_bounds():
    ring = RingCtx(2, 7)
    with pytest.raises(ParamError):
        ring.variable(3)


def test_modulus_must_be_a_prime_below_2_31():
    # 2047, 1373653 and 25326001 are strong pseudoprimes to bases 2, 2-3 and 2-5
    for bad in (0, 1, 4, 9, 561, 2047, 1373653, 25326001, 2**31, 2**61 - 1):
        with pytest.raises(ParamError):
            RingCtx(3, bad)
    for good in (2, 3, 32003, 2**31 - 1):
        assert RingCtx(3, good).p == good


def test_primality_matches_trial_division():
    def prime(q):
        return q > 1 and all(q % t for t in range(2, int(q**0.5) + 1))

    for q in range(2000):
        try:
            RingCtx(1, q)
            accepted = True
        except ParamError:
            accepted = False
        assert accepted == prime(q), q


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 7), d=st.integers(-1, 6), e=st.integers(-1, 3))
def test_sum_index_matches_the_rank_of_the_summed_exponents(n, d, e):
    # sum_index gathers the factors' tail sums; the oracle ranks the summed
    # exponent array
    ring = RingCtx(n, 7)
    want = ring.rank(ring.exponents(d)[:, None] + ring.exponents(e))
    got = ring.sum_index(d, e)
    assert got.shape == (ring.dim(d), ring.dim(e)) and np.array_equal(got, want)


def test_rank_is_the_basis_position():
    ring = RingCtx(4, 7)
    for d in range(6):
        assert list(ring.rank(ring.exponents(d))) == list(range(ring.dim(d)))
    with pytest.raises(ParamError):
        ring.monomial((2, -1, 0, 0))


# --- loop oracles for the monomial pairing kernel --------------------------


def _index(ring, d):
    return {m: i for i, m in enumerate(ring.basis(d))}


def _loop_contract(b, mono):
    """The exponent of x^mono o y^b, or None when it is 0 (b < mono)."""
    if all(bi >= ai for bi, ai in zip(b, mono)):
        return tuple(bi - ai for bi, ai in zip(b, mono))
    return None


def loop_mult_map(f, d):
    ring = f.ring
    e = f.degree
    a = np.zeros((ring.dim(d + e), ring.dim(d)), dtype=np.int64)
    tgt = _index(ring, d + e)
    fb = ring.basis(e)
    for j, m in enumerate(ring.basis(d)):
        for k in np.nonzero(f.coeffs)[0]:
            prod = tuple(x + y for x, y in zip(m, fb[k]))
            a[tgt[prod], j] = (a[tgt[prod], j] + f.coeffs[k]) % ring.p
    return PrimeMatrix(a, ring.p)


def loop_contraction_map(F, d):
    ring = F.ring
    s = F.degree
    a = np.zeros((ring.dim(s - d), ring.dim(d)), dtype=np.int64)
    tgt = _index(ring, s - d)
    for j, mono in enumerate(ring.basis(d)):
        for b, c in F.terms():
            rest = _loop_contract(b, mono)
            if rest is not None:
                a[tgt[rest], j] = (a[tgt[rest], j] + c) % ring.p
    return PrimeMatrix(a, ring.p)


def loop_contract_by_poly(g, j):
    ring = g.ring
    e = g.degree
    a = np.zeros((ring.dim(j - e), ring.dim(j)), dtype=np.int64)
    tgt = _index(ring, j - e)
    for col, b in enumerate(ring.basis(j)):
        for mono, cf in g.terms():
            rest = _loop_contract(b, mono)
            if rest is not None:
                a[tgt[rest], col] = (a[tgt[rest], col] + cf) % ring.p
    return PrimeMatrix(a, ring.p)


def loop_strip(ring, d):
    """Per variable x_{k+1}: the degree d monomials whose first variable is
    x_{k+1}, and their positions in basis(d - 1) once it is stripped."""
    idx = _index(ring, d - 1)
    blocks = [([], []) for _ in range(ring.n)]
    for col, mono in enumerate(ring.basis(d)):
        k = next(i for i, e in enumerate(mono) if e)
        nu = list(mono)
        nu[k] -= 1
        blocks[k][0].append(col)
        blocks[k][1].append(idx[tuple(nu)])
    return blocks


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    p=st.sampled_from([2, 3, 5, 32003]),
    d=st.integers(0, 4),
    e=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, p=2, d=0, e=4, seed=1)  # d = 0: contraction by constants
@example(n=3, p=3, d=4, e=0, seed=2)  # e = 0: d = s, a full catalecticant row
@example(n=5, p=5, d=4, e=4, seed=3)  # degrees d + e >= p
def test_kernel_matches_loop_oracle(n, p, d, e, seed):
    ring = RingCtx(n, p)
    rng = np.random.default_rng(seed)
    f = HomogPoly(ring, e, rng.integers(0, p, ring.dim(e)))
    big = HomogPoly(ring, d + e, rng.integers(0, p, ring.dim(d + e)))
    assert ring.mult_map(f, d) == loop_mult_map(f, d)
    assert contraction_map(big, d) == loop_contraction_map(big, d)
    # F -> f o F, the block of engine.perp_basis, is mult_map transposed
    assert PrimeMatrix(ring.mult_map(f, d).a.T, p) == loop_contract_by_poly(f, d + e)
    if d + e >= 1:
        got = [(list(cols), list(prev)) for cols, prev in ring.strip(d + e)]
        assert got == loop_strip(ring, d + e)

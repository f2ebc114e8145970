"""Exact engine: quotient algebras, linkage, inverse systems, verdicts."""

import functools
import gc
import itertools
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from relcomp import engine
from relcomp.betti import BettiTable, ghost_classify, koszul_shape
from relcomp.cases import perp_picks
from relcomp.engine import (
    GradedIdeal,
    QuotientBasis,
    annihilator_ideal,
    betti_numbers,
    ci_in,
    general_element,
    general_forms,
    hilbert_function,
    ideal_quotient,
    is_relatively_compressed,
    minimal_generators,
    perp_basis,
    socle,
)
from relcomp.errors import (
    InternalError,
    NotArtinianError,
    NotContainedError,
    ParamError,
)
from relcomp.gfp import PrimeMatrix, kernel_basis, rank, rref
from relcomp.ring import FormStream, HomogPoly, RingCtx
from relcomp.series import froberg_prediction, linkage_hf

from oracles import (
    betti_numbers_syzygy,
    differentiation_map,
    divided_powers,
    kernel_rows,
    perp_picks_by_basis,
    sift_generators,
    socle_dim_by_rank,
)


def ring3(p=32003):
    return RingCtx(3, p)


def variables_ideal(ring):
    return GradedIdeal(ring, [ring.variable(i + 1) for i in range(ring.n)])


# --- Hilbert functions -----------------------------------------------------


def test_hf_of_variables_ideal():
    ring = ring3()
    assert hilbert_function(variables_ideal(ring)).text() == "1"


def test_hf_of_monomial_ci():
    ring = ring3()
    ci = GradedIdeal(ring, [ring.monomial((4, 0, 0)), ring.monomial((0, 4, 0)),
                            ring.monomial((0, 0, 4))])
    assert hilbert_function(ci).text() == "1 3 6 10 12 12 10 6 3 1"


def test_hf_of_general_forms_matches_prediction():
    ring = ring3()
    for degs in [(3, 3, 3), (2, 2, 2, 2), (3, 3, 3, 3, 3)]:
        ideal = general_forms(degs, FormStream(ring, 1))
        assert hilbert_function(ideal) == froberg_prediction(degs, 3)


def test_hf_without_cap_needs_enough_generators():
    ring = ring3()
    one_form = general_forms((2,), FormStream(ring, 1))
    hf = hilbert_function(one_form, cap=4)
    assert list(hf) == [1, 3, 5, 7, 9]
    assert not hf.exact


def test_non_artinian_detected():
    ring = ring3()
    degenerate = GradedIdeal(ring, [ring.variable(1), ring.variable(2)])
    with pytest.raises(NotArtinianError):
        socle(degenerate)


def test_non_artinian_with_enough_generators_detected():
    # (x1^2, x1 x2, x2^2) leaves x3 free; the probe stops at n(D - 1) + 1 = 4
    ring = ring3()
    ideal = GradedIdeal(ring, [HomogPoly.parse(ring, t)
                               for t in ("x1^2", "x1*x2", "x2^2")])
    with pytest.raises(NotArtinianError, match="degree 4"):
        socle(ideal)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_shared_model_and_proven_bound(data):
    n = data.draw(st.integers(1, 4), label="n")
    degrees = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n + 2),
                        label="degrees")
    seed = data.draw(st.integers(1, 1000), label="seed")
    ring = RingCtx(n, 32003)
    ideal = general_forms(degrees, FormStream(ring, seed))
    bound = ideal.artinian_bound()
    hf = hilbert_function(ideal)
    assert hf.exact and hf.top_degree() < bound
    # every reader uses the ideal's one model and agrees with a fresh one
    model = ideal.quotient
    assert betti_numbers(ideal) == betti_numbers(GradedIdeal(ring, ideal.gens))
    assert socle(ideal) == socle(GradedIdeal(ring, ideal.gens))
    assert hilbert_function(ideal) == hilbert_function(GradedIdeal(ring, ideal.gens))
    assert ideal.quotient is model


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_sifted_ideal_carries_its_model(data):
    # annihilators and colon ideals hand their incremental model over; it
    # must be the model a fresh QuotientBasis of their generators builds
    n = data.draw(st.integers(2, 4), label="n")
    p = data.draw(st.sampled_from([2, 3, 32003]), label="p")
    seed = data.draw(st.integers(1, 1000), label="seed")
    ring = RingCtx(n, p)
    stream = FormStream(ring, seed)
    if data.draw(st.booleans(), label="link"):
        powers = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n),
                           label="powers")
        c = GradedIdeal(ring, [ring.monomial(tuple(a if i == k else 0
                                                   for i in range(n)))
                               for k, a in enumerate(powers)])
        extra = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2),
                          label="extra")
        result = ideal_quotient(c, GradedIdeal(ring, c.gens + stream.forms(extra)))
    else:
        degrees = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=2),
                            label="dual degrees")
        result = annihilator_ideal(stream.forms(degrees))
    carried = result.quotient
    fresh = QuotientBasis(ring, result.gens)
    bound = result.artinian_bound()
    for d in range(bound + 1):
        assert carried.dim(d) == fresh.dim(d)
        assert np.array_equal(carried.table(d).a, fresh.table(d).a)
        for k in range(n if d < bound else 0):
            assert np.array_equal(carried.mult(k, d).a, fresh.mult(k, d).a)


def test_artinian_bound_needs_enough_generators():
    ring = ring3()
    assert variables_ideal(ring).artinian_bound() == 1
    assert GradedIdeal(ring, [ring.variable(1)]).artinian_bound() is None
    unit = GradedIdeal(ring, [ring.monomial((0, 0, 0)), ring.variable(1)])
    assert unit.artinian_bound() == 0


def test_unit_ideal_quotient_is_zero():
    ring = ring3()
    ci = general_forms((2, 2, 2), FormStream(ring, 1))
    unit = ideal_quotient(ci, ci)
    assert any(g.degree == 0 for g in unit.gens)
    assert hilbert_function(unit).text() == "0"


def test_unit_ideal_model_maps_are_zero():
    ring = ring3()
    qb = GradedIdeal(ring, [ring.monomial((0, 0, 0))]).quotient
    assert qb.mult(0, 0).a.shape == (0, 0)
    assert qb.mult(2, 3).a.shape == (0, 0)
    assert qb.socle_dim(0) == 0


def draw_sift_rows(data, ring, stream, d, gens):
    """Rows to sift into degree d, redundant ones included: general forms
    (the constant 1 in degree 0), a combination of earlier rows, x_1 times
    a generator of degree d - 1 and a zero row, in a drawn order."""
    p = ring.p
    if d == 0:
        rows = [ring.monomial((0,) * ring.n).coeffs] * data.draw(
            st.integers(0, 1), label="unit")
    else:
        rows = [f.coeffs for f in stream.forms([d] * data.draw(st.integers(0, 3),
                                                                label="forms"))]
    if rows:
        a, b = data.draw(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)),
                         label="combination")
        rows.append((a * rows[0] + b * rows[-1]) % p)
    rows += [(ring.variable(1) * g).coeffs for g in gens if g.degree == d - 1]
    rows.append(np.zeros(ring.dim(d), dtype=np.int64))
    order = data.draw(st.permutations(range(len(rows))), label="order")
    return np.array([rows[i] for i in order])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sift_matches_a_fresh_model(data):
    # the model of drawn rows, redundant ones included, keeps in each degree
    # the row rank profile of the rows' classes, the given objects
    # themselves, and is the model a fresh QuotientBasis of the kept
    # generators builds
    n = data.draw(st.integers(1, 5), label="n")
    p = data.draw(st.sampled_from([2, 3, 32003]), label="p")
    seed = data.draw(st.integers(1, 1000), label="seed")
    ring = RingCtx(n, p)
    stream = FormStream(ring, seed)
    top = data.draw(st.integers(0, 4 if n < 4 else 3), label="top")
    given, gens = [], []
    for d in range(top + 1):
        rows = draw_sift_rows(data, ring, stream, d, gens)
        # the oracle: a row is kept when adding it lowers dim A_d
        dims = [QuotientBasis(ring, gens + [HomogPoly(ring, d, r) for r in rows[:i]]).dim(d)
                for i in range(len(rows) + 1)]
        drawn = [HomogPoly(ring, d, r) for r in rows]
        given += drawn
        gens += [drawn[i] for i in range(len(rows)) if dims[i + 1] < dims[i]]
    model = QuotientBasis(ring, given)
    model.dim(top)
    assert [id(g) for g in model.gens] == [id(g) for g in gens]
    fresh = QuotientBasis(ring, gens)
    for d in range(top + 2):
        assert model.dim(d) == fresh.dim(d)
        assert model.socle_dim(d) == fresh.socle_dim(d)
        assert model.table(d) == fresh.table(d)
        for k in range(n):
            assert model.mult(k, d) == fresh.mult(k, d)
        assert np.array_equal(model._std[d], fresh._std[d])


def test_a_zero_constant_is_not_the_unit_ideal():
    # a degree 0 generator is sieved like any other: only a nonzero
    # constant quotients A_0 to 0
    r = RingCtx(1, 2)
    assert QuotientBasis(r, [HomogPoly(r, 0, np.zeros(1, dtype=np.int64))]).dim(0) == 1
    assert QuotientBasis(r, [r.monomial((0,))]).dim(0) == 0


class OracleQuotientBasis(QuotientBasis):
    """The model with an abstract basis: A_d as the quotient of
    x_1*A_{d-1} + ... + x_n*A_{d-1} (n * dim A_{d-1} columns) by the
    commutation relations and the generator images, eliminated here rather
    than sieved.  The reference for the monomial-basis model, which must
    describe the same algebra.  With no monomial basis, mult cannot be read
    off the table: it keeps its own dims, multiplication maps and top
    degree, and builds degree 0 on construction."""

    def __init__(self, ring, gens=()):
        super().__init__(ring, gens)
        self._dims, self._mult, self._top = {0: 1}, {}, 0
        self._table.append(PrimeMatrix(np.ones((1, 1), dtype=np.int64), ring.p))
        # a nonzero constant leaves A_0 = 0
        if any(g.coeffs.any() for g in self._given if g.degree == 0):
            self._dims[0] = 0
            self._table[0] = PrimeMatrix.zeros(0, 1, ring.p)

    def dim(self, d):
        if d < 0:
            return 0
        while self._top < d:
            self._build(self._top + 1)
        return self._dims[d]

    def mult(self, k, d):
        rows = self.dim(d + 1)  # builds degree d + 1
        # source or target is zero when _build stored no map
        return self._mult.get((k, d), PrimeMatrix.zeros(rows, self.dim(d), self.ring.p))

    def _build(self, d):
        ring = self.ring
        n, p = ring.n, ring.p
        a1 = self._dims[d - 1]
        a2 = self._dims.get(d - 2, 0)
        vdim = n * a1
        gens_d = [g for g in self._given if g.degree == d]
        if vdim == 0:
            self._dims[d] = 0
            self._table.append(PrimeMatrix(
                np.zeros((0, ring.dim(d)), dtype=np.int64), p
            ))
            self._top = d
            return
        rels = [np.zeros((0, vdim), dtype=np.int64)]
        if a2:
            mults = [self.mult(k, d - 2).a.T for k in range(n)]
            for j, k in itertools.combinations(range(n), 2):
                blk = np.zeros((a2, vdim), dtype=np.int64)
                blk[:, j * a1:(j + 1) * a1] = mults[k]
                blk[:, k * a1:(k + 1) * a1] = -mults[j]
                rels.append(blk)
        prev_table = self._table[d - 1]
        strips = ring.strip(d)
        if gens_d:
            coeffs = np.array([g.coeffs for g in gens_d])
            rels.append(np.hstack([
                PrimeMatrix._trusted(coeffs[:, cols], p).matmul(
                    PrimeMatrix._trusted(prev_table.a[:, prev].T, p)).a
                for cols, prev in strips
            ]))
        vred = kernel_basis(PrimeMatrix(np.vstack(rels), p)).a
        ad = vred.shape[0]
        self._dims[d] = ad
        for k in range(n):
            self._mult[(k, d - 1)] = PrimeMatrix._trusted(
                vred[:, k * a1:(k + 1) * a1], p
            )
        table = np.zeros((ad, ring.dim(d)), dtype=np.int64)
        if ad:
            for k, (cols, prev) in enumerate(strips):
                sub = PrimeMatrix._trusted(prev_table.a[:, prev], p)
                table[:, cols] = self._mult[(k, d - 1)].matmul(sub).a
        self._table.append(PrimeMatrix._trusted(table, p))
        self._top = d


def draw_model_ideal(data, ring, stream):
    """General forms, the annihilator of one or several forms, a colon
    ideal, or a unit ideal, in the ring's n and p."""
    n = ring.n
    kind = data.draw(st.sampled_from(["general forms", "ann", "colon", "unit"]),
                     label="kind")
    if kind == "general forms":
        degrees = data.draw(st.lists(st.integers(1, 3 if n < 5 else 2),
                                     min_size=n, max_size=n + 2), label="degrees")
        return general_forms(degrees, stream)
    if kind == "ann":
        s = data.draw(st.integers(1, ORACLE_TOP[n] if n > 1 else 6), label="s")
        return annihilator_ideal(stream.forms([s] * data.draw(st.integers(1, 3),
                                                              label="count")))
    if kind == "colon":
        powers = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n),
                           label="powers")
        c = GradedIdeal(ring, [ring.monomial(tuple(a if i == k else 0
                                                   for i in range(n)))
                               for k, a in enumerate(powers)])
        extra = data.draw(st.lists(st.integers(1, 3), max_size=2), label="extra")
        return ideal_quotient(c, GradedIdeal(ring, c.gens + stream.forms(extra)))
    extra = data.draw(st.lists(st.integers(1, 3), max_size=2), label="extra")
    return GradedIdeal(ring, [ring.monomial((0,) * n)] + stream.forms(extra))


def ideal_rref(model, d):
    """Canonical basis of I_d: the rref of the kernel of table(d)."""
    return rref(kernel_basis(model.table(d)))[0].a


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_monomial_model_matches_oracle_model(data):
    n = data.draw(st.integers(1, 5), label="n")
    p = data.draw(st.sampled_from([2, 3, 32003]), label="p")
    seed = data.draw(st.integers(1, 1000), label="seed")
    ring = RingCtx(n, p)
    ideal = draw_model_ideal(data, ring, FormStream(ring, seed))
    model = QuotientBasis(ring, ideal.gens)
    oracle = OracleQuotientBasis(ring, ideal.gens)
    # the first degree where A vanishes and the one after it are compared
    # too; no higher degree needs to be, since both models build degree d
    # on degree d - 1's basis, so neither has a nonzero degree after a zero
    # one (a quotient that is not Artinian is compared two degrees past its
    # Artinian bound)
    for d in range(hilbert_function(ideal).top_degree() + 3):
        assert model.dim(d) == oracle.dim(d)
        assert model.socle_dim(d) == oracle.socle_dim(d)
        assert np.array_equal(ideal_rref(model, d), ideal_rref(oracle, d))
        table = model.table(d)
        # x_k * (-) commutes with taking classes
        for k in range(n):
            xk = ring.mult_map(ring.variable(k + 1), d)
            assert model.table(d + 1).matmul(xk) == model.mult(k, d).matmul(table)
        # the basis is a set of monomials, closed under division
        std = model._std[d]
        assert np.array_equal(table.a[:, std], np.eye(model.dim(d), dtype=np.int64))
        if d:
            expo = ring.exponents(d)[std]
            below = set(model._std[d - 1].tolist())
            for k in range(n):
                has = expo[:, k] > 0
                divided = expo[has] - np.eye(n, dtype=np.int64)[k]
                assert below.issuperset(ring.rank(divided).tolist())


def test_model_eliminates_over_the_shadow(monkeypatch):
    # every elimination of _span has at most min(n dim A_{d-1}, dim R_d)
    # columns: one per distinct product of a basis monomial and a variable
    # (the kernels _sieve takes of the generator classes are not counted)
    ring = RingCtx(4, 32003)
    ideal = general_forms((4, 4, 4, 4, 11), FormStream(ring, 1))
    widths = []
    true_kernel = engine._kernel

    def kernel(m):
        if sys._getframe(1).f_code is QuotientBasis._span.__code__:
            widths.append(m.cols)
        return true_kernel(m)

    monkeypatch.setattr(engine, "_kernel", kernel)
    model = QuotientBasis(ring, ideal.gens)
    top = ideal.artinian_bound()
    model.dim(top)
    assert len(widths) == top
    old = [ring.n * model.dim(d - 1) for d in range(1, top + 1)]
    assert all(w <= min(o, ring.dim(d)) for d, (w, o) in enumerate(zip(widths, old), 1))
    assert sum(widths) < sum(old) / 2


# --- minimal generators and socle ------------------------------------------


def test_minimal_generators_drops_redundant():
    ring = ring3()
    stream = FormStream(ring, 2)
    f = stream.form(2)
    x1 = ring.variable(1)
    ideal = GradedIdeal(ring, [f, x1 * f, stream.form(4)])
    assert minimal_generators(ideal) == [(2, 1), (4, 1)]


def first_column(table):
    return sorted((j, m) for (i, j), m in table.beta.items() if i == 1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_minimal_generators_match_both_betti_routes(data):
    # redundant generators: g + x_1 h, x_k g, repeats, and general forms
    # past the top degree of R/I, all in a drawn order.  betti_numbers reads
    # rank d_2 off the generators its sieve kept, so the whole table is
    # checked against the all-ranks oracle and the syzygy route
    n = data.draw(st.integers(2, 4), label="n")
    p = data.draw(st.sampled_from([2, 3, 32003]), label="p")
    seed = data.draw(st.integers(1, 1000), label="seed")
    ring = RingCtx(n, p)
    stream = FormStream(ring, seed)
    powers = data.draw(st.lists(st.integers(2, 3 if n < 4 else 2), min_size=n,
                                max_size=n), label="powers")
    gens = [ring.monomial(tuple(a if i == k else 0 for i in range(n)))
            for k, a in enumerate(powers)]
    gens += stream.forms(data.draw(st.lists(st.integers(1, 3), max_size=2),
                                   label="general forms"))
    top = hilbert_function(GradedIdeal(ring, gens)).top_degree()
    pick = st.sampled_from(gens)
    redundant = []
    for g, h in data.draw(st.lists(st.tuples(pick, pick), max_size=2), label="g + x_1 h"):
        if g.degree == h.degree + 1:
            redundant.append(g + ring.variable(1) * h)
    for g, k in data.draw(st.lists(st.tuples(pick, st.integers(1, n)), max_size=2),
                          label="x_k g"):
        redundant.append(ring.variable(k) * g)
    redundant += data.draw(st.lists(pick, max_size=2), label="repeats")
    redundant += stream.forms(data.draw(st.lists(st.integers(top + 1, top + 2),
                                                 max_size=2), label="past the top"))
    every = gens + [g for g in redundant if not g.is_zero()]
    order = data.draw(st.permutations(range(len(every))), label="order")
    ideal = GradedIdeal(ring, [every[i] for i in order])
    got = minimal_generators(ideal)
    table = betti_numbers(ideal)
    assert got == first_column(table)
    assert table == oracle_betti_numbers(ideal) == betti_numbers_syzygy(ideal)


def test_minimal_generators_read_a_sifted_ideal(monkeypatch):
    # every ideal's model records the generators its sieve kept: for a
    # colon ideal or an annihilator (minimally generated by construction,
    # sifted when gens is first read) and for given generators whose model
    # betti_numbers built, they are read, and nothing is built or eliminated
    ring = ring3()
    stream = FormStream(ring, 4)
    c = general_forms((3, 3, 3), stream)
    f = stream.form(2)
    sifted = [annihilator_ideal(stream.forms([4, 4])),
              ideal_quotient(c, GradedIdeal(ring, c.gens + stream.forms([2]))),
              GradedIdeal(ring, [f, ring.variable(1) * f] + stream.forms([3, 4]))]
    want = [first_column(betti_numbers(ideal)) for ideal in sifted]
    assert want[-1] == [(2, 1), (3, 1), (4, 1)]
    for ideal in sifted[:2]:
        ideal.gens

    def refuse(*args, **kwargs):
        raise AssertionError("minimal_generators built or eliminated a matrix")

    monkeypatch.setattr(QuotientBasis, "__init__", refuse)
    for name in ("rref", "rank", "_kernel", "kernel_basis"):
        monkeypatch.setattr(engine, name, refuse)
    assert [minimal_generators(ideal) for ideal in sifted] == want


@pytest.mark.parametrize("kind", ["ann", "colon"])
def test_sieve_refuses_a_quotient_of_the_wrong_dimension(monkeypatch, kind):
    # a sieve that drops its last kept row leaves A_d one dimension too big
    true_sieve = engine._sieve

    def dropping(std, table, rows):
        kept = true_sieve(std, table, rows)[2]
        std, table, again = true_sieve(std, table, rows[kept[:-1]])
        return std, table, [kept[i] for i in again]

    ring = ring3()
    stream = FormStream(ring, 5)
    if kind == "ann":
        # an annihilator sieves its degrees when its generators are first read
        read = annihilator_ideal(stream.forms([4]))
    else:
        # so does a link; the models of c and of the linked ideal sieve
        # their given generators, before the fault is injected
        c = general_forms((3, 3, 3), stream)
        read = ideal_quotient(c, GradedIdeal(ring, c.gens + stream.forms([2])))
    monkeypatch.setattr(engine, "_sieve", dropping)
    with pytest.raises(InternalError, match="inconsistent quotient dimensions"):
        read.gens


def test_socle_of_square_of_maximal_ideal():
    ring = ring3()
    gens = [HomogPoly(ring, 2, row) for row in np.eye(ring.dim(2), dtype=np.int64)]
    prof = socle(GradedIdeal(ring, gens))
    assert prof.degrees == [1, 1, 1]
    assert prof.cm_type == 3 and prof.is_level and not prof.is_gorenstein


def test_socle_of_gorenstein_ci():
    ring = ring3()
    ci = general_forms((2, 2, 3), FormStream(ring, 3))
    prof = socle(ci)
    assert prof.degrees == [4] and prof.is_gorenstein


# --- linkage ---------------------------------------------------------------


def test_quotient_requires_containment():
    ring = ring3()
    a = general_forms((3, 3, 3), FormStream(ring, 1))
    b = general_forms((3, 3, 3), FormStream(ring, 2))
    with pytest.raises(NotContainedError):
        ideal_quotient(a, b)


def draw_link(data, top_n=4):
    """A ring, a complete intersection c (monomial or general) and an ideal
    J = c + (extra forms) to link, over 1 to top_n variables and four
    primes; c has degrees 2 and 3, only 2 in five variables."""
    n = data.draw(st.integers(1, top_n), label="n")
    p = data.draw(st.sampled_from([2, 3, 32003, 2147483647]), label="p")
    ring = RingCtx(n, p)
    stream = FormStream(ring, data.draw(st.integers(1, 1000), label="seed"))
    degrees = data.draw(st.lists(st.integers(2, 3 if n < 5 else 2), min_size=n, max_size=n),
                        label="c degrees")
    if data.draw(st.booleans(), label="monomial c"):
        c = GradedIdeal(ring, [ring.monomial(tuple(a if i == k else 0 for i in range(n)))
                               for k, a in enumerate(degrees)])
    else:
        c = general_forms(degrees, stream)
    h_c = hilbert_function(c)
    assume(h_c.exact)
    extra = []
    for k in data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2),
                       label="extra degrees"):
        f = stream.form(k)
        if data.draw(st.booleans(), label="every coefficient p - 1"):
            f = HomogPoly(ring, k, np.full(ring.dim(k), p - 1))
        extra.append(f)
    return ring, c, GradedIdeal(ring, c.gens + extra)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_link_matches_the_product_definition(data):
    # oracle: the membership blocks of the product definition, the classes
    # of g*m in R/c for every generator g of J and monomial m of R_d; the
    # generators sifted from them must be those of the link, array for array
    ring, c, linked = draw_link(data)
    got = ideal_quotient(c, linked)
    e = hilbert_function(c).top_degree()

    def candidates(d):
        return kernel_rows(ring, d, [
            c.quotient.table(d + g.degree).matmul(ring.mult_map(g, d))
            for g in linked.gens if d + g.degree <= e])

    want = sift_generators(ring, range(e + 2), candidates)
    assert [g.degree for g in got.gens] == [g.degree for g in want.gens]
    assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(got.gens, want.gens))


@pytest.mark.parametrize("n", [3, 4])
def test_a_link_is_read_without_a_sieve(monkeypatch, n):
    # once the models of c and J are built, the link's model, its Hilbert
    # function, socle and Betti table build, sieve and take no kernel
    ring = RingCtx(n, 32003)
    stream = FormStream(ring, 6)
    c = general_forms((3,) * n, stream)
    linked = GradedIdeal(ring, c.gens + stream.forms([2]))
    for ideal in (c, linked):
        hilbert_function(ideal)

    def refuse(*args, **kwargs):
        raise AssertionError("the link built, sieved or took a kernel")

    monkeypatch.setattr(QuotientBasis, "_build", refuse)
    monkeypatch.setattr(engine, "_sieve", refuse)
    monkeypatch.setattr(engine, "_kernel", refuse)
    link = ideal_quotient(c, linked)
    got = hilbert_function(link), socle(link), betti_numbers(link)
    monkeypatch.undo()
    sifted = GradedIdeal(ring, link.gens)
    assert got == (hilbert_function(sifted), socle(sifted), betti_numbers(sifted))


def test_link_refuses_a_linking_ideal_that_is_not_a_complete_intersection():
    # R/c for four general quadrics in three variables is 1 3 2, with a
    # two-dimensional socle: it is Artinian but not Gorenstein
    ring = ring3()
    stream = FormStream(ring, 1)
    c = general_forms((2, 2, 2, 2), stream)
    assert hilbert_function(c).text() == "1 3 2" and socle(c).degrees == [2, 2]
    with pytest.raises(ParamError, match="not a complete intersection"):
        ideal_quotient(c, GradedIdeal(ring, c.gens + [ring.variable(1)]))


def test_link_matches_hf_formula():
    ring = ring3()
    stream = FormStream(ring, 4)
    ideal = general_forms((2, 2, 2, 3), stream)
    cideal = ci_in(ideal, (3, 3, 3), stream)
    res = ideal_quotient(cideal, ideal)
    want = linkage_hf(hilbert_function(cideal), hilbert_function(ideal))
    assert hilbert_function(res) == want


def test_double_link_is_involutive():
    ring = ring3()
    stream = FormStream(ring, 5)
    ideal = general_forms((2, 3, 3, 3), stream)
    cideal = ci_in(ideal, (3, 3, 3), stream)
    once = ideal_quotient(cideal, ideal)
    twice = ideal_quotient(cideal, once)
    assert hilbert_function(twice) == hilbert_function(ideal)
    assert betti_numbers(twice) == betti_numbers(ideal)


# --- Betti numbers ---------------------------------------------------------


def test_betti_of_complete_intersection_is_koszul():
    ring = ring3()
    ci = general_forms((3, 3, 3), FormStream(ring, 1))
    assert betti_numbers(ci) == koszul_shape([3, 3, 3])


def test_builder_and_engine_tables_compare_both_ways():
    computed = betti_numbers(general_forms((3, 3, 3), FormStream(ring3(), 1)))
    built = koszul_shape([3, 3, 3])
    assert built == computed and computed == built
    other = koszul_shape([3, 3, 4])
    assert other != computed and computed != other


def test_betti_euler_identity():
    ring = ring3()
    ideal = general_forms((2, 2, 3), FormStream(ring, 7))
    table = betti_numbers(ideal)
    assert table.check_euler(list(hilbert_function(ideal)), 3)


def test_negative_betti_number_is_refused(monkeypatch):
    ring = ring3()
    ci = general_forms((2, 2, 2), FormStream(ring, 1))
    true_rank = engine.rank
    monkeypatch.setattr(engine, "rank", lambda m: true_rank(m) + 1)
    with pytest.raises(InternalError, match="negative Betti number"):
        betti_numbers(ci)


def oracle_betti_numbers(ideal):
    """The Betti table with every Koszul boundary rank eliminated, on a
    fresh model of the generators: the reference for the ranks that
    betti_numbers reads off theorems."""
    ring = ideal.ring
    n = ring.n
    qb = QuotientBasis(ring, ideal.gens)
    s = hilbert_function(ideal).top_degree()
    adim = [qb.dim(d) for d in range(s + 2)]

    subsets = {i: list(itertools.combinations(range(n), i)) for i in range(n + 1)}
    sub_index = {i: {S: t for t, S in enumerate(subsets[i])} for i in range(n + 1)}

    @functools.cache
    def boundary_rank(i, j):
        if i < 1 or i > n:
            return 0
        e = j - i
        if e < 0 or e > s or adim[e] == 0:
            return 0
        src = subsets[i]
        tgt = sub_index[i - 1]
        rows = adim[e + 1] * len(subsets[i - 1])
        cols = adim[e] * len(src)
        if rows == 0 or cols == 0:
            return 0
        plus = [qb.mult(l, e).a for l in range(n)]
        signed = (plus, [-b % ring.p for b in plus])
        m = np.zeros((rows, cols), dtype=np.int64)
        for ci, S in enumerate(src):
            for k, l in enumerate(S):
                T = S[:k] + S[k + 1:]
                r0 = tgt[T] * adim[e + 1]
                c0 = ci * adim[e]
                m[r0:r0 + adim[e + 1], c0:c0 + adim[e]] = signed[k % 2][l]
        return rank(PrimeMatrix(m, ring.p))

    beta = {}
    for i in range(0, n + 1):
        for j in range(i, s + i + 1):
            e = j - i
            cdim = adim[e] * len(subsets[i]) if 0 <= e <= s else 0
            if cdim == 0:
                continue
            b = (cdim - boundary_rank(i, j)) - boundary_rank(i + 1, j)
            assert b >= 0
            if b:
                beta[(i, j)] = b
    return BettiTable(beta)


# per n, the largest form degree that keeps the oracle's eliminations small
ORACLE_TOP = {2: 9, 3: 7, 4: 5, 5: 4, 6: 4}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_betti_numbers_match_all_ranks_oracle(data):
    n = data.draw(st.integers(2, 6), label="n")
    p = data.draw(st.sampled_from([2, 3, 32003]), label="p")
    seed = data.draw(st.integers(1, 1000), label="seed")
    ring = RingCtx(n, p)
    stream = FormStream(ring, seed)
    top = ORACLE_TOP[n]
    kind = data.draw(st.sampled_from(["form", "odd form", "sparse form", "forms",
                                      "general forms"]), label="kind")
    if kind == "general forms":
        degrees = data.draw(st.lists(st.integers(1, 3 if n < 5 else 2),
                                     min_size=n, max_size=n + 2), label="degrees")
        ideal = general_forms(degrees, stream)
    else:
        s = data.draw(st.integers(1, top), label="s")
        if kind == "odd form":
            # Gorenstein of odd socle degree: the middle ranks d_i(j) with
            # 2(j - i) = s - 1 mirror onto themselves, read from the smaller i
            s = data.draw(st.sampled_from(range(1, top + 2, 2)), label="odd s")
        if kind in ("form", "odd form"):
            # Gorenstein, and compressed where the form is general
            forms = [stream.form(s)]
        elif kind == "sparse form":
            # a few monomials: Gorenstein, far from compressed
            terms = data.draw(st.lists(st.integers(0, ring.dim(s) - 1), min_size=1,
                                       max_size=3, unique=True), label="terms")
            v = np.zeros(ring.dim(s), dtype=np.int64)
            v[terms] = 1
            forms = [HomogPoly(ring, s, v)]
        else:
            forms = stream.forms([s] * data.draw(st.integers(2, 3), label="count"))
        ideal = annihilator_ideal(forms)
    if not hilbert_function(ideal).exact:
        # random forms over a tiny field need not cut out an Artinian quotient
        with pytest.raises(NotArtinianError):
            betti_numbers(ideal)
        return
    table = betti_numbers(ideal)
    assert table == oracle_betti_numbers(ideal)
    # ghost_classify reads n and the socle twist off these two facts
    assert table.max_index() == n
    assert table.column(n) == Counter(d + n for d in socle(ideal).degrees)


@pytest.mark.parametrize("n, degrees, middle", [
    (5, (4, 4), [("span_dim", 4), (3, 5), (4, 6)]),  # level of type 2, s = 4
    (4, (5,), [("span_dim", 4)]),  # Gorenstein, odd s
    (4, (7,), [("span_dim", 5)]),
    (5, (5,), [("span_dim", 4), (3, 5)]),
    (5, (7,), [("span_dim", 5), (3, 6)]),
])
def test_betti_numbers_eliminate_only_the_middle_ranks(monkeypatch, n, degrees, middle):
    # compressed level and odd-socle Gorenstein annihilators: every rank with
    # source or target outside the middle degrees comes from R's strand, the
    # dual strand or the mirror, so only the middle ranks d_i(j) named here
    # and dim (R/J)_j of rank d_2(j) are eliminated
    ring = RingCtx(n, 32003)
    ideal = annihilator_ideal(FormStream(ring, 1).forms(degrees))
    socle(ideal)
    calls = []
    true_rank = engine.rank

    def rank(m):
        frame = sys._getframe(1)
        calls.append(("span_dim", frame.f_locals["d"]) if frame.f_code.co_name == "span_dim"
                     else (frame.f_locals["i"], frame.f_locals["j"]))
        return true_rank(m)

    monkeypatch.setattr(engine, "rank", rank)
    table = betti_numbers(ideal)
    assert calls == middle
    monkeypatch.undo()
    assert table == oracle_betti_numbers(ideal)


def test_betti_numbers_unit_ideal_and_one_variable():
    for n in (1, 3):
        ring = RingCtx(n, 32003)
        unit = GradedIdeal(ring, [ring.monomial((0,) * n)])
        assert betti_numbers(unit) == oracle_betti_numbers(unit) == BettiTable({})
    ring = RingCtx(1, 3)
    for m in range(1, 6):
        ideal = GradedIdeal(ring, [ring.monomial((m,))])
        assert betti_numbers(ideal) == oracle_betti_numbers(ideal) == \
            BettiTable({(0, 0): 1, (1, m): 1})


def test_socle_ranks_are_computed_once(monkeypatch):
    ring = ring3()
    ideal = general_forms((2, 2, 3, 3), FormStream(ring, 4))
    calls = []
    true_rank = engine.rank
    monkeypatch.setattr(engine, "rank", lambda m: calls.append(m.a.shape) or true_rank(m))
    betti_numbers(ideal)
    before = len(calls)
    assert socle(ideal) == socle(GradedIdeal(ring, ideal.gens))
    assert len(calls) == before + hilbert_function(ideal).top_degree() + 1


def test_the_socle_rule_holds_at_p_below_the_form_degree():
    # at p = 2 <= s = 3 contraction still pairs perfectly, x1^2 o y1^3 = y1:
    # the annihilator of one form is Gorenstein with its socle in degree s
    ring = RingCtx(2, 2)
    ideal = annihilator_ideal([HomogPoly.parse(ring, "y1^3 + y2^3")])
    assert hilbert_function(ideal).text() == "1 2 2 1"
    assert socle(ideal).text() == "(3)"
    assert [socle_dim_by_rank(ideal.quotient, d) for d in range(4)] == [0, 0, 0, 1]


def draw_forms(data, ring, top):
    """Dual forms of mixed degrees <= top, each random, a monomial or zero."""
    stream = FormStream(ring, data.draw(st.integers(1, 1000), label="seed"))
    degrees = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=4), label="degrees")
    kinds = data.draw(st.lists(st.sampled_from(["form", "monomial", "zero"]),
                               min_size=len(degrees), max_size=len(degrees)), label="kinds")
    return [stream.form(d) if kind == "form" else ring.zero(d) if kind == "zero"
            else ring.monomial(ring.exponents(d)[data.draw(
                st.integers(0, ring.dim(d) - 1), label="monomial")])
            for d, kind in zip(degrees, kinds)]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_socle_rule_matches_the_rank_oracle(data):
    # the socle degrees an inverse system reads off its dual generators
    # against an elimination in every degree: links c : J at n 2-4 over four
    # primes, and annihilators of forms of mixed degrees (random, monomial or
    # zero) at every p, the form degrees at or above it included
    if data.draw(st.booleans(), label="link"):
        ring, c, linked = draw_link(data)
        assume(ring.n >= 2)
        ideal = ideal_quotient(c, linked)
    else:
        n = data.draw(st.integers(2, 4), label="n")
        ring = RingCtx(n, data.draw(st.sampled_from([3, 5, 7, 32003, 2147483647]), label="p"))
        ideal = annihilator_ideal(draw_forms(data, ring, ORACLE_TOP[n]))
    model = ideal.quotient
    for d in range(ideal.artinian_bound() + 1):
        assert model.socle_dim(d) == socle_dim_by_rank(model, d), d


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_contraction_model_matches_the_differentiation_oracle(data):
    # below p, Ann(w . F) under contraction is Ann(F) under differentiation,
    # w_m = prod_i m_i!: their catalecticants differ by a unit row scaling,
    # so the rrefs that the two models read in every degree are the same
    n = data.draw(st.integers(1, 4), label="n")
    p = data.draw(st.sampled_from([5, 7, 32003, 2147483647]), label="p")
    ring = RingCtx(n, p)
    forms = draw_forms(data, ring, min(ORACLE_TOP.get(n, 9), p - 1))
    model = annihilator_ideal([divided_powers(f) for f in forms]).quotient
    oracle = QuotientBasis(ring, blocks=lambda d: [differentiation_map(f, d)
                                                   for f in forms if f.degree >= d])
    for d in range(max(f.degree for f in forms) + 2):
        assert model.table(d) == oracle.table(d), d
        assert np.array_equal(model._std[d], oracle._std[d]), d


def test_betti_numbers_leave_no_reference_cycle():
    # the cached recursion of the boundary ranks must not keep the model,
    # its ring and its tables alive until the cyclic collector runs
    ring = RingCtx(3, 32003)
    stream = FormStream(ring, 6)
    c = general_forms((3, 3, 3), stream)
    link = ideal_quotient(c, GradedIdeal(ring, c.gens + stream.forms([2])))
    gc.collect()
    gc.disable()
    try:
        betti_numbers(link)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_betti_numbers_of_three_variables_eliminate_nothing(monkeypatch):
    # rank d_1, d_2 and d_3 all come from rules: once the socle ranks are
    # known, a table of R/I in three variables eliminates no matrix but the
    # relations of a read model whose generators are unknown, which give
    # dim (R/J)_j for rank d_2(j), once per degree
    sieved, read = [], []
    for p in (2, 32003):
        ring = ring3(p)
        stream = FormStream(ring, 5)
        cubes = [ring.monomial(tuple(3 * (i == k) for i in range(3))) for k in range(3)]
        f = stream.form(2)
        sieved += [general_forms((2, 2, 3, 3), stream),
                   GradedIdeal(ring, cubes + [f, ring.variable(1) * f, stream.form(3)])]
        read += [annihilator_ideal(stream.forms([4, 4])),
                 ideal_quotient(GradedIdeal(ring, cubes),
                                GradedIdeal(ring, cubes + stream.forms([2])))]
    for ideal in sieved + read:
        socle(ideal)
    calls = []
    true_rank = engine.rank

    def refuse(m):
        caller = sys._getframe(1)
        if caller.f_code is not QuotientBasis.span_dim.__code__:
            raise AssertionError("betti_numbers eliminated a Koszul boundary")
        calls.append((id(caller.f_locals["self"]), caller.f_locals["d"]))
        return true_rank(m)

    monkeypatch.setattr(engine, "rank", refuse)
    for ideal in sieved + read:
        assert betti_numbers(ideal) == oracle_betti_numbers(ideal)
    assert calls and len(set(calls)) == len(calls)
    assert {model for model, _ in calls} <= {id(ideal.quotient) for ideal in read}
    # the oracle read the generators: now the rule counts them
    calls.clear()
    for ideal in read:
        assert betti_numbers(ideal) == oracle_betti_numbers(ideal)
    assert calls == []


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_span_dim_counts_the_generators(data):
    # read annihilators and links: dim (R/J)_d from the relations, before
    # anything sifts, is dim A_d + beta_{1,d} once the generators are
    # sifted, in every degree; and their Betti tables, which took rank d_2
    # from it, match the all-ranks oracle up to five variables
    if data.draw(st.booleans(), label="link"):
        ring, c, linked = draw_link(data, top_n=5)
        ideal = ideal_quotient(c, linked)
    else:
        n = data.draw(st.integers(1, 5), label="n")
        ring = RingCtx(n, data.draw(st.sampled_from([2, 3, 32003, 2147483647]), label="p"))
        stream = FormStream(ring, data.draw(st.integers(1, 1000), label="seed"))
        degrees = data.draw(st.lists(st.integers(1, ORACLE_TOP.get(n, 6)), min_size=1,
                                     max_size=3), label="degrees")
        ideal = annihilator_ideal(stream.forms(degrees))
    model = ideal.quotient
    degrees = range(1, ideal.artinian_bound() + 2)
    spans = [model.span_dim(d) for d in degrees]
    table = betti_numbers(ideal)
    assert model._gens is None
    beta1 = Counter(g.degree for g in ideal.gens)
    assert spans == [model.dim(d) + beta1[d] for d in degrees]
    assert table == oracle_betti_numbers(ideal)


def test_betti_oracle_agreement_fixed_cases():
    # seven quadrics in three variables: one is redundant (dim R_2 = 6)
    for degs, seed in [((2, 2, 2), 1), ((2, 3, 3), 2), ((2, 2, 3, 3), 3),
                       ((2,) * 7, 4)]:
        ring = ring3()
        ideal = general_forms(degs, FormStream(ring, seed))
        assert betti_numbers(ideal) == betti_numbers_syzygy(ideal)


# --- inverse systems -------------------------------------------------------


def test_annihilator_of_pure_power():
    ring = ring3()
    ann = annihilator_ideal([ring.monomial((4, 0, 0))])
    assert minimal_generators(ann) == [(1, 2), (5, 1)]
    assert hilbert_function(ann).text() == "1 1 1 1 1"


def test_annihilator_of_general_cubic_is_compressed():
    ring = ring3()
    f = FormStream(ring, 1).form(3)
    assert hilbert_function(annihilator_ideal([f])).text() == "1 3 3 1"


def test_annihilator_of_zero_form_is_the_unit_ideal():
    # every operator, the constants included, kills 0
    ring = ring3()
    ann = annihilator_ideal([ring.zero(3)])
    assert hilbert_function(ann).text() == "0"
    assert minimal_generators(ann) == [(0, 1)]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_catalecticant_model_matches_the_sifted_model(data):
    # the model of R/Ann(F) read off the catalecticants, before anything
    # sifts, against a fresh model of the generators its sieve keeps: one or
    # several forms, a zero form among them (alone: the unit ideal), and
    # degrees s >= p
    n = data.draw(st.integers(1, 5), label="n")
    p = data.draw(st.sampled_from([2, 3, 32003]), label="p")
    ring = RingCtx(n, p)
    stream = FormStream(ring, data.draw(st.integers(1, 1000), label="seed"))
    degrees = data.draw(st.lists(st.integers(0, ORACLE_TOP[n] if n > 1 else 6),
                                 min_size=1, max_size=3), label="degrees")
    forms = stream.forms(degrees)
    if data.draw(st.booleans(), label="a zero form"):
        forms[0] = ring.zero(degrees[0])
    ideal = annihilator_ideal(forms)
    assert_read_model_matches_the_sifted_model(ideal)
    if all(f.is_zero() for f in forms):
        assert minimal_generators(ideal) == [(0, 1)]


def assert_read_model_matches_the_sifted_model(ideal):
    """The model read off the membership blocks, before anything sifts,
    against a fresh model of the generators its sieve keeps."""
    n = ideal.ring.n
    model = ideal.quotient
    top = ideal.artinian_bound()
    read = [(model.table(d), model._std[d], model.socle_dim(d),
             [model.mult(k, d) for k in range(n)]) for d in range(top + 2)]
    assert model._gens is None  # nothing has sifted yet
    fresh = QuotientBasis(ideal.ring, ideal.gens)
    assert model.dim(top) == fresh.dim(top) == 0
    for d, (table, std, socle_dim, mults) in enumerate(read):
        assert np.array_equal(std, fresh._std[d])
        assert table == fresh.table(d)
        assert socle_dim == fresh.socle_dim(d)
        assert mults == [fresh.mult(k, d) for k in range(n)]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_link_model_matches_the_sifted_model(data):
    # the link c : J, read off the gathers of the dual socle generator of
    # R/c, against a fresh model of the generators its sieve keeps
    ring, c, linked = draw_link(data)
    assert_read_model_matches_the_sifted_model(ideal_quotient(c, linked))


def draw_one_form_model(data):
    """An ideal whose model reads one nonzero dual form, and its degree s:
    R/Ann(F) for F general, a monomial or a sum of one to three divided
    powers of linear forms (the last two far from compressed), n 1..6,
    s 0..10 and four primes; or a link c : (c, f) whose one f o Phi is
    nonzero."""
    if data.draw(st.booleans(), label="link"):
        ring, c, linked = draw_link(data)
        ideal = ideal_quotient(c, GradedIdeal(ring, linked.gens[:ring.n + 1]))
        assume(ideal.quotient._form_degree is not None)
        return ideal, ideal.quotient._form_degree
    n = data.draw(st.integers(1, 6), label="n")
    ring = RingCtx(n, data.draw(st.sampled_from([2, 3, 32003, 2147483647]), label="p"))
    stream = FormStream(ring, data.draw(st.integers(1, 1000), label="seed"))
    s = data.draw(st.integers(0, 10), label="s")
    kind = data.draw(st.sampled_from(["general", "monomial", "powers"]), label="kind")
    expo = ring.exponents(s)
    if kind == "general":
        f = stream.form(s)
    elif kind == "monomial":
        f = ring.monomial(expo[data.draw(st.integers(0, ring.dim(s) - 1), label="monomial")])
    else:
        # under contraction L^[s] = sum_a c^a y^[a], c the coefficients of L
        coeffs = [0] * ring.dim(s)
        for _ in range(data.draw(st.integers(1, 3), label="powers")):
            c = stream.form(1).coeffs.tolist()
            for m, a in enumerate(expo.tolist()):
                coeffs[m] += math.prod(pow(ci, ai, ring.p) for ci, ai in zip(c, a))
        f = HomogPoly(ring, s, np.array([v % ring.p for v in coeffs], dtype=np.int64))
    assume(not f.is_zero())
    return annihilator_ideal([f]), s


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_form_model_matches_a_model_read_in_every_degree(data):
    # a model of one dual form of degree s reads the wide B(s - d) first for
    # 2d < s and stores A_d = R_d with no rref where that rank is dim R_d:
    # against a model of the same blocks without that knowledge, which
    # reads every degree off its own rref
    ideal, s = draw_one_form_model(data)
    ring, model = ideal.ring, ideal.quotient
    read = []
    model._rref_blocks = lambda d: read.append(d) or QuotientBasis._rref_blocks(model, d)
    oracle = QuotientBasis(ring, blocks=model._blocks)
    for d in range(s + 2):
        assert model.table(d) == oracle.table(d), d
        assert np.array_equal(model._std[d], oracle._std[d]), d
    assert model._ahead == {}
    full = {d for d in range(s + 2) if 2 * d < s and model.dim(d) == ring.dim(d)}
    assert sorted(read) == sorted(set(range(s + 2)) - full)


def test_annihilator_generators_are_sifted_once(monkeypatch):
    # the first read of gens finds them on the model's own degrees, for an
    # annihilator and a link alike, and constructs no second model; later
    # reads, minimal_generators and betti_numbers sieve nothing
    ring = ring3()
    stream = FormStream(ring, 4)
    c = general_forms((3, 3, 3), stream)
    ideals = [annihilator_ideal(FormStream(ring, 3).forms([4, 4])),
              ideal_quotient(c, GradedIdeal(ring, c.gens + stream.forms([2])))]
    runs, sieves = [], []
    init, sieve = QuotientBasis.__init__, engine._sieve
    monkeypatch.setattr(QuotientBasis, "__init__",
                        lambda self, *args, **kw: runs.append(args) or init(self, *args, **kw))
    monkeypatch.setattr(engine, "_sieve", lambda *args: sieves.append(args) or sieve(*args))
    for ideal in ideals:
        sieves.clear()
        first = ideal.gens
        assert not runs and sieves
        sieved = len(sieves)
        assert ideal.gens is first and ideal.quotient.gens is first
        assert minimal_generators(ideal) == sorted(Counter(g.degree for g in first).items())
        betti_numbers(ideal)
        assert not runs and len(sieves) == sieved


def test_a_failed_sieve_leaves_the_catalecticant_model(monkeypatch):
    # the arrays read off the catalecticants stay, and the next read of gens
    # sieves again instead of returning a partial list
    ring = ring3()
    ideal = annihilator_ideal(FormStream(ring, 3).forms([4]))
    model = ideal.quotient
    model.dim(5)
    std, tables = list(model._std), list(model._table)

    def failing(*args):
        raise InternalError("injected")

    monkeypatch.setattr(engine, "_sieve", failing)
    with pytest.raises(InternalError, match="injected"):
        ideal.gens
    assert model._gens is None and model._blocks
    assert all(np.array_equal(a, b) for a, b in zip(model._std, std))
    assert model._table == tables
    monkeypatch.undo()
    assert minimal_generators(ideal) == minimal_generators(GradedIdeal(ring, ideal.gens))


def test_the_sieve_refuses_a_read_model_it_does_not_end_on():
    # a table read wrong in one degree, of the right size, is a defect
    ring = ring3()
    ideal = annihilator_ideal(FormStream(ring, 3).forms([4]))
    model = ideal.quotient
    model.dim(2)
    model._table[2] = PrimeMatrix(2 * model._table[2].a, ring.p)
    with pytest.raises(InternalError, match="the sieve and the catalecticants disagree"):
        ideal.gens


def test_repr_reads_no_generators(monkeypatch):
    ring = ring3()
    stream = FormStream(ring, 4)
    c = general_forms((3, 3, 3), stream)
    ideals = [annihilator_ideal(stream.forms([4])),
              ideal_quotient(c, GradedIdeal(ring, c.gens + stream.forms([2]))), c]

    def refuse(*args, **kwargs):
        raise AssertionError("repr built a model or sieved")

    monkeypatch.setattr(QuotientBasis, "__init__", refuse)
    monkeypatch.setattr(engine, "_sieve", refuse)
    assert [repr(ideal) for ideal in ideals] == [
        "GradedIdeal(n=3, p=32003, recipe=['ann', 1, 4])",
        "GradedIdeal(n=3, p=32003, recipe=['quotient', ['general-forms', 3, 3, 3], None])",
        "GradedIdeal(n=3, p=32003, recipe=['general-forms', 3, 3, 3])"]


def test_annihilator_and_ideal_refuse_mixed_rings():
    a, b = ring3(), ring3()
    with pytest.raises(ParamError, match="mixed rings"):
        annihilator_ideal([FormStream(a, 1).form(3), FormStream(b, 1).form(3)])
    with pytest.raises(ParamError, match="mixed rings"):
        GradedIdeal(a, [a.variable(1), b.variable(2)])


def test_annihilator_contains_seed_ideal():
    ring = ring3()
    stream = FormStream(ring, 9)
    cideal = general_forms((2, 3), stream)
    f = perp_picks(cideal, 6, 1, stream)[0]
    ann = annihilator_ideal([f])
    from relcomp.engine import QuotientBasis

    qb = QuotientBasis(ring, ann.gens)
    for g in cideal.gens:
        assert not qb.reduce(g).any()


def test_perp_basis_dimensions():
    def perp_dim(c, j):
        red, pivots = perp_basis(c, j)
        return red.cols - len(pivots)

    ring = ring3()
    stream = FormStream(ring, 1)
    cideal = general_forms((4, 4, 4), stream)
    assert perp_dim(cideal, 8) == 3
    full = variables_ideal(ring)
    assert perp_dim(full, 1) == 0
    empty = GradedIdeal(ring, [stream.form(9)])
    assert perp_dim(empty, 2) == ring.dim(2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_perp_picks_match_the_basis_oracle(data):
    # perp_picks solves for the pivots of perp_basis' rref; the oracle draws
    # the same coefficients against kernel_basis: the forms, the refusal of a
    # zero perpendicular and the stream's next draw agree
    n = data.draw(st.integers(1, 5), label="n")
    p = data.draw(st.sampled_from([2, 3, 32003, 2147483647]), label="p")
    degrees = data.draw(st.lists(st.integers(1, 4), max_size=n + 1), label="degrees")
    j = data.draw(st.integers(0, 6), label="j")
    if data.draw(st.booleans(), label="no generator of degree <= j"):
        degrees = [j + d for d in degrees]
    count = data.draw(st.integers(1, 3), label="count")
    seed = data.draw(st.integers(1, 1000), label="seed")
    ring = RingCtx(n, p)
    c = GradedIdeal(ring, FormStream(ring, seed).forms(degrees))
    mine, theirs = FormStream(ring, seed + 1), FormStream(ring, seed + 1)
    try:
        got = perp_picks(c, j, count, mine)
    except ParamError as err:
        with pytest.raises(ParamError, match="^%s$" % err):
            perp_picks_by_basis(c, j, count, theirs)
        return
    assert got == perp_picks_by_basis(c, j, count, theirs)
    assert np.array_equal(mine.coefficients(8), theirs.coefficients(8))


def test_perp_picks_refuse_a_zero_perpendicular():
    ring = ring3()
    message = "the perpendicular space is zero in degree 2"
    for draw in (perp_picks, perp_picks_by_basis):
        with pytest.raises(ParamError, match=message):
            draw(variables_ideal(ring), 2, 1, FormStream(ring, 1))


def test_perp_picks_form_no_basis_of_the_degree():
    # no generator has degree <= 8, so a kernel basis of the perpendicular
    # would be the identity on R_8: 1287^2 entries, 13 MB
    ring = RingCtx(6, 32003)
    stream = FormStream(ring, 1)
    c = general_forms([9] * 6, stream)
    tracemalloc.start()
    try:
        perp_picks(c, 8, 1, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# --- compression verdicts --------------------------------------------------


def test_verdict_trivial_power_ideal():
    ring = ring3()
    stream = FormStream(ring, 1)
    cideal = general_forms((2, 2, 2), stream)
    gens = list(cideal.gens) + [HomogPoly(ring, 3, row)
                                for row in np.eye(ring.dim(3), dtype=np.int64)]
    verdict = is_relatively_compressed(GradedIdeal(ring, gens), cideal)
    assert verdict.hf.text() == "1 3 3"
    assert verdict.verdict in ("MEETS_CONJECTURED_BOUND", "BELOW_BOUND")


def test_verdict_refuses_non_artinian():
    # it takes no cap, so it refuses R/I as socle and betti_numbers do
    ring = ring3()
    ideal = GradedIdeal(ring, [ring.variable(1), ring.variable(2)])
    c = GradedIdeal(ring, [ring.monomial((2, 0, 0)), ring.monomial((0, 2, 0))])
    with pytest.raises(NotArtinianError):
        is_relatively_compressed(ideal, c)


def test_verdict_requires_containment():
    ring = ring3()
    a = general_forms((2, 2, 2), FormStream(ring, 1))
    b = general_forms((3, 3, 3), FormStream(ring, 2))
    with pytest.raises(NotContainedError):
        is_relatively_compressed(b, a)


def test_verdict_refuses_unit_ideal():
    # c : c is the unit ideal; R/I = 0 has no socle degree
    ring = ring3()
    c = general_forms((2, 2, 2), FormStream(ring, 1))
    with pytest.raises(ParamError, match="unit ideal"):
        is_relatively_compressed(ideal_quotient(c, c), c)


# --- constructions ---------------------------------------------------------


def test_general_element_lives_in_ideal():
    ring = ring3()
    stream = FormStream(ring, 8)
    ideal = general_forms((2, 3), stream)
    f = general_element(ideal, 4, stream)
    from relcomp.engine import QuotientBasis

    assert not QuotientBasis(ring, ideal.gens).reduce(f).any()


def test_ci_in_has_requested_degrees():
    ring = ring3()
    stream = FormStream(ring, 8)
    ideal = general_forms((2, 2, 3), stream)
    cideal = ci_in(ideal, (3, 3, 4), stream)
    assert cideal.degrees() == [3, 3, 4]
    assert hilbert_function(cideal).total() == 3 * 3 * 4


def test_seed_determinism():
    ring = ring3()
    a = betti_numbers(general_forms((2, 2, 3), FormStream(ring, 42)))
    b = betti_numbers(general_forms((2, 2, 3), FormStream(ring, 42)))
    assert a == b


def test_graded_ideal_rejects_zero_generator():
    ring = ring3()
    with pytest.raises(ParamError):
        GradedIdeal(ring, [ring.zero(2)])


# --- characteristic 2 ------------------------------------------------------


def test_char2_monomial_ci_behaves():
    ring = RingCtx(3, 2)
    ci = GradedIdeal(ring, [ring.monomial((4, 0, 0)), ring.monomial((0, 4, 0)),
                            ring.monomial((0, 0, 4))])
    assert hilbert_function(ci).text() == "1 3 6 10 12 12 10 6 3 1"
    prof = socle(ci)
    assert prof.degrees == [9]

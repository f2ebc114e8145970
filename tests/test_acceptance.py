"""End-to-end acceptance suite.

Ten criteria, each exact (integer arithmetic, no tolerances).  Criteria that
rest on a recorded worked example run through the fixture cases in
``relcomp.cases``; the randomized property suites draw seeded instances
directly.  Two recorded claims are marked xfail: the degree lists attributed
to one pair of truncated series are off by one entry, and one listed quartic
triple shares a common zero, so the stated rows are unreachable as written
(details and the verified repairs live in the fixtures).
"""

import numpy as np
import pytest

from relcomp.cases import run_case, CHAR2_QUARTIC_TEXTS
from relcomp.engine import (
    GradedIdeal,
    annihilator_ideal,
    betti_numbers,
    ci_in,
    general_forms,
    hilbert_function,
    ideal_quotient,
    socle,
)
from relcomp.gfp import PrimeMatrix, kernel_basis, rank
from relcomp.ring import FormStream, HomogPoly, RingCtx
from relcomp.series import froberg_prediction, linkage_hf, rational_series
from relcomp.betti import koszul_module

from oracles import betti_numbers_syzygy


def _assert_case(case_id, seed=1):
    result = run_case(case_id, seed=seed)
    assert result.passed, "\n".join(result.lines())


def _assert_case_stable(case_id, seeds=(1, 2, 3)):
    """Run a fixture case at several seeds; require every seed to agree.

    A mix of passing and failing seeds means the construction is not
    generic at this size, which is reported as UNSTABLE rather than as a
    plain mismatch.
    """
    results = [run_case(case_id, seed=s) for s in seeds]
    verdicts = [r.passed for r in results]
    if all(verdicts):
        return
    if any(verdicts):
        bad = [s for s, ok in zip(seeds, verdicts) if not ok]
        pytest.fail("UNSTABLE: %s passes at some seeds but not at %s"
                    % (case_id, bad))
    pytest.fail("\n".join(results[0].lines()))


# --- 1. truncated-series predictor -----------------------------------------


def test_criterion_1_froberg_rows():
    assert froberg_prediction([3, 3, 3], 3).text() == "1 3 6 7 6 3 1"
    assert froberg_prediction([4, 4, 4, 2], 3).text() == "1 3 5 7 6 2"
    assert froberg_prediction([4, 4, 4, 2, 2], 3).text() == "1 3 4 4 1"
    assert (froberg_prediction([9] * 5, 3).text()
            == "1 3 6 10 15 21 28 36 45 50 51 48 41 30 15")
    _assert_case("froberg-rows")


@pytest.mark.xfail(strict=True,
                   reason="the stated degree lists carry one extra quadric "
                          "each; the rows belong to (4,4,4,2) and (4,4,4,2,2)")
def test_criterion_1_literal_degree_lists():
    assert froberg_prediction([4, 4, 4, 2, 2], 3).text() == "1 3 5 7 6 2"
    assert froberg_prediction([4, 4, 4, 2, 2, 2], 3).text() == "1 3 4 4 1"


# --- 2. engine Hilbert functions match the predictor ------------------------


def test_criterion_2_general_forms_match_prediction():
    lists = [(3, 3, 3), (4, 4, 4, 2), (4, 4, 4, 2, 2), (9, 9, 9, 9, 9)]
    for degs in lists:
        want = froberg_prediction(degs, 3)
        rows = []
        for seed in (1, 2, 3):
            ring = RingCtx(3, 32003)
            ideal = general_forms(degs, FormStream(ring, seed))
            rows.append(hilbert_function(ideal))
        assert rows[0] == rows[1] == rows[2], \
            "UNSTABLE: %r varies across seeds" % (degs,)
        assert rows[0] == want, (degs, rows[0].text(), want.text())


# --- 3. socle-degree-15 Gorenstein link, full diagram and classifier --------


def test_criterion_3_gorenstein_link_4444_11():
    _assert_case("ghost-4444-11")


# --- 4. even-socle closed form vs the engine, three seeds -------------------


def test_criterion_4_gor_even_cross_check():
    _assert_case_stable("gor-even-cross")


# --- 5. characteristic-2 quartics -------------------------------------------


def test_criterion_5_char2_study():
    _assert_case("char2-quartics")


@pytest.mark.xfail(strict=True,
                   reason="the three listed quartics omit x2^4 throughout and "
                          "share the zero (0:1:0), so the quotient is not "
                          "finite; the fixtures carry the verified one-term "
                          "repair")
def test_criterion_5_literal_quartic_list():
    ring = RingCtx(3, 2)
    ci = GradedIdeal(ring, [HomogPoly.parse(ring, t)
                            for t in CHAR2_QUARTIC_TEXTS])
    big = GradedIdeal(ring, ci.gens + [ring.variable(2)])
    res = ideal_quotient(ci, big)
    hf = hilbert_function(res, cap=12)
    assert hf.exact and hf.text() == "1 3 6 10 12 10 6 3 1"


# --- 6. double-link chain with a five-fold repeated twist -------------------


def test_criterion_6_double_link_chain():
    _assert_case("ex43-chain")


# --- 7. almost complete intersection in five variables ----------------------


def test_criterion_7_aci_closed_form_and_engine():
    _assert_case("aci-244456")


# --- 8. randomized property suites (>= 200 instances each) ------------------


_SMALL_LISTS = [(2, 2, 2), (2, 2, 3), (2, 3, 3), (1, 2, 2), (1, 2, 3),
                (2, 2, 2, 2), (2, 2, 3, 3), (2, 2, 2, 3)]


def _random_artinian(rng):
    degs = _SMALL_LISTS[int(rng.integers(len(_SMALL_LISTS)))]
    ring = RingCtx(3, 32003)
    seed = int(rng.integers(1, 2**31))
    return general_forms(degs, FormStream(ring, seed))


def test_property_euler_identity():
    rng = np.random.default_rng(101)
    for _ in range(200):
        ideal = _random_artinian(rng)
        table = betti_numbers(ideal)
        hf = hilbert_function(ideal)
        assert table.check_euler(list(hf), 3)


def test_property_gorenstein_self_duality():
    rng = np.random.default_rng(102)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        s = int(rng.integers(3, 6))
        ring = RingCtx(n, 32003)
        f = FormStream(ring, int(rng.integers(1, 2**31))).form(s)
        ann = annihilator_ideal([f])
        prof = socle(ann)
        assert prof.is_gorenstein and prof.degrees == [s]
        table = betti_numbers(ann)
        for (i, j), m in table.beta.items():
            assert table[n - i, s + n - j] == m


def test_property_koszul_generating_identity():
    rng = np.random.default_rng(103)
    for _ in range(200):
        degs = sorted(int(rng.integers(1, 8))
                      for _ in range(int(rng.integers(1, 6))))
        top = sum(degs)
        lhs = [0] * (top + 1)
        for i in range(len(degs) + 1):
            for j, m in koszul_module(degs, i).items():
                lhs[j] += (-1) ** i * m
        rhs = [0] * (top + 1)
        rhs[0] = 1
        for d in degs:
            nxt = list(rhs)
            for j in range(top, d - 1, -1):
                nxt[j] -= rhs[j - d]
            rhs = nxt
        assert lhs == rhs


def test_property_linkage_involution():
    rng = np.random.default_rng(104)
    ci_lists = [(2, 2, 2), (2, 2, 3), (2, 3, 4), (3, 3, 3), (2, 4, 4)]
    for _ in range(200):
        degs = ci_lists[int(rng.integers(len(ci_lists)))]
        h_c = rational_series(degs, 3)
        e = h_c.top_degree()
        h_i = [int(rng.integers(0, h_c[j] + 1)) for j in range(e + 1)]
        linked = linkage_hf(h_c, h_i)
        back = linkage_hf(h_c, linked)
        assert [back[j] for j in range(e + 1)] == h_i


def test_property_rank_kernel_law():
    rng = np.random.default_rng(105)
    for _ in range(200):
        p = (2, 3, 101, 32003)[int(rng.integers(4))]
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 12))
        m = PrimeMatrix(rng.integers(0, p, size=(rows, cols)), p)
        ker = kernel_basis(m)
        assert rank(m) + ker.rows == cols
        if ker.rows:
            assert not m.matmul(PrimeMatrix(ker.a.T, p)).a.any()


def test_property_oracle_equivalence():
    rng = np.random.default_rng(106)
    for _ in range(200):
        ideal = _random_artinian(rng)
        assert betti_numbers(ideal) == betti_numbers_syzygy(ideal)


# --- 9. bound verdicts and the non-level residual ---------------------------


def test_criterion_9_level_verdicts():
    _assert_case("ci333-level-s5")
    _assert_case("ci444-level-s7")


def test_criterion_9_non_level_residual():
    ring = RingCtx(3, 32003)
    stream = FormStream(ring, 1)
    small = general_forms((1, 1, 2), stream)
    cideal = ci_in(small, (3, 3, 3), stream)
    res = ideal_quotient(cideal, small)
    assert hilbert_function(res).text() == "1 3 6 7 6 2"
    prof = socle(res)
    assert set(prof.degrees) == {4, 5}
    assert not prof.is_level


# --- 10. points on a quadric and the odd-socle shapes -----------------------


def test_criterion_10_quadric_shapes():
    _assert_case("quadric-points")


def test_criterion_10_level_algebra_from_inverse_system():
    _assert_case("quadric-level-29")


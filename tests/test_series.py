"""Hilbert series calculus: predictors, bounds, linkage arithmetic."""

import pytest

from relcomp.errors import NotLinkedError, ParamError, RangeError
from relcomp.series import (
    HilbertSeries,
    compressed_level_hf,
    froberg_prediction,
    froberg_truncate,
    linkage_hf,
    rational_series,
    rc_min_bound,
    rc_upper_bound_liaison,
)


def test_series_indexing_and_trim():
    s = HilbertSeries([1, 3, 6, 0, 0])
    assert s[0] == 1 and s[2] == 6 and s[10] == 0 and s[-1] == 0
    assert s.trimmed() == [1, 3, 6]
    assert s.top_degree() == 2
    assert s.total() == 10


def test_inexact_series_refuses_beyond_cap():
    s = HilbertSeries([1, 2], exact=False)
    with pytest.raises(RangeError):
        s[5]
    with pytest.raises(RangeError):
        s.total()


def test_equality_reads_every_degree_both_sides_know():
    # an exact series is known in every degree, so only an inexact one's
    # cap ends the comparison: here both know degree 2, and read 6 and 0
    inexact = HilbertSeries([1, 3, 6], exact=False)
    assert inexact != HilbertSeries([1, 3]) and HilbertSeries([1, 3]) != inexact
    assert inexact != [1, 3]
    assert inexact == HilbertSeries([1, 3, 6, 10]) == inexact
    # two inexact series agree when they agree up to the smaller cap
    assert inexact == HilbertSeries([1, 3], exact=False)
    assert HilbertSeries([1, 3], exact=False) == inexact


def test_truncate_cuts_at_first_negative():
    out = froberg_truncate(HilbertSeries([1, 3, 2, -1, 5]))
    assert out.trimmed() == [1, 3, 2]
    assert out.exact


def test_rational_series_complete_intersection():
    s = rational_series([3, 3, 3], 3)
    assert s.trimmed() == [1, 3, 6, 7, 6, 3, 1]
    assert s.exact


def test_rational_series_needs_cap_when_short():
    with pytest.raises(ParamError):
        rational_series([2], 3)
    s = rational_series([2], 3, cap=3)
    assert list(s) == [1, 3, 5, 7]
    assert not s.exact
    # froberg_prediction takes rational_series' guards: a degree 0 is named
    # as such, not as a missing cap
    with pytest.raises(ParamError, match="a cap is required"):
        froberg_prediction([2], 3)
    with pytest.raises(ParamError, match="factor degrees must be >= 1"):
        froberg_prediction([0], 3)


def test_a_capped_series_is_exact_only_past_its_degree():
    # with n or more degrees the series is a polynomial of degree
    # sum(d_i) - n: a cap below that cuts off terms that are not zero
    cut = rational_series([2, 2, 2], 3, cap=1)
    assert list(cut) == [1, 3] and not cut.exact
    with pytest.raises(RangeError):
        cut[2]
    assert rational_series([2, 2, 2], 3, cap=3).exact
    with pytest.raises(RangeError):
        froberg_prediction([3, 3, 3], 3, cap=3).total()
    assert froberg_prediction([3, 3, 3], 3, cap=6).total() == 27


def test_froberg_rows():
    assert froberg_prediction([3, 3, 3], 3).text() == "1 3 6 7 6 3 1"
    assert froberg_prediction([4, 4, 4, 2], 3).text() == "1 3 5 7 6 2"
    assert froberg_prediction([4, 4, 4, 2, 2], 3).text() == "1 3 4 4 1"
    assert froberg_prediction([2], 1).text() == "1 1"
    assert (froberg_prediction([9] * 5, 3).text()
            == "1 3 6 10 15 21 28 36 45 50 51 48 41 30 15")


def test_compressed_level_hf():
    # embedding dimension 3, socle degree 10, type 3
    assert (compressed_level_hf(3, 10, 3).text()
            == "1 3 6 10 15 21 28 30 18 9 3")


def test_rc_min_bound_quartics_type_2():
    assert rc_min_bound([4, 4, 4], 3, 7, 2).text() == "1 3 6 10 12 12 6 2"


def test_liaison_bound_matches_known_rows():
    got = rc_upper_bound_liaison([3, 3, 3], [5, 5], 3)
    assert got.series.text() == "1 3 6 7 5 2"
    assert got.e_prime == 6
    got = rc_upper_bound_liaison([4, 4, 4], [7, 7], 3)
    assert got.series.text() == "1 3 6 10 12 11 6 2"


def test_liaison_bound_pads_with_general_forms():
    # a single quadric: two auxiliary forms of degree s + 1 are adjoined
    got = rc_upper_bound_liaison([2], [9], 3)
    assert got.aux_degrees == [2, 10, 10]
    assert got.e_prime == 19


def test_linkage_reversal():
    h_ci = [1, 3, 6, 7, 6, 3, 1]
    h_i = [1, 1, 1]
    assert linkage_hf(h_ci, h_i).text() == "1 3 6 7 5 2"


def test_linkage_rejects_impossible_data():
    with pytest.raises(NotLinkedError):
        linkage_hf([1, 2, 1], [1, 3])


def test_linkage_involution_on_random_data():
    import numpy as np

    rng = np.random.default_rng(7)
    ci_lists = [(2, 2, 2), (2, 2, 3), (2, 3, 4), (3, 3, 3), (2, 4, 4)]
    trials = 0
    while trials < 220:
        degs = ci_lists[int(rng.integers(len(ci_lists)))]
        h_c = rational_series(degs, 3)
        e = h_c.top_degree()
        h_i = [int(rng.integers(0, h_c[j] + 1)) for j in range(e + 1)]
        linked = linkage_hf(h_c, h_i)
        back = linkage_hf(h_c, linked)
        assert [back[j] for j in range(e + 1)] == h_i
        trials += 1

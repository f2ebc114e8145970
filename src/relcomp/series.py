"""
Hilbert series calculus.

A HilbertSeries is an integer coefficient vector indexed by degree,
tracked up to a cap.  When `exact` is set, everything beyond the stored
window is known to be zero, so the series is really a polynomial.

Predictors and bounds here are purely numerical: the quotient by r
general forms of given degrees, the positive-part truncation of a
rational series, the two upper bounds for the Hilbert function of a
quotient squeezed inside a complete intersection with prescribed socle,
and the reversal formula relating a Hilbert function across a link.
"""

import math
from dataclasses import dataclass

from .errors import NotLinkedError, ParamError, RangeError

__all__ = [
    "HilbertSeries",
    "froberg_truncate",
    "rational_series",
    "froberg_prediction",
    "rc_upper_bound_liaison",
    "LiaisonBound",
    "rc_min_bound",
    "compressed_level_hf",
    "linkage_hf",
]


class HilbertSeries:
    """Integer power series coefficients up to a cap."""

    def __init__(self, coeffs, exact=True):
        self.coeffs = [int(c) for c in coeffs]
        self.exact = exact

    @property
    def cap(self):
        return len(self.coeffs) - 1

    def __getitem__(self, d):
        if d < 0:
            return 0
        if d < len(self.coeffs):
            return self.coeffs[d]
        if self.exact:
            return 0
        raise RangeError("degree %d beyond the tracked cap %d" % (d, self.cap))

    def __len__(self):
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def trimmed(self):
        """Coefficients with trailing zeros removed."""
        out = list(self.coeffs)
        while out and out[-1] == 0:
            out.pop()
        return out

    def __eq__(self, other):
        if isinstance(other, (list, tuple)):
            other = HilbertSeries(other)
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        if self.exact and other.exact:
            return self.trimmed() == other.trimmed()
        top = min(s.cap for s in (self, other) if not s.exact)
        return all(self[d] == other[d] for d in range(top + 1))

    def __repr__(self):
        return "HilbertSeries(%s)" % (self.text(),)

    def text(self):
        return " ".join(str(c) for c in self.trimmed()) or "0"

    def total(self):
        if not self.exact:
            raise RangeError("series is only known up to degree %d" % self.cap)
        return sum(self.coeffs)

    def top_degree(self):
        """Largest degree with a nonzero coefficient (-1 for the zero series)."""
        t = self.trimmed()
        return len(t) - 1


def froberg_truncate(s):
    """Positive-part truncation: zero from the first negative entry on.

    Entries are kept while every prefix coefficient is >= 0; from the
    first negative coefficient the output is identically zero.
    """
    exact_in = s.exact if isinstance(s, HilbertSeries) else True
    coeffs = list(s.coeffs) if isinstance(s, HilbertSeries) else [int(c) for c in s]
    out = []
    hit = False
    for c in coeffs:
        if c < 0:
            hit = True
            break
        out.append(c)
    return HilbertSeries(out, exact=hit or exact_in)


def rational_series(num_degrees, n, cap=None):
    """Exact expansion of prod (1 - Z^d_i) / (1 - Z)^n up to cap.

    Coefficients may be negative; no truncation is applied.  With at
    least n degrees it is a polynomial of degree sum(d_i) - n, exact once
    cap reaches that, and the default cap is sum(d_i) - n + 1 (beyond which
    an actual complete intersection quotient vanishes); with fewer degrees
    a cap is required since the series never terminates.
    """
    degrees = list(num_degrees)
    if any(d < 1 for d in degrees):
        raise ParamError("factor degrees must be >= 1")
    if n < 1:
        raise ParamError("need at least one variable")
    if cap is None:
        if len(degrees) >= n:
            cap = max(sum(degrees) - n + 1, 0)
        else:
            raise ParamError("a cap is required when fewer than n degrees are given")
    coeffs = [math.comb(d + n - 1, n - 1) for d in range(cap + 1)]
    for d in degrees:
        for j in range(cap, d - 1, -1):
            coeffs[j] -= coeffs[j - d]
    return HilbertSeries(coeffs, exact=len(degrees) >= n and cap >= sum(degrees) - n)


def froberg_prediction(degrees, n, cap=None):
    """Predicted Hilbert series of a quotient by general forms."""
    return froberg_truncate(rational_series(degrees, n, cap))


@dataclass
class LiaisonBound:
    """Upper bound for the Hilbert function of a relatively compressed
    algebra, obtained by linking inside an enlarged complete intersection.

    `aux_degrees` are the degrees of that enlarged CI (the given CI plus
    n - c forms of degree s + 1); `e_prime` is its socle degree.  The
    residual is predicted to be the CI plus general forms in the degrees
    e' - s_i; `series` is the linkage reversal of the two predictions.
    """
    series: HilbertSeries
    e_prime: int
    aux_degrees: list


def rc_upper_bound_liaison(ci_degrees, socle_degrees, n):
    """Hilbert function bound for a quotient of R/(CI) with given socle.

    The algebra is linked, inside the CI enlarged to an Artinian one by
    n - c general forms of degree s + 1, to an ideal with predicted
    extra generators in degrees e' - s_i.  The bound evaluates both
    predicted series and applies the linkage reversal.
    """
    ci_degrees = sorted(ci_degrees)
    socle_degrees = sorted(socle_degrees)
    c = len(ci_degrees)
    if c > n:
        raise ParamError("more CI degrees than variables")
    if not socle_degrees or socle_degrees[0] < 0:
        raise ParamError("need nonnegative socle degrees")
    s = max(socle_degrees)
    e_prime = (n - c) * s + sum(ci_degrees) - c
    aux = ci_degrees + [s + 1] * (n - c)
    residual_degrees = [e_prime - si for si in socle_degrees]
    term1 = froberg_prediction(aux, n, e_prime)
    term2 = froberg_prediction(aux + residual_degrees, n, e_prime)
    return LiaisonBound(
        series=linkage_hf(term1, term2),
        e_prime=e_prime,
        aux_degrees=aux,
    )


def rc_min_bound(ci_degrees, n, s, c):
    """min { dim (R/ci)_t, c * dim (R/ci)_{s-t} } for 0 <= t <= s."""
    if s < 0:
        raise ParamError("negative socle degree")
    if c < 1:
        raise ParamError("socle dimension must be >= 1")
    base = rational_series(ci_degrees, n, s)
    if any(base[t] < 0 for t in range(s + 1)):
        raise ParamError("degrees do not define a complete intersection quotient")
    coeffs = [min(base[t], c * base[s - t]) for t in range(s + 1)]
    return HilbertSeries(coeffs, exact=True)


def compressed_level_hf(n, s, c):
    """Classical compressed bound min { dim R_t, c * dim R_{s-t} }."""
    return rc_min_bound([], n, s, c)


def linkage_hf(h_ci, h_i):
    """Hilbert function across a link: h_J(j) = h_ci(j) - h_I(e - j).

    h_ci must be the (finitely supported) Hilbert function of an
    Artinian complete intersection; e is its socle degree, its top degree.
    """
    if not isinstance(h_ci, HilbertSeries):
        h_ci = HilbertSeries(h_ci)
    if not isinstance(h_i, HilbertSeries):
        h_i = HilbertSeries(h_i)
    e = h_ci.top_degree()
    coeffs = []
    for j in range(e + 1):
        v = h_ci[j] - h_i[e - j]
        if v < 0:
            raise NotLinkedError("negative linked value at degree %d" % j)
        coeffs.append(v)
    return HilbertSeries(coeffs, exact=True)

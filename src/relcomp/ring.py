"""
Graded polynomial rings over GF(p) with a fixed monomial order.

A ring context knows its variable count n and modulus p, and caches the
monomial basis of each degree.  Monomials of one degree are listed in
descending lexicographic order of exponent vectors (x1-heavy first);
combined with the grading this is the graded lex order.  Column order in
every matrix produced here follows these bases, so it must never change.

Every monomial map is read off one table cached per pair of degrees
(d, e): sum_index(d, e)[i, j], the position of basis(d)[i] + basis(e)[j]
in basis(d + e).  Its rows and columns follow the bases of degrees d and
e, so every matrix built from it keeps the basis order.

Homogeneous polynomials are coefficient vectors over the basis of their
degree.  The same representation doubles as the dual space: a "dual" form
of degree s is paired against operators through contraction, the action
on divided powers, x^a o y^b = y^(b - a) when b >= a and 0 otherwise.
With it Macaulay duality holds in every characteristic (Iarrobino and
Kanev, Power Sums, Gorenstein Algebras, and Determinantal Loci, LNM 1721,
Appendix A).

General forms come from FormStream, which rebuilds numpy's default
generator in pure Python (O'Neill's PCG64 seeded by SeedSequence, and
Lemire's bounded draw): its draws are numpy's bit for bit, yet no run
imports numpy's random module.
"""

import itertools
import math
import numbers
import re

import numpy as np

from .errors import DegreeError, ParamError
from .gfp import PrimeMatrix, check_modulus

__all__ = [
    "RingCtx",
    "HomogPoly",
    "FormStream",
    "contraction_map",
]


def _monomials(n, d):
    """The exponent vectors of length n with sum d, lex descending, as rows.
    Stars and bars: the cut points 0 <= c_1 <= ... <= c_{n-1} <= d, listed in
    lex ascending order, have gaps (the exponents) in lex ascending order."""
    count = math.comb(d + n - 1, n - 1)
    cuts = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(d + 1), n - 1)), np.int64, count * (n - 1))
    cuts = np.pad(cuts.reshape(count, n - 1), ((0, 0), (1, 1)), constant_values=((0, 0), (0, d)))
    return np.ascontiguousarray(np.diff(cuts)[::-1])


class RingCtx:
    """Polynomial ring k[x_1..x_n] over GF(p), with cached bases and
    monomial index tables."""

    def __init__(self, n, p=32003):
        if n < 1:
            raise ParamError("need at least one variable")
        check_modulus(p)
        self.n = n
        self.p = p
        self._expo = {}
        self._sum_index = {}
        self._strip = {}

    def dim(self, d):
        """dim of the degree d graded piece; 0 for negative d."""
        if d < 0:
            return 0
        return math.comb(d + self.n - 1, self.n - 1)

    def basis(self, d):
        return list(map(tuple, self.exponents(d).tolist()))

    def exponents(self, d):
        """The monomials of degree d as the rows of a (dim d) x n array."""
        if d not in self._expo:
            self._expo[d] = _monomials(self.n, d) if d >= 0 else np.zeros((0, self.n), np.int64)
        return self._expo[d]

    def _position(self, tail, shape, top):
        """Position in the basis of its degree of each exponent vector a with
        tail sums tail(i) = a_{i+1} + ... + a_n <= top: the sum over i = 1..n-1
        of C(tail(i) + n - i - 1, n - i) (combinatorial number system)."""
        out = np.zeros(shape, dtype=np.int64)
        for i in range(1, self.n):
            m = self.n - i
            out += np.array([math.comb(r + m - 1, m) for r in range(top + 1)], np.int64)[tail(i)]
        return out

    def rank(self, expo):
        """Position of each exponent vector (last axis) in its basis."""
        expo = np.asarray(expo, dtype=np.int64)
        if expo.shape[-1] != self.n or (expo < 0).any():
            raise ParamError("exponent vectors need %d entries >= 0" % self.n)
        tails = np.cumsum(expo[..., ::-1], axis=-1)[..., ::-1]
        return self._position(lambda i: tails[..., i], expo.shape[:-1], int(tails.max(initial=0)))

    def sum_index(self, d, e):
        """sum_index(d, e)[i, j] is the position of basis(d)[i] + basis(e)[j]
        in basis(d + e): the tail sums of a sum are the sums of tail sums, so
        each variable takes one gather at the factors' tails."""
        if (d, e) not in self._sum_index:
            ta, tb = (np.cumsum(self.exponents(k)[:, ::-1], axis=1)[:, ::-1] for k in (d, e))
            self._sum_index[d, e] = self._position(lambda i: ta[:, i, None] + tb[:, i],
                                                   (len(ta), len(tb)), d + e)
        return self._sum_index[d, e]

    def strip(self, d):
        """For each variable x_{k+1} (d >= 1), (cols, prev): basis(d)[cols]
        are the monomials whose first variable is x_{k+1}, and they are
        x_{k+1} * basis(d - 1)[prev]."""
        if d not in self._strip:
            below, sums = self.dim(d - 1), self.sum_index(d - 1, 1)
            # basis(1)[k] is x_{k+1}; basis(d - 1) ends with the
            # comb(d + n - k - 2, n - k - 1) monomials free of x_1..x_k
            prevs = [np.arange(below - math.comb(d + self.n - k - 2, self.n - k - 1), below)
                     for k in range(self.n)]
            self._strip[d] = [(sums[prev, k], prev) for k, prev in enumerate(prevs)]
        return self._strip[d]

    def zero(self, d):
        return HomogPoly(self, d, np.zeros(self.dim(d), dtype=np.int64))

    def monomial(self, expo):
        return self.from_terms(sum(expo), {tuple(expo): 1})

    def variable(self, i):
        """The variable x_i, 1-based."""
        if not 1 <= i <= self.n:
            raise ParamError("variable index out of range")
        expo = [0] * self.n
        expo[i - 1] = 1
        return self.monomial(tuple(expo))

    def from_terms(self, d, terms):
        """Build a polynomial from {exponent tuple: coefficient}."""
        v = np.zeros(self.dim(d), dtype=np.int64)
        for expo, c in terms.items():
            if sum(expo) != d:
                raise DegreeError("term of degree %d in a degree %d form" % (sum(expo), d))
            i = self.rank(expo)
            v[i] = (v[i] + c) % self.p
        return HomogPoly(self, d, v)

    def mult_map(self, f, d):
        """Matrix of multiplication by f from degree d to degree d + deg f.

        Columns follow the degree d basis, rows the degree d + deg f basis;
        column j holds f in the rows sum_index(d, deg f)[j].
        """
        a = np.zeros((self.dim(d + f.degree), self.dim(d)), dtype=np.int64)
        a[self.sum_index(d, f.degree), np.arange(self.dim(d))[:, None]] = f.coeffs
        return PrimeMatrix._trusted(a, self.p)


_TERM_RE = re.compile(r"^\s*(?:(\d+)\s*\*?\s*)?((?:x\d+(?:\^\d+)?(?:\s*\*\s*)?)*)\s*$")
_VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")


class HomogPoly:
    """A homogeneous polynomial: a ring, a degree, a coefficient vector."""

    def __init__(self, ring, degree, coeffs):
        self.ring = ring
        self.degree = degree
        self.coeffs = np.asarray(coeffs, dtype=np.int64) % ring.p
        if self.coeffs.shape != (ring.dim(degree),):
            raise DegreeError("coefficient vector has the wrong length")

    def is_zero(self):
        return not self.coeffs.any()

    def __eq__(self, other):
        return (
            isinstance(other, HomogPoly)
            and self.ring is other.ring
            and self.degree == other.degree
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __add__(self, other):
        self._check(other)
        return HomogPoly(self.ring, self.degree, (self.coeffs + other.coeffs) % self.ring.p)

    def __sub__(self, other):
        self._check(other)
        return HomogPoly(self.ring, self.degree, (self.coeffs - other.coeffs) % self.ring.p)

    def scale(self, c):
        return HomogPoly(self.ring, self.degree, (self.coeffs * (c % self.ring.p)) % self.ring.p)

    def __mul__(self, other):
        if not isinstance(other, HomogPoly):
            return self.scale(other)
        if other.ring is not self.ring:
            raise ParamError("mixed rings")
        m = self.ring.mult_map(self, other.degree)
        v = m.matmul(PrimeMatrix(other.coeffs.reshape(-1, 1), self.ring.p))
        return HomogPoly(self.ring, self.degree + other.degree, v.a.ravel())

    def _check(self, other):
        if other.ring is not self.ring or other.degree != self.degree:
            raise DegreeError("operands live in different graded pieces")

    def terms(self):
        expo = self.ring.exponents(self.degree)
        for i in np.nonzero(self.coeffs)[0]:
            yield tuple(expo[i].tolist()), int(self.coeffs[i])

    def text(self):
        parts = []
        for expo, c in self.terms():
            factors = []
            for i, e in enumerate(expo):
                if e == 1:
                    factors.append("x%d" % (i + 1))
                elif e > 1:
                    factors.append("x%d^%d" % (i + 1, e))
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "HomogPoly(%s)" % self.text()

    @classmethod
    def parse(cls, ring, text):
        """Parse '+'-separated terms like '3*x1^2*x2 + x3^3'."""
        terms = {}
        deg = None
        for chunk in text.replace("y", "x").split("+"):
            chunk = chunk.strip()
            if not chunk or chunk == "0":
                continue
            m = _TERM_RE.match(chunk)
            if not m:
                raise ParamError("cannot parse term %r" % chunk)
            coeff = int(m.group(1)) if m.group(1) else 1
            expo = [0] * ring.n
            for vm in _VAR_RE.finditer(m.group(2) or ""):
                i = int(vm.group(1))
                if not 1 <= i <= ring.n:
                    raise ParamError("variable index %d out of range" % i)
                expo[i - 1] += int(vm.group(2)) if vm.group(2) else 1
            tdeg = sum(expo)
            if deg is None:
                deg = tdeg
            if tdeg != deg:
                raise DegreeError("mixed degrees in %r" % text)
            key = tuple(expo)
            terms[key] = terms.get(key, 0) + coeff
        if deg is None:
            raise ParamError("cannot infer the degree of %r" % text)
        return ring.from_terms(deg, terms)


def contraction_map(F, d):
    """Matrix of the contraction action of degree d operators on F, the
    catalecticant Cat_F(d, s - d): it maps the degree d piece of the
    polynomial ring to the dual forms of degree s - d = deg F - d, and
    column a, x^a o F, holds the coefficient of F at r + a in row r."""
    ring = F.ring
    s = F.degree
    if d > s:
        raise DegreeError("cannot contract a degree %d form by degree %d" % (s, d))
    return PrimeMatrix._trusted(F.coeffs[ring.sum_index(s - d, d)], ring.p)


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hashmix(h, mult):
    """SeedSequence's hash of a 32-bit word, with its running constant h."""
    def hashmix(v):
        nonlocal h
        v, h = v ^ h, h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16
    return hashmix


def _pcg64_words(*entropy):
    """The 32-bit words of PCG64(SeedSequence(entropy)) in the order that
    numpy's next_uint32 hands them out: each 64-bit output, low half first."""
    words = [x >> s & _M32 for x in entropy for s in range(0, max(x.bit_length(), 1), 32)]
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for i, j in itertools.permutations(range(4), 2):
        pool[j] = mix(pool[j], hashmix(pool[i]))
    for w, j in itertools.product(words[4:], range(4)):
        pool[j] = mix(pool[j], hashmix(w))
    out = map(_hashmix(0x8B51F9DD, 0x58F38DED), pool * 2)
    w0, w1, w2, w3 = (lo | hi << 32 for lo, hi in zip(out, out))
    mult, inc = 0x2360ED051FC65DA44385DF649FCCF645, (w2 << 64 | w3) << 1 | 1
    state = ((inc + (w0 << 64 | w1)) * mult + inc) & _M128
    while True:
        state = (state * mult + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << 64 - rot) & _M64
        yield x & _M32
        yield x >> 32


class FormStream:
    """Deterministic stream of "general" forms, uniform over GF(p).

    It draws what numpy's default_rng([seed, n, p]).integers(0, p,
    dtype=np.int64) draws, call after call, in pure Python.  SeedSequence
    hashes the 32-bit words of seed, n and p into a PCG64 state (O'Neill,
    PCG: a family of simple fast space-efficient statistically good
    algorithms for random number generation, 2014).  A 32-bit word u gives
    the coefficient u * p >> 32 unless its leftover u * p mod 2^32 is below
    t = 2^32 mod p, when it is redrawn (Lemire, Fast random integer
    generation in an interval, ACM TOMACS 2019).  The words giving r have as
    leftovers u * p - r * 2^32 all of [0, 2^32) in one class mod p, and
    [t, 2^32), of length 2^32 - t divisible by p, holds (2^32 - t) / p of
    them, so every r is equally likely.
    """

    def __init__(self, ring, seed=1):
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise ParamError("a seed is an integer >= 0, not %r" % (seed,))
        self.ring = ring
        self.seed = seed
        self._words = _pcg64_words(int(seed), ring.n, ring.p)
        self._floor = (1 << 32) % ring.p

    def form(self, d):
        """A uniformly random form of degree d, redrawn if identically zero
        (relevant only over tiny fields)."""
        while True:
            v = self.coefficients(self.ring.dim(d))
            if v.any() or d < 0:
                return HomogPoly(self.ring, d, v)

    def forms(self, degrees):
        return [self.form(d) for d in degrees]

    def coefficients(self, count):
        p, floor = self.ring.p, self._floor
        draws = (m >> 32 for m in map(p.__mul__, self._words) if m & _M32 >= floor)
        return np.fromiter(itertools.islice(draws, count), np.int64, count)

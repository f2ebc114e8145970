"""
Ground-truth computations on concrete graded ideals over GF(p).

The central object is QuotientBasis, an incremental model of the graded
algebra A = R/I.  Instead of row-reducing the (large) span of I inside
each R_d, the degree d piece of A is built on the distinct products x_k*b
of a variable and a basis monomial b of A_{d-1}: their span modulo the
commutation relations x_j*(x_k*b) = x_k*(x_j*b), which the degree d
generators then quotient.  The basis monomials are the degree reverse
lexicographic standard monomials of I, so the products are their upper
shadow: at most min(n * dim A_{d-1}, dim R_d) columns, which for Artinian
quotients stays small even when dim R_d is in the thousands.  Its state
is two arrays per degree d: _std[d], the standard monomials whose classes
are the basis of A_d, and _table[d], the class of every monomial of R_d.
The readers dim, mult, socle_dim and reduce derive the rest from them.

Each GradedIdeal owns one QuotientBasis, shared by every reader of R/I.
The degree up to which R/I is probed is the ideal's proven
GradedIdeal.artinian_bound.  There are two ways in.  The sieve, for given
generators, quotients each degree by them before it is stored and keeps a
minimal generating set (QuotientBasis.gens, read by minimal_generators).
The read, for an ideal given by membership blocks whose joint kernel in
R_d is I_d: the catalecticants of its dual forms, F for R/Ann(F)
(annihilator_ideal) and I o Phi for a link c : I, Phi the dual socle
generator of R/c (ideal_quotient).  It reads each degree off one rref of
the blocks, and sieves its own degrees only when its generators are read.

On top of that sit Hilbert functions, graded Betti numbers via the
homology of the Koszul complex tensored with A, minimal generator
counts, socle profiles, links by a complete intersection c (read off the
dual socle generator of the Gorenstein R/c, ideal_quotient), inverse-system
annihilators, perpendicular spaces, and the relative-compression
verdict.  A Koszul boundary rank is eliminated only when no theorem gives
it: the end columns come from the dimensions and the socle of A, the strand
below the initial degree of I is R's exact Koszul strand, the top degrees
of a level A are copies of it through the inverse system, a Gorenstein A
mirrors its high ranks onto low ones, and rank d_2 comes from the model.
"""

import functools
import itertools
import math
from collections import Counter

import numpy as np
from dataclasses import dataclass, field

from .betti import BettiTable
from .errors import (
    CapError,
    InternalError,
    NotArtinianError,
    NotContainedError,
    ParamError,
)
from .gfp import PrimeMatrix, _kernel, kernel_basis, rank, rref, stack
from .ring import HomogPoly, contraction_map
from .series import HilbertSeries, rc_min_bound, rc_upper_bound_liaison

__all__ = [
    "GradedIdeal",
    "QuotientBasis",
    "SocleProfile",
    "CompressionVerdict",
    "hilbert_function",
    "betti_numbers",
    "minimal_generators",
    "socle",
    "ideal_quotient",
    "annihilator_ideal",
    "perp_basis",
    "is_relatively_compressed",
    "general_forms",
    "general_element",
    "ci_in",
]

class GradedIdeal:
    """A homogeneous ideal given by fixed generators, the recipe that built
    them (a nested list, or None) and the one model of R/I they define,
    built on first read."""

    def __init__(self, ring, gens, recipe=None):
        self.ring = ring
        self.gens = list(gens)
        for g in self.gens:
            if g.ring is not ring:
                raise ParamError("mixed rings")
            if g.is_zero():
                raise ParamError("zero generator")
        self.recipe = recipe

    def degrees(self):
        return sorted(g.degree for g in self.gens)

    @functools.cached_property
    def quotient(self):
        """The model of R/I, built on first use and kept."""
        return QuotientBasis(self.ring, self.gens)

    def artinian_bound(self):
        """A degree in which R/I vanishes whenever R/I is Artinian, or None
        when R/I cannot be Artinian.

        With generator degrees d_1 <= ... <= d_m the bound is
        d_{m-n+1} + ... + d_m - n + 1 (0 for the unit ideal).  Proof, for a
        proper ideal I with R/I Artinian (so m >= n and I has height n):

        * Adjoining one generator raises the height by at most 1 (Krull's
          principal ideal theorem).  Removing the n - i generators of
          largest degree therefore leaves height >= i: the generators of
          degree <= d_{m-n+i} generate an ideal of height >= i.
        * Work over the algebraic closure, an infinite field.  With
          D = d_{m-n+i}, the ideal generated by I_D contains x_j^(D-e) g
          for every generator g of degree e <= D, so a prime containing it
          contains those generators or every variable: its height is >= i
          too.  Given a regular sequence f_1, ..., f_{i-1}, the associated
          primes of (f_1, ..., f_{i-1}) have height i - 1 (R is
          Cohen-Macaulay), and graded prime avoidance yields a general f_i
          in I_D outside all of them.  So f_1, ..., f_n is a regular
          sequence of degrees d_{m-n+1}, ..., d_m.
        * R/(f) is a complete intersection with socle degree
          sum(d_{m-n+i} - 1), so it vanishes in degree
          d_{m-n+1} + ... + d_m - n + 1, and R/I is a quotient of it.  The
          Hilbert function does not change under field extension, so the
          same holds over GF(p).

        With fewer than n generators (and no unit) the height is < n, so
        R/I is not Artinian and None is returned.
        """
        degrees, n = self.degrees(), self.ring.n
        if degrees and degrees[0] == 0:
            return 0
        if len(degrees) < n:
            return None
        return sum(degrees[-n:]) - n + 1

    def __repr__(self):
        # the recipe, not the generators: reading those can run a sieve
        return "GradedIdeal(n=%d, p=%d, recipe=%r)" % (self.ring.n, self.ring.p, self.recipe)


class _Annihilator(GradedIdeal):
    """Ann(F_1, ..., F_t) of nonzero dual forms, read off their
    catalecticants B(d), the contraction maps of the forms of degree >= d
    with the rows of F cut to rows[deg F - d] when rows is given.  R/I
    vanishes from degree max deg F_i + 1 on (0: the unit ideal), its socle
    lies in the degrees deg F_i (QuotientBasis.socle_dim), and gens are
    found when read."""

    def __init__(self, ring, forms, recipe, rows=None):
        self.ring, self.recipe = ring, recipe
        self._top = max((f.degree for f in forms), default=-1) + 1

        def blocks(d):
            return [contraction_map(f, d) if rows is None
                    else PrimeMatrix._trusted(contraction_map(f, d).a[rows[f.degree - d]], ring.p)
                    for f in forms if f.degree >= d]

        self.quotient = QuotientBasis(ring, blocks=blocks)
        self.quotient._socle_degrees = {f.degree for f in forms}
        if len(forms) == 1:
            self.quotient._form_degree = forms[0].degree

    gens = property(lambda self: self.quotient.gens)

    def artinian_bound(self):
        return self._top


class QuotientBasis:
    """Per-degree model of A = R/I, built degree by degree, whose state is
    _std[d] (the R_d positions of the monomials whose classes are the basis
    of A_d) and _table[d] (the class of every monomial of R_d).  dim(d) is
    the size of _std[d], mult(k, d) gathers table(d + 1) at x_{k+1} _std[d],
    socle_dim(d) is the common kernel of the mult(k, d), reduce applies table.

    _std[d] holds the standard monomials of I of degree d (those outside
    its initial ideal) for the degree reverse lexicographic order, the
    Macaulay basis of Cox, Little and O'Shea, Ideals, Varieties, and
    Algorithms, section 5.3.  _span(d) finds them from degree d - 1 for
    the ideal J generated in degrees < d (I below degree d), and _build(d)
    sieves the degree d generators in.  Proof for J, S = _std[d - 1]:

    * R_1 (x) R_{d-1} -> R_d is onto, and its kernel is spanned by the
      Koszul relations x_j (x) x_k m - x_k (x) x_j m (R's Koszul complex
      is exact in degree d >= 2).  Since J_d = R_1 I_{d-1}, (R/J)_d is the
      quotient of V = R_1 (x) A_{d-1} (n * dim A_{d-1} dimensional) by the
      commutation relations x_j (x_k b) - x_k (x_j b), b in a basis of
      A_{d-2} (x_k m lies in I_{d-1} when m lies in I_{d-2}).
    * Multiplying out, mu: V -> span(M_d), x_k (x) b -> x_k b for b in S,
      onto the span of the distinct products M_d, is onto, and the map
      V -> (R/J)_d is mu followed by taking classes.  So ker mu maps to 0
      in (R/J)_d, lies in the span of the relations, and
      (R/J)_d = span(M_d) / mu(relations), with mu(relations) = J_d meet
      span(M_d).  The free columns of its echelon form give a monomial
      basis of (R/J)_d, and its kernel basis (the identity on them) gives
      the class of every product, so table(d) at x_k m is the classes of
      the products x_k S applied to table(d - 1) at m.
    * With the columns in descending degrevlex order, the pivot columns
      are the leading monomials of J_d meet span(M_d), which lie in the
      initial ideal of J.  Conversely, let S be the standard monomials of
      degree d - 1 (true for d = 1).  A divisor of a standard monomial is
      standard, so every standard monomial of J of degree d lies in M_d,
      and it is free.  A nonstandard m in M_d leads m - NF(m), which lies
      in J_d and in span(M_d), since its normal form NF(m) is a combination
      of smaller standard monomials; so m is a pivot.  The free columns are
      therefore exactly the standard monomials of J of degree d.  They form
      an order ideal, M_d is their upper shadow, and table(d) is the
      identity on them.  A commutation row whose products x_k b and x_j b
      are both standard vanishes; zero rows are dropped before eliminating.
    * Every reader (hilbert_function, betti_numbers, socle_dim, the
      sieve and _require_contained) reads only dimensions, ranks and
      kernels, which do not depend on the basis.

    A stored degree is final: _build(d) sieves the degree d generators into
    _span(d) before storing it, and gens records those _sieve keeps, minimal
    up to the top degree.  A model given membership blocks (blocks(d), a
    list of PrimeMatrix whose joint kernel in R_d is I_d, empty where
    A_d = 0) reads each degree off one rref of the stacked blocks B(d)
    instead (_read_dual, with its proof), and finds gens on its own degrees.
    When the blocks are the catalecticants of one nonzero dual form of
    degree s (_form_degree), B(s - d) has the rank of B(d), whose
    catalecticant it transposes: below the middle the wide B(s - d) is read
    first, and a degree with A_d = R_d is stored with no rref.
    """

    def __init__(self, ring, gens=(), blocks=None):
        self.ring = ring
        self._given = list(gens)
        self._blocks = blocks  # the model of R/I read off B(d), gens sieved when read
        self._gens = None if blocks else []  # the generators _sieve kept, in order
        # _socle[d]: dim soc(A)_d, read from A_d and A_{d+1}; _socle_degrees:
        # the D of socle_dim, None but in a model of an inverse system
        self._socle, self._socle_degrees = {}, None
        # _form_degree: s of a model read off one nonzero dual form, else None;
        # _ahead: the degrees s - d it read before storing them (_read_dual)
        self._form_degree, self._ahead = None, {}
        self._std, self._table = [], []  # degrees 0, ..., len(_std) - 1 are built

    @property
    def gens(self):
        """The generators _sieve kept: minimal, up to the top degree built.  A
        read model finds them when first read, on its own degrees: in each d,
        _span(d), sieved by kernel_basis(table(d)) where it exceeds A_d, must
        give the read degree d.  They are those a sieve model of the kernels
        of the B(d) keeps: its degree d - 1 arrays are the read ones (checked
        one degree lower), so its _span(d) is the same; and kernel_basis reads
        the rref, which depends only on the row space, while table(d) and B(d)
        both have kernel I_d, so row space I_d-perp and one kernel basis."""
        if self._gens is None:
            gens = []
            for d in itertools.count():
                std, table = self._span(d)
                if std.size > self.dim(d):
                    rows = kernel_basis(self.table(d)).a
                    std, table, kept = _sieve(std, table, rows)
                    gens += [HomogPoly(self.ring, d, rows[i]) for i in kept]
                if std.size != self.dim(d):
                    raise InternalError("inconsistent quotient dimensions in degree %d" % d)
                if not (np.array_equal(std, self._std[d]) and table == self.table(d)):
                    raise InternalError("the sieve and the catalecticants disagree")
                if not std.size:
                    break
            self._gens = gens
        return self._gens

    def dim(self, d):
        if d < 0:
            return 0
        while len(self._std) <= d:
            (self._read_dual if self._blocks else self._build)(len(self._std))
        return self._std[d].size

    def span_dim(self, d):
        """dim (R/J)_d, d >= 1, for J generated by I in degrees < d: dim A_d
        plus the degree d generators when gens are known, and otherwise the
        products M_d modulo the commutation relations (the proof of _span)."""
        if self._gens is not None:
            return self.dim(d) + sum(g.degree == d for g in self._gens)
        _, keys, _, rels = self._products(d)
        return keys.size - rank(rels)

    def mult(self, k, d):
        """Multiplication by x_{k+1} as a matrix A_d -> A_{d+1} (k 0-based):
        column b is the class of x_{k+1} times the b-th basis monomial."""
        t = self.table(d + 1)  # builds degree d + 1
        return PrimeMatrix._trusted(t.a[:, self.ring.sum_index(d, 1)[self._std[d], k]], t.p)

    def socle_dim(self, d):
        """Dimension of the socle of A in degree d, computed once: the common
        kernel of multiplication by every variable on A_d.  A model of an
        inverse system knows a set D of degrees outside which it is 0, and
        eliminates only below t = max D, where soc(A)_t = A_t.  Proof: A_d
        pairs perfectly with W_d, W a graded module, x_k on A_d being the
        transpose of x_k into W_d; so soc(A)_d is dual to (W / mW)_d, which is
        0 unless W has a minimal generator there, and A_{t+1} = W_{t+1}^* = 0.

        R/Ann(F_1, ..., F_t), the F_i nonzero dual forms: D = {deg F_i}.
        Contraction pairs R_d and the dual forms of degree d perfectly in
        every characteristic (x^a o y^b is 1 at b = a), so Ann(F)_d is the
        perpendicular of W_d, W = R o <F_i>, and W / mW is spanned by the
        F_i (Iarrobino and Kanev, LNM 1721, Appendix A).  A link c : I is
        Ann(g o Phi : g in I) (ideal_quotient), so the rule covers it."""
        if d not in self._socle:
            a, known = self.dim(d), self._socle_degrees
            if known is not None and d not in known:
                a = 0
            elif a and (known is None or d < max(known)):
                a -= rank(stack([self.mult(k, d) for k in range(self.ring.n)]))
            self._socle[d] = a
        return self._socle[d]

    def table(self, d):
        self.dim(d)
        return self._table[d]

    def reduce(self, f):
        """Class of a homogeneous polynomial in A, as a coordinate vector."""
        t = self.table(f.degree)
        return t.matmul(PrimeMatrix(f.coeffs.reshape(-1, 1), self.ring.p)).a.ravel()

    def _products(self, d):
        """The degrevlex order of R_d, and the columns M_d (keys, pos) and the
        nonzero relation rows of (R/J)_d; none of either when A_{d-1} = 0."""
        ring = self.ring
        n, p = ring.n, ring.p
        a2 = self.dim(d - 2) if self.dim(d - 1) else 0
        # columns: the distinct products x_k * b, b in _std[d - 1], in
        # descending degrevlex order (lexsort keys the last exponent first);
        # pos[i, k] is the column of x_{k+1} * _std[d - 1][i]
        prod = ring.sum_index(d - 1, 1)[self._std[d - 1]]
        order = np.lexsort(ring.exponents(d).T)
        keys, pos = np.unique(np.argsort(order)[prod], return_inverse=True)
        pos = pos.reshape(prod.shape)
        # commutation relations x_j*(x_k*b) = x_k*(x_j*b) for b in A_{d-2},
        # one block of a2 rows per pair j < k
        rels = [np.zeros((0, keys.size), dtype=np.int64)]
        if a2:
            mults = [self.mult(k, d - 2).a.T for k in range(n)]
            for j, k in itertools.combinations(range(n), 2):
                blk = np.zeros((a2, keys.size), dtype=np.int64)
                blk[:, pos[:, j]] = mults[k]
                blk[:, pos[:, k]] -= mults[j]
                rels.append(blk)
        rels = np.vstack(rels) % p
        return order, keys, pos, PrimeMatrix._trusted(rels[rels.any(axis=1)], p)

    def _build(self, d):
        std, table = self._span(d)
        given = [g for g in self._given if g.degree == d]
        if given:
            std, table, kept = _sieve(std, table, np.array([g.coeffs for g in given]))
            self._gens += [given[i] for i in kept]
        self._std.append(std)
        self._table.append(table)

    def _span(self, d):
        """(_std[d], table(d)) of (R/J)_d, J generated by I in degrees < d,
        read from degree d - 1 (the class docstring's proof); R_0 at d = 0."""
        ring, p = self.ring, self.ring.p
        if not d:
            return np.zeros(1, dtype=np.int64), PrimeMatrix([[1]], p)
        order, keys, pos, rels = self._products(d)
        # vred: coordinates of every product in the basis of (R/J)_d
        ker, free = _kernel(rels)
        vred = ker.a
        # table(d): the monomials x_{k+1} m of strip k reduce as the
        # products x_{k+1} b, b in _std[d - 1], applied to the classes of m
        prev_table = self._table[d - 1]
        table = np.zeros((vred.shape[0], ring.dim(d)), dtype=np.int64)
        if vred.size:
            for k, (cols, prev) in enumerate(ring.strip(d)):
                sub = PrimeMatrix._trusted(prev_table.a[:, prev], p)
                table[:, cols] = PrimeMatrix._trusted(vred[:, pos[:, k]], p).matmul(sub).a
        return order[keys[free]], PrimeMatrix._trusted(table, p)

    def _read_dual(self, d):
        """Degree d of the model from one rref of B(d), columns in ascending
        degrevlex order.  B(d) has kernel I_d, so it factors through a map
        injective on A_d, and column m is the image of the class of x^m:

        * x^m minus a combination of smaller monomials lies in I_d exactly
          when column m depends on the columns before it.  So the
          non-pivots are the leading monomials, and the pivots the standard
          monomials: _std[d], in descending order.
        * Each rref column writes the image of x^m in the basis of the pivot
          images: its normal form, unique on the standard basis.  So the
          first rank rows, in reversed order, are table(d).

        So both arrays equal those of the sieve model of the generators.

        A model of one nonzero dual form F of degree s (_form_degree: R/Ann(F),
        or a link whose g o Phi leave one nonzero form) eliminates no tall
        B(d) of full column rank.  Proof:

        * Contraction has no coefficients: with a of degree d and r of
          degree s - d, contraction_map(F, s - d)[a, r] and
          contraction_map(F, d)[r, a] are both the coefficient of F at a + r.
          So Cat_{s-d}(F) is Cat_d(F) transposed, bit for bit at every p.  A
          link's row cut keeps the row space (ideal_quotient), so
          rank B(s - d) = rank B(d), that is dim A_{s-d} = dim A_d.
        * For 2d < s, B(s - d) has at most dim R_d <= dim R_{s-d} rows: it is
          the wide side, and it is read first, its arrays kept in _ahead
          until degree s - d is stored.  Those arrays are its rref's, as
          above, so every degree stores what it stores without the rule.
        * Where rank B(s - d) = dim R_d, I_d = 0 and A_d = R_d.  Every column
          of B(d) is then a pivot, and its rref is the identity above zero
          rows.  So _std[d] is every monomial in descending degrevlex order,
          lexsort(exponents(d).T), and table(d) is the permutation with
          table(d)[i, _std[d][i]] = 1, the arrays of that rref; no rref and
          no contraction_map of degree d is needed.  Otherwise B(d) is read.
        """
        ring, s = self.ring, self._form_degree
        full = False
        if s is not None and 2 * d < s:
            self._ahead[s - d] = self._rref_blocks(s - d)
            full = self._ahead[s - d][0].size == ring.dim(d)
        if d in self._ahead:
            std, table = self._ahead.pop(d)
        elif full:
            std = np.lexsort(ring.exponents(d).T)
            table = PrimeMatrix._trusted(np.eye(std.size, dtype=np.int64)[std], ring.p)
        else:
            std, table = self._rref_blocks(d)
        self._std.append(std)
        self._table.append(table)

    def _rref_blocks(self, d):
        """(_std[d], table(d)) from the rref of B(d) (_read_dual), empty if A_d = 0."""
        ring, blocks = self.ring, self._blocks(d)
        if not blocks:
            return np.zeros(0, np.int64), PrimeMatrix.zeros(0, ring.dim(d), ring.p)
        asc = np.lexsort(ring.exponents(d).T)[::-1]
        red, pivots = rref(PrimeMatrix._trusted(stack(blocks).a[:, asc], ring.p))
        table = np.zeros((len(pivots), ring.dim(d)), dtype=np.int64)
        table[:, asc] = red.a[:len(pivots)][::-1]
        return asc[pivots][::-1], PrimeMatrix._trusted(table, ring.p)


def _sieve(std, table, rows):
    """Quotient a degree d of a model, its (std, table), by the rows
    (coefficient vectors in R_d): kept is the row rank profile of the
    classes table rows^T, and with Pi the kernel basis of the kept classes
    K^T and free its free columns, the result is (std[free], Pi table, kept).
    Proof: table writes a form as its normal form on the standard monomials,
    which keeps a standard leading monomial.  So the new initial ideal in
    degree d adds the leading monomials of span(K): the pivot columns of
    K^T, whose columns are std in descending degrevlex order.  The free ones
    are the new standard monomials; on them every class is unique, so the
    new table is too, and Pi (the identity on the free columns) maps old
    classes to new ones.  A kept row in degree 0 leaves A_0 = 0, and every
    later degree builds empty."""
    classes = table.matmul(PrimeMatrix(np.asarray(rows).T, table.p))
    kept = rref(classes)[1]
    if kept:
        pi, free = _kernel(PrimeMatrix._trusted(classes.a[:, kept].T, classes.p))
        std, table = std[free], pi.matmul(table)
    return std, table, kept


def hilbert_function(ideal, cap=None):
    """Hilbert function of R/I up to degree cap (default: the ideal's
    Artinian bound), exact when it reaches zero."""
    if cap is None:
        cap = ideal.artinian_bound()
        if cap is None:
            raise CapError("fewer generators than variables: a cap is required")
    qb = ideal.quotient
    coeffs = []
    for d in range(cap + 1):
        h = qb.dim(d)
        coeffs.append(h)
        if h == 0:
            return HilbertSeries(coeffs, exact=True)
    return HilbertSeries(coeffs, exact=False)


def _artinian_quotient(ideal):
    """Model and exact Hilbert function of an Artinian R/I; raises
    NotArtinianError when R/I is alive at the ideal's Artinian bound."""
    if ideal.artinian_bound() is None:
        raise NotArtinianError(
            "fewer than %d generators: R/I is not Artinian" % ideal.ring.n)
    hf = hilbert_function(ideal)
    if not hf.exact:
        raise NotArtinianError("quotient still alive at degree %d" % hf.cap)
    return ideal.quotient, hf


def betti_numbers(ideal):
    """Graded Betti numbers of R/I as the homology of the Koszul complex
    on the variables tensored with R/I.

    Sign convention: d(a (x) e_{l_1 < ... < l_i}) =
    sum_k (-1)^(k+1) x_{l_k} a (x) e_{S \\ l_k}.

    beta_{i,j} = dim K_{i,j} - rank d_i(j) - rank d_{i+1}(j), where d_i(j)
    maps A_e (x) L^i to A_{e+1} (x) L^(i-1) with e = j - i (L^i the i-th
    exterior power of the span of the variables).  A rank is eliminated
    only when none of these identities gives it:

    * rank d_1(j) = dim A_{e+1}.  d_1 sends (a_1, ..., a_n) to
      x_1 a_1 + ... + x_n a_n, and A is generated in degree 0, so
      x_1 A_e + ... + x_n A_e = A_{e+1}.
    * rank d_n(j) = dim A_e - dim soc(A)_e.  d_n sends a to
      (+-x_1 a, ..., +-x_n a), so its kernel is the common kernel of the
      variables on A_e, which is soc(A)_e.
    * rank d_2(j) = n dim A_{j-1} - dim (R/J)_j, J generated by I in
      degrees < j: the image of d_2(j) in A_{j-1} (x) L^1 = R_1 (x) A_{j-1}
      is spanned by the commutation relations, so by bullets 1 and 2 of
      QuotientBasis' proof its cokernel is (R/J)_j (span_dim).  A model
      that knows its generators counts them, dim (R/J)_j = dim A_j +
      beta_{1,j}: _sieve keeps a degree j generator exactly when it is
      independent of R_1 I_{j-1} and those kept before it, and
      beta_{1,j} = dim (I/mI)_j counts the minimal generators of degree j
      (Eisenbud, The Geometry of Syzygies, ch. 1).  So for n <= 3 it
      eliminates no rank.  Any other model eliminates the relations on the
      products M_j and sieves nothing.  The rule comes after the three
      below, which cost nothing: the mirrored rank is one the table reads
      anyway.
    * When dim A_{e+1} = dim R_{e+1}, I vanishes in degrees <= e + 1 (R is
      a domain), so d_i(j) is the map of R's Koszul complex in degree j.
      That complex resolves R/(x_1, ..., x_n) and j >= 1, so it is exact
      in degree j: rank d_k(j) = dim K_{k-1,j} - rank d_{k-1}(j) with
      rank d_0 = 0, whence
      rank d_i(j) = sum_{k<i} (-1)^(i-1-k) C(n, k) dim R_{j-k}.
    * When soc(A) lies in degree s alone (s the top degree, as A_s lies in
      the socle), A is level of type t = dim A_s, and where
      dim A_e = t dim R_{s-e} and dim A_{e+1} = t dim R_{s-e-1},
      rank d_i(j) = t rank d_{n-i+1}(n+s-j) of R's strand (the dual
      strand).  Proof: every a != 0 in A_e has a multiple in the socle,
      which is A_s, so a -> (f -> f a) embeds A_e in Hom(R_{s-e}, A_s)
      and its transpose, the R-module map R(s)^t -> A^v (A^v the graded
      dual, the inverse system; Iarrobino and Kanev, LNM 1721), is onto
      in degree -e, and bijective where dim A_e = t dim R_{s-e}.  Where it
      is bijective in degrees -e-1 and -e, it carries each x_l between
      them on R(s)^t to x_l on A^v.  With the pairing L^i x L^(n-i) ->
      L^n, the transpose of d_i(j) is, up to the sign of each basis
      vector, the Koszul map of A^v from A^v_{-e-1} (x) L^(n-i+1) to
      A^v_{-e} (x) L^(n-i) (Buchsbaum and Eisenbud, Amer. J. Math. 99,
      1977).  In these two degrees it is t copies of R's d_{n-i+1} in
      internal degree n+s-j = n-i+s-e >= 1, where R's strand formula
      holds.  The zero quotient (s = -1) has no socle and no rank to read.
    * When soc(A) is one-dimensional, A is Gorenstein (t = 1): the
      pairing A_e x A_{s-e} -> A_s is perfect, and x_l is its own adjoint
      for it, so A^v = A(s) and the transpose of d_{n-i+1}(n+s-j), which
      maps A_{s-1-e} (x) L^(n-i+1) to A_{s-e} (x) L^(n-i), is d_i(j) up
      to the sign of each basis vector: rank d_i(j) = rank
      d_{n-i+1}(n+s-j), the mirror, whose source degree is s - 1 - e.
      Which side is read is a choice, not a further identity; the mirror
      is read
      - when 2e > s - 1, where its source degree is lower and the rules
        above mostly apply;
      - when 2e = s - 1 and 2i > n + 1: both sides have source degree e,
        and the mirror has the smaller index n - i + 1;
      - for n >= 4, always for d_{n-1}, whose mirror is a d_2 (the d_2
        rule above), and for d_2 only when the mirror d_{n-1} is on R's
        strand.  So neither mirrors onto the other, as the strand comes
        first.  Every other mirror d_{i'}(j'), from d_i with
        3 <= i <= n - 2 or d_2 with n = 3, has 2(j' - i') < s - 1, or
        2(j' - i') = s - 1 and 2i' < n + 1, so it does not mirror back.
    """
    ring = ideal.ring
    n = ring.n
    qb, hf = _artinian_quotient(ideal)
    s = hf.top_degree()
    adim = [qb.dim(d) for d in range(s + 2)]
    soc = [qb.socle_dim(d) for d in range(s + 1)]
    # the type t of a level A, socle in degree s only (1: Gorenstein); 0
    # otherwise and for the zero quotient (s = -1, no socle)
    level = soc[s] if s >= 0 and soc[s] == sum(soc) else 0

    def strand(i, j):
        """rank d_i(j) of R's Koszul complex, j >= 1."""
        return sum((-1) ** (i - 1 - k) * math.comb(n, k) * ring.dim(j - k) for k in range(i))

    subsets = {i: list(itertools.combinations(range(n), i)) for i in range(n + 1)}
    sub_index = {i: {S: t for t, S in enumerate(subsets[i])} for i in range(n + 1)}

    @functools.cache
    def boundary_rank(i, j):
        """rank of d_i in internal degree j."""
        if i < 1 or i > n:
            return 0
        e = j - i  # internal degree of the coefficients in the source
        if e < 0 or e >= s or adim[e] == 0:
            return 0  # the source A_e or the target A_{e+1} is 0
        if i == 1:
            return adim[e + 1]
        if i == n:
            return adim[e] - soc[e]
        if adim[e + 1] == ring.dim(e + 1):
            return strand(i, j)
        if level and adim[e] == level * ring.dim(s - e) and \
                adim[e + 1] == level * ring.dim(s - e - 1):
            return level * strand(n - i + 1, n + s - j)
        if level == 1:
            mirror = 2 * e > s - 1 or (2 * e == s - 1 and 2 * i > n + 1)
            if n >= 4 and i in (2, n - 1):
                mirror = i == n - 1 or adim[s - e] == ring.dim(s - e)
            if mirror:
                return boundary_rank(n - i + 1, n + s - j)
        if i == 2:
            return n * adim[e + 1] - qb.span_dim(j)
        src = subsets[i]
        tgt = sub_index[i - 1]
        rows = adim[e + 1] * len(subsets[i - 1])
        cols = adim[e] * len(src)
        # the blocks x_l and -x_l, reduced once; m is written once
        plus = [qb.mult(l, e).a for l in range(n)]
        signed = (plus, [-b % ring.p for b in plus])
        m = np.zeros((rows, cols), dtype=np.int64)
        for ci, S in enumerate(src):
            for k, l in enumerate(S):
                T = S[:k] + S[k + 1:]
                r0 = tgt[T] * adim[e + 1]
                c0 = ci * adim[e]
                m[r0:r0 + adim[e + 1], c0:c0 + adim[e]] = signed[k % 2][l]
        return rank(PrimeMatrix._trusted(m, ring.p))

    beta = {}
    for i in range(0, n + 1):
        for j in range(i, s + i + 1):
            b = adim[j - i] * len(subsets[i]) - boundary_rank(i, j) - boundary_rank(i + 1, j)
            if b < 0:
                raise InternalError(
                    "negative Betti number %d at (%d, %d)" % (b, i, j))
            if b:
                beta[(i, j)] = b
    del boundary_rank  # its cache's closure refers to it: free the model now
    return BettiTable(beta)


def minimal_generators(ideal):
    """Degrees and counts of a minimal generating set of the ideal: the
    generators its model keeps, built up to the top generator degree."""
    qb = ideal.quotient
    qb.dim(max(ideal.degrees(), default=0))
    return sorted(Counter(g.degree for g in qb.gens).items())


@dataclass
class SocleProfile:
    """Socle degrees with multiplicities, smallest degree first."""

    degrees: list

    @property
    def cm_type(self):
        return len(self.degrees)

    @property
    def is_level(self):
        return len(set(self.degrees)) == 1

    @property
    def is_gorenstein(self):
        return len(self.degrees) == 1

    @property
    def socle_degree(self):
        return max(self.degrees)

    def text(self):
        return "(" + ", ".join(str(d) for d in self.degrees) + ")"


def socle(ideal):
    """Socle profile of an Artinian quotient: per degree, the common
    kernel of multiplication by every variable."""
    qb, hf = _artinian_quotient(ideal)
    degrees = []
    for d in range(hf.top_degree() + 1):
        degrees.extend([d] * qb.socle_dim(d))
    return SocleProfile(degrees)


def _require_contained(c, ideal, role):
    """Raise NotContainedError unless every generator of c lies in ideal."""
    for g in c.gens:
        if ideal.quotient.reduce(g).any():
            raise NotContainedError(
                "a degree %d generator of the %s ideal is not in the ideal"
                % (g.degree, role))


def ideal_quotient(c, ideal):
    """The colon ideal c : I by a complete intersection c, read off the
    catalecticants of the dual forms g o Phi of the generators g of I.

    An Artinian ideal with n minimal generators is a complete intersection,
    so R/c is Gorenstein (any other c raises ParamError): its socle degree
    e has A_e its socle, and Phi = table(e), one row, is a dual form of
    degree e whose annihilator is c (R/c is Ann(Phi): the pairing
    A_d x A_{e-d} -> A_e is perfect).  Then f g lies in c exactly when
    f o (g o Phi) = (f g) o Phi = 0, so c : I = Ann(g o Phi : g in I), where
    g o Phi = contraction_map(Phi, deg g) g, exactly in every characteristic,
    is 0 for deg g > e and for g in c.  Only the nonzero ones enter, and
    the rows of each catalecticant are cut to the standard monomials of
    R/c: row r of f -> f o (g o Phi) is f -> Phi(x^r f g), x^r is a
    combination of standard monomials modulo c, and Phi kills c.  So the
    rows cut are combinations of the rows kept, and the cut keeps every
    kernel: the model, and so the generators found on it, are those of the
    uncut blocks, bit for bit.
    """
    ring = c.ring
    qc, h_c = _artinian_quotient(c)
    if len(qc.gens) != ring.n:
        raise ParamError("the linking ideal has %d minimal generators, not %d: "
                         "it is not a complete intersection" % (len(qc.gens), ring.n))
    e = h_c.top_degree()
    _require_contained(c, ideal, "linking")
    phi = HomogPoly(ring, e, qc.table(e).a[0])
    duals = [HomogPoly(ring, e - g.degree, contraction_map(phi, g.degree).matmul(
        PrimeMatrix._trusted(g.coeffs[:, None], ring.p)).a.ravel())
        for g in ideal.gens if g.degree <= e]
    return _Annihilator(ring, [f for f in duals if not f.is_zero()],
                        ["quotient", c.recipe, ideal.recipe], rows=qc._std)


def annihilator_ideal(f_list):
    """The ideal Ann(F) of operators annihilating every given dual form
    under contraction, in every characteristic.

    Its model is read off the catalecticants of the nonzero forms, one
    rref per degree from degree 0 on (zero forms alone give the unit
    ideal), and its Artinian bound is s + 1, as R_{s+1} kills every form of
    degree <= s.  The blocks of degree d are the contraction maps
    R_d -> dual forms of the forms of degree >= d.  Contraction makes the
    dual forms an R-module, so their joint kernel is Ann(F)_d, and the
    model reads degree d off them (QuotientBasis._read_dual).  Its
    generators are found when first read, and its socle is read off the
    degrees of the forms (QuotientBasis.socle_dim).
    """
    if not f_list:
        raise ParamError("need at least one dual form")
    ring = f_list[0].ring
    if any(f.ring is not ring for f in f_list):
        raise ParamError("mixed rings")
    return _Annihilator(ring, [f for f in f_list if not f.is_zero()],
                        ["ann", len(f_list), max(f.degree for f in f_list)])


def perp_basis(c, j):
    """The perpendicular of c_j in the dual space of degree j forms, as
    the rref (red, pivots) of the contraction maps of the generators of
    degree <= j: F is perpendicular exactly when each contracts F to 0.
    So F[free] (free: the other columns) is arbitrary and F[pivots] =
    -red[:len(pivots), free] . F[free]; coefficients put at free give
    coefficients @ kernel_basis of the maps, entry for entry.  Contraction
    has no coefficients, so R_j and the dual forms of degree j pair by the
    dot product: (g o F)_r = sum_a g_a F_{r+a} = (M^T F)_r for M =
    mult_map(g, j - deg g), and the maps are c's Macaulay matrix in degree
    j transposed (test_contraction_adjunction checks the identity)."""
    ring = c.ring
    blocks = [ring.mult_map(g, j - g.degree).a.T for g in c.gens if g.degree <= j]
    if not blocks:
        return PrimeMatrix.zeros(0, ring.dim(j), ring.p), []
    return rref(PrimeMatrix._trusted(np.vstack(blocks), ring.p))


MEETS_CONJECTURED_BOUND = "MEETS_CONJECTURED_BOUND"
BELOW_BOUND = "BELOW_BOUND"
EXCEEDS_BOUND = "EXCEEDS_BOUND"


@dataclass
class CompressionVerdict:
    hf: HilbertSeries
    socle: SocleProfile
    min_bound: HilbertSeries
    liaison_bound: HilbertSeries
    verdict: str
    below_min_bound: list = field(default_factory=list)


def is_relatively_compressed(ideal, c):
    """Compare the Hilbert function of R/I against both upper bounds for
    quotients of R/c with the observed socle profile.

    The operational verdict is MEETS_CONJECTURED_BOUND when the HF
    equals the pointwise minimum of the two bounds; EXCEEDS_BOUND would
    indicate a bug in the bounds or the computation.
    """
    ring = ideal.ring
    _require_contained(c, ideal, "comparison")
    hf = _artinian_quotient(ideal)[1]
    if not hf[0]:
        raise ParamError("R/I is zero (I is the unit ideal): it has no socle "
                         "degree to compare with the bounds")
    prof = socle(ideal)
    ci_degrees = c.degrees()
    s = prof.socle_degree
    cdim = prof.degrees.count(s)
    minb = rc_min_bound([d for d in ci_degrees if d <= s], ring.n, s, cdim)
    liaison = rc_upper_bound_liaison(ci_degrees, prof.degrees, ring.n).series
    top = max(hf.top_degree(), minb.top_degree(), liaison.top_degree())
    below, exceed, below_min = False, False, []
    for d in range(top + 1):
        bound = min(minb[d], liaison[d])
        if hf[d] < minb[d]:
            below_min.append(d)
        below |= hf[d] < bound
        exceed |= hf[d] > bound
    if exceed:
        verdict = EXCEEDS_BOUND
    elif below:
        verdict = BELOW_BOUND
    else:
        verdict = MEETS_CONJECTURED_BOUND
    return CompressionVerdict(
        hf=hf,
        socle=prof,
        min_bound=minb,
        liaison_bound=liaison,
        verdict=verdict,
        below_min_bound=below_min,
    )


# ---------------------------------------------------------------------------
# constructions


def general_forms(degrees, stream):
    """Ideal of seeded random forms of the given degrees, in the ring of
    the stream."""
    degrees = sorted(degrees)
    return GradedIdeal(stream.ring, stream.forms(degrees),
                       ["general-forms"] + degrees)


def general_element(ideal, d, stream):
    """A random element of the ideal of degree d: a random-coefficient
    combination of the generators of degree <= d."""
    f = ideal.ring.zero(d)
    for g in ideal.gens:
        if g.degree <= d:
            f = f + stream.form(d - g.degree) * g
    if f.is_zero():
        raise ParamError("random element of degree %d came out zero" % d)
    return f


def ci_in(ideal, degrees, stream):
    """General elements of the ideal in the given degrees (the usual way
    to choose a complete intersection inside an ideal before linking)."""
    degrees = sorted(degrees)
    gens = [general_element(ideal, d, stream) for d in degrees]
    return GradedIdeal(ideal.ring, gens, ["ci-in", degrees, ideal.recipe])

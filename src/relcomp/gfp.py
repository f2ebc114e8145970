"""
Dense exact linear algebra over a prime field GF(p).

Matrices are numpy int64 arrays with entries reduced into [0, p).  The
modulus must be a prime below 2**31 (check_modulus; PrimeMatrix refuses
anything else): pivots are inverted as x**(p-2), which is an inverse only
modulo a prime, and intermediate products stay below p**2 * rows, which the
bound keeps inside int64.

All row reduction goes through one pivot loop, _eliminate.  It pivots on
the first nonzero entry of each column, scanning top to bottom, so reduced
row echelon forms, pivot columns and kernel bases are reproducible across
runs.  When column c is pivoted, the pivot row is zero left of c (those
columns are pivot columns already cleared in it, or columns with no pivot,
which are zero from the pivot row down), so each row update starts at
column c.
"""

import functools

import numpy as np

from .errors import ParamError

__all__ = [
    "PrimeMatrix",
    "check_modulus",
    "rref",
    "rank",
    "kernel_basis",
    "stack",
]


@functools.lru_cache(maxsize=None)
def _is_prime(p):
    """Deterministic Miller-Rabin, exact below 2**64 with the prime bases up to 37."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % b == 0 for b in bases):
        return p in bases
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    for b in bases:
        x = pow(b, q, p)
        if x != 1 and all(pow(x, 2**r, p) != p - 1 for r in range(s)):
            return False
    return True


def check_modulus(p):
    """Raise ParamError unless p is a prime below 2**31."""
    if not (p < 2**31 and _is_prime(p)):
        raise ParamError("modulus must be a prime below 2**31, got %d" % p)


def _as_array(entries, p):
    a = np.asarray(entries, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("matrix entries must be two dimensional")
    return a % p


class PrimeMatrix:
    """A dense matrix over GF(p).  Thin wrapper around a numpy array."""

    def __init__(self, entries, p):
        check_modulus(p)
        self.p = p
        self.a = _as_array(entries, p)

    @classmethod
    def zeros(cls, rows, cols, p):
        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    def copy(self):
        return PrimeMatrix(self.a.copy(), self.p)

    def __eq__(self, other):
        return (
            isinstance(other, PrimeMatrix)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __repr__(self):
        return "PrimeMatrix(%dx%d mod %d)" % (self.rows, self.cols, self.p)

    def matmul(self, other):
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        # Chunk the product so accumulated dot products stay inside int64.
        # Each term is < p**2; we can sum at most 2**63 // p**2 of them.
        k = self.cols
        step = max(1, (2**62) // (self.p * self.p))
        out = np.zeros((self.rows, other.cols), dtype=np.int64)
        for lo in range(0, k, step):
            hi = min(k, lo + step)
            out = (out + self.a[:, lo:hi] @ other.a[lo:hi, :]) % self.p
        return PrimeMatrix(out, self.p)


def _eliminate(a, p, full):
    """Row-reduce the int64 array a in place; returns the pivot columns.

    Each pivot row is scaled to 1 and its column cleared below the pivot
    (full=False: a row echelon form) or in every other row (full=True: the
    reduced row echelon form).  Updates start at the pivot column: the
    pivot row is zero left of it (see the module docstring).
    """
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, c:] = (a[r, c:] * pow(int(a[r, c]), p - 2, p)) % p
        # multipliers of the pivot row; the rows kept are the pivot row
        # and, for a row echelon form, the rows above it
        col = a[:, c].copy()
        col[(r if full else 0):r + 1] = 0
        hit = col.nonzero()[0]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(col[hit], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return pivots


def rref(m):
    """Reduced row echelon form.

    Returns (reduced PrimeMatrix, pivot column list).  Zero rows are kept
    at the bottom; the nonzero rows form a canonical basis of the row
    space, so two matrices have the same row space iff their rrefs agree
    on the nonzero rows.
    """
    a = m.a.copy()
    pivots = _eliminate(a, m.p, full=True)
    return PrimeMatrix(a, m.p), pivots


def rank(m):
    """Rank via forward elimination only (cheaper than full rref)."""
    return len(_eliminate(m.a.copy(), m.p, full=False))


def kernel_basis(m):
    """Basis of the right kernel, as the rows of a PrimeMatrix.

    One basis vector per free column, produced in increasing free-column
    order.  The vector for free column f has entry 1 at position f, 0 at
    the other free columns, and -red[r, f] at the r-th pivot column, where
    red is the rref.  A matrix with no rows has every column free, so its
    kernel basis is the identity.
    """
    red, pivots = rref(m)
    free = np.ones(m.cols, dtype=bool)
    free[pivots] = False
    free = free.nonzero()[0]
    basis = np.zeros((free.size, m.cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -red.a[:len(pivots), free].T % m.p
    return PrimeMatrix(basis, m.p)


def stack(mats):
    """Vertical concatenation of PrimeMatrix blocks with equal cols."""
    if not mats:
        raise ValueError("nothing to stack")
    p = mats[0].p
    if any(m.p != p for m in mats):
        raise ValueError("modulus mismatch")
    return PrimeMatrix(np.vstack([m.a for m in mats]), p)

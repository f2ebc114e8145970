"""
Dense exact linear algebra over a prime field GF(p).

Matrices are numpy int64 arrays with entries reduced into [0, p).  The
modulus must be a prime below 2**31 (check_modulus; PrimeMatrix refuses
anything else): pivots are inverted as x**(p-2), which is an inverse only
modulo a prime.  matmul keeps every partial sum inside int64: one product
when k*(p-1)**2 < 2**63 for inner dimension k, otherwise the right factor
is split into 16-bit limbs, so chunks of 2**62 // (p * 2**16) >= 2**15
terms fit.

All row reduction goes through _eliminate, and every pivot is chosen by
its one pivot loop.  The loop pivots on the first nonzero residue of each
column, scanning top to bottom.  When column c is pivoted, the pivot row
is 0 mod p left of c (those are pivot columns already cleared in it, or
columns with no pivot, which are 0 mod p from the pivot row down), so each
row update starts at column c.

Delayed reduction in the int64 loop.  Entries are kept congruent modulo p,
and only what is read is reduced: the pivot column before the pivot search
and the pivot row before it is scaled.  So an update subtracts a product of
two residues, in [0, (p-1)**2], and an entry only falls between reductions:
from [0, p), it stays >= -u*(p-1)**2 >= -2**63 for u = 2**63 // (p-1)**2
updates (8.9e9 at p = 32003, 2 at p = 2147483647).  The block updated is
reduced when one more update could pass that, and an rref once at the end.

Dispatch.  Large dense matrices are reduced _PANEL columns at a time, with
the row updates done as float64 matrix products (the delayed-reduction
scheme of Dumas, Giorgi and Pernet, "Dense linear algebra over word-size
prime fields: the FFLAS and FFPACK packages", ACM TOMS 35(3), 2008).  Per
panel, the pivot loop finds the pivot rows (on the transposed panel) and
then the pivot columns and the inverse of the pivot block (on [A_J | I]);
the other rows are cleared by Q -= Y @ P.  Reduced row echelon forms and
pivot columns depend only on the row space, so both paths return the same
rref, pivots, ranks and kernels.  _working_copy picks the panel path when
p passes the float bound below and the matrix has at least
_BLOCK_MIN_ENTRIES entries and more than _PANEL rows and columns.  The
path is chosen per input, not per workload, for a measured reason: a
multithreaded BLAS keeps its worker threads spinning for a while after
each call, so routed through the products, every small matrix costs CPU
time that its faster elimination does not win back.  Nothing here sets a
thread count.

Exactness of the float64 path.  Each product is a sum of at most _PANEL
terms below (p-1)**2.  Entries right of the current panel are left
unreduced between panels; their magnitude is tracked and they are reduced
before it could pass 2**53 - 2p, which _float_ok(p),
_PANEL*(p-1)**2 + 3p <= 2**53, guarantees for one more panel.  So every
value is an integer float64 represents exactly.  _reduce maps such an x to
x - floor(x * (1/p)) * p: the quotient computed in floating point is off
by at most one, since its error is below |x/p| * 2**-52 < 1, and one +-p
step corrects it.  Every other modulus, 2147483647 for one, takes the
int64 loop.
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


# the float64 panel path (module docstring); the cut-offs were measured on
# the eliminations of `reproduce --all` and of a compressed Gorenstein
# `resolve`, not derived
_PANEL = 32
_BLOCK_MIN_ENTRIES = 100_000
_UPDATE_CHUNK = 2**19  # entries of one trailing-update product


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
    def _trusted(cls, a, p):
        """Wrap the int64 array a, already reduced into [0, p) modulo a
        checked prime p, without copying or reducing it."""
        m = cls.__new__(cls)
        m.p, m.a = p, a
        return m

    @classmethod
    def zeros(cls, rows, cols, p):
        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

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
        p = self.p
        if self.cols * (p - 1) ** 2 < 2**63:
            out = self.a @ other.a % p
        else:
            out = _limb_product(self.a, other.a >> 16, p) << 16
            out += _limb_product(self.a, other.a & 0xFFFF, p)
            out %= p
        return PrimeMatrix._trusted(out, p)


def _limb_product(a, b, p):
    """(a @ b) % p for int64 a in [0, p) and b in [0, 2**16): each term is
    below p * 2**16, so chunks of 2**62 // (p * 2**16) >= 2**15 terms keep
    the running sum inside int64."""
    step = 2**62 // (p * 2**16)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, a.shape[1], step):
        out = (out + a[:, lo:lo + step] @ b[lo:lo + step]) % p
    return out


def _float_ok(p):
    """Whether GF(p) panel products are exact in float64 (module docstring)."""
    return _PANEL * (p - 1) ** 2 + 3 * p <= 2**53


def _working_copy(a, p):
    """A copy of the reduced int64 array a for _eliminate: float64 (the
    panel path) when the module docstring's dispatch rule picks it, int64
    (the pivot loop) otherwise."""
    rows, cols = a.shape
    if (rows * cols >= _BLOCK_MIN_ENTRIES and min(rows, cols) > _PANEL
            and _float_ok(p)):
        return a.astype(np.float64)
    return a.copy()


def _reduce(x, p):
    """Reduce the float64 array x, integers of magnitude at most
    2**53 - 2p, into [0, p) in place (exactness: see the module
    docstring)."""
    q = x * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    x -= q
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)


def _eliminate(a, p, full):
    """Row-reduce the array a in place; returns the pivot columns.

    Each pivot row is scaled to 1 and its column cleared below the pivot
    (full=False: a row echelon form) or in every other row (full=True: the
    reduced row echelon form).  An int64 array runs the pivot loop below,
    with delayed reduction; updates start at the pivot column (see the
    module docstring).  A float64 array, from _working_copy, runs in panels
    (_eliminate_panels).  With full=False the array is left in an
    unspecified state.
    """
    if a.dtype == np.float64:
        return _eliminate_panels(a, p, full)
    rows, cols = a.shape
    pivots = []
    r = 0
    fit = 2**63 // (p - 1) ** 2  # updates between reductions (module docstring)
    since = 0
    for c in range(cols):
        if r == rows:
            break
        col = a[:, c] % p
        nz = col[r:].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        inv = pow(int(col[i]), p - 2, p)
        if i != r:
            a[[r, i]] = a[[i, r]]
            col[i] = col[r]
        row = a[r, c:] % p * inv % p
        a[r, c:] = row
        # multipliers of the pivot row; the rows kept are the pivot row
        # and, for a row echelon form, the rows above it
        col[(r if full else 0):r + 1] = 0
        hit = col.nonzero()[0]
        if hit.size:
            if since == fit:
                a[(0 if full else r):, c:] %= p
                since = 0
            a[hit, c:] -= col[hit, None] * row
            since += 1
        pivots.append(c)
        r += 1
    if full:
        a %= p
    return pivots


def _eliminate_panels(a, p, full):
    """_eliminate of a float64 array with _float_ok(p), _PANEL columns at
    a time.

    Invariant before each panel [c0, c1): rows r and below are zero left
    of c0, and every entry from column c0 on has magnitude at most top.
    """
    rows, cols = a.shape
    pivots = []
    r = 0
    sq = float((p - 1) ** 2)
    top = p - 1
    for c0 in range(0, cols, _PANEL):
        if r == rows:
            break
        c1 = min(cols, c0 + _PANEL)
        w = c1 - c0
        lo = 0 if full else r  # rows that are read from here on
        _reduce(a[lo:, c0:c1], p)
        # pivot rows: the row rank profile of the panel's nonzero rows
        live = np.flatnonzero(a[r:, c0:c1].any(axis=1))
        sel = live[_eliminate(a[r + live, c0:c1].T.astype(np.int64), p, False)]
        k = sel.size
        if not k:
            continue
        # move them to rows r..r+k-1; sel is increasing and sel[t] >= t,
        # so row r+sel[t] is still in place when its turn comes
        for t, i in enumerate(sel):
            if i != t:
                a[[r + t, r + i]] = a[[r + i, r + t]]
        # [A_J | I] -> [rref(A_J) | T]: the pivot columns, and T, the
        # inverse of A_J on them
        m = np.zeros((k, w + k), dtype=np.int64)
        m[:, :w] = a[r:r + k, c0:c1]
        m[:, w:] = np.eye(k, dtype=np.int64)
        jp = c0 + np.array(_eliminate(m, p, True))
        piv = a[r:r + k, c0:]
        piv[:, :w] = m[:, :w]
        if c1 < cols:
            _reduce(piv[:, w:], p)
            piv[:, w:] = m[:, w:].astype(np.float64) @ piv[:, w:]
            _reduce(piv[:, w:], p)
        # clear the pivot columns in the other rows: Q -= Y @ P
        if top + k * sq > 2.0**53 - 2 * p:
            _reduce(a[lo:, c1:], p)
            top = p - 1
        top += k * sq
        lower = a[r + k:]
        y = lower[:, jp]
        lower[:, c0:c1] = 0  # the panel's rank is k: these rows are spanned
        _update(lower[:, c1:], y, piv[:, w:])
        if full:
            upper = a[:r]
            _update(upper[:, c0:], upper[:, jp], piv)
        pivots.extend(jp.tolist())
        r += k
    if full:
        _reduce(a, p)
    return pivots


def _update(q, y, u):
    """q -= y @ u in float64, in row chunks of about _UPDATE_CHUNK entries."""
    if not q.size:
        return
    step = max(1, _UPDATE_CHUNK // q.shape[1])
    for i in range(0, q.shape[0], step):
        q[i:i + step] -= y[i:i + step] @ u


def rref(m):
    """Reduced row echelon form.

    Returns (reduced PrimeMatrix, pivot column list).  Zero rows are kept
    at the bottom; the nonzero rows form a canonical basis of the row
    space, so two matrices have the same row space iff their rrefs agree
    on the nonzero rows.
    """
    a = _working_copy(m.a, m.p)
    pivots = _eliminate(a, m.p, full=True)
    return PrimeMatrix._trusted(a.astype(np.int64, copy=False), m.p), pivots


def rank(m):
    """Rank via forward elimination only (cheaper than full rref)."""
    return len(_eliminate(_working_copy(m.a, m.p), m.p, full=False))


def kernel_basis(m):
    """Basis of the right kernel, as the rows of a PrimeMatrix.

    One basis vector per free column, produced in increasing free-column
    order.  The vector for free column f has entry 1 at position f, 0 at
    the other free columns, and -red[r, f] at the r-th pivot column, where
    red is the rref.  A matrix with no rows has every column free, so its
    kernel basis is the identity.
    """
    return _kernel(m)[0]


def _kernel(m):
    """kernel_basis(m) and its free columns, in increasing order."""
    red, pivots = rref(m)
    free = np.ones(m.cols, dtype=bool)
    free[pivots] = False
    free = free.nonzero()[0]
    basis = np.zeros((free.size, m.cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -red.a[:len(pivots), free].T % m.p
    return PrimeMatrix._trusted(basis, m.p), free


def stack(mats):
    """Vertical concatenation of PrimeMatrix blocks with equal cols."""
    if not mats:
        raise ValueError("nothing to stack")
    p = mats[0].p
    if any(m.p != p for m in mats):
        raise ValueError("modulus mismatch")
    return PrimeMatrix._trusted(np.vstack([m.a for m in mats]), p)

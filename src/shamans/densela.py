"""Dense linear-algebra kernels shared by the solvers.

Matrices are 2-D float64 numpy arrays kept in C (row-major) order, as the
CSV reader and numpy make them, so no input is transposed on its way in.
No function changes its arguments, except carry_inverse, which updates the
inverse stack and slot index it is given in place.

The solvers run a block of B rows in lockstep, each row a few entries
wide, so numpy's cost per row, not the arithmetic, sets a round's time.
Every per-row operation on a (B, k) stack therefore runs along the long
batch axis, as batched BLAS does (Dongarra et al., Procedia Comput. Sci.
2017).  Measured with numpy 2.4.6 on one pinned CPU at B = 2,000, k = 4:

- A reduction over each row is reduce_rows, over the batch axis of a
  contiguous transposed copy: numpy reduces a short last axis row by row,
  at 20-70 ns a row, so x.max(axis=1) takes 100 us against 7.5 us, and
  b.any(axis=1) 50 us against 5.6 us.
- A row gather is a.take(rows, axis=0): a[rows] takes 12.6 us against
  1.6 us.  take copies a strided array whole first, so a view, such as a
  field of a record array, keeps a[rows].
- A boolean compaction takes np.flatnonzero of its mask once, and then
  each array it compacts: a[mask] takes 24.5 us against 6.1 us.  A 1-D
  array compacted alone keeps a[mask], which is as fast.
- One entry per row is read or written through flat indices:
  a[arange(B), j] takes 11.7 us against 5.6 us.

Each form gives the bits of the one it replaces, at up to 1 us more for a
block of one row.  argmax(axis=1), which has no ufunc form, stays, and so
do row assignments a[rows] = v, which flat indices made slower.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteEntry, SingularSystem

# Relative floor under which a pivot means a rank-deficient support
# (carry_inverse, spd_factor), and the relative tolerance of the solvers'
# sign tests (homotopy.PathWalk, nnls.nnls_gram), each against a scale of the
# data in the units of what it tests.
PIVOT_FLOOR = 1e-12
TOL = 1e-10

# The solvers' working set in float64 entries, which sizes every chunk: a
# pass over the data holds one chunk and its one temporary within it, so
# both stay in cache (Goto and van de Geijn, ACM TOMS 2008).  homotopy's
# comment on it says what else it bounds.
BUDGET = 256 * 24 * 24


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Convert to a 2-D float64 row-major array; exponent checks the entries."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={out.ndim}")
    return out


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Convert to a 1-D float64 array; exponent checks the entries."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={out.ndim}")
    return out


def exponent(A: np.ndarray, name: str = "matrix") -> int:
    """The e with max|A| 2^-e in [0.5, 1) (0 for an empty or zero A).  Its
    max and min pass, BUDGET // 2 entries at a time so that the min reads
    cache, is also A's finite check: a NaN or infinite entry raises
    NonFiniteEntry (np.maximum and np.minimum keep a NaN across chunks)."""
    flat, step = A.ravel("K"), BUDGET // 2  # a view of any contiguous A
    top = low = 0.0
    for chunk in (flat[i:i + step] for i in range(0, flat.size, step)):
        top, low = np.maximum(top, chunk.max()), np.minimum(low, chunk.min())
    if not (np.isfinite(top) and np.isfinite(low)):
        raise NonFiniteEntry(f"{name} contains NaN or infinite entries")
    return int(np.frexp(max(top, -low))[1])


def unscale(X: np.ndarray, e: int, name: str) -> np.ndarray:
    """X 2^e for X >= 0, or NonFiniteEntry if that overflows; NaN passes."""
    if np.frexp(np.fmax.reduce(X, axis=None, initial=0.0))[1] + e > 1024:
        raise NonFiniteEntry(f"{name} overflows the float range")
    return np.ldexp(X, e)


def reduce_rows(ufunc, x: np.ndarray, **kwargs) -> np.ndarray:
    """ufunc.reduce(x, axis=-1) of a (B, k) stack, reduced over the batch axis
    of a contiguous transposed copy (module docstring).  The bits are the
    same for a ufunc whose result does not depend on the order of the
    reduction: maximum, minimum, logical_or and logical_and, and add on
    integers and booleans (not add on floats, which numpy sums pairwise
    along a row of 8 or more).  kwargs, such as the initial= a maximum
    needs where k can be 0, pass to ufunc.reduce."""
    return ufunc.reduce(np.ascontiguousarray(x.T), axis=0, **kwargs)


def gram(A: np.ndarray) -> np.ndarray:
    """Gram matrix A.T @ A, symmetrized so S == S.T holds exactly."""
    S = A.T @ A
    return (S + S.T) * 0.5


def spd_factor(S: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix, or of
    each matrix in a stack of shape (B, k, k).

    Raises SingularSystem when a factorization breaks down or any of its
    pivots falls below PIVOT_FLOOR times the largest diagonal entry of its
    matrix, so a rank-deficient support surfaces as an error instead of
    silent regularization.  The exception's ``matrices`` lists the
    positions in the stack of every singular matrix.
    """
    broken = False
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        # One breakdown fails the whole stack: factor one at a time to find it.
        L = np.zeros_like(S)
        broken = np.zeros(S.shape[:-2], dtype=bool)
        for i in np.ndindex(broken.shape):
            try:
                L[i] = np.linalg.cholesky(S[i])
            except np.linalg.LinAlgError:
                broken[i] = True
    # diagonal(L)**2 are the elimination pivots of the unpivoted factorization
    d = np.diagonal(L, axis1=-2, axis2=-1)
    floor = PIVOT_FLOOR * np.diagonal(S, axis1=-2, axis2=-1).max(axis=-1, initial=0.0)
    singular = broken | ((d * d).min(axis=-1, initial=np.inf) < floor)
    if singular.any():
        raise SingularSystem("factorization broke down or a pivot fell below "
                             "the relative floor", matrices=np.flatnonzero(singular))
    return L


def carry_inverse(P: np.ndarray, G: np.ndarray, atoms: np.ndarray, enter: np.ndarray,
                  index: np.ndarray):
    """Move atom index[i] into row i's support when enter[i], else out of it.

    Supports are held in slot coordinates.  Row i of the (B, k) ``atoms``
    names the atom in each of its slots, r in an empty one, and G[i] is
    P(K_i, K_i)^-1 in that slot order, zero in the rows and columns of
    empty slots.  P is the (r + 1, r + 1) Gram matrix with a zero row and
    column appended at index r, so a gather through an empty slot reads 0.
    An entering atom takes the first free slot; a leaving atom frees its
    slot.  G follows by one rank-one update (Osborne, Presnell and Turlach,
    IMA J. Numer. Anal. 2000), j entering or leaving slot t:

        enter:  G + v v^T / s,   v = G p - e_t,  p = P(j, atoms),  s = P_jj - p.G p
        leave:  G - g g^T / g_tt, g = G e_t, then row and column t zeroed

    Returns (G, atoms, sound).  G and atoms are updated in place (atoms
    through flat indices, so it must be C-contiguous, as the solvers' stacks
    are), or replaced by stacks one slot larger when an entering row has no
    free slot.
    sound[i] says whether row i's update holds, by the solvers' one rank
    rule: a leaving row's always does, and an entering row's does when its
    Schur pivot s is at least PIVOT_FLOOR times the largest diagonal entry
    of P on the new support.  A smaller s, or a NaN, means the new support
    is rank deficient and its G is not to be trusted: the walk
    (homotopy.PathWalk) then ends the column's path at its NNLS entry, and
    nnls.nnls_gram bars the atom for the row.
    """
    B, k = atoms.shape
    r = P.shape[0] - 1
    target = np.where(enter, r, index)[:, None]  # an empty slot, or the leaving atom's
    hit = atoms == target
    if not reduce_rows(np.logical_or, hit).all():  # an entering row has no free slot: add one
        wider = np.empty((B, k + 1, k + 1))
        wider[:, :k, :k] = G
        wider[:, k, :] = 0.0
        wider[:, :k, k] = 0.0
        G, k = wider, k + 1
        atoms = np.column_stack((atoms, np.full(B, r)))
        hit = atoms == target
    slot = hit.argmax(axis=1)
    e = np.arange(k) == slot[:, None]
    # A leaving row takes p = e_t, so that u = G e_t is the g of its update.
    # P(j, atoms) and P_jj are read by flat index, which numpy gathers faster.
    p = np.where(enter[:, None], P.take(index[:, None] * (r + 1) + atoms), e)
    u = np.matmul(p[:, None, :], G)[:, 0]  # p.G = G p: G is symmetric
    v = u - (enter[:, None] & e)
    s = np.where(enter, P.take(index * (r + 2)), 0.0) - np.einsum("bi,bi->b", p, u)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1.0 / s
        G += np.einsum("bi,bj->bij", v * w[:, None], v)
    leave = np.flatnonzero(~enter)
    G[leave, slot[leave], :] = 0.0
    G[leave, :, slot[leave]] = 0.0
    atoms.reshape(-1)[np.arange(B) * k + slot] = np.where(enter, index, r)
    sound = ~enter
    if enter.any():  # nnls_gram's drop passes only leave: no floor to take there
        # The new slots' diagonal: index r, an empty slot, reads 0.
        sound |= s >= PIVOT_FLOOR * reduce_rows(np.maximum, np.diagonal(P).take(atoms))
    return G, atoms, sound


def support_solve(P: np.ndarray, G: np.ndarray, atoms: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """Solutions of P(K_i, K_i) x = rhs(K_i) for the (B, c, r + 1) right-hand
    sides of each row i of carry_inverse's stack, as G rhs(K_i) plus one step
    of iterative refinement, which keeps x as accurate as a fresh solve.
    Returns them in full space, (B, c, r + 1), zero off K_i."""
    B, c, n = rhs.shape
    at = atoms[:, None, :] + n * np.arange(B * c).reshape(B, c, 1)  # flat, per slot
    rhs_k = rhs.take(at)  # rhs(K_i) in slot order
    x = np.matmul(rhs_k, G)  # x.G = G x: G is symmetric
    full = np.zeros(rhs.shape)
    full.reshape(-1)[at] = x
    resid = (full.reshape(-1, n) @ P).take(at)
    resid -= rhs_k
    x -= np.matmul(resid, G)
    full.reshape(-1)[at] = x
    return full


def range_split(Q: np.ndarray, B: np.ndarray):
    """Split the columns b of B against range(Q), Q with orthonormal columns.

    Returns Z, whose row j holds the coordinates z = Q.T b of column j,
    and the squared norms ||b - Q z||^2 of the parts outside the range,
    each read from its residual so that no difference of squares cancels.
    The residual Q Z.T - B is formed in B's layout, row-major in
    PathWalk's blocks, and its columns' squares summed.
    """
    Z = B.T @ Q
    perp = Q @ Z.T
    perp -= B
    return Z, np.einsum("ij,ij->j", perp, perp)


def residual_sq(R: np.ndarray, Z: np.ndarray, perp_sq: np.ndarray,
                X: np.ndarray) -> np.ndarray:
    """||A x - b||^2 for each row x of X, given A = QR with Q orthonormal
    and range_split(Q, B) = (Z, perp_sq), rows matched to X's.

    b - Q Q.T b is orthogonal to range(A), so by Pythagoras the error is
    ||b - Q z||^2 + ||z - R x||^2: two sums of squares, O(r^2) per row.
    It holds for any A, rank deficient or with fewer rows than columns.
    """
    D = Z - X @ R.T
    return perp_sq + np.einsum("ij,ij->i", D, D)


def frob_norm(A: np.ndarray, name: str = "matrix") -> float:
    """Square root of the sum of squared entries, summed over A 2^-e
    (exponent), where no square overflows or underflows against the largest."""
    e = exponent(A, name)
    return float(np.ldexp(np.sqrt(np.sum(np.square(np.ldexp(A, -e)))), e))

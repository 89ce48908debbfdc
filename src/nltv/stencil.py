"""Translation-invariant pair stencils on uniform 1D and 2D grids.

On a uniform grid the weight of a cell pair depends only on the offset
between the two cells, so every regularizer here is a list of
``(offset, weight)`` terms:

    R(f) = sum over terms  w * sum over cells i  |f_i - f_{i+o}|^p,

the translation-invariant form of the nonlocal gradient and divergence.

Grid vectors are flattened row-major, so the offset ``o`` of a term is the
flat shift ``k = o . strides`` (``o[0] * n + o[1]`` on an n x n grid). The
term's block of the pair vector holds the contiguous differences
``f[i] - f[i+k]`` for every flat index i with i and i + k on the grid, in
ascending i; the pair vector is the concatenation of the blocks in term
order. In 2D a block also holds pairs that wrap from the end of one row to
another row. They are no pairs of the grid: ``pair_weights`` gives them
weight 0, so ``project`` pins their dual values to 0 and they add nothing to
``value``, ``scatter`` of a projected vector or ``max_degree``. The pairs of
the grid appear in the block in row-major order of their base cell. Every
operator is one contiguous numpy call per term, or one per vector.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

# most elements of one BLAS dot: OpenBLAS runs longer dots on several threads,
# and how it splits them, and so the rounding, follows the thread count
_DOT_BLOCK = 8192


def blocked_dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` of 1D arrays as the left-to-right sum of the BLAS dots of
    blocks of ``_DOT_BLOCK`` elements: the same bits for any thread count."""
    total = 0.0
    for i in range(0, a.size, _DOT_BLOCK):
        total += float(a[i:i + _DOT_BLOCK] @ b[i:i + _DOT_BLOCK])
    return total


# most elements of one chunked array pass, which sizes per_thread scratch: Monte
# Carlo points per integrand call (a power of two, dividing every larger lattice:
# the spline verify at 2e7 samples was slower at 16,384, used more memory at
# 65,536), Spline1D lookups per block, and radial nodes per 2D Gauss pass (all
# theta panels in one: no faster, 56 MB peak against 32, disc scale 4 on 64^2)
CHUNK = 1 << 15


def per_thread(*dtypes):
    """A function of ``size`` giving the calling thread one array of that
    size per dtype: views of arrays made on its first call and grown to the
    largest size it asks for. Each call of ``per_thread`` makes its own
    store, so a callable that runs the oracle itself gets other arrays."""
    store = threading.local()

    def arrays(size: int):
        got = getattr(store, "arrays", None)
        if got is None or got[0].size < size:
            got = store.arrays = [np.empty(size, dtype=dt) for dt in dtypes]
        return [a[:size] for a in got]

    return arrays


class Stencil:
    """A grid shape plus ordered ``(offset, weight)`` terms.

    Vectors on the grid are passed flattened (row-major). ``gather`` maps
    them to the pair vector of differences f_i - f_{i+o}; ``scatter`` is its
    adjoint. ``max_degree`` is the largest number of grid pairs that share
    one cell; it, the block bounds and the pair weights are fixed when the
    stencil is built.
    """

    def __init__(self, shape, terms):
        self.shape = tuple(int(n) for n in shape)
        self.terms = tuple((tuple(int(o) for o in off), float(w)) for off, w in terms)
        self._cells = math.prod(self.shape)
        strides = [math.prod(self.shape[a + 1:]) for a in range(len(self.shape))]
        self._blocks = []
        masks = []
        start = 0
        for off, _ in self.terms:
            if len(off) != len(self.shape):
                raise ValueError(f"offset {off} does not match grid shape {self.shape}")
            k = sum(o * s for o, s in zip(off, strides))
            lo = max(-k, 0)
            m = max(self._cells - abs(k), 0)
            # the cells whose partner at offset o lies on the grid form a box
            fits = np.zeros(self.shape, dtype=bool)
            fits[tuple(slice(max(-o, 0), max(n - max(o, 0), 0))
                       for o, n in zip(off, self.shape))] = True
            masks.append(fits.reshape(-1)[lo:lo + m])
            self._blocks.append((slice(lo, lo + m), slice(lo + k, lo + k + m), start, start + m))
            start += m
        self.size = start
        self._wn = np.zeros(self.size)
        degree = np.zeros(self._cells, dtype=np.intp)
        for (_, w), (base, partner, start, stop), valid in zip(self.terms, self._blocks, masks):
            self._wn[start:stop][valid] = w
            degree[base] += valid
            degree[partner] += valid
        self._wn.flags.writeable = False
        self._neg_wn = -self._wn
        self.max_degree = int(degree.max(initial=0))
        self._fitting = [off for (off, _), valid in zip(self.terms, masks) if valid.any()]

    def gather(self, x: np.ndarray, out=None) -> np.ndarray:
        """Pair differences f_i - f_{i+o} of the flattened vector ``x``,
        written into ``out`` if given."""
        a = np.asarray(x).reshape(self._cells)
        out = np.empty(self.size) if out is None else out
        for base, partner, start, stop in self._blocks:
            np.subtract(a[base], a[partner], out=out[start:stop])
        return out

    def _add_ends(self, q, to_base, to_partner, partner_op):
        # adds q onto the base cells; partner_op(partner cells, q) at the partners
        for base, partner, start, stop in self._blocks:
            qb = q[start:stop]
            to_base[base] += qb
            ends = to_partner[partner]
            partner_op(ends, qb, out=ends)

    def scatter_ends(self, q: np.ndarray) -> tuple:
        """Flattened sums of the pair values ``q`` onto the base cells and
        onto the partner cells, each accumulated over the terms in order.
        They are returned apart because (g + base sums) - partner sums and
        g + (base sums - partner sums) round differently, and the smoothed
        p = 1 problem amplifies that last bit: summed in :meth:`scatter`'s one
        accumulator, the pinned smooth-1d-box minimizer moved by 1.5e-3 (1,427
        -> 1,343 L-BFGS iterations), a box2 case by 6.8e-5, p = 1.5 by 1.3e-12."""
        pos, neg = np.zeros(self._cells), np.zeros(self._cells)
        self._add_ends(q, pos, neg, np.add)
        return pos, neg

    def scatter(self, q: np.ndarray, out=None) -> np.ndarray:
        """Adjoint of :meth:`gather`, summed in one accumulator (``out`` if
        given). On a ``q`` that is 0 on the wrapped pairs, as :meth:`project`
        leaves it, it is the adjoint of the grid's difference operator."""
        if out is None:
            out = np.zeros(self._cells)
        else:
            out.fill(0.0)
        self._add_ends(q, out, out, np.subtract)
        return out

    def project(self, q: np.ndarray) -> np.ndarray:
        """Clip the pair vector ``q`` to [-w, w] per pair in place (wrapped
        pairs to 0); returns ``q``."""
        # not np.clip(q, -w, w, out=q): in place it keeps -0.0 on some
        # lengths where the clip into a new array returns 0.0
        np.maximum(q, self._neg_wn, out=q)
        return np.minimum(q, self._wn, out=q)

    def pair_weights(self) -> np.ndarray:
        """The weight of every entry of the pair vector, 0 on wrapped pairs
        (read-only)."""
        return self._wn

    def value(self, f, p: float, diffs=None) -> float:
        """sum of w |f_i - f_{i+o}|^p over all pairs; ``diffs`` is
        ``gather(f)`` if the caller has it. For p = 1 the power is skipped
        (x ** 1.0 is x exactly)."""
        t = np.abs(self.gather(f) if diffs is None else diffs)
        if p != 1:
            t **= p
        return blocked_dot(t, self._wn)

    @functools.cached_property
    def op_norm_sq(self) -> float:
        """Upper bound L on |K|^2, the largest eigenvalue of K^T K, where K
        maps a grid vector to the differences f_i - f_{i+o} of all grid
        pairs (the rows of :meth:`gather` without the wrapped pairs): the
        smaller of 2 max_degree and the largest value of the stencil symbol
        sum_o 2 (1 - cos w . o) over w in (2 pi / m) Z^d.

        Proof: with m >= n on every axis the grid lies in the torus
        (Z / m)^d and each grid pair (i, i + o) is the torus pair at the
        same offset, so K is a submatrix of the torus difference operator
        K_T and |K| <= |K_T|. K_T^T K_T = sum_o (2 I - S_o - S_-o), with S_o
        the cyclic shift by o, is circulant; its eigenvalues are the symbol
        at the frequencies above. The other bound is Gershgorin's for the
        graph Laplacian K^T K. Here m is n + max |o| per axis over the terms
        that fit a pair, rounded up to even so that w = pi is a frequency:
        the bound of the 1D nearest-neighbour stencil is then 4, and that of
        the closed 2D stencil 12 where 2 max_degree is 16. Computed on first
        use, so stencils that are only evaluated never pay for it."""
        if not self._fitting:
            return 0.0
        reach = np.abs(np.array(self._fitting)).max(axis=0)
        m = [n + r + (n + r) % 2 for n, r in zip(self.shape, reach)]
        # the symbol is even in w, so half of the first axis covers it
        axes = [2.0 * math.pi * np.arange(ma // 2 + 1 if a == 0 else ma) / ma
                for a, ma in enumerate(m)]
        freqs = np.meshgrid(*axes, indexing="ij", sparse=True)
        symbol = 0.0
        for off in self._fitting:
            symbol = symbol + 2.0 * (1.0 - np.cos(sum(w * o for w, o in zip(freqs, off))))
        return min(2.0 * self.max_degree, float(np.max(symbol)))

"""Translation-invariant pair stencils on uniform 1D and 2D grids.

On a uniform grid the weight of a cell pair depends only on the offset
between the two cells, so every regularizer here is a list of
``(offset, weight)`` terms:

    R(f) = sum over terms  w * sum over cells i  |f_i - f_{i+o}|^p,

the translation-invariant form of the nonlocal gradient and divergence. The
pair vector is the concatenation of the per-term difference blocks, in term
order and row-major within a term.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import Kernel


def in_reach(kernel: Kernel, n: int, offset: tuple) -> bool:
    """Whether the kernel reaches any pair of cells at this offset on the
    grid of n cells per axis: in 1D the index distance is at most
    r/h + 1, in 2D the gap between the two cells is below the support
    radius r."""
    h = 1.0 / n
    r = kernel.support_radius
    if len(offset) == 1:
        return abs(offset[0]) <= math.floor(r / h + 1.0 - 1e-12)
    return math.hypot(*(max(abs(o) - 1, 0) * h for o in offset)) < r


def offsets_within_reach(kernel: Kernel, n: int) -> list:
    """Offsets in kernel reach that fit a cell pair on the n-cell (1D) or
    n x n (2D) grid, one per unordered pair direction: ``(d,)`` with d
    ascending in 1D; in 2D ``(dx, dy)`` over the half plane dx > 0, or dx = 0
    and dy > 0, with dx outermost."""
    # no offset beyond floor(r/h) + 1 cells is in reach on either axis
    reach = min(int(math.floor(kernel.support_radius / (1.0 / n))) + 1, n - 1)
    if kernel.dim == 1:
        candidates = [(d,) for d in range(1, reach + 1)]
    else:
        candidates = [(dx, dy) for dx in range(reach + 1)
                      for dy in range(-reach, reach + 1) if dx > 0 or dy > 0]
    return [off for off in candidates if in_reach(kernel, n, off)]


def offset_slices(shape: tuple, offset: tuple) -> tuple:
    """(base, shifted) index tuples: ``a[base]`` holds every cell i whose
    partner i + offset lies on the grid, ``a[shifted]`` the partners."""
    base, shifted = [], []
    for n, o in zip(shape, offset):
        m = max(n - abs(o), 0)
        base.append(slice(max(-o, 0), max(-o, 0) + m))
        shifted.append(slice(max(o, 0), max(o, 0) + m))
    return tuple(base), tuple(shifted)


class Stencil:
    """A grid shape plus ordered ``(offset, weight)`` terms.

    Vectors on the grid are passed flattened (row-major). ``gather`` maps
    them to the pair vector of differences f_i - f_{i+o}; ``scatter`` is its
    adjoint.
    """

    def __init__(self, shape, terms):
        self.shape = tuple(int(n) for n in shape)
        self.terms = tuple((tuple(int(o) for o in off), float(w)) for off, w in terms)
        self._blocks = []
        start = 0
        for off, w in self.terms:
            if len(off) != len(self.shape):
                raise ValueError(f"offset {off} does not match grid shape {self.shape}")
            base, shifted = offset_slices(self.shape, off)
            block = tuple(s.stop - s.start for s in base)
            stop = start + math.prod(block)
            self._blocks.append((base, shifted, block, start, stop, w))
            start = stop
        self.size = start

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Pair differences f_i - f_{i+o} of the flattened vector ``x``."""
        a = np.asarray(x).reshape(self.shape)
        out = np.empty(self.size)
        for base, shifted, block, start, stop, _ in self._blocks:
            np.subtract(a[base], a[shifted], out=out[start:stop].reshape(block))
        return out

    def _add_ends(self, q, to_base, to_partner, partner_op):
        # adds q onto the base cells; partner_op(partner cells, q) at the partners
        for base, shifted, block, start, stop, _ in self._blocks:
            qb = q[start:stop].reshape(block)
            to_base[base] += qb
            ends = to_partner[shifted]
            partner_op(ends, qb, out=ends)

    def scatter_ends(self, q: np.ndarray) -> tuple:
        """Flattened sums of the pair values ``q`` onto the base cells and
        onto the partner cells, each accumulated over the terms in order.
        They are returned apart because (g + base sums) - partner sums and
        g + (base sums - partner sums) round differently."""
        pos, neg = np.zeros(self.shape), np.zeros(self.shape)
        self._add_ends(q, pos, neg, np.add)
        return pos.ravel(), neg.ravel()

    def scatter(self, q: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`gather`, summed in one accumulator."""
        out = np.zeros(self.shape)
        self._add_ends(q, out, out, np.subtract)
        return out.ravel()

    def project(self, q: np.ndarray) -> np.ndarray:
        """Clip each term's block of the pair vector ``q`` to [-w, w] in
        place; returns ``q``."""
        for *_, start, stop, w in self._blocks:
            # not np.clip with scalar bounds: that keeps -0.0 where the
            # array-bound clip returns 0.0
            qb = q[start:stop]
            np.maximum(qb, -w, out=qb)
            np.minimum(qb, w, out=qb)
        return q

    def pair_weights(self) -> np.ndarray:
        """The weight of every entry of the pair vector."""
        return np.concatenate([np.full(stop - start, w)
                               for _, _, _, start, stop, w in self._blocks] or [[]])

    def value(self, f, p: float, diffs=None) -> float:
        """sum of w |f_i - f_{i+o}|^p over all pairs; ``diffs`` is
        ``gather(f)`` if the caller has it. For p = 1 the power is skipped
        (x ** 1.0 is x exactly)."""
        t = np.abs(self.gather(f) if diffs is None else diffs)
        if p != 1:
            t **= p
        for _, _, _, start, stop, w in self._blocks:
            t[start:stop] *= w
        return float(np.sum(t))

    @property
    def max_degree(self) -> int:
        """Largest number of pairs that share one cell."""
        deg = np.zeros(self.shape, dtype=int)
        for base, shifted, *_ in self._blocks:
            deg[base] += 1
            deg[shifted] += 1
        return int(deg.max())

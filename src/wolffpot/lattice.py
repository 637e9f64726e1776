"""Dyadic cube lattices restricted to finite level windows.

A dyadic cube at level ``l`` with integer index ``k`` in the lattice shifted
by ``z`` is the half-open box ``z + prod_i [k_i 2^-l, (k_i+1) 2^-l)``.  Levels
are arbitrary integers, so negative levels give cubes of side larger than one.
Cube coordinates are stored as integers; the shift enters only when a point is
tested for membership, which keeps containment and ancestry exact.

Every dyadic sum of the package runs on a :class:`LevelIndex`: the cubes that
hold a fixed point set, one int64 key per cube and level, with the points'
ancestor chains as integer arrays.  ``(level, index)`` keys enter only at the
input boundary, where a kernel table or a ``lambda`` list becomes a per-cube
array through :meth:`LevelIndex.lookup`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GridAlignmentError, LevelRangeError

Key = tuple[int, tuple[int, ...]]  # (level, index), shift implied by the window


@dataclass(frozen=True)
class LatticeWindow:
    """Finite slab of a (possibly shifted) dyadic lattice over a box of root cubes.

    The root cubes are the ``coarse_level`` cubes with indices
    ``lo[i] <= k_i < lo[i] + ext[i]`` on every side ``i``; the window holds
    each of them and all its descendants down to ``fine_level``.  It is the
    index set of all dyadic sums in this package.  A cube's int64 key is its
    row-major position inside the box at its level; windows whose fine-level
    keys would not fit are rejected.
    """

    coarse_level: int
    fine_level: int
    lo: tuple[int, ...]
    ext: tuple[int, ...]
    shift: tuple[float, ...]

    def __post_init__(self):
        if self.coarse_level > self.fine_level:
            raise LevelRangeError(
                f"coarse_level {self.coarse_level} > fine_level {self.fine_level}"
            )
        if not len(self.lo) == len(self.ext) == len(self.shift):
            raise DimensionMismatchError("lo, ext and shift differ in dimension")
        if not all(e > 0 for e in self.ext):
            raise GridAlignmentError(f"window has no root cubes: ext {self.ext}")
        # fine-level indices must be exact in float64 and keys must fit in int64;
        # Python ints, so a numpy integer bound cannot wrap around in the shift
        ends = [int(b) for l, e in zip(self.lo, self.ext) for b in (l, l + e)]
        if max(abs(b) << self.depth for b in ends) >= 2 ** 53 or math.prod(
            int(e) << self.depth for e in self.ext
        ) >= 2 ** 63:
            raise LevelRangeError(
                f"fine level {self.fine_level} is too deep for int64 cube keys of this window"
            )
        object.__setattr__(self, "_lo", np.array(self.lo, dtype=np.int64))
        object.__setattr__(self, "_ext", np.array(self.ext, dtype=np.int64))

    @classmethod
    def from_box(
        cls,
        box,
        coarse_level: int,
        fine_level: int,
        shift=None,
    ) -> "LatticeWindow":
        """Window whose root region is an axis-aligned box.

        The box must be a union of coarse-level cells of the (shifted)
        lattice; each side is a pair ``(lo, hi)``.
        """
        n = len(box)
        shift = tuple(shift) if shift is not None else (0.0,) * n
        scale = 2.0 ** coarse_level
        lo, ext = [], []
        for d, (a, b) in enumerate(box):
            fa = (a - shift[d]) * scale
            fb = (b - shift[d]) * scale
            ka, kb = round(fa), round(fb)
            if abs(fa - ka) > 1e-9 or abs(fb - kb) > 1e-9 or kb <= ka:
                raise GridAlignmentError(
                    f"box side {d} [{a}, {b}) is not a union of level-{coarse_level} cells"
                )
            lo.append(ka)
            ext.append(kb - ka)
        return cls(coarse_level, fine_level, tuple(lo), tuple(ext), shift)

    # -- basic geometry -----------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.lo)

    @property
    def depth(self) -> int:
        return self.fine_level - self.coarse_level

    @property
    def box(self) -> list[tuple[float, float]]:
        """The root region as one ``(lo, hi)`` pair per side."""
        side = 2.0 ** (-self.coarse_level)
        return [(z + l * side, z + (l + e) * side) for z, l, e in zip(self.shift, self.lo, self.ext)]

    @property
    def n_cubes(self) -> int:
        per_root = sum(2 ** (self.dimension * d) for d in range(self.depth + 1))
        return math.prod(self.ext) * per_root

    def contains(self, points) -> np.ndarray:
        """Root-region membership of each point (a single point or one per row)."""
        return self._leaf(points)[1]

    def chain_keys(self, points) -> np.ndarray:
        """Int64 keys of the cubes on each point's ancestor chain.

        Returns a ``(depth + 1, n_points)`` array, coarse level first; the
        column of a point outside the window is ``-1``.  The fine-level index
        is ``floor((x - z) 2^fine_level)`` and each coarser one is a right
        shift of it, so a cube holds exactly the points whose chain passes it.
        """
        leaf, inside = self._leaf(points)
        out = np.empty((self.depth + 1, len(inside)), dtype=np.int64)
        for j in range(self.depth + 1):
            out[j] = self._ravel(leaf >> (self.depth - j), self.coarse_level + j)
        out[:, ~inside] = -1
        return out

    def _ravel(self, idx, level: int) -> np.ndarray:
        """Keys of level-``level`` cube indices that lie in the root bounding box."""
        d = level - self.coarse_level
        rel = idx - (self._lo << d)
        ext = self._ext << d
        key = rel[:, 0].copy()
        for j in range(1, self.dimension):
            key = key * ext[j] + rel[:, j]
        return key

    def _held(self, idx, level: int) -> np.ndarray:
        """Whether each level-``level`` cube index lies below a root cube."""
        rel = (idx >> (level - self.coarse_level)) - self._lo
        return np.all((rel >= 0) & (rel < self._ext), axis=1)

    def _leaf(self, points):
        """Fine-level indices of the points and their root-region membership."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim < 2:
            pts = pts.reshape(1, -1)
        if pts.shape[1] != self.dimension:
            raise DimensionMismatchError("point dimension does not match window")
        f = np.floor((pts - np.asarray(self.shift, dtype=float)) * 2.0 ** self.fine_level)
        lo = self._lo << self.depth
        ok = np.all((f >= lo) & (f < lo + (self._ext << self.depth)), axis=1)
        leaf = np.where(ok[:, None], f, lo).astype(np.int64)
        return leaf, ok


class LevelIndex:
    """The window cubes holding at least one of a fixed set of points.

    Cube ids run coarse to fine and, within a level, in key order, so the
    cubes of one level form a contiguous id range.  ``rows[j, i]`` is the id
    of point ``i``'s level-``coarse + j`` cube (``-1`` for a point outside the
    window) and ``parent[q]`` the id of cube ``q``'s parent (``-1`` at the
    coarse level).  Per-cube quantities are float arrays indexed by id; an id
    of ``-1`` stands for a cube the index does not hold.

    The points are sorted once, by fine-level key; each coarser level sorts its
    keys at one point per cube below, and that inverse maps child to parent.
    """

    def __init__(self, window: LatticeWindow, positions):
        self.window = window
        self.rows = rows = window.chain_keys(positions)
        inside = rep = np.flatnonzero(rows[-1] >= 0)
        # maps[0] takes an inside point to its fine cube, maps[i] a cube to its parent
        keys, maps = [], []
        for row in rows[::-1]:
            cubes, first, inv = np.unique(row[rep], return_index=True, return_inverse=True)
            rep = rep[first]
            keys.append(cubes)
            maps.append(inv)
        self._keys = keys[::-1]
        self.start = np.cumsum([0] + [len(k) for k in self._keys])
        self.n = int(self.start[-1])
        self._flat = np.concatenate(self._keys)
        self.level = np.repeat(
            np.arange(window.coarse_level, window.fine_level + 1), np.diff(self.start)
        )
        # rows in place over the keys; "wrap" reads the trailing -1 for an id -1
        parent = np.concatenate([np.full(len(self._keys[0]), -1)]
                                + [s + m for s, m in zip(self.start, maps[:0:-1])] + [[-1]])
        rows[-1, inside] = self.start[-2] + maps[0]
        for j in range(len(rows) - 2, -1, -1):
            np.take(parent, rows[j + 1], out=rows[j], mode="wrap")
        self.parent = parent[:-1]

    def gather(self, values, ids) -> np.ndarray:
        """``values[ids]``, with zero where an id is ``-1``."""
        return np.append(values, 0.0)[ids]

    def chain(self, values, ufunc=np.add) -> np.ndarray:
        """Reduce per-cube values down every ancestor chain, coarse to fine.

        ``out[q] = ufunc(out[parent(q)], values[q])``, so with ``np.add`` each
        cube gets the sequential sum of the values on its chain, coarsest first.
        """
        out = np.array(values, dtype=float)
        for j in range(1, len(self.start) - 1):
            s = slice(self.start[j], self.start[j + 1])
            out[s] = ufunc(out[self.parent[s]], out[s])
        return out

    def subtree(self, values, ufunc=np.add) -> np.ndarray:
        """Reduce per-cube values over every subtree, fine to coarse.

        A cube's own value comes first, then its children's results in id order.
        """
        out = np.array(values, dtype=float)
        for j in range(len(self.start) - 2, 0, -1):
            s = slice(self.start[j], self.start[j + 1])
            # a copy: ufunc.at takes a far slower path when its values overlap its target
            ufunc.at(out, self.parent[s], out[s].copy())
        return out

    def locate(self, points) -> np.ndarray:
        """Ids ``(levels, n_points)`` of each point's chain, coarse to fine; ``-1`` where not held."""
        chains = self.window.chain_keys(points)
        ids = np.full(chains.shape, -1, dtype=np.int64)
        for j, keys in enumerate(chains):
            inside = keys >= 0
            ids[j, inside] = self._at_level(j, keys[inside])
        return ids

    def lookup(self, keys) -> np.ndarray:
        """Ids of the cubes with these ``(level, index)`` keys; ``-1`` where not held."""
        n = self.window.dimension
        levels = np.array([k[0] for k in keys], dtype=np.int64)
        idx = np.array([k[1] for k in keys], dtype=np.int64).reshape(len(keys), n)
        ids = np.full(len(keys), -1, dtype=np.int64)
        for j in range(len(self._keys)):
            level = self.window.coarse_level + j
            sel = np.flatnonzero(levels == level)
            sel = sel[self.window._held(idx[sel], level)]
            ids[sel] = self._at_level(j, self.window._ravel(idx[sel], level))
        return ids

    def table_values(self, table: dict) -> np.ndarray:
        """A ``{(level, index): value}`` table as per-cube values by id; 0 where the table has no entry."""
        ids = self.lookup(list(table))
        out = np.zeros(self.n)
        out[ids[ids >= 0]] = np.fromiter(table.values(), float, len(table))[ids >= 0]
        return out

    def indices(self, ids) -> np.ndarray:
        """Lattice indices ``(len(ids), n)`` of the cubes ``ids``, the second part of their keys."""
        w = self.window
        d = (self.level[ids] - w.coarse_level)[:, None]
        ext, rel = w._ext << d, self._flat[ids]
        idx = np.empty((len(ids), w.dimension), dtype=np.int64)
        for j in reversed(range(w.dimension)):
            rel, idx[:, j] = np.divmod(rel, ext[:, j])
        return idx + (w._lo << d)

    def _at_level(self, j: int, keys) -> np.ndarray:
        cubes = self._keys[j]
        pos = np.searchsorted(cubes, keys)
        hit = pos < len(cubes)
        hit[hit] = cubes[pos[hit]] == keys[hit]
        return np.where(hit, self.start[j] + pos, -1)


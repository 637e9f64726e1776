"""Radial kernels, dyadic kernel maps, and cumulative bar-kernels.

Two cumulative objects are built from a kernel and a base measure ``sigma``:

* the dyadic bar-kernel
  ``bar_K(Q)(x) = (1/sigma(Q)) sum_{Q' subset Q} K(Q') sigma(Q') chi_{Q'}(x)``
  (the sum includes ``Q' = Q``), realized by :class:`BarField` through
  root-prefix sums over the level arrays of a :class:`LevelIndex`, and

* the continuous bar-kernel
  ``bar_k(r)(x) = (1/sigma(B(x,r))) int_0^r k(s) sigma(B(x,s)) ds/s``,
  evaluated exactly as a Stieltjes sum over the jump radii of the ball-mass
  step function using the kernel's logarithmic primitive.

Both follow the convention that a quantity divided by a vanishing sigma-mass
is zero, and both may legitimately take the value ``+inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, InvalidKernelError, LevelRangeError, WolffpotError
from .lattice import Key, LatticeWindow, LevelIndex
from .measures import AtomicMeasure, cube_mass_table

#: entries in the widest temporary of one block of any loop whose temporaries grow with its input
BLOCK = 1 << 14
#: ``n`` times the largest log-width of a piece of :func:`quad`; its bound ties it to the order
PIECE_WIDTH = 0.35

# the 8-point Gauss-Legendre rule on [-1, 1]: increasing nodes, their weights
_GL_X = np.array([
    -0.9602898564975363, -0.7966664774136267, -0.525532409916329, -0.1834346424956498,
    0.1834346424956498, 0.525532409916329, 0.7966664774136267, 0.9602898564975363,
])
_GL_W = np.array([
    0.10122853629037626, 0.22238103445337448, 0.31370664587788727, 0.362683783378362,
    0.362683783378362, 0.31370664587788727, 0.22238103445337448, 0.10122853629037626,
])
_UFLOW = np.finfo(float).tiny
# the relative error bound of :func:`quad` for m = 8 nodes and x = PIECE_WIDTH
_QUAD_REL_BOUND = (math.exp(1.0 + 2.0 * PIECE_WIDTH) * PIECE_WIDTH ** 16 * math.factorial(8) ** 4
                   / (17 * math.factorial(16) ** 2))


@dataclass(frozen=True)
class RadialKernel:
    """Nonincreasing radial profile ``k(r) >= 0`` with its log-primitive.

    ``profile(r)`` takes a float or an array of radii inside the cutoff;
    ``primitive(a, b)`` takes equal-length 1-D arrays of segments with
    ``0 < a < b`` (``b`` possibly ``inf``) and returns ``int_a^b k(s) ds/s``
    for each.  ``log_primitive(a, b)`` evaluates ``int_a^b k(s) ds/s`` for
    ``0 <= a <= b <= inf``; it is nonnegative and additive in the interval.
    ``a = 0`` yields ``+inf`` when ``limit_at_zero > 0``, since a
    nonincreasing ``k`` that does not vanish near zero makes ``int_0 k(s) ds/s``
    diverge, and 0 otherwise (such a ``k`` is zero).  ``cutoff`` marks a
    radius beyond which the profile vanishes.
    """

    profile: Callable
    primitive: Callable
    cutoff: float | None = None
    limit_at_zero: float = math.inf
    name: str = "radial"

    def __call__(self, r: float) -> float:
        if r <= 0:
            raise WolffpotError("kernel argument must be positive")
        if self.cutoff is not None and r > self.cutoff:
            return 0.0
        return float(self.profile(r))

    def log_primitive(self, a, b):
        """``int_a^b k(s) ds/s`` per segment, with cutoff clamping (``a=0`` may give
        inf): a float for floats ``a`` and ``b``, an array for equal-length arrays."""
        if np.ndim(a) == 0 and np.ndim(b) == 0:
            return float(self.log_primitive(np.array([a], dtype=float), np.array([b], dtype=float))[0])
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        hi = b if self.cutoff is None else np.minimum(b, self.cutoff)
        inner = (a > 0.0) & (a < hi)
        n_inner = np.count_nonzero(inner)
        if n_inner == a.size:  # every segment is valid and nonempty
            return self.primitive(a, hi)
        bad = (a < 0.0) | (b < a)
        if np.count_nonzero(bad):
            i = np.flatnonzero(bad)[0]
            raise WolffpotError(f"need 0 <= a <= b, got a={a[i]}, b={b[i]}")
        out = np.zeros(a.shape)
        if n_inner:
            out[inner] = self.primitive(a[inner], hi[inner])
        if self.limit_at_zero > 0.0:
            out[(a == 0.0) & (hi > 0.0)] = math.inf
        return out


def _validate_cutoff(cutoff) -> None:
    if cutoff is not None and not cutoff > 0.0:
        raise InvalidKernelError(f"kernel cutoff must be positive, got {cutoff}")


def riesz_kernel(alpha: float, n: int, cutoff: float | None = None) -> RadialKernel:
    """Riesz profile ``k(r) = r^(alpha-n)`` for ``0 < alpha < n``.

    The log-primitive is closed form: ``int_a^b s^(alpha-n-1) ds
    = (a^(alpha-n) - b^(alpha-n)) / (n - alpha)``.
    """
    if not (0.0 < alpha < n):
        raise InvalidKernelError(f"need 0 < alpha < n, got alpha={alpha}, n={n}")
    _validate_cutoff(cutoff)
    e = alpha - n

    # ``**`` rather than np.power: a float radius keeps libm's pow, so per-level
    # dyadic kernel values match the scalar formula bit for bit
    def prof(r):
        return r ** e

    def prim(a, b):
        # e < 0, so b = inf contributes inf^e = 0
        return (a ** e - b ** e) / (n - alpha)

    return RadialKernel(prof, prim, cutoff=cutoff, name="riesz")


def blocks(count: int, width: int):
    """Consecutive slices of ``range(count)``, each of at most ``max(1, BLOCK // width)`` rows.

    ``width`` is the number of entries per row of the block's widest
    temporary, counting the dimension axis where a temporary has one.
    """
    step = max(1, BLOCK // max(width, 1))
    return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))


def quad(f, a, b, n):
    """``int_a^b f(s) ds/s`` on segments ``0 < a_i < b_i``, by one a-priori rule.

    The 8-point (``m = 8``) Gauss-Legendre rule runs in ``t = ln s`` on
    ``ceil(n H / PIECE_WIDTH)`` equal pieces of each segment, ``H = ln(b_i/a_i)``,
    so a piece's log-width is ``h <= PIECE_WIDTH / n``.  For the log kernel,
    ``g(t) = k(e^t) = e^(-nt) (ln C - t)^(-beta)`` with ``ln C - t >= beta/n`` and
    ``beta >= 1`` give ``|g^(k)| <= e k! n^k g`` and ``max g / min g <= e^(2nh)``
    on a piece, so the Gauss-Legendre error term bounds a piece's relative
    error by ``e^(1+2x) x^(2m) (m!)^4 / ((2m+1) ((2m)!)^2)``, ``x = nh <= 0.35``:
    below 1e-16, before any evaluation.  Pieces go in :func:`blocks` of 8 nodes a
    row, each segment adding its own in order, so a value depends only on its
    own segment.  Returns the values and that bound times the largest value.
    """
    log_a = np.log(a)
    with np.errstate(over="ignore"):
        width = np.log1p((b - a) / a)  # not log(b) - log(a): it cancels on narrow segments
    width = np.where(np.isinf(width), np.log(b) - log_a, width)  # where b / a overflows
    count = np.maximum(np.ceil(width * (n / PIECE_WIDTH)), 1.0).astype(np.int64)
    step = width / count
    ends = np.cumsum(count)
    total = int(ends[-1]) if a.size else 0
    out = np.zeros(a.size)
    for piece in blocks(total, _GL_X.size):
        p = np.arange(piece.start, piece.stop)
        seg = np.searchsorted(ends, p, side="right")
        j = p - (ends[seg] - count[seg])
        # a piece ends where the next begins, a segment's first at a and last at b
        lo = np.where(j == 0, a[seg], np.exp(log_a[seg] + j * step[seg]))
        hi = np.where(j + 1 == count[seg], b[seg], np.exp(log_a[seg] + (j + 1) * step[seg]))
        half = 0.5 * np.log1p((hi - lo) / lo)
        fv = f(lo[:, None] * np.exp(half[:, None] * (1.0 + _GL_X)))
        value = sum(w * fv[:, i] for i, w in enumerate(_GL_W))  # in order, not a BLAS mat-vec
        np.add.at(out, seg, value * half)
    return out, _QUAD_REL_BOUND * out.max(initial=0.0)


def log_kernel(beta: float, C: float, n: int) -> RadialKernel:
    """Borderline profile ``k(r) = 1 / (r^n ln^beta(C/r))`` on ``0 < r <= 1``.

    Vanishes for ``r > 1``.  The parameters alone decide monotonicity:
    ``d/dr ln k = (beta / ln(C/r) - n) / r``, which is at most 0 wherever
    ``ln(C/r) >= beta/n``, so ``C >= e^(beta/n)`` makes ``k`` nonincreasing
    on ``(0, 1]``.  The test's relative slack of 1e-12 lets ``k`` rise only on
    ``[1 - 1e-12, 1]``, and by a relative ``n^2 1e-24 / (2 beta)`` or so.
    The log-primitive has no elementary closed form: one :func:`quad` call on
    all segments, whose Gauss-Legendre rule has an a-priori error bound.
    """
    if not 1.0 < beta < math.inf:  # NaN too
        raise InvalidKernelError(f"need finite beta > 1, got {beta}")
    # in logarithms, so a large beta / n cannot overflow e^(beta/n)
    if not (0.0 < C < math.inf and math.log(C) >= beta / n + math.log1p(-1e-12)):
        raise InvalidKernelError(f"need finite C >= e^(beta/n) = e^{beta / n:.6g} for monotonicity, got {C}")

    # numpy ufuncs throughout, so a float and an array element evaluate alike
    def prof(r):
        return 1.0 / (np.power(r, n) * np.power(np.log(C / r), beta))

    def prim(a, b):
        low = a.min(initial=1.0)
        # k(s)/s is largest at the smallest start: near overflow there, or with
        # s^n subnormal, the rule's sums overflow or lose digits
        if not (low ** n >= _UFLOW and prof(low) < 1e300 * low):
            raise WolffpotError(f"log-primitive on [{low}, {b[np.argmin(a)]}] is out of floating-point range")
        return quad(prof, a, b, n)[0]

    return RadialKernel(prof, prim, cutoff=1.0, name="log")


def constant_kernel(value: float = 1.0, cutoff: float | None = None) -> RadialKernel:
    """Constant profile; mostly useful as the simplest test kernel."""
    if not 0.0 <= value < math.inf:  # NaN too
        raise InvalidKernelError(f"constant kernel value must be finite and nonnegative, got {value}")
    _validate_cutoff(cutoff)

    def prim(a, b):
        if value == 0.0:
            return np.zeros(a.shape)
        return value * np.log(b / a)  # b = inf gives inf

    return RadialKernel(
        lambda r: np.full(np.shape(r), value),
        prim,
        cutoff=cutoff,
        limit_at_zero=value,
        name="constant",
    )


class DyadicKernelMap:
    """Per-cube kernel ``K(Q) >= 0``: a radial profile at the cube's side, or a table.

    A radial map (:meth:`from_radial`) depends on the level alone; a table
    map (:meth:`from_table`) holds ``{(level, index): value}`` and gives 0 to
    the cubes it has no entry for.
    """

    def __init__(self, radial: RadialKernel | None = None, table: dict | None = None):
        self.radial = radial
        self.table = table
        self.name = "table" if radial is None else f"radial:{radial.name}"

    @classmethod
    def from_radial(cls, kernel: RadialKernel) -> "DyadicKernelMap":
        return cls(radial=kernel)

    @classmethod
    def from_table(cls, table: dict) -> "DyadicKernelMap":
        norm: dict[Key, float] = {}
        for (level, idx), v in table.items():
            if not v >= 0:  # NaN too; +inf is a legal K(Q)
                raise InvalidKernelError(f"K(Q) must be >= 0, got {v} at {(level, idx)}")
            norm[(level, tuple(idx))] = float(v)
        return cls(table=norm)

    def __call__(self, key: Key) -> float:
        level, idx = key
        if self.radial is not None:
            return self.radial(2.0 ** (-level))
        return self.table.get((level, tuple(idx)), 0.0)

    def on_cubes(self, index: LevelIndex) -> np.ndarray:
        """``K`` at every cube of ``index``, by cube id.

        A radial map is evaluated once per level, a table through one
        :meth:`LevelIndex.table_values`.
        """
        if self.radial is None:
            return index.table_values(self.table)
        sizes = np.diff(index.start)
        # a radial map reads only the key's level
        levels = index.level[index.start[:-1][sizes > 0]].tolist()
        per_level = [self((level, ())) for level in levels]
        return np.repeat(np.array(per_level, dtype=float), sizes[sizes > 0])


def weigh(k, m) -> np.ndarray:
    """``k * m`` where ``m > 0`` and zero elsewhere: the convention ``0 * inf = 0``.

    A 1-D ``k`` against a ``(cubes, probes)`` ``m`` is one value per row."""
    k = np.reshape(k, np.shape(k) + (1,) * (np.ndim(m) - np.ndim(k)))
    return np.multiply(k, m, out=np.zeros(np.shape(m)), where=m > 0.0)


def weighted_sum(weights, values):
    """``sum_i w_i v_i`` over the entries with ``w_i > 0``, added in order; a float, or
    one sum per column of a 2-D ``values``.

    Entries of zero weight are left out, so ``0 * inf = 0``.
    """
    pos = weights > 0.0
    terms = np.reshape(weights[pos], (-1,) + (1,) * (np.ndim(values) - 1)) * values[pos]
    total = np.cumsum(terms, axis=0)[-1] if len(terms) else np.zeros(terms.shape[1:])
    return float(total) if terms.ndim == 1 else total


def per_mass(v, m) -> np.ndarray:
    """``v / m`` where ``m > 0`` and zero elsewhere: over a vanishing mass a quantity is zero.

    A 1-D ``m`` against a ``(cubes, probes)`` ``v`` is one mass per row."""
    m = np.reshape(m, np.shape(m) + (1,) * (np.ndim(v) - np.ndim(m)))
    return np.divide(v, m, out=np.zeros(np.broadcast_shapes(np.shape(v), np.shape(m))), where=m > 0.0)


class BarField:
    """Chain prefixes answering ``bar_K(Q)(x)`` for a kernel and base measure.

    The cube weights ``D(Q) = K(Q) sigma(Q)`` and their root prefixes
    ``P(Q) = sum over window ancestors Q'' of Q (inclusive) of D(Q'')`` are
    arrays over the cubes of a :class:`LevelIndex` holding sigma's atoms
    (by default one of its own), ``P`` built coarse to fine one level at a
    time.  For ``x in Q`` and ``sigma(Q) > 0`` the chain-sum identity reads

        ``bar_K(Q)(x) = (P(leaf(x)) - P(parent(Q))) / sigma(Q)``

    where ``leaf(x)`` is the deepest cube of the index containing ``x``
    (cubes the index does not hold carry no weight).
    """

    def __init__(self, K: DyadicKernelMap, sigma: AtomicMeasure, window: LatticeWindow,
                 index: LevelIndex | None = None):
        self.window = window
        self.index = LevelIndex(window, sigma.positions) if index is None else index
        self.mass = cube_mass_table(sigma, self.index)
        self.k = K.on_cubes(self.index)
        self.weight = weigh(self.k, self.mass)
        self._prefix = self.index.chain(self.weight)

    def prefix(self, ids) -> np.ndarray:
        """``P`` at cube ids of the index; zero for id ``-1`` (above the window)."""
        return self.index.gather(self._prefix, ids)

    def bar(self, xs, levels) -> np.ndarray:
        """``bar_K(Q)(x)`` for each point ``x`` (one per row) and the cube ``Q`` of
        its level (one per point, or one for all) that holds it.

        Zero for a point outside the window and where ``sigma(Q) = 0``.  Each
        value sums the chain segment of ``x`` from ``Q`` down, in order:
        numerically this equals ``P(leaf) - P(parent(Q))`` but avoids the
        cancellation of differencing two large prefixes.
        """
        ids = self.index.locate(xs)
        window = self.window
        levels = np.asarray(levels, dtype=np.int64)
        if np.any((levels < window.coarse_level) | (levels > window.fine_level)):
            raise LevelRangeError(
                f"levels must lie in [{window.coarse_level}, {window.fine_level}]"
            )
        rows = levels - window.coarse_level
        # the cubes above Q (and those the index does not hold) add exact zeros
        below = np.arange(len(ids))[:, None] >= rows
        segment = np.cumsum(np.where(below, self.index.gather(self.weight, ids), 0.0), axis=0)
        mass = self.index.gather(self.mass, ids[rows, np.arange(ids.shape[1])])
        return per_mass(segment[-1], mass)


def radial_sums(kernel: RadialKernel, dists, cum, r):
    """``int_0^t k(s) sigma(B(x,s)) ds/s`` along each row of a radial profile.

    ``dists`` and ``cum`` are the rows of an :meth:`AtomicMeasure.radial_profile`
    over balls ``B(x, r)``, ``r`` of shape ``(b, 1)``.  A segment runs from
    each distinct distance below ``r`` to the next distance, or to ``r``, and
    its mass is the ball mass at its start; none starts at a tied distance,
    at ``r`` or in the padding.  Returns ``(start, sums)``: whether entry
    ``j`` starts a segment, and the integral up to the end of the last
    segment so far, the terms added in distance order.  Only segments with
    mass get a log-primitive (``0 * inf = 0``).
    """
    mass = cum[:, 1:]
    ends = np.minimum(np.append(dists[:, 1:], r, axis=1), r)
    start = dists < ends
    live = start & (mass > 0.0)
    terms = np.zeros(dists.shape)
    terms[live] = kernel.log_primitive(dists[live], ends[live]) * mass[live]
    return start, np.cumsum(terms, axis=1)


def bar_k(kernel: RadialKernel, sigma: AtomicMeasure, xs, rs):
    """Continuous bar-kernel ``bar_k(r)(x)`` of each ball ``B(x, r)``, evaluated exactly.

    ``xs`` holds the centres ``(b, n)`` and ``rs`` the radii ``(b,)``; the
    result is an array of ``b`` values, and one centre with one float radius
    gives a float.  The integral is the :func:`radial_sums` of the ball.  A
    ball gets 0 when it carries no mass (or all of it sits at distance
    exactly ``r``) and ``+inf`` when an atom sits exactly at ``x`` (the
    integral diverges at the origin for every kernel not identically zero).
    The balls go in :func:`blocks` of sigma's atoms times the dimension a
    row, each with one :meth:`AtomicMeasure.radial_profile` and one
    ``log_primitive`` call.
    """
    if np.ndim(rs) == 0:
        return float(bar_k(kernel, sigma, [xs], [rs])[0])
    rs = np.asarray(rs, dtype=float)
    if np.any(rs <= 0):
        raise WolffpotError(f"radius must be positive, got {rs[rs <= 0][0]}")
    xs = np.asarray(xs, dtype=float).reshape(rs.size, sigma.dimension)
    out = np.zeros(rs.size)
    for rows in blocks(rs.size, sigma.n_atoms * sigma.dimension):
        r = rs[rows, None]
        dists, cum = sigma.radial_profile(xs[rows], r)
        if not dists.size:
            continue  # no atom in any of these balls
        out[rows] = per_mass(radial_sums(kernel, dists, cum, r)[1][:, -1], cum[:, -1])
    return out


def dlbo_constant(bf: BarField) -> float:
    """Oscillation constant ``A = max_Q sup_Q bar_K(Q) / inf_Q bar_K(Q)``.

    ``bar_K(Q)(.)`` is piecewise constant on finest-level cells, so the
    supremum and infimum over ``Q`` are exact maxima and minima of the leaf
    prefixes ``P(leaf)`` over the leaves of ``Q``; only cubes with
    ``sigma(Q) > 0`` enter.  Returns ``inf`` when some admissible cube has a
    vanishing infimum (possible when ``K`` vanishes on whole chains).
    """
    index, window = bf.index, bf.window
    live = bf.mass > 0.0
    if not live.any():
        raise DegenerateInputError("sigma gives no window cube positive mass")
    p = bf.prefix(np.arange(index.n))
    # A leaf the index does not hold has the prefix of its deepest held
    # ancestor, so the leaf prefixes below Q are those of Q's fine-level
    # descendants and of its descendants with a child the index lacks.
    # Cubes held for other atoms carry no sigma mass and add nothing to P.
    kids = np.bincount(index.parent[index.parent >= 0], minlength=index.n)
    leafy = (index.level == window.fine_level) | (kids < 2 ** window.dimension)
    lo = index.subtree(np.where(leafy, p, np.inf), np.minimum)
    hi = index.subtree(np.where(leafy, p, -np.inf), np.maximum)
    above = bf.prefix(index.parent)
    with np.errstate(invalid="ignore", divide="ignore"):
        inf_val, sup_val = lo[live] - above[live], hi[live] - above[live]
        ratio = np.where(inf_val <= 0.0, np.inf, sup_val / inf_val)
    # A ratio an infinite K leaves undefined (inf - inf, inf / inf) is skipped.
    return float(np.fmax.reduce(ratio, initial=1.0))

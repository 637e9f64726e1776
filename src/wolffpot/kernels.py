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

#: points per decade used by the construction-time monotonicity scan
MONOTONICITY_POINTS_PER_DECADE = 512
#: relative tolerance of the adaptive quadrature behind non-closed-form primitives
PRIMITIVE_REL_TOL = 1e-10
#: segments per block of the array Gauss-Kronrod step (bounds its temporaries)
PRIMITIVE_BLOCK = 1024
#: ball-atom pairs per chunk of the batched bar-kernel (bounds its temporaries)
BALL_BLOCK = 1 << 13

# The 21-point Gauss-Kronrod rule of QUADPACK's dqk21 (Piessens et al. 1983):
# Kronrod abscissae (the odd indices 1, 3, ..., 9 are the 10-point Gauss
# nodes; the last one is the centre), Kronrod weights, and the Gauss weights
# of those nodes in the same order.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208643474262, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


def _qk21_first_step(f, a, b, epsrel: float):
    """QUADPACK's dqk21 on each segment ``[a_i, b_i]``, ``a_i < b_i``, at once.

    ``f`` maps an array of abscissae to integrand values.  The nodes, the
    summation order and the error estimate are dqk21's, so ``result`` is the
    value QAGS (``scipy.integrate.quad`` on a finite interval) computes in its
    first step.  QAGS returns that value unchanged when ``abserr <= epsrel
    |result|`` and ``abserr != resasc``; ``accepted`` marks the segments that
    pass this test with a factor-2 margin on both sides, so rounding in the
    error formula cannot flip it.  The other segments need QAGS's bisection.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)  # positive: dqk21's |hlgth| is hlgth here
    absc = hlgth[:, None] * _XGK[:10]
    fv1 = f(centr[:, None] - absc)
    fv2 = f(centr[:, None] + absc)
    fc = f(centr)
    resg = np.zeros(a.shape)
    resk = _WGK[10] * fc
    resabs = np.abs(resk)
    # the Gauss nodes first, then the Kronrod-only nodes, as dqk21 adds them
    for j in (*range(1, 10, 2), *range(0, 10, 2)):
        fsum = fv1[:, j] + fv2[:, j]
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (np.abs(fv1[:, j]) + np.abs(fv2[:, j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * np.abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (np.abs(fv1[:, j] - reskh) + np.abs(fv2[:, j] - reskh))
    result = resk * hlgth
    resabs = resabs * hlgth
    resasc = resasc * hlgth
    abserr = np.abs((resk - resg) * hlgth)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, np.power(200.0 * abserr / resasc, 1.5))
    abserr = np.where((resasc != 0.0) & (abserr != 0.0), scaled, abserr)
    abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                      np.maximum(50.0 * _EPMACH * resabs, abserr), abserr)
    accepted = (abserr <= 0.5 * epsrel * np.abs(result)) & (abserr < 0.5 * resasc)
    return result, accepted


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
        """``int_a^b k(s) ds/s`` per segment, with cutoff clamping; ``a=0`` may give inf.

        ``a`` and ``b`` are floats (the result is a float) or equal-length
        1-D arrays of segment ends (the result is an array of that length).
        """
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


def _validate_nonincreasing(kernel: RadialKernel, r_lo: float, r_hi: float) -> None:
    decades = max(1.0, math.log10(r_hi / r_lo))
    n = int(decades * MONOTONICITY_POINTS_PER_DECADE) + 1
    rs = np.logspace(math.log10(r_lo), math.log10(r_hi), n)
    if kernel.cutoff is not None:
        rs = rs[rs <= kernel.cutoff]  # the profile vanishes beyond: no increase there
    vals = kernel.profile(rs)
    bad = np.nonzero(np.diff(vals) > 1e-12 * np.maximum(vals[:-1], 1.0))[0]
    if bad.size:
        r = rs[bad[0]]
        raise InvalidKernelError(
            f"kernel {kernel.name} increases near r={r:.6g}: "
            f"k({rs[bad[0]]:.6g})={vals[bad[0]]:.6g} < k({rs[bad[0]+1]:.6g})={vals[bad[0]+1]:.6g}"
        )


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


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on the first call: the import takes
    longer than most runs, and only log-kernel fallback segments need it."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def log_kernel(beta: float, C: float, n: int) -> RadialKernel:
    """Borderline profile ``k(r) = 1 / (r^n ln^beta(C/r))`` on ``0 < r <= 1``.

    Vanishes for ``r > 1``.  Monotonicity forces ``C >= e^(beta/n)``; the
    constructor rejects smaller ``C`` and re-validates on a log-spaced grid.
    The log-primitive has no elementary closed form.  It is QUADPACK's QAGS
    at relative tolerance ``PRIMITIVE_REL_TOL``: one array 21-point step on
    all segments (blocks of ``PRIMITIVE_BLOCK``), which is QAGS's own value
    wherever its first-step test passes, and ``scipy.integrate.quad`` on each
    segment where it does not.
    """
    if beta <= 1.0:
        raise InvalidKernelError(f"need beta > 1, got {beta}")
    if C < math.exp(beta / n) * (1.0 - 1e-12):
        raise InvalidKernelError(
            f"need C >= e^(beta/n) = {math.exp(beta / n):.6g} for monotonicity, got {C}"
        )

    # numpy ufuncs throughout, so a float and an array element evaluate alike
    # and the array quadrature step sees the integrand quad sees
    def prof(r):
        return 1.0 / (np.power(r, n) * np.power(np.log(C / r), beta))

    def integrand(s):
        return prof(s) / s

    def prim(a, b):
        out = np.empty(a.shape)
        for lo in range(0, a.size, PRIMITIVE_BLOCK):
            blk = slice(lo, lo + PRIMITIVE_BLOCK)
            out[blk], accepted = _qk21_first_step(integrand, a[blk], b[blk], PRIMITIVE_REL_TOL)
            for i in lo + np.flatnonzero(~accepted):
                out[i], _ = quad(integrand, float(a[i]), float(b[i]), epsabs=0.0,
                                 epsrel=PRIMITIVE_REL_TOL, limit=200)
        return out

    kern = RadialKernel(prof, prim, cutoff=1.0, name="log")
    _validate_nonincreasing(kern, 2.0 ** -30, 1.0)
    return kern


def constant_kernel(value: float = 1.0, cutoff: float | None = None) -> RadialKernel:
    """Constant profile; mostly useful as the simplest test kernel."""
    if value < 0:
        raise InvalidKernelError("constant kernel value must be nonnegative")
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
            if v < 0:
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
    """``k * m`` where ``m > 0`` and zero elsewhere: the convention ``0 * inf = 0``."""
    out = np.zeros(np.shape(m))
    pos = m > 0.0
    out[pos] = k[pos] * m[pos]
    return out


def weighted_sum(weights, values) -> float:
    """``sum_i w_i v_i`` over the entries with ``w_i > 0``, added in order.

    Entries of zero weight are left out, so ``0 * inf = 0``.
    """
    pos = weights > 0.0
    terms = weights[pos] * values[pos]
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def per_mass(v, m) -> np.ndarray:
    """``v / m`` where ``m > 0`` and zero elsewhere: over a vanishing mass a quantity is zero."""
    out = np.zeros(np.shape(m))
    pos = m > 0.0
    out[pos] = v[pos] / m[pos]
    return out


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
    The balls go in chunks of at most ``BALL_BLOCK`` ball-atom pairs, each
    with one :meth:`AtomicMeasure.radial_profile` and one ``log_primitive`` call.
    """
    if np.ndim(rs) == 0:
        return float(bar_k(kernel, sigma, [xs], [rs])[0])
    rs = np.asarray(rs, dtype=float)
    if np.any(rs <= 0):
        raise WolffpotError(f"radius must be positive, got {rs[rs <= 0][0]}")
    xs = np.asarray(xs, dtype=float).reshape(rs.size, sigma.dimension)
    out = np.zeros(rs.size)
    step = max(1, BALL_BLOCK // max(sigma.n_atoms, 1))
    for lo in range(0, rs.size, step):
        r = rs[lo:lo + step, None]
        dists, cum = sigma.radial_profile(xs[lo:lo + step], r)
        if not dists.size:
            continue  # no atom in any of these balls
        out[lo:lo + step] = per_mass(radial_sums(kernel, dists, cum, r)[1][:, -1], cum[:, -1])
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

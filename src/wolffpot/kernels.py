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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import DegenerateInputError, InvalidKernelError, WolffpotError
from .lattice import DyadicCube, Key, LatticeWindow, LevelIndex
from .measures import AtomicMeasure, cube_mass_table, profile_mass

#: points per decade used by the construction-time monotonicity scan
MONOTONICITY_POINTS_PER_DECADE = 512
#: relative tolerance of the adaptive quadrature behind non-closed-form primitives
PRIMITIVE_REL_TOL = 1e-10


@dataclass(frozen=True)
class RadialKernel:
    """Nonincreasing radial profile ``k(r) >= 0`` with its log-primitive.

    ``log_primitive(a, b)`` evaluates ``int_a^b k(s) ds/s`` for
    ``0 <= a <= b <= inf``; it is nonnegative and additive in the interval.
    ``a = 0`` yields ``+inf`` whenever the kernel does not vanish near zero,
    since a nonincreasing positive ``k`` always makes ``int_0 k(s) ds/s``
    diverge.  ``cutoff`` marks a radius beyond which the profile vanishes.
    """

    profile: Callable[[float], float]
    primitive: Callable[[float, float], float]
    cutoff: float | None = None
    limit_at_zero: float = math.inf
    name: str = "radial"
    params: dict = field(default_factory=dict)

    def __call__(self, r: float) -> float:
        if r <= 0:
            raise WolffpotError("kernel argument must be positive")
        if self.cutoff is not None and r > self.cutoff:
            return 0.0
        return self.profile(r)

    def log_primitive(self, a: float, b: float) -> float:
        """``int_a^b k(s) ds/s`` with cutoff clamping; ``a=0`` may give inf."""
        if a < 0 or b < a:
            raise WolffpotError(f"need 0 <= a <= b, got a={a}, b={b}")
        if self.cutoff is not None:
            b = min(b, self.cutoff)
            if a >= b:
                return 0.0
        if a == b:
            return 0.0
        if a == 0.0:
            # nonincreasing positive kernels are never integrable against ds/s at 0
            probe = b if math.isfinite(b) else 1.0
            return math.inf if self(probe / 2) > 0 or self(probe) > 0 else 0.0
        return self.primitive(a, b)


def _validate_nonincreasing(kernel: RadialKernel, r_lo: float, r_hi: float) -> None:
    decades = max(1.0, math.log10(r_hi / r_lo))
    n = int(decades * MONOTONICITY_POINTS_PER_DECADE) + 1
    rs = np.logspace(math.log10(r_lo), math.log10(r_hi), n)
    vals = np.array([kernel(float(r)) for r in rs])
    bad = np.nonzero(np.diff(vals) > 1e-12 * np.maximum(vals[:-1], 1.0))[0]
    if bad.size:
        r = rs[bad[0]]
        raise InvalidKernelError(
            f"kernel {kernel.name} increases near r={r:.6g}: "
            f"k({rs[bad[0]]:.6g})={vals[bad[0]]:.6g} < k({rs[bad[0]+1]:.6g})={vals[bad[0]+1]:.6g}"
        )


def riesz_kernel(alpha: float, n: int, cutoff: float | None = None) -> RadialKernel:
    """Riesz profile ``k(r) = r^(alpha-n)`` for ``0 < alpha < n``.

    The log-primitive is closed form: ``int_a^b s^(alpha-n-1) ds
    = (a^(alpha-n) - b^(alpha-n)) / (n - alpha)``.
    """
    if not (0.0 < alpha < n):
        raise InvalidKernelError(f"need 0 < alpha < n, got alpha={alpha}, n={n}")
    e = alpha - n

    def prof(r: float) -> float:
        return r ** e

    def prim(a: float, b: float) -> float:
        hi = 0.0 if math.isinf(b) else b ** e
        return (a ** e - hi) / (n - alpha)

    return RadialKernel(
        prof, prim, cutoff=cutoff, name="riesz", params={"alpha": alpha, "n": n}
    )


def log_kernel(beta: float, C: float, n: int) -> RadialKernel:
    """Borderline profile ``k(r) = 1 / (r^n ln^beta(C/r))`` on ``0 < r <= 1``.

    Vanishes for ``r > 1``.  Monotonicity forces ``C >= e^(beta/n)``; the
    constructor rejects smaller ``C`` and re-validates on a log-spaced grid.
    The log-primitive has no elementary closed form and is computed by
    adaptive quadrature at relative tolerance ``PRIMITIVE_REL_TOL``.
    """
    if beta <= 1.0:
        raise InvalidKernelError(f"need beta > 1, got {beta}")
    if C < math.exp(beta / n) * (1.0 - 1e-12):
        raise InvalidKernelError(
            f"need C >= e^(beta/n) = {math.exp(beta / n):.6g} for monotonicity, got {C}"
        )

    def prof(r: float) -> float:
        return 1.0 / (r ** n * math.log(C / r) ** beta)

    def prim(a: float, b: float) -> float:
        val, _ = quad(
            lambda s: prof(s) / s, a, b, epsabs=0.0, epsrel=PRIMITIVE_REL_TOL, limit=200
        )
        return val

    kern = RadialKernel(
        prof, prim, cutoff=1.0, name="log", params={"beta": beta, "C": C, "n": n}
    )
    _validate_nonincreasing(kern, 2.0 ** -30, 1.0)
    return kern


def constant_kernel(value: float = 1.0, cutoff: float | None = None) -> RadialKernel:
    """Constant profile; mostly useful as the simplest test kernel."""
    if value < 0:
        raise InvalidKernelError("constant kernel value must be nonnegative")

    def prim(a: float, b: float) -> float:
        if value == 0.0:
            return 0.0
        return math.inf if math.isinf(b) else value * math.log(b / a)

    return RadialKernel(
        lambda r: value,
        prim,
        cutoff=cutoff,
        limit_at_zero=value,
        name="constant",
        params={"value": value},
    )


class DyadicKernelMap:
    """Per-cube kernel ``K(Q) >= 0``, radial-derived or an explicit table."""

    def __init__(self, fn: Callable[[Key], float], radial: RadialKernel | None = None,
                 name: str = "table"):
        self._fn = fn
        self.radial = radial
        self.name = name
        # Set only by the constructors whose K depends on the level alone.
        self._per_level = False

    @classmethod
    def from_radial(cls, kernel: RadialKernel) -> "DyadicKernelMap":
        def fn(key: Key) -> float:
            return kernel(2.0 ** (-key[0]))

        out = cls(fn, radial=kernel, name=f"radial:{kernel.name}")
        out._per_level = True
        return out

    @classmethod
    def from_table(cls, table: dict, default: float = 0.0) -> "DyadicKernelMap":
        norm: dict[Key, float] = {}
        for k, v in table.items():
            key = k.key if isinstance(k, DyadicCube) else (k[0], tuple(k[1]))
            if v < 0:
                raise InvalidKernelError(f"K(Q) must be >= 0, got {v} at {key}")
            norm[key] = float(v)
        return cls(lambda key: norm.get(key, default), name="table")

    @classmethod
    def constant(cls, value: float = 1.0) -> "DyadicKernelMap":
        if value < 0:
            raise InvalidKernelError("constant kernel value must be nonnegative")
        out = cls(lambda key: value, radial=constant_kernel(value), name="constant")
        out._per_level = True
        return out

    def __call__(self, cube_or_key) -> float:
        key = cube_or_key.key if isinstance(cube_or_key, DyadicCube) else cube_or_key
        return self._fn(key)

    def on_cubes(self, index: LevelIndex) -> np.ndarray:
        """``K`` at every cube of ``index``, by cube id.

        A map from :meth:`from_radial` or :meth:`constant` depends on the
        level only and is evaluated once per level; any other map is
        evaluated once per cube.
        """
        if not self._per_level:
            return np.array([self(key) for key in index.keys()], dtype=float)
        sizes = np.diff(index.start)
        per_level = [self(key) for key in index.keys(index.start[:-1][sizes > 0])]
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

    def bar(self, cube: DyadicCube, x) -> float:
        """``bar_K(Q)(x)``; zero when ``x`` is outside ``Q`` or ``sigma(Q) = 0``."""
        if not cube.contains(x):
            return 0.0
        m = float(self.index.gather(self.mass, self.index.lookup([cube.key]))[0])
        if m <= 0.0:
            return 0.0
        # Sum the chain segment of x from the cube's level down: numerically
        # this equals P(leaf) - P(parent(Q)) but avoids the cancellation of
        # differencing two large prefixes.
        chain = self.index.locate(x)[cube.level - self.window.coarse_level:, 0]
        return float(np.cumsum(self.weight[chain[chain >= 0]])[-1]) / m


class BarFieldNaive:
    """Brute-force oracle for :class:`BarField` (direct double sum)."""

    def __init__(self, K: DyadicKernelMap, sigma: AtomicMeasure, window: LatticeWindow):
        self.K = K
        self.sigma = sigma
        self.window = window

    def bar(self, cube: DyadicCube, x) -> float:
        m = self.sigma.cube_mass(cube)
        if m <= 0.0 or not cube.contains(x):
            return 0.0
        total = 0.0
        for key in self.window.descendant_keys(cube.key):
            sub = self.window.cube(*key)
            # 0 * inf = 0: a massless subcube adds nothing, whatever K says
            if sub.contains(x) and (sub_mass := self.sigma.cube_mass(sub)) > 0.0:
                total += self.K(key) * sub_mass
        return total / m


def bar_k(kernel: RadialKernel, sigma: AtomicMeasure, x, r: float) -> float:
    """Continuous bar-kernel ``bar_k(r)(x)``, evaluated exactly.

    ``s -> sigma(B(x,s))`` is a right-continuous step function with jumps at
    the atom distances, so the integral is a finite sum of cumulative masses
    times log-primitive increments, one per segment between consecutive atom
    distances below ``r``.  Returns 0 when the ball carries no mass (or all of
    it sits at distance exactly ``r``) and ``+inf`` when an atom sits exactly
    at ``x`` (the integral then diverges at the origin for every kernel that
    is not identically zero).
    """
    if r <= 0:
        raise WolffpotError(f"radius must be positive, got {r}")
    dists, cums = sigma.radial_profile(x)
    den = float(profile_mass((dists, cums), r))
    if den <= 0.0:
        return 0.0
    starts = dists[dists < r]
    ends = np.append(starts[1:], r)  # zip stops at starts: no segment if no atom is below r
    seg = np.array([kernel.log_primitive(float(a), float(b)) for a, b in zip(starts, ends)])
    return weighted_sum(cums[:starts.size], seg) / den


def dlbo_constant(K: DyadicKernelMap, sigma: AtomicMeasure, window: LatticeWindow) -> float:
    """Oscillation constant ``A = max_Q sup_Q bar_K(Q) / inf_Q bar_K(Q)``.

    ``bar_K(Q)(.)`` is piecewise constant on finest-level cells, so the
    supremum and infimum over ``Q`` are exact maxima and minima of the leaf
    prefixes ``P(leaf)`` over the leaves of ``Q``; only cubes with
    ``sigma(Q) > 0`` enter.  Returns ``inf`` when some admissible cube has a
    vanishing infimum (possible when ``K`` vanishes on whole chains).
    """
    bf = BarField(K, sigma, window)
    index = bf.index
    if not index.n:
        raise DegenerateInputError("sigma gives no window cube positive mass")
    p = bf.prefix(np.arange(index.n))
    # A leaf the index does not hold has the prefix of its deepest held
    # ancestor, so the leaf prefixes below Q are those of Q's fine-level
    # descendants and of its descendants with a child the index lacks.
    kids = np.bincount(index.parent[index.parent >= 0], minlength=index.n)
    leafy = (index.level == window.fine_level) | (kids < 2 ** window.dimension)
    lo = index.subtree(np.where(leafy, p, np.inf), np.minimum)
    hi = index.subtree(np.where(leafy, p, -np.inf), np.maximum)
    above = bf.prefix(index.parent)
    live = bf.mass > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        inf_val, sup_val = lo[live] - above[live], hi[live] - above[live]
        ratio = np.where(inf_val <= 0.0, np.inf, sup_val / inf_val)
    # A ratio an infinite K leaves undefined (inf - inf, inf / inf) is skipped.
    return float(np.fmax.reduce(ratio, initial=1.0))


def lbo_constant(kernel: RadialKernel, sigma: AtomicMeasure, samples) -> float:
    """Empirical oscillation of ``bar_k(r)(.)`` over sampled balls.

    ``samples`` is an iterable of ``(x, r, ys)`` with ``ys`` points of
    ``B(x, r)``; each ball contributes ``sup_y bar_k(r)(y) / inf_y``.  Balls
    with no sigma-mass, and sample points whose own balls are massless, are
    skipped.
    """
    worst = None
    for x, r, ys in samples:
        if sigma.ball_mass(x, r) <= 0.0:
            continue
        vals = [bar_k(kernel, sigma, y, r) for y in ys]
        vals = [v for v in vals if v > 0.0]
        if not vals:
            continue
        ratio = max(vals) / min(vals)
        if worst is None or ratio > worst:
            worst = ratio
    if worst is None:
        raise DegenerateInputError("all sampled balls are degenerate")
    return worst

"""Brute-force reference implementations that the tests compare the package against.

Most oracles compute their quantity the direct way, one cube or one ball at
a time, with none of the array machinery of the code under test.  The
single-cube surface they share lives here too: :class:`DyadicCube`, the
window enumerations (``window_keys``, ``window_cubes``, ``level_keys``,
``descendant_keys``), ``cube_at``, ``index_keys``, ``cube_mass`` and
``translated``; the package itself keeps one representation of the dyadic
tree, the id arrays of a :class:`LevelIndex`.  ``bar_per_cube`` is the
earlier one-cube form of :meth:`BarField.bar`, and ``wolff_continuous_per_point``
the earlier one-point form of ``wolff_continuous``, with a segment grid of
its own.  The two level-array oracles
keep earlier array forms that sum in another order: cube masses from every
level's ids at once, and ``Wbar`` from each point's gathered chain.
``subtree_loop`` reduces subtrees one cube at a time, and
``counterexample_series_summed`` is the earlier scalar series, ``np.sum`` over
every term up to ``L``.  The 1-D shifted-lattice oracle is the earlier form of the range sampler, which sweeps
every shift in draw order and searches all the atoms at each level.
``random_instance`` builds the seeded instances of the tests, and
``empty_measure`` and ``scaled`` the zero measure and a multiple of a measure.
``bernoulli_cascade_weights`` is the earlier atom-by-atom loop of
``bernoulli_cascade``.

``trace_constant_q1_per_probe`` and ``trace_upper_sup_per_probe`` are the
earlier probe-by-probe forms of the two trace checks: each probe draws its own
numbers and runs its own table and chain pass.

``m_k_maximal_per_point`` is the earlier one-point form of ``m_k_maximal``,
which merges the sigma and mu distances with ``np.unique``.  The functions
no command, demo or check reaches live here too, with the tests that use
them: ``lbo_constant``, ``hl_maximal_dyadic``,
``summation_by_parts_min_slack`` and ``exponents_from_p_prime``.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.integrate import quad

from wolffpot import (
    AtomicMeasure,
    DyadicKernelMap,
    Exponents,
    LatticeWindow,
    LevelIndex,
    RadialKernel,
    bar_k,
    riesz_kernel,
)
from wolffpot.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    LevelRangeError,
    OutOfWindowError,
    WolffpotError,
)
from wolffpot.kernels import BarField, per_mass, weigh, weighted_sum
from wolffpot.lattice import Key
from wolffpot.measures import profile_mass


# -- the single-cube surface ---------------------------------------------------------


@dataclass(frozen=True)
class DyadicCube:
    """Half-open dyadic cube ``z + prod_i [k_i 2^-level, (k_i+1) 2^-level)``."""

    level: int
    index: tuple[int, ...]
    shift: tuple[float, ...]

    def __post_init__(self):
        if len(self.index) != len(self.shift):
            raise DimensionMismatchError(
                f"index has dimension {len(self.index)}, shift {len(self.shift)}"
            )

    @property
    def dimension(self) -> int:
        return len(self.index)

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def key(self) -> Key:
        return (self.level, self.index)

    def lower(self) -> tuple[float, ...]:
        s = self.side
        return tuple(z + k * s for z, k in zip(self.shift, self.index))

    def upper(self) -> tuple[float, ...]:
        s = self.side
        return tuple(z + (k + 1) * s for z, k in zip(self.shift, self.index))

    def center(self) -> tuple[float, ...]:
        s = self.side
        return tuple(z + (k + 0.5) * s for z, k in zip(self.shift, self.index))

    def contains(self, point) -> bool:
        # Same floor arithmetic as cube_at, so membership and lookup agree
        # bit for bit on the half-open boundaries.
        scale = 2.0 ** self.level
        return all(
            math.floor((x - z) * scale) == k
            for x, z, k in zip(point, self.shift, self.index)
        )

    def parent(self) -> "DyadicCube":
        return DyadicCube(self.level - 1, tuple(k >> 1 for k in self.index), self.shift)

    def children(self) -> list["DyadicCube"]:
        base = tuple(2 * k for k in self.index)
        return [
            DyadicCube(self.level + 1, tuple(b + o for b, o in zip(base, off)), self.shift)
            for off in product((0, 1), repeat=self.dimension)
        ]


def window_cube(window: LatticeWindow, level: int, index: tuple[int, ...]) -> DyadicCube:
    return DyadicCube(level, tuple(index), window.shift)


def cube_at(window: LatticeWindow, point, level: int) -> DyadicCube:
    """Unique cube of the given level containing the point."""
    if not (window.coarse_level <= level <= window.fine_level):
        raise LevelRangeError(
            f"level {level} outside [{window.coarse_level}, {window.fine_level}]"
        )
    if not window.contains(point)[0]:
        raise OutOfWindowError(f"point {tuple(point)} outside root region")
    scale = 2.0 ** level
    return window_cube(window, level,
                       tuple(math.floor((x - z) * scale) for x, z in zip(point, window.shift)))


def level_keys(window: LatticeWindow, level: int) -> list[Key]:
    if not (window.coarse_level <= level <= window.fine_level):
        raise LevelRangeError(f"level {level} outside window")
    d = level - window.coarse_level
    # the product of the box's ranges runs in key order
    return [(level, idx) for idx in product(*(range(l << d, (l + e) << d)
                                              for l, e in zip(window.lo, window.ext)))]


def window_keys(window: LatticeWindow):
    for level in range(window.coarse_level, window.fine_level + 1):
        yield from level_keys(window, level)


def window_cubes(window: LatticeWindow):
    """Deterministic enumeration, coarse to fine and lexicographic per level."""
    for level, idx in window_keys(window):
        yield window_cube(window, level, idx)


def descendant_keys(window: LatticeWindow, key: Key):
    """All window keys of cubes contained in ``key`` (including itself)."""
    level, idx = key
    for lvl in range(level, window.fine_level + 1):
        d = lvl - level
        base = tuple(k << d for k in idx)
        for off in product(range(2 ** d), repeat=window.dimension):
            yield (lvl, tuple(b + o for b, o in zip(base, off)))


def index_keys(index: LevelIndex, ids=None) -> list[Key]:
    """``(level, index)`` keys of the cubes ``ids`` (default: every cube, by id)."""
    ids = np.arange(index.n) if ids is None else np.asarray(ids, dtype=np.int64)
    idx = index.indices(ids)
    return [(int(l), tuple(row)) for l, row in zip(index.level[ids].tolist(), idx.tolist())]


def translated(measure: AtomicMeasure, t) -> AtomicMeasure:
    return AtomicMeasure(measure.positions + np.asarray(t, dtype=float), measure.weights)


def cube_mass(measure: AtomicMeasure, cube: DyadicCube) -> float:
    """Total weight of atoms inside the half-open cube (exact)."""
    if cube.dimension != measure.dimension:
        raise DimensionMismatchError(
            f"cube dimension {cube.dimension} != measure dimension {measure.dimension}"
        )
    if measure.n_atoms == 0:
        return 0.0
    scale = 2.0 ** cube.level
    shifted = (measure.positions - np.asarray(cube.shift)) * scale
    inside = np.all(np.floor(shifted) == np.asarray(cube.index), axis=1)
    return float(np.sum(measure.weights[inside]))


# -- bar-kernels -----------------------------------------------------------------------


def bar_per_cube(bf: BarField, cube: DyadicCube, x) -> float:
    """``bar_K(Q)(x)`` of one cube; zero when ``x`` is outside ``Q`` or ``sigma(Q) = 0``."""
    if not cube.contains(x):
        return 0.0
    m = float(bf.index.gather(bf.mass, bf.index.lookup([cube.key]))[0])
    if m <= 0.0:
        return 0.0
    # Sum the chain segment of x from the cube's level down: numerically
    # this equals P(leaf) - P(parent(Q)) but avoids the cancellation of
    # differencing two large prefixes.
    chain = bf.index.locate(x)[cube.level - bf.window.coarse_level:, 0]
    return float(np.cumsum(bf.weight[chain[chain >= 0]])[-1]) / m


class BarFieldNaive:
    """Brute-force oracle for :class:`BarField` (direct double sum)."""

    def __init__(self, K: DyadicKernelMap, sigma: AtomicMeasure, window: LatticeWindow):
        self.K = K
        self.sigma = sigma
        self.window = window

    def bar(self, cube: DyadicCube, x) -> float:
        m = cube_mass(self.sigma, cube)
        if m <= 0.0 or not cube.contains(x):
            return 0.0
        total = 0.0
        for key in descendant_keys(self.window, cube.key):
            sub = window_cube(self.window, *key)
            # 0 * inf = 0: a massless subcube adds nothing, whatever K says
            if sub.contains(x) and (sub_mass := cube_mass(self.sigma, sub)) > 0.0:
                total += self.K(key) * sub_mass
        return total / m


def radial_profile_of_one(sigma: AtomicMeasure, center):
    """Sorted distinct distances from ``center`` and the closed-ball masses at them,
    after a leading zero for the empty ball."""
    if sigma.n_atoms == 0:
        return np.zeros(0), np.zeros(1)
    d = np.linalg.norm(sigma.positions - np.asarray(center, dtype=float), axis=1)
    order = np.argsort(d, kind="stable")
    d = d[order]
    w = sigma.weights[order]
    dists, start = np.unique(d, return_index=True)
    cum = np.cumsum(w)
    ends = np.append(start[1:], len(w)) - 1
    return dists, np.append(0.0, cum[ends])


def bar_k_per_ball(kernel: RadialKernel, sigma: AtomicMeasure, x, r: float) -> float:
    """``bar_k(r)(x)`` of one ball: a sum over the segments between its distinct atom distances."""
    if r <= 0:
        raise WolffpotError(f"radius must be positive, got {r}")
    dists, cums = radial_profile_of_one(sigma, x)
    den = float(cums[np.searchsorted(dists, r, side="right")])
    if den <= 0.0:
        return 0.0
    starts = dists[:np.searchsorted(dists, r)]  # the sorted distances below r
    seg = kernel.log_primitive(starts, np.concatenate((starts[1:], [r]))[:starts.size])
    return weighted_sum(cums[1:starts.size + 1], seg) / den


def log_primitive_by_pieces(kernel: RadialKernel, a: float, b: float) -> float:
    """``int_a^b k(s) ds/s``, ``0 < a < b``, as scipy's ``quad`` summed over
    geometric pieces of end ratio at most 1.25, each at ``epsrel=1e-13``."""
    count = max(1, math.ceil((math.log(b) - math.log(a)) / math.log(1.25)))
    edges = np.geomspace(a, b, count + 1)
    edges[0], edges[-1] = a, b
    return math.fsum(quad(lambda s: kernel.profile(s) / s, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()))


def lbo_constant(kernel: RadialKernel, sigma: AtomicMeasure, samples) -> float:
    """Empirical oscillation of ``bar_k(r)(.)`` over sampled balls.

    ``samples`` is an iterable of ``(x, r, ys)`` with ``ys`` points of
    ``B(x, r)``; each ball contributes ``sup_y bar_k(r)(y) / inf_y``.  Balls
    with no sigma-mass, and sample points whose own balls are massless, are
    skipped.
    """
    balls = [(np.asarray(ys, dtype=float).reshape(-1, sigma.dimension), r)
             for x, r, ys in samples if sigma.ball_mass(x, r) > 0.0]
    if not balls:
        raise DegenerateInputError("all sampled balls are degenerate")
    # one bar_k call over every sample point, each with its ball's radius
    vals = bar_k(kernel, sigma, np.concatenate([ys for ys, _ in balls]),
                 np.concatenate([np.full(len(ys), r) for ys, r in balls]))
    pos = [v[v > 0.0] for v in np.split(vals, np.cumsum([len(ys) for ys, _ in balls])[:-1])]
    ratios = [float(v.max() / v.min()) for v in pos if v.size]
    if not ratios:
        raise DegenerateInputError("all sampled balls are degenerate")
    return max(ratios)


def m_k_maximal_per_point(kernel: RadialKernel, sigma: AtomicMeasure, mu: AtomicMeasure, x) -> float:
    """``M_k(x)`` at one point over the distinct sigma and mu distances merged by ``np.unique``:
    the earlier one-point form of ``m_k_maximal``, its sup taken over ``weigh(bar, mu-mass)``."""
    if not (sigma.n_atoms and mu.n_atoms):
        return 0.0
    x = np.asarray(x, dtype=float)
    sigma_prof = sigma.radial_profile(x)
    mu_prof = mu.radial_profile(x)
    radii = np.unique(np.concatenate([sigma_prof[0], mu_prof[0]]))
    den = profile_mass(sigma_prof, radii)
    ends = np.append(radii[1:], math.inf)
    # the numerator grows only where the ball already holds sigma-mass
    held = den > 0.0
    L = np.zeros(radii.size)
    L[held] = kernel.log_primitive(radii[held], ends[held])
    num = np.cumsum(weigh(L, den))  # bar-kernel numerator at each segment's right end
    return float(np.max(weigh(per_mass(num, den), profile_mass(mu_prof, radii)), initial=0.0))


def wolff_continuous_per_point(kernel: RadialKernel, sigma: AtomicMeasure, mu: AtomicMeasure,
                               exps, x, R: float = math.inf) -> float:
    """``W_k^R(x)`` at one point by its own segment grid: the earlier form of
    :func:`wolff_continuous`, which sorts sigma around every mu-atom within
    reach of this point and sweeps all its segments at once."""
    if R <= 0:
        raise WolffpotError(f"truncation radius must be positive, got {R}")
    pp = exps.p_prime
    x = np.asarray(x, dtype=float)
    upper = R if kernel.cutoff is None else min(R, kernel.cutoff)
    mu_dist = np.linalg.norm(mu.positions - x, axis=1)
    track = (mu_dist <= upper) & (mu.weights > 0.0)
    if not track.any():
        return 0.0
    around_x = sigma.radial_profile(x)
    around_mu = [sigma.radial_profile(b) for b in mu.positions[track]]

    ends = np.unique(np.concatenate(
        [around_x[0], mu_dist[track], *(d for d, _ in around_mu), [upper]]))
    ends = ends[(ends > 0.0) & (ends <= upper)]
    if not ends.size:
        return 0.0
    starts = np.append(0.0, ends[:-1])
    L = kernel.log_primitive(starts, ends)

    A = np.zeros(starts.size)
    B = np.zeros(starts.size)
    for d, w, prof in zip(mu_dist[track], mu.weights[track], around_mu):
        M = profile_mass(prof, starts)
        N = np.append(0.0, np.cumsum(weigh(L, M))[:-1])
        active = d <= starts
        A += np.where(active, per_mass(w * N, M), 0.0)
        B += np.where(active & (M > 0.0), w, 0.0)
    S = profile_mass(around_x, starts)
    live = (L > 0.0) & (S > 0.0) & (B > 0.0)
    A, B, L, S = A[live], B[live], L[live], S[live]
    if np.any(np.isinf(A) | np.isinf(L)):
        return math.inf
    terms = S * (np.power(A + B * L, pp) - np.power(A, pp)) / (pp * B)
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


# -- dyadic functionals the package does not reach ---------------------------------------


def exponents_from_p_prime(p_prime: float, q: float | None = None) -> Exponents:
    """The :class:`Exponents` whose dual exponent is ``p'``."""
    if not (p_prime > 1.0):
        raise WolffpotError(f"need p' > 1, got {p_prime}")
    return Exponents(p_prime / (p_prime - 1.0), q)


def hl_maximal_dyadic(scene, x):
    """Dyadic Hardy-Littlewood maximal function ``sup_{x in Q} mu(Q)/sigma(Q)`` of the scene."""
    if not scene.index.window.contains(x).all():
        raise OutOfWindowError(f"a point of {np.asarray(x).tolist()} lies outside the window")
    # the largest sigma mass on a chain is its root cube's, zero when the root is not held
    if np.any(scene.chain_values(scene.sigma_mass, x, np.maximum) <= 0.0):
        raise DegenerateInputError("chain of x carries no sigma mass")
    return scene.chain_values(per_mass(scene.mu_mass, scene.sigma_mass), x, np.maximum)


def summation_by_parts_min_slack(scene, lam, points, s: float) -> float:
    """Minimum relative slack of the chain-telescoping power inequality.

    ``lam`` holds a weight per cube of ``scene.index``.  For each point ``x``
    with chain weights ``c_l`` (coarse to fine) the inequality reads
    ``(sum c)^s <= s * sum_l c_l (suffix_l)^{s-1}`` with ``suffix_l`` the sum
    of the chain weights at levels ``>= l``.  Returns the minimum of
    ``(rhs - lhs)/max(lhs, tiny)`` over the points: the scene's sigma or mu,
    or query points.
    """
    if s < 1.0:
        raise WolffpotError("need s >= 1")
    if isinstance(points, AtomicMeasure):
        points = points.positions
    points = np.asarray(points, dtype=float).reshape(len(points), scene.index.window.dimension)
    c = scene.index.gather(lam, scene.index.locate(points))  # (levels, points), coarse to fine
    if not c.shape[1]:
        return math.inf
    suffix = np.cumsum(c[::-1], axis=0)[::-1]
    lhs = np.power(np.cumsum(c, axis=0)[-1], s)
    rhs = s * np.cumsum(c * suffix ** (s - 1.0), axis=0)[-1]
    return float(np.min((rhs - lhs) / np.maximum(lhs, 1e-300)))


def cube_mass_table_all_levels(measure: AtomicMeasure, index, weights=None):
    """Cube masses from one ``np.bincount`` over the atoms' located ids at every level.

    Every cube adds its own atoms' weights in atom order.
    """
    rows = index.locate(measure.positions)
    held = rows[0] >= 0
    w = (measure.weights if weights is None else np.asarray(weights, dtype=float))[held]
    return np.bincount(
        rows[:, held].ravel(),
        np.broadcast_to(w, (rows.shape[0], w.size)).ravel(),
        minlength=index.n,
    ).astype(float, copy=False)


def subtree_loop(index, values, ufunc=np.add) -> np.ndarray:
    """Subtree reduction one cube at a time, fine level first, ids ascending.

    A cube's own value comes first, then its children's results in id order.
    """
    out = [float(v) for v in values]
    for j in range(len(index.start) - 2, 0, -1):
        for q in range(index.start[j], index.start[j + 1]):
            up = index.parent[q]
            out[up] = float(ufunc(out[up], out[q]))
    return np.array(out, dtype=float)


def wolff_bar_gathered(scene, x, p_prime: float) -> np.ndarray:
    """``Wbar`` at each point from its gathered chain, one term per cube.

    ``sigma(Q) bar_K(Q)(x) = P(leaf(x)) - P(parent Q)`` with ``P`` the chain
    prefix of ``D = K sigma``; a term is zero where ``I(Q)^{p'-1}`` is.
    """
    chains = scene.index.locate(x.positions if isinstance(x, AtomicMeasure) else x)
    power = scene.index.gather(scene._inner_power(p_prime), chains)
    prefix = np.cumsum(scene.index.gather(scene.bar.weight, chains), axis=0)
    above = np.vstack([np.zeros((1, prefix.shape[1])), prefix[:-1]])
    return np.cumsum(weigh(prefix[-1] - above, power), axis=0)[-1]


# -- the trace probes --------------------------------------------------------------------


def trace_constant_q1_per_probe(scene, exps: Exponents, probes: int, seed: int):
    """:func:`trace_constant_q1` one probe at a time: its own draws, table and chain pass.

    Returns ``(dual_constant, achieved_ratio, probe_max, pairing_gap)``.
    """
    sigma, mu = scene.sigma, scene.mu
    tvals = scene.t_mu(sigma)
    e = weighted_sum(sigma.weights, np.power(tvals, exps.p_prime))
    if math.isinf(e):
        raise DegenerateInputError("energy is infinite; trace inequality fails")
    pp, p, sw = exps.p_prime, exps.p, sigma.weights

    def ratio_operator(fvals) -> float:
        num = weighted_sum(mu.weights, scene.t(scene.reweighted(sigma, sw * fvals), mu))
        den = float(np.sum(sw * fvals ** p)) ** (1.0 / p)
        return num / den if den > 0 else math.nan

    achieved = ratio_operator(tvals ** (pp - 1.0))
    probe_max = gap = 0.0
    rng = np.random.default_rng(seed)
    for t in range(probes):
        f = 2.0 ** rng.uniform(-8, 8, sigma.n_atoms)
        f[rng.uniform(size=sigma.n_atoms) < 0.2] = 0.0
        den = float(np.sum(sw * f ** p)) ** (1.0 / p)
        if den <= 0:
            continue
        num = float(np.sum(sw * f * tvals))  # pairing identity
        probe_max = max(probe_max, num / den)
        if t < 8:
            gap = max(gap, abs(ratio_operator(f) - num / den) / max(num / den, 1e-300))
    return e ** (1.0 / pp), achieved, probe_max, gap


def trace_upper_sup_per_probe(scene, exps: Exponents, trials: int, seed: int) -> float:
    """The probe supremum of :func:`trace_test_upper_triangle`, one probe at a time."""
    q, p, pp = exps.q, exps.p, exps.p_prime
    qp = q / (q - 1.0)
    sigma, mu = scene.sigma, scene.mu
    rng = np.random.default_rng(seed)
    sup_ratio = 0.0
    for _ in range(trials):
        f = 2.0 ** rng.uniform(-8, 8, sigma.n_atoms)
        f[rng.uniform(size=sigma.n_atoms) < 0.2] = 0.0
        den = float(np.sum(sigma.weights * f ** p)) ** (1.0 / p)
        if den <= 0:
            continue
        tf = scene.t(scene.reweighted(sigma, sigma.weights * f), mu)
        num = weighted_sum(mu.weights, tf ** q) ** (1.0 / q)
        sup_ratio = max(sup_ratio, num / den)
    for _ in range(trials):
        psi = 2.0 ** rng.uniform(-8, 8, mu.n_atoms)
        ratio = per_mass(scene.reweighted(mu, mu.weights * psi), scene.mu_mass)
        best = scene.chain_values(ratio, mu, np.maximum)
        g = np.where(mu.weights > 0, best, 0.0) ** (1.0 / pp)
        den = float(np.sum(mu.weights * g ** qp)) ** (1.0 / qp)
        if den <= 0:
            continue
        tg = scene.t(scene.reweighted(mu, mu.weights * g), sigma)
        num = weighted_sum(sigma.weights, tg ** pp) ** (1.0 / pp)
        sup_ratio = max(sup_ratio, num / den)
    return sup_ratio


# -- the borderline series --------------------------------------------------------------


def log_power_terms(beta: float, C: float, L: int):
    """The terms ``ln(C 2^l)^{-beta}`` and ``ln(C 2^l)^{-(2 beta - 2)}`` for ``l = 0..L``."""
    logs = math.log(C) + np.arange(L + 1, dtype=float) * math.log(2.0)
    return logs ** -beta, logs ** -(2.0 * beta - 2.0)


def counterexample_series_summed(beta: float, C: float, n: int, L: int) -> tuple[float, float]:
    """Both partial sums of the borderline series by ``np.sum`` over all ``L + 1`` terms."""
    energy, wbar = log_power_terms(beta, C, L)
    return float(np.sum(energy)), float(np.sum(wbar))


# -- the 1-D shifted-lattice sampler ----------------------------------------------------


def first_at_least(padded, z, thr):
    """Per shift, the first index of the sorted atoms with ``fl(p - z) >= thr``.

    ``padded`` is the sorted atoms between ``-inf`` and ``+inf``.  As
    ``fl(p - z)`` is monotone in ``p``, the atoms that pass form a suffix.  The
    ``searchsorted`` guess from ``thr + z`` is checked against the atoms on
    either side of it; where it is off, a bisection over the indices on the
    wrong side finds the start.  The bisection does not step one atom at a
    time, because many atoms can share one ``fl(p - z)`` (repeated atoms, or
    atoms that a large ``|z|`` absorbs).
    """
    c = np.searchsorted(padded[1:-1], thr + z)
    late = padded[c] - z >= thr  # the atom before the guess passes
    early = padded[c + 1] - z < thr  # the atom at the guess fails
    bad = np.flatnonzero(late | early)
    if bad.size:
        zb, tb = z[bad], thr[bad]
        lo = np.where(early[bad], c[bad] + 1, 0)
        hi = np.where(early[bad], padded.size - 2, c[bad] - 1)
        while np.any(open_ := lo < hi):
            mid = (lo + hi) // 2
            up = padded[mid + 1] - zb >= tb
            hi = np.where(open_ & up, mid, hi)
            lo = np.where(open_ & ~up, mid + 1, lo)
        c[bad] = lo
    return c


def ranges_1d(pos, w, x: float, zs, l_min: int, kvals, by_z=None):
    """1-D ``T`` per shift from the runs of sorted atoms in ``x``'s cubes.

    ``fl(p - z)`` is monotone in ``p``, so the atoms of ``x``'s level-``l``
    cube ``[k 2^-l, (k + 1) 2^-l)`` are the sorted atoms from the first with
    ``fl(p - z) >= k 2^-l`` (an exact scaling of ``floor(fl(p - z) 2^l) >= k``)
    to the first with ``fl(p - z)`` at the upper bound.  Where ``k + 1`` is not
    a float (``|k| >= 2^53``) the upper bound is ``nextafter(k, +inf) 2^-l``.
    Each finer cube is one half of its parent, so it shares one bound with it
    and a shift costs ``levels + 1`` searches.  The cube always holds ``x``,
    whose insertion index ``ix`` lies in its run, so its mass is read from
    cumulative sums running outward from ``ix``: a sum of the cube's own
    weights, never a difference of large sums.  The shifts are swept in draw
    order, so ``by_z``, their sort order, is not read.
    """
    order = np.argsort(pos, kind="stable")
    p, w = pos[order], w[order]
    padded = np.concatenate(([-np.inf], p, [np.inf]))
    ix = int(np.searchsorted(p, x))
    left = np.concatenate(([0.0], np.cumsum(w[:ix][::-1])))
    right = np.concatenate(([0.0], np.cumsum(w[ix:])))
    z = zs[:, 0]
    dx = x - z
    out = np.zeros(z.size)
    lo = hi = parent_lower = None
    for i in range(kvals.size):
        level = l_min + i
        k = np.floor(dx * 2.0 ** level)
        lower = k * 2.0 ** -level
        upper = np.maximum(k + 1.0, np.nextafter(k, np.inf)) * 2.0 ** -level
        if lo is None:
            lo, hi = first_at_least(padded, z, lower), first_at_least(padded, z, upper)
        else:
            # the cube keeps its parent's lower bound, or else its upper one
            kept = lower == parent_lower
            new = first_at_least(padded, z, np.where(kept, upper, lower))
            lo, hi = np.where(kept, lo, new), np.where(kept, new, hi)
        parent_lower = lower
        out += kvals[i] * (left[ix - lo] + right[hi - ix])
    return out


def bernoulli_cascade_weights(gamma: float, depth: int) -> np.ndarray:
    """The cascade's atom weights one atom at a time, its 1-bits counted by ``bin``."""
    theta = 2.0 ** (-gamma)
    weights = np.empty(1 << depth)
    for j in range(weights.size):
        ones = bin(j).count("1")  # 1-bits choose the light child
        weights[j] = theta ** (depth - ones) * (1.0 - theta) ** ones
    return weights


def empty_measure(dimension: int) -> AtomicMeasure:
    """The zero measure in ``dimension`` dimensions: no atoms."""
    return AtomicMeasure(np.zeros((0, dimension)), np.zeros(0))


def scaled(measure: AtomicMeasure, c: float) -> AtomicMeasure:
    """``c`` times ``measure``: the same atoms, each weight times ``c``."""
    return AtomicMeasure(measure.positions, c * measure.weights)


@dataclass
class Instance:
    window: LatticeWindow
    sigma: AtomicMeasure
    mu: AtomicMeasure
    K: DyadicKernelMap
    descriptor: dict


def random_instance(
    seed,
    n: int = 1,
    depth: int = 6,
    n_sigma: int = 50,
    n_mu: int = 50,
    kernel: str = "riesz",
) -> Instance:
    """Seeded random instance on the unit cube.

    Atoms are uniform in ``[0,1)^n`` with log-uniform weights in
    ``[2^-8, 2^8]``; the kernel is either a random Riesz profile or a random
    per-cube table (log-uniform values, full window enumeration, so keep the
    depth small for tables).
    """
    rng = np.random.default_rng(seed)
    window = LatticeWindow.from_box([(0.0, 1.0)] * n, 0, depth)
    sigma = AtomicMeasure(
        rng.uniform(0.0, 1.0, (n_sigma, n)), 2.0 ** rng.uniform(-8, 8, n_sigma)
    )
    mu = AtomicMeasure(
        rng.uniform(0.0, 1.0, (n_mu, n)), 2.0 ** rng.uniform(-8, 8, n_mu)
    )
    if kernel == "riesz":
        alpha = float(rng.uniform(0.15 * n, 0.85 * n))
        K = DyadicKernelMap.from_radial(riesz_kernel(alpha, n))
        kdesc = {"type": "riesz", "alpha": alpha, "n": n}
    elif kernel == "table":
        table = {key: float(2.0 ** rng.uniform(-4, 4)) for key in window_keys(window)}
        K = DyadicKernelMap.from_table(table)
        kdesc = {"type": "table", "cubes": len(table)}
    else:
        raise WolffpotError(f"unknown kernel kind {kernel!r}")
    descriptor = {
        "seed": seed,
        "n": n,
        "depth": depth,
        "n_sigma": n_sigma,
        "n_mu": n_mu,
        "kernel": kdesc,
    }
    return Instance(window, sigma, mu, K, descriptor)

"""Dyadic and continuous potential-theoretic functionals.

Dyadic objects, for a per-cube kernel ``K`` and measures ``sigma, mu`` on a
window:

* ``T[nu](x)      = sum_Q K(Q) nu(Q) chi_Q(x)``
* ``E             = int T[mu]^{p'} dsigma``
* ``W(x)          = sum_Q K(Q) sigma(Q) (int_Q bar_K(Q) dmu)^{p'-1} chi_Q(x)``
* ``Wbar(x)       = sum_Q sigma(Q) bar_K(Q)(x) (int_Q bar_K(Q) dmu)^{p'-1} chi_Q(x)``
* ``M(x)          = sup_{x in Q} (1/sigma(Q)) sum_{Q' subset Q} K(Q') sigma(Q') mu(Q')``
* ``A1, A2, A3``  for per-cube weights ``lambda_Q`` and an exponent ``s``.

Continuous counterparts for a radial kernel ``k``:

* ``T_k^R[nu](x)  = sum over atoms within distance R of k(|x-y|) w_y``
* ``W_k(x)        = int_0^R k(r) sigma(B(x,r)) (int_{B(x,r)} bar_k(r) dmu)^{p'-1} dr/r``
* ``M_k(x)        = sup_r bar_k(r)(x) mu(B(x,r))``
* ``E_k           = int T_k[mu]^{p'} dsigma``

The dyadic objects are computed on level arrays: every per-cube quantity is
a float array over the cubes of one :class:`LevelIndex` holding the atoms,
each chain sum is one coarse-to-fine pass per level (:meth:`LevelIndex.chain`)
and each sum over subcubes one fine-to-coarse pass (:meth:`LevelIndex.subtree`).
Per-atom work ends at the atom's fine-level cube, read from the index's
``leaf`` ids; only other points are looked up, and ``Wbar`` swaps its two sums
(:meth:`DyadicScene.wolff_bar`).  Sums have a fixed order (atoms in order in a
fine-level cube, children in id order in a coarser one, coarse to fine along a
chain), so the values do not depend on the layout; a ``(cubes, probes)`` array
reduces each column as its own 1-D array would.

All dyadic integrals against atomic measures are exact weighted sums; the
only quadrature anywhere is inside kernels whose log-primitive has no closed
form.  Extended arithmetic follows the potential-theoretic convention
``0 * inf = 0`` (a zero mass is never multiplied by a kernel value), and
``+inf`` is a legitimate value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WolffpotError
from .kernels import (BarField, DyadicKernelMap, RadialKernel, blocks, per_mass, radial_sums, weigh,
                      weighted_sum)
from .lattice import LatticeWindow, LevelIndex
from .measures import AtomicMeasure, cube_mass_table, profile_mass


@dataclass(frozen=True)
class Exponents:
    """Integrability exponents ``p`` (and optionally ``q``) with derived values."""

    p: float
    q: float | None = None

    def __post_init__(self):
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise WolffpotError(f"need 1 < p < inf, got p={self.p}")
        if self.q is not None and not (1.0 <= self.q < self.p):
            raise WolffpotError(f"need 1 <= q < p, got q={self.q}, p={self.p}")

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def trace_exponent(self) -> float:
        """``q (p-1) / (p-q)``, the Wolff-potential exponent of the trace bound."""
        if self.q is None:
            raise WolffpotError("trace exponent needs q")
        return self.q * (self.p - 1.0) / (self.p - self.q)


def _per_point(values, x):
    """A float for a single query point, the array for a measure or one point per row."""
    return values if isinstance(x, AtomicMeasure) or np.ndim(x) >= 2 else float(values[0])


class DyadicScene:
    """Shared level arrays for one ``(K, sigma, mu, window)`` quadruple.

    One :class:`LevelIndex` holds the atoms of sigma and then of mu, so every
    per-cube quantity (``K``, both masses, the bar-kernel prefixes, the inner
    integrals and subtree sums) is a float array over the same cube ids, and
    a query is one chain reduction of such an array, evaluated at all query
    points at once.  Query methods take the scene's own ``sigma`` or ``mu``
    (one value per atom, read from the index's leaf ids), a single point (a float)
    or one point per row (an array); a point outside the window gets zero.
    Inner integrals and subtree sums are built on first use.

    The scene is the only owner of an instance's index: every dyadic
    functional and check takes one, and cubes held only for mu's atoms carry
    no sigma mass, so they add nothing to a sigma-side sum.
    """

    def __init__(
        self,
        K: DyadicKernelMap,
        sigma: AtomicMeasure,
        mu: AtomicMeasure,
        window: LatticeWindow,
    ):
        self.kernel = K
        self.sigma = sigma
        self.mu = mu
        self.index = LevelIndex(window, np.vstack([sigma.positions, mu.positions]))
        self.bar = BarField(K, sigma, window, self.index)
        self.sigma_mass = self.bar.mass
        self.mu_mass = self.reweighted(mu, mu.weights)
        self._inner: np.ndarray | None = None
        self._subtree: np.ndarray | None = None

    def _columns(self, measure: AtomicMeasure) -> slice:
        """The index columns holding the atoms of the scene's sigma or mu."""
        if measure is not self.sigma and measure is not self.mu:
            raise WolffpotError("the measure is neither the scene's sigma nor its mu")
        first = 0 if measure is self.sigma else self.sigma.n_atoms
        return slice(first, first + measure.n_atoms)

    # -- generic chain sums ----------------------------------------------------

    def leaf_ids(self, x) -> np.ndarray:
        """The deepest held cube of each atom of the scene's sigma or mu, or of each query point."""
        if isinstance(x, AtomicMeasure):
            return self.index.leaf[self._columns(x)]
        return self.index.deepest(x)

    def reweighted(self, measure: AtomicMeasure, weights) -> np.ndarray:
        """Cube masses of the atoms of ``measure`` (the scene's sigma or mu) under new weights."""
        return cube_mass_table(measure, self.index, self._columns(measure).start, weights)

    def chain_values(self, values, x, ufunc=np.add):
        """Reduce per-cube values along the ancestor chain of each point of ``x``."""
        return _per_point(self.index.gather(self.index.chain(values, ufunc), self.leaf_ids(x)), x)

    def t(self, masses, x):
        """``sum over the ancestor chain of x of K(Q) * masses(Q)``."""
        return self.chain_values(weigh(self.bar.k, masses), x)

    def t_mu(self, x):
        return self.t(self.mu_mass, x)

    # -- inner integrals int_Q bar_K(Q) dmu -------------------------------------

    def inner(self) -> np.ndarray:
        """``I(Q) = int_Q bar_K(Q) dmu = N(Q) / sigma(Q)`` per cube, zero when ``sigma(Q) = 0``.

        ``sigma(Q) bar_K(Q)(b)`` sums ``D(Q') = K(Q') sigma(Q')`` over the cubes
        ``b in Q' subset Q``, so the sums swapped, integrating it against mu over
        ``Q`` gives the subtree sum ``N(Q)`` of :meth:`subtree`: nonnegative
        terms only, no difference of prefixes.
        """
        if self._inner is None:
            self._inner = per_mass(self.subtree(), self.sigma_mass)
        return self._inner

    # -- subtree sums for the maximal function ----------------------------------

    def subtree(self) -> np.ndarray:
        """``N(Q) = sum_{Q' subset Q} K(Q') sigma(Q') mu(Q')`` (inclusive), per cube."""
        if self._subtree is None:
            self._subtree = self.index.subtree(weigh(self.bar.weight, self.mu_mass))
        return self._subtree

    # -- potentials --------------------------------------------------------------

    def _inner_power(self, p_prime: float) -> np.ndarray:
        """``I(Q)^{p'-1}``, zero where ``I(Q)`` vanishes."""
        return np.power(self.inner(), p_prime - 1.0)

    def wolff(self, x, p_prime: float):
        """``W(x) = sum_{Q ni x} K(Q) sigma(Q) I(Q)^{p'-1}``, a term zero if either factor is."""
        d = self.bar.weight
        return self.chain_values(weigh(d, np.where(d > 0.0, self._inner_power(p_prime), 0.0)), x)

    def wolff_bar(self, x, p_prime: float):
        """As :meth:`wolff` but with ``bar_K(Q)(x)`` as the outer kernel factor.

        ``sigma(Q) bar_K(Q)(x)`` sums ``D(Q') = K(Q') sigma(Q')`` over ``x in Q' subset Q``,
        so, the sums swapped, ``Wbar(x) = sum_{Q' ni x} D(Q') A(Q')`` with ``A`` the
        chain sum of ``I^{p'-1}``.  A term is zero if either factor is (``0 * inf = 0``).
        """
        d, a = self.bar.weight, self.index.chain(self._inner_power(p_prime))
        return self.chain_values(weigh(d, np.where(d > 0.0, a, 0.0)), x)

    def maximal(self, x):
        return self.chain_values(self.inner(), x, np.maximum)


# -- functional surface -------------------------------------------------------------


def energy_dyadic(scene: DyadicScene, exps: Exponents, t_sigma=None) -> float:
    """``E = int T[mu]^{p'} dsigma``, exact for atomic sigma; ``t_sigma`` is ``T[mu]`` on sigma if known."""
    t = scene.t_mu(scene.sigma) if t_sigma is None else t_sigma
    return weighted_sum(scene.sigma.weights, np.power(t, exps.p_prime))


def lambda_substitution(scene: DyadicScene) -> np.ndarray:
    """The weights ``lambda_Q = K(Q) mu(Q) sigma(Q)`` per cube of ``scene.index``."""
    return weigh(scene.bar.weight, scene.mu_mass)


def a_functionals(scene: DyadicScene, lam, s: float) -> tuple[float, float, float]:
    """The three equivalent aggregates of a per-cube weight family.

    ``A1 = int (sum_Q lambda_Q/sigma(Q) chi_Q)^s dsigma``,
    ``A2 = sum_Q lambda_Q ((1/sigma(Q)) sum_{Q' subset Q} lambda_{Q'})^{s-1}``,
    ``A3 = int sup_{x in Q} ((1/sigma(Q)) sum_{Q' subset Q} lambda_{Q'})^s dsigma``.

    ``lam`` holds ``lambda_Q`` per cube of ``scene.index``; weights on cubes
    with ``sigma(Q) = 0`` are forced to zero.
    """
    if not (s > 1.0):
        raise WolffpotError(f"need s > 1, got {s}")
    if np.any(lam < 0):
        raise WolffpotError("lambda weights must be nonnegative")
    sig, sigma = scene.sigma_mass, scene.sigma
    norm = np.where(sig > 0.0, lam, 0.0)
    subtree = scene.index.subtree(norm)

    on = norm > 0.0
    a2 = weighted_sum(norm[on], np.power(subtree[on] / sig[on], s - 1.0))

    chain_sum = scene.chain_values(per_mass(norm, sig), sigma)
    sup_ratio = scene.chain_values(per_mass(subtree, sig), sigma, np.maximum)
    a1 = weighted_sum(sigma.weights, np.power(chain_sum, s))
    a3 = weighted_sum(sigma.weights, np.power(sup_ratio, s))
    return a1, a2, a3


# -- continuous (radial) operations ------------------------------------------------


def _truncated_sums(kernel: RadialKernel, nu: AtomicMeasure, R: float, points) -> np.ndarray:
    """``T_k^R[nu]`` at each row of ``points``, the atoms of ``nu`` added in order.

    An atom at distance 0 contributes ``limit_at_zero``; atoms of zero weight
    or beyond ``R`` contribute nothing.  Rows are taken in :func:`blocks` of
    the atoms times the dimension a row.
    """
    out = np.zeros(len(points))
    if not nu.n_atoms:
        return out
    reach = R if kernel.cutoff is None else min(R, kernel.cutoff)
    for rows in blocks(len(points), nu.n_atoms * nu.dimension):
        d = np.linalg.norm(nu.positions[None, :, :] - points[rows, None, :], axis=2)
        near = (d <= R) & (nu.weights > 0.0)
        k = np.where(d == 0.0, kernel.limit_at_zero, 0.0)
        inside = near & (d > 0.0) & (d <= reach)
        k[inside] = kernel.profile(d[inside])
        terms = weigh(k, np.where(near, nu.weights, 0.0))
        out[rows] = np.cumsum(terms, axis=1)[:, -1]
    return out


def t_continuous_trunc(kernel: RadialKernel, nu: AtomicMeasure, R: float, x) -> float:
    """Truncated convolution ``T_k^R[nu](x) = sum_{|x-y| <= R} k(|x-y|) w_y``."""
    if R <= 0:
        raise WolffpotError(f"truncation radius must be positive, got {R}")
    return float(_truncated_sums(kernel, nu, R, np.asarray(x, dtype=float)[None, :])[0])


def energy_continuous(
    kernel: RadialKernel, mu: AtomicMeasure, sigma: AtomicMeasure, exps: Exponents
) -> float:
    """``E_k = int T_k[mu]^{p'} dsigma`` (untruncated), exact for atomic data."""
    pos = sigma.weights > 0.0
    t = _truncated_sums(kernel, mu, math.inf, sigma.positions[pos])
    return weighted_sum(sigma.weights[pos], np.power(t, exps.p_prime))


def _on_heavy_atom(sigma: AtomicMeasure, points) -> np.ndarray:
    """Whether each row of ``points`` is the position of a sigma-atom of positive weight.

    Coordinates are compared in :func:`blocks` of the heavy atoms times the
    dimension a row; nothing is sorted.
    """
    heavy = sigma.positions[sigma.weights > 0.0]
    out = np.zeros(len(points), dtype=bool)
    for rows in blocks(len(points), heavy.size):
        out[rows] = np.any(np.all(heavy == points[rows, None, :], axis=2), axis=1)
    return out


def wolff_continuous(
    kernel: RadialKernel,
    sigma: AtomicMeasure,
    mu: AtomicMeasure,
    exps: Exponents,
    x,
    R: float = math.inf,
):
    """Continuous Wolff potential ``W_k^R(x)``, exact per radial segment.

    ``x`` is one point (the result is a float) or one point per row (an
    array).  The radii where any ingredient jumps are the distances from the
    points to the sigma- and mu-atoms and from each mu-atom within reach
    (``|x - b| <= min(R, cutoff)``, ``w_b > 0``) to the sigma-atoms.  Between
    consecutive jump radii every ball mass is constant, so the inner integral
    is affine in ``u(r) = int k ds/s`` and the whole segment integrates in
    closed form:

        ``int k(r) S (A + B u(r))^{p'-1} dr/r = S [(A+Bu)^{p'} - A^{p'}]/(p' B)``.

    Points are taken in row order in groups, and the points of a group share
    one grid, the union of their jump radii up to ``min(R, cutoff)``, so each
    segment's log-primitive is computed once per group.  A group takes the
    next point while it then holds at most one point more than the fewest
    mu-atoms any of its points tracks, and while its radii, counted once per
    profile they come from, number at most twice those of each of its points
    alone.  So no point sweeps more than about twice its own grid, however
    many points the call has: sharing pays when a call has about as many
    points as tracked mu-atoms, and many points cost what they would one by
    one.  Each ball mass is read off a radial profile at the segment starts:
    ``S = sigma(B(x,a))`` per point and ``M_b = sigma(B(b,a))`` per mu-atom,
    whose running integral ``N_b`` against ``k ds/s`` is a cumulative sum.
    ``N_b`` and ``w_b N_b / M_b`` are computed once per group; a point adds
    them over its own mu-atoms ``b`` with ``|x - b| <= a``.  The cost is one
    sort of the sigma-atoms per point and per mu-atom within reach of any
    point (shared by all groups), plus one lookup per segment and profile; no
    mu-by-sigma distance matrix is formed.  A group's grid is swept in
    :func:`blocks` of four columns per point, each running sum carried into
    the next block, so every sum adds its terms in grid order; a point alone
    in its group, as a call on one point is, sweeps exactly its own grid.  No outer
    quadrature is needed; only kernels without a closed-form log-primitive
    introduce quadrature error (inside ``u``).

    A point is ``+inf``, found before any sort, when ``limit_at_zero > 0`` and
    a mu-atom ``b`` it tracks at ``d = |x - b| < min(R, cutoff)`` sits on a
    sigma-atom of positive weight, and ``k > 0`` just above ``d`` (at the next
    float; for ``d = 0`` that is ``limit_at_zero > 0``).  Then
    ``N_b = int_0 k sigma(B(b,s)) ds/s`` is infinite at every radius above 0,
    and the segments from ``d`` on are live.
    """
    if R <= 0:
        raise WolffpotError(f"truncation radius must be positive, got {R}")
    points = np.atleast_2d(np.asarray(x, dtype=float))
    upper = R if kernel.cutoff is None else min(R, kernel.cutoff)
    out = np.zeros(len(points))
    around_mu = [None] * mu.n_atoms  # sigma about each tracked mu-atom, for all groups
    size = np.full(mu.n_atoms, -1)  # its number of radii, -1 before it is made
    heavy = np.full(mu.n_atoms, -1)  # whether it sits on a sigma-atom of positive weight
    # the open group: its points (row, profile, mu-distances), the mu-atoms they
    # track, its radii counted once per profile, the fewest mu-atoms and the
    # fewest radii of any of its points alone
    group, held = [], np.zeros(mu.n_atoms, dtype=bool)
    radii = fewest = least = 0

    def sweep():
        cols = np.flatnonzero(held)
        rows, around_x, dist = zip(*group)
        out[list(rows)] = _wolff_sweep(kernel, exps.p_prime, around_x, np.array(dist)[:, cols],
                                       mu.weights[cols], [around_mu[b] for b in cols], upper)
        group.clear()
        held[:] = False

    for i, p in enumerate(points):
        d = np.linalg.norm(mu.positions - p, axis=1)
        cols = np.flatnonzero((d <= upper) & (mu.weights > 0.0))
        if not cols.size:
            continue  # no mu-mass within reach: every inner integral vanishes
        if kernel.limit_at_zero > 0.0:
            near = cols[d[cols] < upper]
            fresh = near[heavy[near] < 0]
            heavy[fresh] = _on_heavy_atom(sigma, mu.positions[fresh])
            on = near[heavy[near] == 1]
            if on.size:
                # k is nonincreasing, so it is positive just above some such d
                # exactly when it is just above the smallest
                d_on = np.min(d[on], keepdims=True)
                if d_on[0] == 0.0 or kernel.profile(np.nextafter(d_on, math.inf))[0] > 0.0:
                    out[i] = math.inf
                    continue
        prof = sigma.radial_profile(p, upper)
        for b in cols[size[cols] < 0]:
            around_mu[b] = sigma.radial_profile(mu.positions[b], upper)
            size[b] = around_mu[b][0].size
        own = prof[0].size + cols.size + size[cols].sum() + 1  # + 1 for upper
        grown = radii + prof[0].size + cols.size + size[cols[~held[cols]]].sum()
        if group and (len(group) > min(fewest, cols.size) or grown > 2 * min(least, own)):
            sweep()
        if group:
            radii, fewest, least = grown, min(fewest, cols.size), min(least, own)
        else:
            radii, fewest, least = own, cols.size, own
        group.append((i, prof, d))
        held[cols] = True
    if group:
        sweep()
    return _per_point(out, x)


def _wolff_sweep(kernel, pp, around_x, dist, weights, around_mu, upper) -> np.ndarray:
    """:func:`wolff_continuous` at the points of one group by the segment sweep.

    ``around_x`` holds the points' profiles, ``dist`` their distances to the
    mu-atoms of ``weights`` and ``around_mu``, of which each point tracks those
    within ``upper``.
    """
    ends = np.unique(np.concatenate(
        [*(d for d, _ in around_x), dist[dist <= upper], *(d for d, _ in around_mu), [upper]]))
    ends = ends[ends > 0.0]  # none lies beyond upper, where the profiles stop
    total = np.zeros(len(around_x))
    if not ends.size:
        return total
    starts = np.append(0.0, ends[:-1])

    n_carry = np.zeros(len(around_mu))  # N_b at the first start of the block
    diverges = np.zeros(len(around_x), dtype=bool)
    # a block holds A, B, S and the terms at once, each with one column per point
    for segments in blocks(starts.size, 4 * len(around_x)):
        a = starts[segments]
        L = kernel.log_primitive(a, ends[segments])
        # A = sum_b w_b bar-numerator_b / sigma(B(b,a)) and B = sum_b w_b over the
        # mu-atoms b in B(x,a) with sigma(B(b,a)) > 0, per point and segment start a;
        # a < upper, so a mu-atom the point does not track is never in B(x,a)
        A = np.zeros((len(around_x), a.size))
        B = np.zeros(A.shape)
        for j, prof in enumerate(around_mu):
            M = profile_mass(prof, a)
            N = np.cumsum(np.append(n_carry[j], weigh(L, M)))  # int_0^a k(s) sigma(B(b,s)) ds/s
            n_carry[j] = N[-1]
            active = dist[:, j, None] <= a
            np.add(A, per_mass(weights[j] * N[:-1], M), out=A, where=active)
            np.add(B, weights[j], out=B, where=active & (M > 0.0))
        S = np.array([profile_mass(prof, a) for prof in around_x])
        live = (L > 0.0) & (S > 0.0) & (B > 0.0)
        diverges |= np.any(live & (np.isinf(A) | np.isinf(L)), axis=1)
        live &= ~diverges[:, None]
        # terms S [(A + B L)^{p'} - A^{p'}] / (p' B) where live, else 0; A and B
        # are not read again, so they hold the temporaries
        terms = np.multiply(B, L, out=np.zeros(live.shape), where=live)
        np.add(A, terms, out=terms, where=live)
        np.power(terms, pp, out=terms, where=live)
        np.subtract(terms, np.power(A, pp, out=A, where=live), out=terms, where=live)
        np.multiply(S, terms, out=terms, where=live)
        np.divide(terms, np.multiply(pp, B, out=B), out=terms, where=live)
        terms[:, 0] += total  # carried in, so each point's sum keeps grid order
        total = np.cumsum(terms, axis=1, out=terms)[:, -1].copy()
        del A, B, S, terms  # before the next block makes its own
    total[diverges] = math.inf
    return total


def m_k_maximal(kernel: RadialKernel, sigma: AtomicMeasure, mu: AtomicMeasure, x):
    """Kernel maximal function ``M_k(x) = sup_{r>0} bar_k(r)(x) mu(B(x,r))``.

    ``x`` is one point (the result is a float) or one point per row (an
    array).  Between consecutive atom distances both ball masses are
    constant while the bar-kernel numerator grows, so the supremum over each
    segment is its left-limit at the right end; the scan over these finitely
    many values is exact.  The final unbounded segment contributes its limit
    value, which is finite exactly when ``int^inf k(s) ds/s`` is.  An
    infinite ``bar_k`` counts only where ``mu(B(x,r)) > 0``.  The segments
    are the :func:`radial_sums` of the sigma- and mu-atoms together, one
    profile with sigma's and mu's masses per :func:`blocks` of all atoms
    times the dimension a row.  A point on a sigma-atom of positive weight
    is ``+inf``, found before any sort, when ``limit_at_zero > 0`` and mu has
    mass: ``bar_k`` is infinite at every radius.
    """
    points = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.zeros(len(points))
    if not (sigma.n_atoms and mu.n_atoms):
        return _per_point(out, x)
    if kernel.limit_at_zero > 0.0 and np.any(mu.weights > 0.0):
        out[_on_heavy_atom(sigma, points)] = math.inf
    rest = np.flatnonzero(np.isfinite(out))
    for block in blocks(rest.size, (sigma.n_atoms + mu.n_atoms) * sigma.dimension):
        rows = rest[block]
        dists, (cum, cum_mu) = sigma.radial_profile(points[rows], other=mu)
        start, num = radial_sums(kernel, dists, cum, np.full((rows.size, 1), math.inf))
        # bar_k and mu(B(x,r)) at each segment's right end, zero where none starts
        mu_mass = np.where(start, cum_mu[:, 1:], 0.0)
        out[rows] = np.max(weigh(per_mass(num, cum[:, 1:]), mu_mass), axis=1, initial=0.0)
    return _per_point(out, x)

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
Sums run in the order of the loops they replace (atoms in order within a cube,
coarse to fine along a chain), so the values do not depend on the layout.

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

from .errors import DegenerateInputError, OutOfWindowError, WolffpotError
from .kernels import BarField, DyadicKernelMap, RadialKernel, per_mass, weigh, weighted_sum
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

    @classmethod
    def from_p_prime(cls, p_prime: float, q: float | None = None) -> "Exponents":
        if not (p_prime > 1.0):
            raise WolffpotError(f"need p' > 1, got {p_prime}")
        return cls(p_prime / (p_prime - 1.0), q)

    @property
    def trace_exponent(self) -> float:
        """``q (p-1) / (p-q)``, the Wolff-potential exponent of the trace bound."""
        if self.q is None:
            raise WolffpotError("trace exponent needs q")
        return self.q * (self.p - 1.0) / (self.p - self.q)


def xpow(base: float, e: float) -> float:
    """``base ** e`` with ``0**0 = 1`` and infinities propagated, never NaN."""
    if math.isinf(base):
        return math.inf if e > 0 else (1.0 if e == 0 else 0.0)
    return base ** e


def _per_point(values, x):
    """A float for a single query point, the array for one point per row."""
    return float(values[0]) if np.ndim(x) < 2 else values


class DyadicScene:
    """Shared level arrays for one ``(K, sigma, mu, window)`` quadruple.

    One :class:`LevelIndex` holds the atoms of sigma and then of mu, so every
    per-cube quantity (``K``, both masses, the bar-kernel prefixes, the inner
    integrals and subtree sums) is a float array over the same cube ids, and
    a query is one chain reduction of such an array, evaluated at all query
    points at once.  Query methods take a single point (and return a float)
    or one point per row (and return an array); a point outside the window
    gets zero.  Inner integrals and subtree sums are built on first use.

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
        self.mu_mass = cube_mass_table(mu, self.index, sigma.n_atoms)
        self._inner: np.ndarray | None = None
        self._subtree: np.ndarray | None = None

    # -- generic chain sums ----------------------------------------------------

    def reweighted(self, measure: AtomicMeasure, weights) -> np.ndarray:
        """Cube masses of the atoms of ``measure`` (the scene's sigma or mu) under new weights."""
        first = 0 if measure is self.sigma else self.sigma.n_atoms
        return cube_mass_table(measure, self.index, first, weights)

    def chain_values(self, values, x, ufunc=np.add):
        """Reduce per-cube values along the ancestor chain of each point of ``x``."""
        return _per_point(self.index.gather(self.index.chain(values, ufunc), self.index.find(x)), x)

    def t(self, masses, x):
        """``sum over the ancestor chain of x of K(Q) * masses(Q)``."""
        return self.chain_values(weigh(self.bar.k, masses), x)

    def t_mu(self, x):
        return self.t(self.mu_mass, x)

    # -- inner integrals int_Q bar_K(Q) dmu -------------------------------------

    def inner(self) -> np.ndarray:
        """``I(Q) = int_Q bar_K(Q) dmu`` per cube, zero when ``sigma(Q) = 0``.

        Uses the chain-sum identity: with ``S(Q)`` the sum over mu-atoms
        ``b in Q`` of ``w_b P(leaf(b))``, summing ``bar_K(Q)(b)`` over them
        gives ``(S(Q) - mu(Q) P(parent Q)) / sigma(Q)``.
        """
        if self._inner is None:
            p_leaf = self.bar.prefix(self.index.rows[-1, self.sigma.n_atoms:])
            s = self.reweighted(self.mu, weigh(p_leaf, self.mu.weights))
            live = (self.sigma_mass > 0.0) & (self.mu_mass > 0.0)
            above = self.bar.prefix(self.index.parent)[live]
            inner = np.zeros(self.index.n)
            inner[live] = (s[live] - self.mu_mass[live] * above) / self.sigma_mass[live]
            self._inner = inner
        return self._inner

    # -- subtree sums for the maximal function ----------------------------------

    def subtree(self) -> np.ndarray:
        """``N(Q) = sum_{Q' subset Q} K(Q') sigma(Q') mu(Q')`` (inclusive), per cube."""
        if self._subtree is None:
            self._subtree = self.index.subtree(weigh(self.bar.weight, self.mu_mass))
        return self._subtree

    # -- potentials --------------------------------------------------------------

    def _inner_power(self, p_prime: float) -> np.ndarray:
        """``I(Q)^{p'-1}``, zero where ``I(Q)`` vanishes (or rounds below zero)."""
        return np.power(np.maximum(self.inner(), 0.0), p_prime - 1.0)

    def wolff(self, x, p_prime: float):
        return self.chain_values(weigh(self.bar.weight, self._inner_power(p_prime)), x)

    def wolff_bar(self, x, p_prime: float):
        """As :meth:`wolff` but with ``bar_K(Q)(x)`` as the outer kernel factor."""
        chains = self.index.locate(x)
        power = self.index.gather(self._inner_power(p_prime), chains)
        prefix = np.cumsum(self.index.gather(self.bar.weight, chains), axis=0)
        above = np.vstack([np.zeros((1, prefix.shape[1])), prefix[:-1]])
        # sigma(Q) * bar_K(Q)(x) = P(leaf(x)) - P(parent(Q))
        terms = weigh(prefix[-1] - above, power)
        return _per_point(np.cumsum(terms, axis=0)[-1], x)

    def maximal(self, x):
        return self.chain_values(per_mass(self.subtree(), self.sigma_mass), x, np.maximum)


# -- functional surface -------------------------------------------------------------


def energy_dyadic(scene: DyadicScene, exps: Exponents) -> float:
    """``E = int T[mu]^{p'} dsigma``, exact for atomic ``sigma``."""
    sigma = scene.sigma
    return weighted_sum(sigma.weights, np.power(scene.t_mu(sigma.positions), exps.p_prime))


def hl_maximal_dyadic(
    sigma: AtomicMeasure, nu: AtomicMeasure, window: LatticeWindow, x
) -> float:
    """Dyadic Hardy-Littlewood maximal function ``sup_{x in Q} nu(Q)/sigma(Q)``."""
    if not window.contains_point(x):
        raise OutOfWindowError(f"point {tuple(x)} outside window")
    index = LevelIndex(window, np.vstack([sigma.positions, nu.positions]))
    sig = cube_mass_table(sigma, index)
    # the root cube of x carries the largest sigma mass of its chain
    if index.gather(sig, index.locate(x)[0])[0] <= 0.0:
        raise DegenerateInputError("chain of x carries no sigma mass")
    ratio = per_mass(cube_mass_table(nu, index, sigma.n_atoms), sig)
    return float(index.gather(index.chain(ratio, np.maximum), index.find(x))[0])


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
    index, sig, sigma = scene.index, scene.sigma_mass, scene.sigma
    norm = np.where(sig > 0.0, lam, 0.0)
    subtree = index.subtree(norm)

    on = norm > 0.0
    a2 = weighted_sum(norm[on], np.power(subtree[on] / sig[on], s - 1.0))

    leaf = index.rows[-1, :sigma.n_atoms]
    chain_sum = index.gather(index.chain(per_mass(norm, sig)), leaf)
    sup_ratio = index.gather(index.chain(per_mass(subtree, sig), np.maximum), leaf)
    a1 = weighted_sum(sigma.weights, np.power(chain_sum, s))
    a3 = weighted_sum(sigma.weights, np.power(sup_ratio, s))
    return a1, a2, a3


# -- continuous (radial) operations ------------------------------------------------


#: query points times atoms per block of the truncated-convolution matrix
TRUNC_BLOCK = 1 << 16


def _truncated_sums(kernel: RadialKernel, nu: AtomicMeasure, R: float, points) -> np.ndarray:
    """``T_k^R[nu]`` at each row of ``points``, the atoms of ``nu`` added in order.

    An atom at distance 0 contributes ``limit_at_zero``; atoms of zero weight
    or beyond ``R`` contribute nothing.  Rows are taken in blocks of at most
    ``TRUNC_BLOCK`` point-atom pairs.
    """
    out = np.zeros(len(points))
    if not nu.n_atoms:
        return out
    reach = R if kernel.cutoff is None else min(R, kernel.cutoff)
    rows = max(1, TRUNC_BLOCK // nu.n_atoms)
    for lo in range(0, len(points), rows):
        d = np.linalg.norm(nu.positions[None, :, :] - points[lo:lo + rows, None, :], axis=2)
        near = (d <= R) & (nu.weights > 0.0)
        k = np.where(d == 0.0, kernel.limit_at_zero, 0.0)
        inside = near & (d > 0.0) & (d <= reach)
        k[inside] = kernel.profile(d[inside])
        terms = weigh(k, np.where(near, nu.weights, 0.0))
        out[lo:lo + rows] = np.cumsum(terms, axis=1)[:, -1]
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


def wolff_continuous(
    kernel: RadialKernel,
    sigma: AtomicMeasure,
    mu: AtomicMeasure,
    exps: Exponents,
    x,
    R: float = math.inf,
) -> float:
    """Continuous Wolff potential ``W_k^R(x)``, exact per radial segment.

    The radii where any ingredient jumps are the distances from ``x`` to the
    sigma- and mu-atoms and from each mu-atom to the sigma-atoms.  Between
    consecutive jump radii every ball mass is constant, so the inner integral
    is affine in ``u(r) = int k ds/s`` and the whole segment integrates in
    closed form:

        ``int k(r) S (A + B u(r))^{p'-1} dr/r = S [(A+Bu)^{p'} - A^{p'}]/(p' B)``.

    Each ball mass is read off a radial profile at the segment starts:
    ``S = sigma(B(x,a))`` and, per mu-atom ``b`` within reach, ``sigma(B(b,a))``,
    whose running integral against ``k ds/s`` is one cumulative sum.  The cost
    is one sort of the sigma-atoms per such mu-atom plus one array
    log-primitive call over all segments; no mu-by-sigma distance matrix is
    formed.  No outer quadrature is
    needed; only kernels without a closed-form log-primitive introduce
    quadrature error (inside ``u``).
    """
    if R <= 0:
        raise WolffpotError(f"truncation radius must be positive, got {R}")
    pp = exps.p_prime
    x = np.asarray(x, dtype=float)
    upper = R if kernel.cutoff is None else min(R, kernel.cutoff)
    mu_dist = np.linalg.norm(mu.positions - x, axis=1)
    track = (mu_dist <= upper) & (mu.weights > 0.0)
    if not track.any():
        return 0.0  # no mu-mass within reach: every inner integral vanishes
    around_x = sigma.radial_profile(x)
    around_mu = [sigma.radial_profile(b) for b in mu.positions[track]]

    ends = np.unique(np.concatenate(
        [around_x[0], mu_dist[track], *(d for d, _ in around_mu), [upper]]))
    ends = ends[(ends > 0.0) & (ends <= upper)]
    if not ends.size:
        return 0.0
    starts = np.append(0.0, ends[:-1])
    L = kernel.log_primitive(starts, ends)

    # A = sum_b w_b bar-numerator_b / sigma(B(b,a)) and B = sum_b w_b over the
    # mu-atoms b in B(x,a) with sigma(B(b,a)) > 0, at each segment start a
    A = np.zeros(starts.size)
    B = np.zeros(starts.size)
    for d, w, prof in zip(mu_dist[track], mu.weights[track], around_mu):
        M = profile_mass(prof, starts)
        N = np.append(0.0, np.cumsum(weigh(L, M))[:-1])  # int_0^a k(s) sigma(B(b,s)) ds/s
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


def m_k_maximal(kernel: RadialKernel, sigma: AtomicMeasure, mu: AtomicMeasure, x) -> float:
    """Kernel maximal function ``M_k(x) = sup_{r>0} bar_k(r)(x) mu(B(x,r))``.

    Between consecutive atom distances both ball masses are constant while the
    bar-kernel numerator grows, so the supremum over each segment is its
    left-limit at the right end; the scan over these finitely many values is
    exact.  The final unbounded segment contributes its limit value, which is
    finite exactly when ``int^inf k(s) ds/s`` is.
    """
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
    if math.isinf(num[-1]):
        # bar_k is infinite from there on; mu is nonempty, so the sup is too
        return math.inf
    return float(np.max(per_mass(num, den) * profile_mass(mu_prof, radii), initial=0.0))

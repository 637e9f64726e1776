"""Brute-force reference implementations that the tests compare the package against.

Most oracles compute their quantity the direct way, one cube or one ball at
a time, with none of the array machinery of the code under test.  The two
level-array oracles keep earlier array forms that sum in another order: cube
masses from every level's ids at once, and ``Wbar`` from each point's gathered
chain.
"""

import numpy as np

from wolffpot import AtomicMeasure, DyadicCube, DyadicKernelMap, LatticeWindow, RadialKernel
from wolffpot.errors import WolffpotError
from wolffpot.kernels import weigh, weighted_sum


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


def radial_profile_of_one(sigma: AtomicMeasure, center):
    """Sorted distinct distances from ``center`` and the closed-ball masses at them."""
    if sigma.n_atoms == 0:
        return np.zeros(0), np.zeros(0)
    d = np.linalg.norm(sigma.positions - np.asarray(center, dtype=float), axis=1)
    order = np.argsort(d, kind="stable")
    d = d[order]
    w = sigma.weights[order]
    dists, start = np.unique(d, return_index=True)
    cum = np.cumsum(w)
    ends = np.append(start[1:], len(w)) - 1
    return dists, cum[ends]


def bar_k_per_ball(kernel: RadialKernel, sigma: AtomicMeasure, x, r: float) -> float:
    """``bar_k(r)(x)`` of one ball: a sum over the segments between its distinct atom distances."""
    if r <= 0:
        raise WolffpotError(f"radius must be positive, got {r}")
    dists, cums = radial_profile_of_one(sigma, x)
    den = float(np.append(0.0, cums)[np.searchsorted(dists, r, side="right")])
    if den <= 0.0:
        return 0.0
    starts = dists[:np.searchsorted(dists, r)]  # the sorted distances below r
    seg = kernel.log_primitive(starts, np.concatenate((starts[1:], [r]))[:starts.size])
    return weighted_sum(cums[:starts.size], seg) / den


def cube_mass_table_all_levels(measure: AtomicMeasure, index, first: int = 0, weights=None):
    """Cube masses from one ``np.bincount`` over the atoms' ids at every level.

    Every cube adds its own atoms' weights in atom order.
    """
    rows = index.rows[:, first:first + measure.n_atoms]
    held = rows[0] >= 0
    w = (measure.weights if weights is None else np.asarray(weights, dtype=float))[held]
    return np.bincount(
        rows[:, held].ravel(),
        np.broadcast_to(w, (rows.shape[0], w.size)).ravel(),
        minlength=index.n,
    ).astype(float, copy=False)


def wolff_bar_gathered(scene, x, p_prime: float) -> np.ndarray:
    """``Wbar`` at each point from its gathered chain, one term per cube.

    ``sigma(Q) bar_K(Q)(x) = P(leaf(x)) - P(parent Q)`` with ``P`` the chain
    prefix of ``D = K sigma``; a term is zero where ``I(Q)^{p'-1}`` is.
    """
    chains = scene.chain_ids(x)
    power = scene.index.gather(scene._inner_power(p_prime), chains)
    prefix = np.cumsum(scene.index.gather(scene.bar.weight, chains), axis=0)
    above = np.vstack([np.zeros((1, prefix.shape[1])), prefix[:-1]])
    return np.cumsum(weigh(prefix[-1] - above, power), axis=0)[-1]

"""Brute-force reference implementations that the tests compare the package against.

Each oracle computes its quantity the direct way, one cube or one ball at a
time, with none of the array machinery of the code under test.
"""

import numpy as np

from wolffpot import AtomicMeasure, DyadicCube, DyadicKernelMap, LatticeWindow, RadialKernel
from wolffpot.errors import WolffpotError
from wolffpot.kernels import weighted_sum


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

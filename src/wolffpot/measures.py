"""Finite atomic measures and measure diagnostics.

An :class:`AtomicMeasure` is a finite nonnegative weighted point set.  It is
the package's universal stand-in for a locally finite Borel measure: explicit
atom lists model genuinely atomic measures, while fine midpoint grids model
Lebesgue measure at dyadic-cube granularity (cube masses are then exact for
every cube at or above the grid level).

Balls are closed, so ``r -> ball_mass(x, r)`` is a right-continuous step
function, which :func:`profile_mass` reads off a radial profile at any
radii; cubes are half-open, so same-level cube masses are exactly additive
over children.  A profile's cumulative masses start with a zero, the mass
of the empty ball below the nearest atom, so ``cum[j]`` is the mass of the
``j`` nearest atoms and a ``searchsorted`` count indexes it directly.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, GridAlignmentError, WolffpotError
from .lattice import LevelIndex


class AtomicMeasure:
    """Finite atomic measure ``sum_i w_i delta_{x_i}`` with ``w_i >= 0``."""

    def __init__(self, positions, weights):
        pos = np.asarray(positions, dtype=float)
        if pos.ndim == 0:
            pos = pos.reshape(1, 1)
        elif pos.ndim == 1:
            # a flat sequence is read as atoms on the line, one per entry
            pos = pos.reshape(-1, 1)
        w = np.asarray(weights, dtype=float).reshape(-1)
        if pos.shape[0] != w.shape[0]:
            raise WolffpotError(
                f"{pos.shape[0]} positions but {w.shape[0]} weights"
            )
        if not np.all(np.isfinite(pos)):
            raise WolffpotError("positions must be finite")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise WolffpotError("weights must be finite and nonnegative")
        self.positions = pos
        self.weights = w

    @classmethod
    def empty(cls, dimension: int) -> "AtomicMeasure":
        return cls(np.zeros((0, dimension)), np.zeros(0))

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    def scaled(self, c: float) -> "AtomicMeasure":
        return AtomicMeasure(self.positions, c * self.weights)

    # -- masses ---------------------------------------------------------------

    def ball_mass(self, center, radius: float) -> float:
        """Total weight of atoms in the closed Euclidean ball ``B(center, radius)``."""
        if radius <= 0:
            raise WolffpotError(f"radius must be positive, got {radius}")
        if self.n_atoms == 0:
            return 0.0
        d = np.linalg.norm(self.positions - np.asarray(center, dtype=float), axis=1)
        return float(np.sum(self.weights[d <= radius]))

    def radial_profile(self, centers, radii=np.inf):
        """Sorted atom distances from each centre and cumulative masses.

        For one point ``centers`` returns ``(dists, cum)`` with ``cum[0] = 0``
        and ``cum[j + 1]`` the mass of the atoms up to the ``j``-th nearest,
        tied atoms in atom order.  At the last of tied distances ``cum[j + 1]``
        is the mass of the closed ball of radius ``dists[j]``, so this is the
        jump representation of ``r -> ball_mass(center, r)`` that
        :func:`profile_mass` reads.  For centres ``(b, n)`` and ``radii``
        ``(b,)`` the arrays are ``(b, width)`` and ``(b, width + 1)``, one
        profile per row over the atoms of the closed ball ``B(center, radius)``,
        padded at the end with distance ``inf`` and the row's last mass.  Each
        row adds its masses in distance order.
        """
        c = np.asarray(centers, dtype=float)
        rows = c.reshape(-1, self.dimension)
        d = np.linalg.norm(self.positions - rows[:, None, :], axis=2)
        inside = d <= np.reshape(radii, (-1, 1))
        count = inside.sum(axis=1)
        d, w = d[inside], (self.weights * inside)[inside]
        # stable: tied atoms stay in atom order
        order = np.lexsort((d, np.repeat(np.arange(len(rows)), count)))
        held = np.arange(count.max(initial=0)) < count[:, None]
        dists = np.full(held.shape, np.inf)
        cum = np.zeros((len(rows), held.shape[1] + 1))  # column 0: the empty ball
        dists[held], cum[:, 1:][held] = d[order], w[order]
        np.cumsum(cum, axis=1, out=cum)  # row by row, so the zero padding adds nothing
        return (dists, cum) if c.ndim > 1 else (dists[0], cum[0])


def profile_mass(profile, radii):
    """Closed-ball masses at ``radii`` of a :meth:`AtomicMeasure.radial_profile`.

    An atom at distance exactly ``r`` counts in the ball of radius ``r``, so
    ``r -> profile_mass(profile, r)`` is the right-continuous ball-mass step
    function; below the nearest atom it is zero.
    """
    dists, cum = profile
    return cum[np.searchsorted(dists, radii, side="right")]


def lebesgue_grid(box, level: int) -> AtomicMeasure:
    """Midpoint-grid surrogate of Lebesgue measure on an aligned box.

    One atom sits at the center of every level-``level`` cell of the unshifted
    lattice inside ``box``; each weight is the cell volume.  Cube masses then
    equal Lebesgue volumes exactly for every dyadic cube at level <= ``level``
    that meets the box.
    """
    n = len(box)
    scale = 2.0 ** level
    axes = []
    for d, (lo, hi) in enumerate(box):
        a, b = lo * scale, hi * scale
        ka, kb = round(a), round(b)
        if abs(a - ka) > 1e-9 or abs(b - kb) > 1e-9 or kb <= ka:
            raise GridAlignmentError(
                f"box side {d} [{lo}, {hi}) is not a union of level-{level} cells"
            )
        axes.append((np.arange(ka, kb) + 0.5) * 2.0 ** (-level))
    mesh = np.meshgrid(*axes, indexing="ij")
    positions = np.stack([m.ravel() for m in mesh], axis=1)
    weights = np.full(positions.shape[0], 2.0 ** (-level * n))
    return AtomicMeasure(positions, weights)


def bernoulli_cascade(gamma: float, depth: int) -> AtomicMeasure:
    """Binary multiplicative cascade on [0, 1) with heavy-child ratio 2^-gamma.

    At every split the left child receives the fraction ``theta = 2^-gamma``
    of its parent's mass and the right child the rest, so along heavy chains
    ``sigma(2^j Q) = 2^{j gamma} sigma(Q)`` exactly: the measure is reverse
    doubling of order ``gamma`` with constant one.  Requires ``0 < gamma <= 1``
    so that the heavy fraction is at least one half.
    """
    if not (0.0 < gamma <= 1.0):
        raise WolffpotError(f"cascade exponent gamma must lie in (0, 1], got {gamma}")
    theta = 2.0 ** (-gamma)
    m = 1 << depth
    weights = np.empty(m)
    for j in range(m):
        ones = bin(j).count("1")  # 1-bits choose the light child
        weights[j] = theta ** (depth - ones) * (1.0 - theta) ** ones
    positions = ((np.arange(m) + 0.5) * 2.0 ** (-depth)).reshape(-1, 1)
    return AtomicMeasure(positions, weights)


def cube_mass_table(
    measure: AtomicMeasure, index: LevelIndex, first: int = 0, weights=None
) -> np.ndarray:
    """Masses of the cubes of ``index``, indexed by cube id.

    The measure's atoms are the index's points ``first, first + 1, ...``.
    A fine-level cube sums its atoms' weights (``weights`` in place of the
    measure's own, when given) in atom order, a coarser cube its children's
    masses in id order.  Atoms outside the window's root region add nothing.
    Re-weighting the same positions re-runs only these two passes.
    """
    leaf = index.rows[-1, first:first + measure.n_atoms]
    held = leaf >= 0
    w = (measure.weights if weights is None else np.asarray(weights, dtype=float))[held]
    return index.subtree(np.bincount(leaf[held], w, minlength=index.n))


def reverse_doubling_check(index: LevelIndex, mass, gamma: float):
    """Empirical dyadic reverse-doubling diagnostic of order ``gamma``.

    ``mass`` holds a measure's masses per cube of ``index`` (a
    :func:`cube_mass_table`).  For every window cube ``Q`` with positive mass
    and every admissible dilation ``j >= 0`` the ratio
    ``sigma(2^j Q) / (2^{j gamma} sigma(Q))`` is computed; ``best_constant``
    is the smallest such ratio, i.e. the largest ``C`` with
    ``sigma(2^j Q) >= C 2^{j gamma} sigma(Q)`` on the window.

    On a finite window the minimum is always positive, so ``holds`` reports
    whether the constant has stabilized rather than merely being nonzero: the
    check fails when the worst ratio is still strictly decaying at the deepest
    admissible dilation (a point mass decays like ``2^{-j gamma}`` all the way
    to the window boundary, while grids and cascades stabilize immediately).
    """
    if gamma <= 0:
        raise WolffpotError("gamma must be positive")
    live = np.flatnonzero(mass > 0.0)
    if not live.size:
        raise DegenerateInputError("no window cube has positive mass")
    worst = []
    up = live  # the ancestor 2^j Q of each live cube Q, -1 once above the window
    for j in range(index.window.depth + 1):
        has = up >= 0
        ratio = mass[up[has]] / (2.0 ** (j * gamma) * mass[live[has]])
        if ratio.size:
            worst.append(float(np.min(ratio)))
        up = np.where(has, index.parent[up], -1)
    best_constant = min(worst)
    if len(worst) >= 2:
        holds = best_constant > 0 and worst[-1] >= worst[-2] * (1.0 - 1e-9)
    else:
        holds = best_constant > 0
    return holds, best_constant


def doubling_constant(measure: AtomicMeasure, sample_points, radii) -> float:
    """Empirical doubling constant ``max sigma(B(x,2r)) / sigma(B(x,r))``.

    Pairs with ``sigma(B(x,r)) = 0`` are skipped; this is a diagnostic over the
    given samples, not a certificate.
    """
    best = None
    for x in sample_points:
        for r in radii:
            m = measure.ball_mass(x, r)
            if m <= 0:
                continue
            ratio = measure.ball_mass(x, 2 * r) / m
            if best is None or ratio > best:
                best = ratio
    if best is None:
        raise DegenerateInputError("all sampled ball masses are zero")
    return best

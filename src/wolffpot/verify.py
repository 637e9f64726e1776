"""Inequality verification harness.

Each check measures the two-sided ratios behind one comparison (energy vs
Wolff mass, the three cube-weight aggregates, duality constants, kernel
dilations, shifted-lattice averaging) on a concrete finite instance.  Checks
are deterministic functions of their inputs and a seed; empirical bounds for
constants the theory leaves implicit default to the band ``[1e-3, 1e3]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, WolffpotError
from .kernels import (
    DyadicKernelMap,
    RadialKernel,
    bar_k,
    dlbo_constant,
    log_kernel,
    per_mass,
    weigh,
    weighted_sum,
)
from .lattice import LatticeWindow
# unused here, but bench/tests/test_tracer.py checks that the tracer wraps this binding
from .measures import AtomicMeasure, cube_mass_table, lebesgue_grid  # noqa: F401
from .potentials import (
    DyadicScene,
    Exponents,
    a_functionals,
    energy_dyadic,
    t_continuous_trunc,
)


@dataclass
class CheckReport:
    """Outcome of one check: measured values against configured bounds.

    ``wall_time`` is diagnostic only and is excluded from deterministic
    serialization, so reports from identical (config, seed) pairs are
    byte-identical.
    """

    name: str
    instance: dict
    params: dict = field(default_factory=dict)  # the check's fields, defaults resolved
    values: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    status: str = "pass"  # pass | fail | not-applicable
    seed: int = 0
    wall_time: float = 0.0
    reason: str | None = None  # why a check is not applicable

    def to_jsonable(self) -> dict:
        out = {
            "name": self.name,
            "status": self.status,
            "seed": self.seed,
            "instance": self.instance,
            "params": self.params,
            "values": dict(self.values),
            "bounds": {k: list(v) for k, v in self.bounds.items()},
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


# -- identities and aggregate comparisons ---------------------------------------


def fubini_pair(scene: DyadicScene, exps: Exponents) -> tuple[float, float]:
    """Both sides of the energy identity, computed along independent routes.

    Left: ``int T[mu]^{p'} dsigma``.  Right: ``int T[(T[mu])^{p'-1} dsigma] dmu``,
    assembled through the operator itself rather than by rearranging the sum.
    """
    sigma, mu = scene.sigma, scene.mu
    tvals = scene.t_mu(sigma)
    lhs = energy_dyadic(scene, exps, tvals)
    rho = weigh(np.power(tvals, exps.p_prime - 1.0), sigma.weights)
    rhs = weighted_sum(mu.weights, scene.t(scene.reweighted(sigma, rho), mu))
    return lhs, rhs


def check_fubini(scene: DyadicScene, exps: Exponents) -> tuple[float, str | None]:
    """Relative gap of the energy identity; NaN and the reason when a side is infinite."""
    lhs, rhs = fubini_pair(scene, exps)
    sides = " and an infinite ".join(s for s, v in (("left", lhs), ("right", rhs)) if math.isinf(v))
    if sides:
        return math.nan, f"the energy identity has an infinite {sides} side"
    return abs(lhs - rhs) / max(lhs, 1e-300), None


def check_a_chain(scene: DyadicScene, lam, s: float):
    """Ratios of the three aggregates: ``(A1/A2, A2/(A1^{1/s} A3^{1/s'}), A3/A1, A1/A3)``."""
    a1, a2, a3 = a_functionals(scene, lam, s)
    if a1 <= 0.0 and a2 <= 0.0 and a3 <= 0.0:
        raise DegenerateInputError("all aggregates vanish")
    sp = s / (s - 1.0)
    holder = a1 ** (1.0 / s) * a3 ** (1.0 / sp)
    return (
        a1 / a2 if a2 > 0 else math.inf,
        a2 / holder if holder > 0 else math.inf,
        a3 / a1 if a1 > 0 else math.inf,
        a1 / a3 if a3 > 0 else math.inf,
    )


def wolff_integral(scene: DyadicScene, exps: Exponents, power: float = 1.0) -> float:
    """``int W^power dmu`` over the mu-atoms (exact weighted sum)."""
    return weighted_sum(scene.mu.weights, np.power(scene.wolff(scene.mu, exps.p_prime), power))


def check_energy_wolff_ratio(scene: DyadicScene,
                             exps: Exponents) -> tuple[float, float, float, str | None]:
    """``(E, int W dmu, E / int W dmu, reason)``; the ratio is NaN, with the reason, when
    either is 0 or inf."""
    e, wm = energy_dyadic(scene, exps), wolff_integral(scene, exps)
    bad = " and ".join(f"the {name} is {'zero' if v <= 0.0 else 'infinite'}"
                       for name, v in (("energy", e), ("Wolff mass", wm)) if not 0.0 < v < math.inf)
    return (e, wm, math.nan, bad) if bad else (e, wm, e / wm, None)


# -- random trace probes ------------------------------------------------------------


#: most entries a block of trace probes holds: probes times the scene's cubes or atoms
PROBE_BLOCK = 1 << 14


def _probe_blocks(count: int, width: int):
    """``(first, size)`` of the consecutive blocks of ``count`` probes of ``width`` entries each."""
    m = max(1, PROBE_BLOCK // max(width, 1))
    return ((lo, min(m, count - lo)) for lo in range(0, count, m))


def _draw(rng, m: int, n: int) -> np.ndarray:
    """``m`` probes on ``n`` atoms, one per row: the numbers of ``m`` draws of
    ``f = 2.0 ** rng.uniform(-8, 8, n)`` zeroed where ``rng.uniform(size=n) < 0.2``."""
    u = rng.random((m, 2, n))
    f = 2.0 ** (-8.0 + 16.0 * u[:, 0])
    f[u[:, 1] < 0.2] = 0.0
    return f


def _probe_ratios(scene: DyadicScene, source, target, fs, r: float, s: float) -> list:
    """``(||T[f dsource]||_{L^s(target)}, ||f||_{L^r(source)})`` of each row ``f`` of ``fs``.

    Each sum adds its terms as for one probe alone (a row sum of the C-ordered
    ``fs``, a column of the table) and each root is taken on a float.
    """
    tf = scene.t(scene.reweighted(source, (source.weights * fs).T), target)
    nums = weighted_sum(target.weights, tf ** s).tolist()
    dens = np.sum(source.weights * fs ** r, axis=1).tolist()
    return [(num ** (1.0 / s), den ** (1.0 / r)) for num, den in zip(nums, dens)]


# -- duality (q = 1) -------------------------------------------------------------


@dataclass
class DualityResult:
    dual_constant: float       # E^(1/p')
    achieved_ratio: float      # ||T f*||_L1(mu) / ||f*||_Lp(sigma) at f* = (T mu)^(p'-1)
    probe_max: float           # best ratio among random nonnegative probes
    pairing_gap: float         # operator-path vs pairing-identity agreement on probes


def trace_constant_q1(
    scene: DyadicScene, exps: Exponents, probes: int = 0, seed: int | None = None
) -> DualityResult:
    """Duality constant of the ``q = 1`` trace inequality and its extremal probe.

    The extremal function ``f* = (T[mu])^{p'-1}`` achieves the dual constant
    ``E^{1/p'}``; it is pushed through the full operator path.  Random probes use
    the exact pairing ``int T[f dsigma] dmu = int T[mu] f dsigma``, in blocks of
    ``PROBE_BLOCK`` entries, one per sigma atom; the first 8 are cross-checked
    against the operator path in blocks of its table budget (the gap is reported).
    """
    sigma, mu = scene.sigma, scene.mu
    tvals = scene.t_mu(sigma)
    e = energy_dyadic(scene, exps, tvals)
    if math.isinf(e):
        raise DegenerateInputError("energy is infinite; trace inequality fails")
    pp, p, sw = exps.p_prime, exps.p, sigma.weights

    def ratio_operator(fs) -> list:
        return [n / d if d > 0 else math.nan for n, d in _probe_ratios(scene, sigma, mu, fs, p, 1.0)]

    achieved = ratio_operator(tvals[None] ** (pp - 1.0))[0]
    probe_max = gap = 0.0
    rng = np.random.default_rng(seed)
    width = max(scene.index.n, sigma.n_atoms, mu.n_atoms)
    for lo, m in _probe_blocks(probes, sigma.n_atoms):  # a pairing probe builds no table
        f = _draw(rng, m, sigma.n_atoms)
        nums = np.sum(sw * f * tvals, axis=1).tolist()  # pairing identity
        heads = [r for a, b in _probe_blocks(min(8 - lo, m), width) for r in ratio_operator(f[a:a + b])]
        for t, (num, den) in enumerate(zip(nums, np.sum(sw * f ** p, axis=1).tolist())):
            if (den := den ** (1.0 / p)) <= 0:
                continue
            probe_max = max(probe_max, num / den)
            if t < len(heads):
                gap = max(gap, abs(heads[t] - num / den) / max(num / den, 1e-300))
    return DualityResult(e ** (1.0 / pp), achieved, probe_max, gap)


# -- upper triangle (1 < q < p) ---------------------------------------------------


@dataclass
class TraceTestResult:
    wolff_norm: float      # (int W^{q(p-1)/(p-q)} dmu)^{(p-q)/(q(p-1))}
    empirical_sup: float   # max probe ratio ||Tf||_Lq(mu) / ||f||_Lp(sigma)
    dlbo: float            # measured oscillation constant of (K, sigma)


def trace_test_upper_triangle(
    scene: DyadicScene, exps: Exponents, trials: int = 50, seed: int = 0
) -> TraceTestResult:
    """Two-sided evidence for the upper-triangle trace inequality.

    Probes the operator norm from below with random nonnegative ``f`` (primal
    side) and with dual probes ``g = (HL-maximal of psi)^{1/p'}`` (the adjoint
    ratio equals the primal one), and reports the Wolff-potential norm at the
    trace exponent plus the measured oscillation constant; equivalence is only
    claimed when the latter is finite.  Each block of probes, of at most
    ``PROBE_BLOCK`` entries, is one table, one chain pass and one gather.
    """
    if exps.q is None or not (1.0 < exps.q < exps.p):
        raise WolffpotError("upper-triangle test needs 1 < q < p")
    q, p, pp = exps.q, exps.p, exps.p_prime
    qp = q / (q - 1.0)
    t_exp = exps.trace_exponent
    sigma, mu = scene.sigma, scene.mu

    wolff_norm = wolff_integral(scene, exps, t_exp) ** (1.0 / t_exp)

    rng = np.random.default_rng(seed)
    blocks = list(_probe_blocks(trials, max(scene.index.n, sigma.n_atoms, mu.n_atoms)))
    ratios = []  # (numerator, denominator) of each probe in draw order, primal first
    for _, m in blocks:
        ratios += _probe_ratios(scene, sigma, mu, _draw(rng, m, sigma.n_atoms), p, q)
    for _, m in blocks:
        psi = 2.0 ** (-8.0 + 16.0 * rng.random((m, mu.n_atoms)))
        ratio = per_mass(scene.reweighted(mu, (mu.weights * psi).T), scene.mu_mass)
        best = scene.chain_values(ratio, mu, np.maximum)
        g = np.ascontiguousarray(np.where(mu.weights[:, None] > 0, best, 0.0).T) ** (1.0 / pp)
        del psi, ratio, best  # before the block's second table
        ratios += _probe_ratios(scene, mu, sigma, g, qp, pp)
    sup_ratio = 0.0
    for num, den in ratios:
        if den > 0:
            sup_ratio = max(sup_ratio, num / den)
    return TraceTestResult(wolff_norm, sup_ratio, dlbo_constant(scene.bar))


# -- the borderline log-kernel instance -------------------------------------------


# the first terms of a log-power series summed one by one, and the Bernoulli
# coefficients B_2k / (2k)!, k = 1..4, of the Euler-Maclaurin remainder
_SERIES_DIRECT = 64
_EULER_MACLAURIN = (1.0 / 12, -1.0 / 720, 1.0 / 30240, -1.0 / 1209600)


def _log_power_sum(a: float, e: float, first: int, last: int) -> float:
    """``sum_{l=first}^{last} (a + l ln 2)^{-e}`` for ``a > 0`` and ``e > 0``."""
    b = math.log(2.0)
    split = min(last + 1, first + _SERIES_DIRECT)
    terms = [(a + l * b) ** -e for l in range(first, split)]
    if split <= last:
        x0, x1 = a + split * b, a + last * b
        log_ratio = math.log1p((last - split) * b / x0)
        if e == 1.0:
            terms.append(log_ratio / b)
        else:  # expm1 keeps the integral accurate as e -> 1
            terms.append(x0 ** (1.0 - e) * math.expm1((1.0 - e) * log_ratio) / ((1.0 - e) * b))
        terms.append(0.5 * (x0 ** -e + x1 ** -e))
        # the odd derivatives f^(r)(l) = -e (e+1) ... (e+r-1) b^r (a + l b)^(-e-r)
        rising = e
        for k, coeff in enumerate(_EULER_MACLAURIN):
            r = 2 * k + 1
            terms.append(-coeff * rising * b ** r * (x1 ** (-e - r) - x0 ** (-e - r)))
            rising *= (e + r) * (e + r + 1)
    return math.fsum(terms)


def counterexample_series(
    beta: float, C: float, n: int, L: int, first: int = 0
) -> tuple[float, float]:
    """Partial sums of the two scalar series of the borderline instance.

    ``S_E(L) = sum_{l=first}^{L} ln(C 2^l)^{-beta}`` (convergent for
    ``beta > 1``) and ``S_Wbar(L) = sum_{l=first}^{L} ln(C 2^l)^{-(2 beta - 2)}``
    (divergent for ``beta <= 3/2``): the energy stays bounded while the
    bar-kernel potential accumulates without bound.  ``first > 0`` gives the
    tails past ``first - 1`` directly, with no difference of two sums.

    The first 64 terms are added with ``math.fsum``; the rest is the
    Euler-Maclaurin sum of ``f(l) = (ln C + l ln 2)^{-e}``: the integral, the
    two end-point half terms and the ``B_2`` ... ``B_8`` corrections.  From the
    65th term on ``ln(C 2^l) > 44``, so the neglected remainder is below
    ``1e-17`` of the sum; both sums agree with ``math.fsum`` of the direct
    terms to a few units in the last place, and the cost does not depend on
    ``L``.
    """
    if not (1.0 < beta <= 1.5):
        raise WolffpotError(f"need 1 < beta <= 3/2, got {beta}")
    if C < math.exp(beta / n) * (1.0 - 1e-12):
        raise WolffpotError(f"need C >= e^(beta/n), got {C}")
    a = math.log(C)
    return _log_power_sum(a, beta, first, L), _log_power_sum(a, 2.0 * beta - 2.0, first, L)


def check_counterexample_fields(
    beta: float, C: float, depth: int
) -> tuple[float, float, float]:
    """Full-field borderline instance at one window depth.

    ``mu`` is the unit-interval Lebesgue grid at the window depth, ``sigma``
    its extension to ``[-1, 2)``, and the kernel the borderline log profile.
    Returns ``(E, min over mu-atoms of Wbar, int W dmu)``.
    """
    window = LatticeWindow.from_box([(-1.0, 2.0)], 0, depth)
    sigma = lebesgue_grid([(-1.0, 2.0)], depth)
    mu = lebesgue_grid([(0.0, 1.0)], depth)
    exps = Exponents(p=2.0)
    scene = DyadicScene(DyadicKernelMap.from_radial(log_kernel(beta, C, 1)), sigma, mu, window)
    min_wbar = float(np.min(scene.wolff_bar(mu, exps.p_prime), initial=math.inf))
    return energy_dyadic(scene, exps), min_wbar, wolff_integral(scene, exps)


# -- shifted-lattice averaging ------------------------------------------------------


def _shifted_dyadic_potential(kernel, mu, xs, zs, j: int, j0: int, by_z=None):
    """``T`` over shifted lattices with the quarter-dilated kernel.

    Evaluates ``sum_l k(2^-l / 4) mu(Q_{l,z}(x))`` for each shift ``z`` in
    ``zs``, where ``Q_{l,z}(x)`` is the level-``l`` cube of the lattice
    shifted by ``z`` containing ``x``.  Levels run from the coarsest scale the
    kernel can see down to the separation scale of the atoms, which loses only
    nonnegative terms (a conservative truncation for an upper-bound check).
    The level-``l`` key of a point ``p`` is ``floor(fl(p - z) 2^l)``.

    In 1-D the cubes of ``x`` are runs of the sorted atoms, found by at most
    ``levels + 1`` binary searches per shift (:func:`_ranges_1d`); in more
    dimensions they are found by common dyadic depth
    (:func:`_common_depth`).  ``by_z`` is the 1-D shifts' ``argsort``, when
    known.  Returns the values per shift and the number of live levels.
    """
    pos, w = mu.positions, mu.weights
    x = np.asarray(xs, dtype=float)
    if kernel.cutoff is not None:
        l_min = -int(math.floor(math.log2(4.0 * kernel.cutoff)))
    else:
        l_min = -(j + j0 + 4)
    d_inf = np.max(np.abs(pos - x), axis=1)
    d_pos = d_inf[d_inf > 0]
    if d_pos.size:
        l_max = int(math.floor(-math.log2(float(np.min(d_pos))))) + 1
    else:
        l_max = l_min + 50
    l_max = min(max(l_max, l_min + 1), l_min + 52)
    radii = np.ldexp(0.25, -np.arange(l_min, l_max + 1))
    seen = radii <= (math.inf if kernel.cutoff is None else kernel.cutoff)
    kvals = np.zeros(radii.size)
    kvals[seen] = kernel.profile(radii[seen])
    live = kvals > 0.0
    if x.size == 1:
        by_z = np.argsort(zs[:, 0]) if by_z is None else by_z
        out = _ranges_1d(pos[:, 0], w, float(x[0]), zs, l_min, kvals, by_z)
    else:
        out = _common_depth(pos, w, x, zs, l_min, l_max, kvals, live)
    return out, int(np.count_nonzero(live))


def _bin_table(p):
    """``(origin, width, scale, firsts)``: bin ``b`` of ``2 x atoms`` equal bins over the hull of
    the sorted atoms ``p`` starts at ``origin + b / scale``, and ``firsts[b]`` is the first atom at
    or above that start.  A hull of width 0, or of no float bin width, is one bin."""
    origin, bins, width = float(p[0]), 2 * p.size, float(p[-1] - p[0])
    if not bins * 2.0 ** -1022 < width < math.inf:
        bins, width = 0, 0.0
    edges = origin + np.arange(bins + 1) * (width / max(bins, 1))
    return origin, width, bins / width if bins else 0.0, np.searchsorted(p, edges)


def _first_at_least(padded, z, thr, table):
    """Per shift, the first index of the sorted atoms with ``fl(p - z) >= thr``.

    ``padded`` is the sorted atoms between ``-inf`` and ``+inf``, and ``table``
    their :func:`_bin_table`.  As ``fl(p - z)`` is monotone in ``p``, the atoms
    that pass form a suffix.  The guess is the first atom of the bin of
    ``thr + z``, one step forward where that atom fails.  Where the atom beyond
    the step fails too, or, with no step, the atom before the guess passes, a
    bisection over the indices on the wrong side finds the start; it does not
    step one atom at a time, because many atoms can share one ``fl(p - z)``
    (repeated atoms, or atoms that a large ``|z|`` absorbs).  So the guess sets
    only the speed: every index is exact.
    """
    origin, width, scale, firsts = table
    at = np.add(thr, z)
    at -= origin
    np.clip(at, 0.0, width, out=at)  # a needle outside the hull reads an end bin
    at *= scale
    c = at.astype(np.intp)
    firsts.take(c, out=c, mode="clip")
    # the step, then the test of the atom beyond it (with no step, before the guess), in place
    c += (step := np.subtract(padded[1:].take(c, out=at, mode="clip"), z, out=at) < thr)
    c += step
    bad = np.flatnonzero((np.subtract(padded.take(c, out=at, mode="clip"), z, out=at) < thr) == step)
    c -= step
    if bad.size:
        zb, tb = z[bad], thr[bad]
        lo = np.where(step[bad], c[bad] + 1, 0)
        hi = np.where(step[bad], padded.size - 2, c[bad] - 1)
        while np.any(open_ := lo < hi):
            mid = (lo + hi) // 2
            up = padded[mid + 1] - zb >= tb
            hi = np.where(open_ & up, mid, hi)
            lo = np.where(open_ & ~up, mid + 1, lo)
        c[bad] = lo
    return c


def _ranges_1d(pos, w, x: float, zs, l_min: int, kvals, by_z):
    """1-D ``T`` per shift from the runs of sorted atoms in ``x``'s cubes.

    ``fl(p - z)`` is monotone in ``p``, so the atoms of ``x``'s level-``l``
    cube ``[k 2^-l, (k + 1) 2^-l)`` are the sorted atoms from the first with
    ``fl(p - z) >= k 2^-l`` (an exact scaling of ``floor(fl(p - z) 2^l) >= k``)
    to the first with ``fl(p - z)`` at the upper bound.  Where ``k + 1`` is not
    a float (``|k| >= 2^53``) the upper bound is ``nextafter(k, +inf) 2^-l``.
    Each finer cube is one half of its parent, so it shares one bound with it,
    and only its other bound is searched for, through one bin table of the atoms
    (:func:`_first_at_least`).  The cube always holds ``x``, whose insertion index
    ``ix`` lies in its run, so its mass is read from cumulative sums running outward
    from ``ix``: a sum of the cube's own weights, never a difference of large sums.

    The shifts are swept in sorted order, ``by_z``, so the search keys of one level
    ascend between the jumps of ``k``; each value is stored at its shift's
    draw index.  A shift whose run is empty (``lo == hi == ix``) leaves the
    sweep: the finer cubes are empty too, and each of their terms would add
    ``0`` to its value (unless a kernel value is infinite, when none leaves).
    """
    order = np.argsort(pos, kind="stable")
    p, w = pos[order], w[order]
    padded = np.concatenate(([-np.inf], p, [np.inf]))
    table = _bin_table(p)
    ix = int(np.searchsorted(p, x))
    # mass[i]: the weights between i and ix, summed outward from ix, for i on either side
    mass = np.concatenate((np.cumsum(w[:ix][::-1])[::-1], [0.0], np.cumsum(w[ix:])))
    # live: the draw indices of the shifts still swept, by z (equal shifts have
    # equal values, so their order is free); sums: their values
    live, z = by_z, zs[by_z, 0]
    out = np.zeros(z.size)
    sums = np.zeros(z.size)
    reach = float(np.max(np.abs(x - z), initial=0.0))
    # an infinite kernel value times an empty cube's 0 is nan, which dropping would hide
    drop = bool(np.all(np.isfinite(kvals)))
    lo = hi = parent_lower = None
    for i in range(kvals.size):
        level = l_min + i
        k = np.floor((x - z) * 2.0 ** level)
        lower = k * 2.0 ** -level
        # the upper bound is (k + gap) 2^-level; |k| <= reach 2^level + 1, so
        # below 2^52 the next float above k is k + 1
        gap = 1.0 if reach * 2.0 ** level < 2.0 ** 52 else np.maximum(k + 1.0, np.nextafter(k, np.inf)) - k
        if lo is None:  # the first level searches both bounds
            lo, hi, parent_lower = _first_at_least(padded, z, lower, table), np.empty_like(live), lower
        # the cube keeps its parent's lower bound, and gets a new upper one,
        # or else the reverse; the new bound lies in its parent's run
        kept = lower == parent_lower
        np.add(k, gap, out=k, where=kept)
        k *= 2.0 ** -level
        new = _first_at_least(padded, z, k, table)
        np.copyto(hi, new, where=kept)
        np.copyto(lo, new, where=~kept)
        del k, new  # before this level's sums and compaction
        parent_lower = lower
        sums += kvals[i] * (mass[lo] + mass[hi])
        if drop and (m := (keep := np.flatnonzero(lo != hi)).size) < live.size:
            out[live] = sums
            live = live[keep]
            for a in (sums, z, lo, hi, parent_lower):  # each into its own front
                a[:m] = a[keep]
            sums, z, lo, hi, parent_lower = sums[:m], z[:m], lo[:m], hi[:m], parent_lower[:m]
        if not live.size:
            break
    out[live] = sums
    return out


def _common_depth(pos, w, x, zs, l_min: int, l_max: int, kvals, live):
    """``T`` per shift by the common dyadic depth of ``x`` and each atom.

    The level-``l`` key of a point is its fine key ``floor((p - z) 2^{l_max})``
    shifted right by ``l_max - l``, so an atom lies in ``Q_{l,z}(x)`` exactly
    for ``l <= l_max - b``, where ``b`` is the bit length of the OR over
    coordinates of ``key_p XOR key_x``.  Fine keys can pass 2^63, so each key
    is split into its level-``l_min`` key (compared as a float) and the
    residual below that cube, an integer under ``2^{l_max - l_min} <= 2^52``.
    Each atom then picks the sum of ``k`` over its levels from one table, and
    a mat-vec with the weights gives ``T``: ``O(shifts x atoms x dim)`` work
    with ``(chunk x atoms)`` temporaries and no levels axis.
    """
    # by_bits[b]: the live k summed over the levels l <= l_max - b
    s = l_max - l_min
    by_bits = np.append(np.cumsum(np.where(live, kvals, 0.0))[::-1], 0.0)
    out = np.zeros(zs.shape[0])
    chunk = 2048

    def split_keys(d):
        coarse = np.floor(d * 2.0 ** l_min)
        # an integer in [0, 2^s), so the float difference is exact
        fine = np.floor(d * 2.0 ** l_max) - coarse * 2.0 ** s
        return coarse, fine.astype(np.int64)

    for lo in range(0, zs.shape[0], chunk):
        z = zs[lo : lo + chunk]  # (c, n)
        differ = np.zeros((z.shape[0], pos.shape[0]), dtype=np.int64)  # (c, m)
        for i in range(x.size):
            cx, fx = split_keys(x[i] - z[:, i])
            cp, fp = split_keys(pos[None, :, i] - z[:, i, None])
            differ |= fp ^ fx[:, None]
            # bit s marks an atom outside x's level-l_min cube: b = s + 1
            differ |= (cp != cx[:, None]).astype(np.int64) << s
        # differ < 2^(s+1) <= 2^53 converts to float exactly, so frexp's
        # exponent is its bit length
        bits = np.frexp(differ.astype(float))[1]
        out[lo : lo + chunk] = by_bits.take(bits.astype(np.intp)) @ w
    return out


def shifted_average_check(
    kernel: RadialKernel,
    mu: AtomicMeasure,
    j: int,
    shift_samples: int,
    x_samples,
    seed: int,
) -> dict:
    """Truncated-operator vs averaged-shifted-lattice comparison.

    Estimates ``(1/2^{jn}) int_{|z| <= 2^{j+j0}} T_shifted[mu](x) dz`` by Monte
    Carlo (uniform shifts in the ball) and returns the worst ratio of
    ``T^{2^j}[mu](x)`` to the estimate minus three standard errors, over the
    sample points.  ``j0`` is the smallest integer with ``2^{j0} > 2 sqrt(n) + 1``.
    Points where ``T^{2^j}[mu](x) = 0`` are vacuous and not sampled.  Also
    returned: ``levels``, the most live lattice levels any point swept, and
    ``max_rel_stderr``, the worst ``stderr / estimate`` (``inf`` where a point's
    estimate is 0).
    """
    n = mu.dimension
    j0 = 1
    while 2.0 ** j0 <= 2.0 * math.sqrt(n) + 1.0:
        j0 += 1
    R = 2.0 ** (j + j0)
    rng = np.random.default_rng(seed)
    if n == 1:
        zs = rng.uniform(-R, R, (shift_samples, 1))
        by_z = np.argsort(zs[:, 0])  # once for all points
        vol = 2.0 * R
    else:
        direc = rng.normal(size=(shift_samples, n))
        direc /= np.linalg.norm(direc, axis=1, keepdims=True)
        rad = R * rng.uniform(size=shift_samples) ** (1.0 / n)
        zs, by_z = direc * rad[:, None], None
        vol = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * R ** n
    ratios = []
    details = []
    levels = 0
    for x in x_samples:
        lhs = t_continuous_trunc(kernel, mu, 2.0 ** j, x)
        if lhs == 0.0:
            continue  # vacuous point
        vals, n_levels = _shifted_dyadic_potential(kernel, mu, x, zs, j, j0, by_z)
        levels = max(levels, n_levels)
        est = vol * float(np.mean(vals))
        se = vol * float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        rhs = max(est - 3.0 * se, 0.0) / 2.0 ** (j * n)
        ratios.append(lhs / rhs if rhs > 0 else math.inf)
        details.append({"lhs": lhs, "estimate": est, "stderr": se})
    rel_stderr = [d["stderr"] / d["estimate"] if d["estimate"] > 0 else math.inf for d in details]
    return {
        "max_ratio": max(ratios, default=0.0),
        "n_points": len(ratios),
        "j0": j0,
        "levels": levels,
        "max_rel_stderr": max(rel_stderr, default=0.0),
        "details": details,
    }


# -- kernel dilation and bar-kernel lemmas -------------------------------------------


def check_kernel_dilation(scene: DyadicScene, exps: Exponents, c: float) -> tuple[float, float]:
    """Dilated-to-undilated ratios of the Wolff-type sums.

    Compares ``sum_Q k(c r_Q) sigma(Q) bar(Q)^{p'-1} mu(Q)^{p'}`` against the
    ``c = 1`` sum, and likewise the ``L^r(dmu)`` norms of the corresponding
    chain functions at the trace exponent ``r``.  The scene's ``K`` must come
    from a radial kernel ``k``; the bar factor is its cumulative kernel at the
    cube's scale and center.
    """
    pp = exps.p_prime
    r_exp = exps.trace_exponent if exps.q is not None else 1.0
    kernel, sigma, mu = scene.kernel.radial, scene.sigma, scene.mu
    index, sig, mut = scene.index, scene.sigma_mass, scene.mu_mass
    window = index.window
    support = np.flatnonzero((mut > 0.0) & (sig > 0.0))
    # each cube's side 2^-level and its centre z + (k + 1/2) side, per coordinate
    sides = np.ldexp(1.0, -index.level[support])
    centers = np.asarray(window.shift) + (index.indices(support) + 0.5) * sides[:, None]
    bar_vals = bar_k(kernel, sigma, centers, sides)
    # cubes whose bar factor is zero or infinite are left out of both sums
    ok = (bar_vals > 0.0) & np.isfinite(bar_vals)
    support, bar_vals = support[ok], bar_vals[ok]
    levels = range(window.coarse_level, window.fine_level + 1)
    # k(d r_Q) sigma(Q) bar(Q)^{p'-1} on the support, one column per dilation d = c, 1
    per_level = np.array([[kernel(d * 2.0 ** -lvl) for d in (c, 1.0)] for lvl in levels])
    fac = (per_level[index.level[support] - window.coarse_level] * sig[support, None]
           * np.power(bar_vals, pp - 1.0)[:, None])
    mu_pp = np.power(mut[support], pp)
    s_dil, s_one = weighted_sum(fac[:, 0], mu_pp), weighted_sum(fac[:, 1], mu_pp)
    sum_ratio = s_dil / s_one if s_one > 0 else math.nan
    terms = np.zeros((index.n, 2))
    terms[support] = fac * np.power(mut[support], pp - 1.0)[:, None]
    vals = weighted_sum(mu.weights, np.power(scene.chain_values(terms, mu), r_exp)).tolist()
    n_dil, n_one = (v ** (1.0 / r_exp) for v in vals)
    norm_ratio = n_dil / n_one if n_one > 0 else math.nan
    return sum_ratio, norm_ratio


def check_bar_lemmas(scene: DyadicScene, samples) -> tuple[float, float, float]:
    """Two-sided ratio bounds for the three bar-kernel reformulations.

    The scene's ``K`` must come from a radial kernel ``k``.  For sampled
    ``(x, r)``: ball average of ``k(|x-.|)`` vs ``bar_k(r)(x)``; the dyadic
    ``bar_K(Q)(x)`` at the cube of scale ``r`` vs ``bar_k(r)(x)``; and
    ``bar_k(r)`` vs ``bar_k(2r)``.  Returns the three worst two-sided ratios;
    degenerate samples are skipped.
    """
    kernel, sigma, bf = scene.kernel.radial, scene.sigma, scene.bar
    window = bf.window
    reform = relation = doubling = None

    def two_sided(a, b, cur):
        if a <= 0 or b <= 0 or math.isinf(a) or math.isinf(b):
            return cur
        ratio = max(a / b, b / a)
        return ratio if cur is None or ratio > cur else cur

    live = [(x, r, mass) for x, r in samples if (mass := sigma.ball_mass(x, r)) > 0.0]
    xs = np.array([x for x, _, _ in live], dtype=float).reshape(len(live), sigma.dimension)
    rs = np.array([r for _, r, _ in live], dtype=float)
    levels = np.array([round(-math.log2(r)) for r in rs.tolist()], dtype=np.int64)
    # the samples with a cube: a scale inside the window's levels, a centre inside it
    held = ((levels >= window.coarse_level) & (levels <= window.fine_level)
            & window.contains(xs))
    # one bar_k call: every ball at r, then at 2r, then at its cube's side
    bks = bar_k(kernel, sigma, np.concatenate([xs, xs, xs[held]]),
                np.concatenate([rs, 2.0 * rs, np.ldexp(1.0, -levels[held])])).tolist()
    for (x, r, mass), bk, bk2 in zip(live, bks, bks[len(live):]):
        reform = two_sided(t_continuous_trunc(kernel, sigma, r, x) / mass, bk, reform)
        doubling = two_sided(bk, bk2, doubling)
    for bar, bk_side in zip(bf.bar(xs[held], levels[held]).tolist(), bks[2 * len(live):]):
        relation = two_sided(bar, bk_side, relation)
    if reform is None and relation is None and doubling is None:
        raise DegenerateInputError("all samples degenerate")
    return (
        reform if reform is not None else math.nan,
        relation if relation is not None else math.nan,
        doubling if doubling is not None else math.nan,
    )


# -- truncation sweeps -----------------------------------------------------------------


@dataclass
class SweepResult:
    depths: list
    values: list
    rel_changes: list
    converged: bool


def truncation_sweep(fn, depths, rtol: float = 0.05, atol: float = 1e-9) -> SweepResult:
    """Re-run a depth-parametrized quantity and report successive changes.

    ``converged`` holds when the final change is below ``rtol`` relative or
    ``atol`` absolute; divergent quantities (the borderline bar-potential)
    keep failing this and are thereby flagged.
    """
    depths = list(depths)
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise WolffpotError("depths must be strictly increasing")
    values = [float(fn(d)) for d in depths]
    rel = []
    for prev, cur in zip(values, values[1:]):
        diff = abs(cur - prev)
        rel.append(diff / max(abs(prev), 1e-300))
    if not rel:
        return SweepResult(depths, values, rel, True)
    last_abs = abs(values[-1] - values[-2])
    converged = rel[-1] <= rtol or last_abs <= atol
    return SweepResult(depths, values, rel, converged)

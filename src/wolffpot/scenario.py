"""Scenario configuration: one JSON document describing an experiment.

A scenario names the window, the two measures, the kernel, the exponents,
and a list of checks with per-check parameters.  Builders validate eagerly
and raise :class:`ScenarioError` with the offending field.
"""

from __future__ import annotations

import csv
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ScenarioError, WolffpotError
from .kernels import DyadicKernelMap, log_kernel, riesz_kernel, constant_kernel
from .lattice import LatticeWindow
from .measures import AtomicMeasure, bernoulli_cascade, lebesgue_grid
from .potentials import DyadicScene, Exponents

DEFAULT_BAND = (1e-3, 1e3)


@dataclass
class Scenario:
    dimension: int
    window: LatticeWindow
    sigma: AtomicMeasure
    mu: AtomicMeasure
    kernel: DyadicKernelMap
    exponents: Exponents
    checks: list = field(default_factory=list)
    seed: int | None = None
    band: tuple = DEFAULT_BAND
    _scene: DyadicScene | None = field(default=None, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    @property
    def scene(self) -> DyadicScene:
        """The instance's one :class:`DyadicScene`, built on first use.

        Every dyadic check and field of the scenario reads it, so the level
        index and its per-cube arrays are built once however many checks run,
        and never for a scenario that needs none.
        """
        with self._lock:
            if self._scene is None:
                self._scene = DyadicScene(self.kernel, self.sigma, self.mu, self.window)
            return self._scene


_REQUIRED = object()


def config_value(cfg: dict, key: str, where: str, kind=None, default=_REQUIRED):
    """``kind(cfg[key])``, or ``default`` when the field is absent or null.

    A missing required field, or a value that ``kind`` rejects, raises
    :class:`ScenarioError` naming ``where`` and the field.
    """
    value = cfg.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ScenarioError(f"{where}: missing required field {key!r}")
        return default
    if kind is None:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: field {key!r} has the invalid value {value!r}") from exc


def band_pair(value) -> tuple[float, float]:
    """A ``[lower, upper]`` band as two floats."""
    lo, hi = value
    return float(lo), float(hi)


def build_window(cfg: dict, dimension: int) -> LatticeWindow:
    box = config_value(cfg, "box", "window")
    if len(box) != dimension:
        raise ScenarioError(f"window: box has {len(box)} sides, dimension is {dimension}")
    shift = cfg.get("shift", [0.0] * dimension)
    try:
        return LatticeWindow.from_box(
            [tuple(side) for side in box],
            config_value(cfg, "coarse_level", "window", int),
            config_value(cfg, "fine_level", "window", int),
            shift=shift,
        )
    except WolffpotError as exc:
        raise ScenarioError(f"window: {exc}") from exc


def build_measure(cfg: dict, dimension: int, where: str) -> AtomicMeasure:
    kind = config_value(cfg, "type", where)
    try:
        if kind == "atoms":
            pos = np.asarray(config_value(cfg, "positions", where), dtype=float)
            if pos.ndim == 1:
                pos = pos.reshape(-1, 1)
            return AtomicMeasure(pos, config_value(cfg, "weights", where))
        if kind == "lebesgue_grid":
            return lebesgue_grid(
                [tuple(side) for side in config_value(cfg, "box", where)],
                config_value(cfg, "level", where, int),
            )
        if kind == "bernoulli_cascade":
            if dimension != 1:
                raise ScenarioError(f"{where}: bernoulli_cascade needs dimension 1")
            return bernoulli_cascade(
                config_value(cfg, "gamma", where, float), config_value(cfg, "depth", where, int)
            )
    except WolffpotError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}: unknown measure type {kind!r}")


def read_kernel_table(path: str | Path) -> dict:
    """CSV kernel table with columns level, index components, value."""
    table = {}
    with open(path, newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), 1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if row_no == 1 and not row[0].lstrip("-").isdigit():
                continue  # header line
            try:
                level = int(row[0])
                idx = tuple(int(v) for v in row[1:-1])
                val = float(row[-1])
            except ValueError as exc:
                raise ScenarioError(f"kernel table {path} line {row_no}: {exc}") from exc
            table[(level, idx)] = val
    if not table:
        raise ScenarioError(f"kernel table {path} holds no entries")
    return table


def build_kernel(cfg: dict, dimension: int) -> DyadicKernelMap:
    kind = config_value(cfg, "type", "kernel")
    cutoff = config_value(cfg, "cutoff", "kernel", float, None)
    try:
        if kind == "riesz":
            alpha = config_value(cfg, "alpha", "kernel", float)
            return DyadicKernelMap.from_radial(riesz_kernel(alpha, dimension, cutoff=cutoff))
        if kind == "log":
            beta = config_value(cfg, "beta", "kernel", float)
            C = config_value(cfg, "C", "kernel", float)
            return DyadicKernelMap.from_radial(log_kernel(beta, C, dimension))
        if kind == "constant":
            value = config_value(cfg, "value", "kernel", float, 1.0)
            return DyadicKernelMap.from_radial(constant_kernel(value, cutoff=cutoff))
        if kind == "table":
            return DyadicKernelMap.from_table(read_kernel_table(config_value(cfg, "path", "kernel")))
    except WolffpotError as exc:
        raise ScenarioError(f"kernel: {exc}") from exc
    raise ScenarioError(f"kernel: unknown type {kind!r}")


RANDOMIZED_CHECKS = {"trace_upper", "shifted_average", "trace_q1"}


def build_scenario(cfg: dict) -> Scenario:
    dimension = config_value(cfg, "dimension", "scenario", int)
    if dimension < 1:
        raise ScenarioError(f"scenario: dimension must be >= 1, got {dimension}")
    window = build_window(config_value(cfg, "window", "scenario"), dimension)
    sigma = build_measure(config_value(cfg, "sigma", "scenario"), dimension, "sigma")
    mu = build_measure(config_value(cfg, "mu", "scenario"), dimension, "mu")
    if sigma.dimension != dimension or mu.dimension != dimension:
        raise ScenarioError("scenario: measure dimension does not match")
    kernel = build_kernel(config_value(cfg, "kernel", "scenario"), dimension)
    exp_cfg = config_value(cfg, "exponents", "scenario")
    p = config_value(exp_cfg, "p", "exponents", float)
    q = config_value(exp_cfg, "q", "exponents", float, None)
    try:
        exponents = Exponents(p, q)
    except WolffpotError as exc:
        raise ScenarioError(f"exponents: {exc}") from exc
    checks = list(cfg.get("checks", []))
    seed = config_value(cfg, "seed", "scenario", int, None)
    for chk in checks:
        if not isinstance(chk, dict) or "name" not in chk:
            raise ScenarioError(f"checks: every entry needs a name, got {chk!r}")
        if chk["name"] in RANDOMIZED_CHECKS and seed is None and "seed" not in chk:
            raise ScenarioError(
                f"checks: {chk['name']} is randomized and needs a seed "
                "(scenario-level or per-check)"
            )
    band = config_value(cfg.get("bands") or {}, "default", "bands", band_pair, DEFAULT_BAND)
    return Scenario(
        dimension=dimension,
        window=window,
        sigma=sigma,
        mu=mu,
        kernel=kernel,
        exponents=exponents,
        checks=checks,
        seed=seed,
        band=band,
    )


def load_scenario(path: str | Path) -> Scenario:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return build_scenario(cfg)


def read_points_csv(path: str | Path, dimension: int) -> np.ndarray:
    pts = []
    with open(path, newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), 1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                vals = [float(v) for v in row]
            except ValueError:
                if row_no == 1:
                    continue  # header
                raise ScenarioError(f"{path} line {row_no}: not a numeric row")
            if len(vals) != dimension:
                raise ScenarioError(
                    f"{path} line {row_no}: expected {dimension} coordinates, got {len(vals)}"
                )
            pts.append(vals)
    if not pts:
        raise ScenarioError(f"{path}: no query points")
    return np.asarray(pts)

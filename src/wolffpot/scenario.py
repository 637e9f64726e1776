"""Scenario configuration: one JSON document describing an experiment.

A scenario names the window, the two measures, the kernel, the exponents,
and a list of checks with per-check parameters.  Builders validate eagerly
and raise :class:`ScenarioError` with the offending field.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ScenarioError, WolffpotError
from .kernels import DyadicKernelMap, RadialKernel, log_kernel, riesz_kernel, constant_kernel
from .lattice import LatticeWindow
from .measures import AtomicMeasure, bernoulli_cascade, lebesgue_grid
from .potentials import Exponents

DEFAULT_BAND = (1e-3, 1e3)


@dataclass
class Scenario:
    dimension: int
    window: LatticeWindow
    sigma: AtomicMeasure
    mu: AtomicMeasure
    kernel: DyadicKernelMap
    radial: RadialKernel | None
    exponents: Exponents
    checks: list = field(default_factory=list)
    seed: int | None = None
    band: tuple = DEFAULT_BAND


def _need(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return cfg[key]


def build_window(cfg: dict, dimension: int) -> LatticeWindow:
    box = _need(cfg, "box", "window")
    if len(box) != dimension:
        raise ScenarioError(f"window: box has {len(box)} sides, dimension is {dimension}")
    shift = cfg.get("shift", [0.0] * dimension)
    try:
        return LatticeWindow.from_box(
            [tuple(side) for side in box],
            int(_need(cfg, "coarse_level", "window")),
            int(_need(cfg, "fine_level", "window")),
            shift=shift,
        )
    except WolffpotError as exc:
        raise ScenarioError(f"window: {exc}") from exc


def build_measure(cfg: dict, dimension: int, where: str) -> AtomicMeasure:
    kind = _need(cfg, "type", where)
    try:
        if kind == "atoms":
            pos = np.asarray(_need(cfg, "positions", where), dtype=float)
            if pos.ndim == 1:
                pos = pos.reshape(-1, 1)
            return AtomicMeasure(pos, _need(cfg, "weights", where))
        if kind == "lebesgue_grid":
            return lebesgue_grid(
                [tuple(side) for side in _need(cfg, "box", where)],
                int(_need(cfg, "level", where)),
            )
        if kind == "bernoulli_cascade":
            if dimension != 1:
                raise ScenarioError(f"{where}: bernoulli_cascade needs dimension 1")
            return bernoulli_cascade(
                float(_need(cfg, "gamma", where)), int(_need(cfg, "depth", where))
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


def build_kernel(cfg: dict, dimension: int) -> tuple[DyadicKernelMap, RadialKernel | None]:
    kind = _need(cfg, "type", "kernel")
    cutoff = cfg.get("cutoff")
    try:
        if kind == "riesz":
            rk = riesz_kernel(float(_need(cfg, "alpha", "kernel")), dimension, cutoff=cutoff)
            return DyadicKernelMap.from_radial(rk), rk
        if kind == "log":
            rk = log_kernel(
                float(_need(cfg, "beta", "kernel")),
                float(_need(cfg, "C", "kernel")),
                dimension,
            )
            return DyadicKernelMap.from_radial(rk), rk
        if kind == "constant":
            rk = constant_kernel(float(cfg.get("value", 1.0)), cutoff=cutoff)
            return DyadicKernelMap.from_radial(rk), rk
        if kind == "table":
            table = read_kernel_table(_need(cfg, "path", "kernel"))
            return DyadicKernelMap.from_table(table), None
    except WolffpotError as exc:
        raise ScenarioError(f"kernel: {exc}") from exc
    raise ScenarioError(f"kernel: unknown type {kind!r}")


RANDOMIZED_CHECKS = {"trace_upper", "shifted_average", "trace_q1"}


def build_scenario(cfg: dict) -> Scenario:
    dimension = int(_need(cfg, "dimension", "scenario"))
    if dimension < 1:
        raise ScenarioError(f"scenario: dimension must be >= 1, got {dimension}")
    window = build_window(_need(cfg, "window", "scenario"), dimension)
    sigma = build_measure(_need(cfg, "sigma", "scenario"), dimension, "sigma")
    mu = build_measure(_need(cfg, "mu", "scenario"), dimension, "mu")
    if sigma.dimension != dimension or mu.dimension != dimension:
        raise ScenarioError("scenario: measure dimension does not match")
    kernel, radial = build_kernel(_need(cfg, "kernel", "scenario"), dimension)
    exp_cfg = _need(cfg, "exponents", "scenario")
    try:
        exponents = Exponents(
            float(_need(exp_cfg, "p", "exponents")),
            float(exp_cfg["q"]) if exp_cfg.get("q") is not None else None,
        )
    except WolffpotError as exc:
        raise ScenarioError(f"exponents: {exc}") from exc
    checks = list(cfg.get("checks", []))
    seed = cfg.get("seed")
    for chk in checks:
        if not isinstance(chk, dict) or "name" not in chk:
            raise ScenarioError(f"checks: every entry needs a name, got {chk!r}")
        if chk["name"] in RANDOMIZED_CHECKS and seed is None and "seed" not in chk:
            raise ScenarioError(
                f"checks: {chk['name']} is randomized and needs a seed "
                "(scenario-level or per-check)"
            )
    band = tuple(cfg.get("bands", {}).get("default", DEFAULT_BAND))
    return Scenario(
        dimension=dimension,
        window=window,
        sigma=sigma,
        mu=mu,
        kernel=kernel,
        radial=radial,
        exponents=exponents,
        checks=checks,
        seed=int(seed) if seed is not None else None,
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

"""Scenario configuration: one JSON document describing an experiment.

A scenario names the window, the two measures, the kernel, the exponents,
and a list of checks with per-check parameters.  Builders validate eagerly
and raise :class:`ScenarioError` with the offending field.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager
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

    @property
    def scene(self) -> DyadicScene:
        """The instance's one :class:`DyadicScene`, built on first use.

        Every dyadic check and field of the scenario reads it, so the level
        index and its per-cube arrays are built once however many checks run,
        and never for a scenario that needs none.
        """
        if self._scene is None:
            self._scene = DyadicScene(self.kernel, self.sigma, self.mu, self.window)
        return self._scene


_REQUIRED = object()


def config_value(cfg: dict, key: str, where: str, kind=None, default=_REQUIRED):
    """``kind(cfg[key])``, or ``default`` when the field is absent or null.

    A missing required field, or a value that ``kind`` rejects, raises
    :class:`ScenarioError` naming ``where`` and the field.
    """
    if not isinstance(cfg, dict):
        raise ScenarioError(f"{where}: expected an object, got {cfg!r}")
    value = cfg.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ScenarioError(f"{where}: missing required field {key!r}")
        return default
    if kind is None:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{where}: field {key!r} has the invalid value {value!r}") from exc


def reject_unknown(cfg: dict, where: str, known) -> None:
    """Raise :class:`ScenarioError` naming ``where`` and the first field of ``cfg`` not in ``known``."""
    for key in cfg:
        if key not in known:
            raise ScenarioError(f"{where}: unknown field {key!r}")


def real(value) -> float:
    """A JSON number that is neither a boolean nor NaN, as a float; infinities pass."""
    # type(), not isinstance(): a JSON boolean is no number here
    if type(value) not in (int, float) or math.isnan(value):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def integer(value) -> int:
    """An integral JSON number, ``3`` or ``3.0``, as an int; ``3.5``, ``"3"`` and ``true`` are not."""
    if not (type(value) is int or (type(value) is float and value.is_integer())):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def at_least(low: int):
    """The kind of an integer no less than ``low``."""
    def kind(value) -> int:
        value = integer(value)
        if value < low:
            raise ValueError(f"{value!r} is less than {low}")
        return value
    return kind


def json_bool(value) -> bool:
    """A JSON boolean; any other value, the string ``"false"`` included, is rejected."""
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} is not a boolean")
    return value


def finite(value) -> float:
    """A :func:`real` that is not infinite."""
    value = real(value)
    if math.isinf(value):
        raise ValueError(f"{value!r} is not finite")
    return value


def list_of(kind, length=None):
    """The kind of a JSON list, of exactly ``length`` items when given, each read by ``kind``."""
    def read(value) -> list:
        if type(value) is not list or length not in (None, len(value)):
            raise ValueError(f"{value!r} is not a list" + (f" of {length} items" if length else ""))
        return [kind(v) for v in value]
    return read


def atom_positions(dimension: int):
    """The kind of a list of points of ``dimension`` finite numbers, read as an
    ``(atoms, dimension)`` array; in 1-D a point may also be a bare number."""
    point = list_of(finite, dimension)

    def atom(value) -> list[float]:
        if dimension == 1 and type(value) is not list:
            value = [value]
        return point(value)

    atoms = list_of(atom)
    return lambda value: np.array(atoms(value), dtype=float).reshape(-1, dimension)


@contextmanager
def naming(where: str):
    """Re-raise a builder's :class:`WolffpotError` as a :class:`ScenarioError` that names ``where``."""
    try:
        yield
    except ScenarioError:
        raise  # it names its field already
    except WolffpotError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def build_window(cfg: dict, dimension: int) -> LatticeWindow:
    box = config_value(cfg, "box", "window", list_of(list_of(finite, 2), dimension))
    reject_unknown(cfg, "window", ("box", "coarse_level", "fine_level", "shift"))
    shift = config_value(cfg, "shift", "window", list_of(finite, dimension), None)
    with naming("window"):
        return LatticeWindow.from_box(
            box,
            config_value(cfg, "coarse_level", "window", integer),
            config_value(cfg, "fine_level", "window", integer),
            shift=shift,
        )


def build_measure(cfg: dict, dimension: int, where: str) -> AtomicMeasure:
    kind = config_value(cfg, "type", where)
    with naming(where):
        if kind == "atoms":
            reject_unknown(cfg, where, ("type", "positions", "weights"))
            return AtomicMeasure(config_value(cfg, "positions", where, atom_positions(dimension)),
                                 config_value(cfg, "weights", where, list_of(finite)))
        if kind == "lebesgue_grid":
            reject_unknown(cfg, where, ("type", "box", "level"))
            return lebesgue_grid(
                config_value(cfg, "box", where, list_of(list_of(finite, 2), dimension)),
                config_value(cfg, "level", where, integer),
            )
        if kind == "bernoulli_cascade":
            reject_unknown(cfg, where, ("type", "gamma", "depth"))
            if dimension != 1:
                raise ScenarioError(f"{where}: bernoulli_cascade needs dimension 1")
            return bernoulli_cascade(
                config_value(cfg, "gamma", where, real), config_value(cfg, "depth", where, integer)
            )
    raise ScenarioError(f"{where}: unknown measure type {kind!r}")


def _csv_rows(path: str | Path, what: str) -> list[list[str]]:
    """The rows of a CSV file; a file that cannot be read is a ScenarioError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise ScenarioError(f"{what} {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{what} {path}: not UTF-8 text") from exc


def read_kernel_table(path: str | Path, dimension: int) -> dict:
    """CSV kernel table with columns level, ``dimension`` index components, value.

    A value is a number in ``[0, inf]``, and a cube has at most one row.
    """
    table = {}
    for row_no, row in enumerate(_csv_rows(path, "kernel table"), 1):
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
        if len(idx) != dimension:
            raise ScenarioError(f"kernel table {path} line {row_no}: "
                                f"{len(idx)} index components, not {dimension}")
        if not val >= 0.0:  # NaN too
            raise ScenarioError(f"kernel table {path} line {row_no}: K(Q) = {val} is not in [0, inf]")
        if (level, idx) in table:
            raise ScenarioError(f"kernel table {path} line {row_no}: repeats the cube {(level, idx)}")
        table[(level, idx)] = val
    if not table:
        raise ScenarioError(f"kernel table {path} holds no entries")
    return table


def build_kernel(cfg: dict, dimension: int) -> DyadicKernelMap:
    kind = config_value(cfg, "type", "kernel")
    cutoff = config_value(cfg, "cutoff", "kernel", real, None)
    with naming("kernel"):
        if kind == "riesz":
            reject_unknown(cfg, "kernel", ("type", "alpha", "cutoff"))
            alpha = config_value(cfg, "alpha", "kernel", real)
            return DyadicKernelMap.from_radial(riesz_kernel(alpha, dimension, cutoff=cutoff))
        if kind == "log":
            reject_unknown(cfg, "kernel", ("type", "beta", "C"))
            beta = config_value(cfg, "beta", "kernel", real)
            C = config_value(cfg, "C", "kernel", real)
            return DyadicKernelMap.from_radial(log_kernel(beta, C, dimension))
        if kind == "constant":
            reject_unknown(cfg, "kernel", ("type", "value", "cutoff"))
            value = config_value(cfg, "value", "kernel", real, 1.0)
            return DyadicKernelMap.from_radial(constant_kernel(value, cutoff=cutoff))
        if kind == "table":
            reject_unknown(cfg, "kernel", ("type", "path"))
            path = config_value(cfg, "path", "kernel")
            return DyadicKernelMap.from_table(read_kernel_table(path, dimension))
    raise ScenarioError(f"kernel: unknown type {kind!r}")


def build_scenario(cfg: dict) -> Scenario:
    dimension = config_value(cfg, "dimension", "scenario", integer)
    reject_unknown(cfg, "scenario", ("dimension", "seed", "window", "sigma", "mu", "kernel",
                                     "exponents", "bands", "checks"))
    if dimension < 1:
        raise ScenarioError(f"scenario: dimension must be >= 1, got {dimension}")
    window = build_window(config_value(cfg, "window", "scenario"), dimension)
    sigma = build_measure(config_value(cfg, "sigma", "scenario"), dimension, "sigma")
    mu = build_measure(config_value(cfg, "mu", "scenario"), dimension, "mu")
    kernel = build_kernel(config_value(cfg, "kernel", "scenario"), dimension)
    exp_cfg = config_value(cfg, "exponents", "scenario")
    p = config_value(exp_cfg, "p", "exponents", real)
    reject_unknown(exp_cfg, "exponents", ("p", "q"))
    q = config_value(exp_cfg, "q", "exponents", real, None)
    with naming("exponents"):
        exponents = Exponents(p, q)
    checks = config_value(cfg, "checks", "scenario", list, [])
    seed = config_value(cfg, "seed", "scenario", at_least(0), None)
    for chk in checks:
        if not isinstance(chk, dict) or not isinstance(chk.get("name"), str):
            raise ScenarioError(f"checks: every entry needs a name, got {chk!r}")
    bands = cfg.get("bands") or {}
    band = config_value(bands, "default", "bands", list_of(real, 2), DEFAULT_BAND)
    reject_unknown(bands, "bands", ("default",))
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
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text") from exc
    except ValueError as exc:  # after its subclasses: an integer of too many digits
        raise ScenarioError(f"{path}: an integer has more than "
                            f"{sys.get_int_max_str_digits()} digits") from exc
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return build_scenario(cfg)


def read_points_csv(path: str | Path, dimension: int) -> np.ndarray:
    pts = []
    for row_no, row in enumerate(_csv_rows(path, "points file"), 1):
        if not row or row[0].lstrip().startswith("#"):
            continue
        try:
            vals = [float(v) for v in row]
        except ValueError:
            if row_no == 1:
                continue  # header
            raise ScenarioError(f"{path} line {row_no}: not a numeric row")
        if not all(map(math.isfinite, vals)):
            raise ScenarioError(f"{path} line {row_no}: a coordinate is not finite")
        if len(vals) != dimension:
            raise ScenarioError(
                f"{path} line {row_no}: expected {dimension} coordinates, got {len(vals)}"
            )
        pts.append(vals)
    if not pts:
        raise ScenarioError(f"{path}: no query points")
    return np.asarray(pts)

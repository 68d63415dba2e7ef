"""Canonical scenarios, brute-force oracles, and trace-file emission.

Two scenarios are built in. The cascade scenario chains two Z-channels
with crossover 1/2 behind a uniform binary source; its optimum is known
in closed form (4/7 and 1). The erasure scenario chains a BEC(1/4)
with a noisy ternary-to-binary stage; its optimum is 34/47 and 9/11.
Both carry their expected posterior and re-derive it on construction,
so a scenario object that exists at all is internally consistent.

Training runs are persisted as trace files: a plain-text CSV with
``#``-prefixed key=value metadata lines in the header's own order, a
column header, and one row per recorded step. Floats are written with
repr, so a read-back file reproduces the in-memory trace bit for bit.
For a two-symbol source and a two-symbol observation the parameter
columns are q_0 = Q(0|0) and q_1 = Q(1|1), the two free parameters of
the estimator; larger alphabets get one column per free entry, named
q_<z>_<x>.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .channels import ChannelSpec, bec, build_joint, general_channel, to_matrix, z_channel
from .errors import (
    DimensionError,
    DistributionError,
    SpecFormatError,
    UnsupportedAlphabetError,
    create_text,
    open_text,
)
from .estimators import direct_solution
from .probability import (
    ConditionalTable,
    Joint3,
    Simplex,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    conditional,
    marginal_z,
)
from .training import RoleModelOracle, TrainerConfig, train_run

POSTERIOR_TOLERANCE = 1e-9

_INT_KEYS = frozenset({"seed", "window", "start_step", "n_samples"})
_FLOAT_KEYS = frozenset({"step_size_initial", "step_size_tau", "clamp_epsilon"})


@dataclass(frozen=True, eq=False)
class Scenario:
    """A named estimation problem: source prior plus the two channel stages.

    ``expected_posterior`` is the ground-truth direct solution. It is
    re-derived from the channels at construction time and must agree
    within POSTERIOR_TOLERANCE, so stored values cannot drift from the
    definitions that produced them.
    """

    name: str
    prior: Simplex
    xy_channel: ChannelSpec
    yz_channel: ChannelSpec
    expected_posterior: ConditionalTable

    def __post_init__(self):
        derived = direct_solution(self.joint())
        got = self.expected_posterior
        if got.n_given != derived.n_given or got.n_target != derived.n_target:
            raise DimensionError(
                f"scenario {self.name!r}: expected posterior shape does not "
                "match the channels"
            )
        # +inf when a row's definedness disagrees with the direct solution
        tv = derived.tv_distance(got)
        if tv > POSTERIOR_TOLERANCE:
            raise DistributionError(
                f"scenario {self.name!r}: stored posterior is {tv:.3g} away "
                "from the derived one"
            )

    def joint(self) -> Joint3:
        return build_joint(
            self.prior, to_matrix(self.xy_channel), to_matrix(self.yz_channel)
        )

    def oracle(self) -> RoleModelOracle:
        return RoleModelOracle.from_joint(self.joint())


def scenario_a() -> Scenario:
    """Uniform binary source through two cascaded Z-channels, crossover 1/2."""
    return Scenario(
        name="example-a",
        prior=Simplex([0.5, 0.5]),
        xy_channel=z_channel(0.5),
        yz_channel=z_channel(0.5),
        expected_posterior=ConditionalTable([[4 / 7, 3 / 7], [0.0, 1.0]]),
    )


def scenario_b() -> Scenario:
    """Uniform binary source through a BEC(1/4) and a noisy binary readout."""
    return Scenario(
        name="example-b",
        prior=Simplex([0.5, 0.5]),
        xy_channel=bec(0.25),
        yz_channel=general_channel([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8]]),
        expected_posterior=ConditionalTable([[34 / 47, 13 / 47], [2 / 11, 9 / 11]]),
    )


BUILTIN_SCENARIOS = {"example-a": scenario_a, "example-b": scenario_b}


# -- trace files ----------------------------------------------------------


_STEPS_INCREASE = "steps must be strictly increasing"


def _one_line(text: str) -> bool:
    # survives "# key = value" and the reader's strip() unchanged
    return text == text.strip() and "\n" not in text and "\r" not in text


def _header_value(key: str, text: str, where: str = ""):
    """A header value as the reader returns it: an int for _INT_KEYS, a
    float for _FLOAT_KEYS, else the text itself."""
    try:
        if key in _INT_KEYS:
            return int(text)
        if key in _FLOAT_KEYS:
            return float(text)
    except ValueError:
        raise SpecFormatError(f"{where}bad value {text!r} for {key}") from None
    return text


def _check_columns(cols: tuple, where: str = "") -> None:
    if len(cols) < 3 or cols[0] != "step" or cols[1] != "divergence_bits":
        raise SpecFormatError(
            f"{where}columns must start with step, divergence_bits and name "
            "at least one parameter"
        )


@dataclass(frozen=True, eq=False)
class TraceFile:
    """One training run as data: metadata header plus per-step rows.

    Each row is (step, windowed divergence in bits, free parameters...).
    Steps are strictly increasing and every row matches the column
    header, whose first two names are fixed. Every header entry reads
    back as stored: keys are nonempty, without '=', and neither key nor
    value (as str) has a line break or leading or trailing whitespace;
    each value is stored as the reader returns its str.
    """

    header: dict
    columns: tuple
    rows: tuple

    def __post_init__(self):
        header = {}
        for key, value in dict(self.header).items():
            key, text = str(key), str(value)
            if not key or "=" in key or not _one_line(key) or not _one_line(text):
                raise SpecFormatError(
                    f"header entry {key!r} = {text!r} cannot be written as a trace line"
                )
            header[key] = _header_value(key, text)
        cols = tuple(self.columns)
        _check_columns(cols)
        rows = tuple(tuple(r) for r in self.rows)
        last = None
        for r in rows:
            if len(r) != len(cols):
                raise SpecFormatError(
                    f"row of width {len(r)} under {len(cols)} columns"
                )
            if last is not None and r[0] <= last:
                raise SpecFormatError(_STEPS_INCREASE)
            last = r[0]
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "header", header)

    def write(self, path) -> None:
        """Write the header in its own order, then the columns and rows,
        line by line. A write that fails removes the partial file."""
        with create_text(path) as fh:
            for key, value in self.header.items():
                fh.write(f"# {key} = {value}\n")
            fh.write(",".join(self.columns) + "\n")
            for r in self.rows:
                fh.write(",".join([str(r[0])] + [repr(float(v)) for v in r[1:]]) + "\n")

    @classmethod
    def read(cls, path) -> "TraceFile":
        header = {}
        columns = None
        rows = []
        last = -math.inf
        with open_text(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if "=" not in body:
                        raise SpecFormatError(
                            f"{path}:{lineno}: metadata line without '='"
                        )
                    key, _, value = body.partition("=")
                    key = key.strip()
                    header[key] = _header_value(key, value.strip(), f"{path}:{lineno}: ")
                    continue
                parts = line.split(",")
                if columns is None:
                    columns = tuple(parts)
                    _check_columns(columns, f"{path}:{lineno}: ")
                    continue
                if len(parts) != len(columns):
                    raise SpecFormatError(
                        f"{path}:{lineno}: row of width {len(parts)} under "
                        f"{len(columns)} columns"
                    )
                try:
                    step = int(parts[0])
                    rows.append((step, *map(float, parts[1:])))
                except ValueError as exc:
                    raise SpecFormatError(f"{path}:{lineno}: bad row: {exc}") from None
                if step <= last:
                    raise SpecFormatError(f"{path}:{lineno}: {_STEPS_INCREASE}")
                last = step
        if columns is None:
            raise SpecFormatError(f"{path}: no column header found")
        return cls(header, columns, tuple(rows))


def _free_param_index(nz: int, nx: int) -> dict:
    """Trace column name -> row-major index of each free estimator entry:
    q_0 = Q(0|0) and q_1 = Q(1|1) for a 2x2 table, else q_<z>_<x>, x < nx - 1."""
    if nz == 2 and nx == 2:
        return {"q_0": 0, "q_1": 3}
    return {f"q_{z}_{x}": z * nx + x for z in range(nz) for x in range(nx - 1)}


def run_figure_traces(
    scenario: Scenario, config: TrainerConfig, out_path
) -> TraceFile:
    """Train on the scenario and persist the run as a trace file.

    The file carries both recorded series, divergence per step and
    parameters per step, which is everything needed to re-plot a
    training run. Returns the in-memory TraceFile.
    """
    joint = scenario.joint()
    oracle = RoleModelOracle.from_joint(joint)
    state = train_run(joint, config, oracle)
    layout = _free_param_index(joint.nz, joint.nx)
    columns = ("step", "divergence_bits", *layout)
    # alphabets have >= 2 symbols, so >= 2 free entries: pick returns a tuple
    pick = operator.itemgetter(*layout.values())
    rows = tuple(
        (step, div) + pick(flat)
        for (step, div), (_, flat) in zip(state.divergence_trace, state.param_trace)
    )
    from . import __version__

    header = {
        "scenario": scenario.name,
        "seed": config.seed,
        "window": config.window,
        "start_step": config.start_step,
        "step_size_initial": config.step_size_initial,
        "step_size_tau": config.step_size_tau,
        "clamp_epsilon": config.clamp_epsilon,
        "n_samples": config.n_samples,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    trace = TraceFile(header, columns, rows)
    trace.write(out_path)
    return trace


# -- brute-force oracle ---------------------------------------------------


def _objective_on_grid(weights, posts, grid_cols) -> np.ndarray:
    """Sum over y of w_y * D(P(.|y) || q) at every grid point, in bits.

    ``grid_cols`` holds one column of q-values per x-symbol. Evaluated
    term by term, so it shares no algebra with the closed-form solver.
    """
    n_points = grid_cols[0].shape[0]
    total = np.zeros(n_points)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = [np.log2(np.where(col > 0.0, col, 1.0)) for col in grid_cols]
        starved = [col <= 0.0 for col in grid_cols]
        for w, row in zip(weights, posts):
            if w == 0.0:
                continue
            term = np.zeros(n_points)
            for x, p in enumerate(row):
                if p <= 0.0:
                    continue
                term += p * (np.log2(p) - logs[x])
                term[starved[x]] = np.inf
            total += w * term
    return total


def brute_force_minimizer(joint: Joint3, grid_resolution: int) -> ConditionalTable:
    """Exhaustive grid search of the expected divergence, one row per z.

    An optimizer with no calculus in it: for each observable symbol it
    scans a regular grid over the estimator row and keeps the best
    point, so it cross-checks the closed-form and iterative solvers.
    Supports two- and three-symbol source alphabets; grid spacing is
    1/grid_resolution per coordinate. Rows for zero-probability z are
    left undefined.
    """
    if grid_resolution < 1:
        raise DimensionError("grid_resolution must be positive")
    nx = joint.nx
    if nx not in (2, 3):
        raise UnsupportedAlphabetError(
            f"grid search supports 2 or 3 source symbols, got {nx}"
        )
    pz = marginal_z(joint).probs
    weight_table = conditional(joint, Y_AXIS, Z_AXIS)
    posterior = conditional(joint, X_AXIS, Y_AXIS)
    r = int(grid_resolution)
    rows: list = []
    for z in range(joint.nz):
        if pz[z] == 0.0:
            rows.append(None)
            continue
        weights = weight_table.p[z]
        posts = [
            posterior.p[y] if weights[y] > 0.0 else None
            for y in range(joint.ny)
        ]
        if nx == 2:
            g = np.linspace(0.0, 1.0, r + 1)
            obj = _objective_on_grid(weights, posts, (g, 1.0 - g))
            best = int(np.argmin(obj))
            rows.append(Simplex([g[best], 1.0 - g[best]]))
        else:
            best_val = np.inf
            best_q = None
            # scan the 2-simplex one slice at a time to bound memory
            for i in range(r + 1):
                a = i / r
                j = np.arange(0, r - i + 1)
                b = j / r
                c = 1.0 - a - b
                np.clip(c, 0.0, None, out=c)
                cols = (np.full(b.shape, a), b, c)
                obj = _objective_on_grid(weights, posts, cols)
                k = int(np.argmin(obj))
                if obj[k] < best_val:
                    best_val = float(obj[k])
                    best_q = (a, float(b[k]), float(c[k]))
            total = sum(best_q)
            rows.append(Simplex([v / total for v in best_q]))
    return ConditionalTable(rows)


def random_joint(
    seed: int, nx: int = 2, ny: int = 2, nz: int = 2, markov: bool = True
) -> Joint3:
    """Seeded random test joint, Markov-by-construction or unconstrained."""
    if min(nx, ny, nz) < 2:
        raise DimensionError("every alphabet needs at least 2 symbols")
    rng = np.random.default_rng(seed)
    if markov:
        prior = rng.standard_exponential(nx)
        xy = rng.standard_exponential((nx, ny))
        yz = rng.standard_exponential((ny, nz))
        return build_joint(
            Simplex(prior / prior.sum()),
            ConditionalTable(xy / xy.sum(axis=1, keepdims=True)),
            ConditionalTable(yz / yz.sum(axis=1, keepdims=True)),
        )
    cells = rng.standard_exponential((nx, ny, nz))
    return Joint3(cells / cells.sum())

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

A TraceFile holds its body as columns, an int64 step array and a
float64 value array, from the trainer's recorded columns to the file
and back; its rows as tuples are built only when asked for. The reader
types the header lines in Python and parses the body in one numpy call.
Where that parse might not read the body as the line reader does, the
line reader reads the same text, so every error names its path:lineno.
Lines follow the one text rule in ``errors``, metadata lines as spec lines.
Integers in a trace (steps and the integer settings) are ASCII digits,
and no number may contain '_' or a character outside ASCII, although
int() and float() alone take both.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property

import numpy as np

from .channels import ChannelSpec, bec, build_joint, general_channel, to_matrix, z_channel
from .errors import (
    DimensionError,
    DistributionError,
    SpecFormatError,
    UnsupportedAlphabetError,
    _ascii_float,
    _ascii_int,
    _key_value,
    _lines,
    _one_line,
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
_STEP_MAX = int(np.iinfo(np.int64).max)
# a line whose step field carries a sign, which numpy's integer parser takes
# and the line reader's digit rule does not; searched in "\n" + body, since
# a literal first character makes the search fast
_SIGNED_STEP = re.compile(r"\n\s*[+-]")
_WRITE_CHUNK = 8192  # rows formatted per write


def _header_value(key: str, text: str, where: str = ""):
    """A header value as the reader returns it: an int for _INT_KEYS, a
    float for _FLOAT_KEYS, else the text itself."""
    try:
        if key in _INT_KEYS:
            return _ascii_int(text)
        if key in _FLOAT_KEYS:
            return _ascii_float(text)
    except ValueError:
        raise SpecFormatError(f"{where}bad value {text!r} for {key}") from None
    return text


def _typed_header(entries: dict) -> dict:
    header = {}
    for key, value in dict(entries).items():
        key, text = str(key), str(value)
        if not key or "=" in key or not _one_line(key) or not _one_line(text):
            raise SpecFormatError(
                f"header entry {key!r} = {text!r} cannot be written as a trace line"
            )
        header[key] = _header_value(key, text)
    return header


def _check_columns(cols: tuple, where: str = "") -> None:
    if len(cols) < 3 or cols[0] != "step" or cols[1] != "divergence_bits":
        raise SpecFormatError(
            f"{where}columns must start with step, divergence_bits and name "
            "at least one parameter"
        )
    for name in cols[2:]:
        if name != str(name).strip() or "," in name or "\n" in name or "\r" in name:
            raise SpecFormatError(f"{where}column {name!r} cannot be written as a trace field")


@dataclass(frozen=True, eq=False)
class TraceFile:
    """One training run as data: metadata header plus a columnar body.

    ``steps`` holds one integer step per row, nonnegative and strictly
    increasing; ``values`` has one row per step and one column per name
    after ``step`` in ``columns``: the windowed divergence in bits, then
    the free parameters. The constructor stores read-only copies, an
    int64 ``steps`` and a float64 ``values``; a step that is not an
    integer or does not fit in int64, or a value that is not a number,
    raises SpecFormatError rather than being converted. ``rows`` gives
    the same body as (step, divergence, parameters...) tuples of Python
    numbers, built on first access. Every header entry reads back as
    stored: keys are nonempty, without '=', and neither key nor value
    (as str) has a line break or leading or trailing ASCII whitespace;
    each value is stored as the reader returns its str. Nor has a column
    name, which has no ',' and no whitespace at either end.
    """

    header: dict
    columns: tuple
    steps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        header = _typed_header(self.header)
        cols = tuple(self.columns)
        _check_columns(cols)
        try:
            steps, values = np.asarray(self.steps), np.asarray(self.values)
        except ValueError:
            raise SpecFormatError("steps and values must be rectangular arrays") from None
        # an empty list has a float dtype; a uint64 array may exceed int64
        if steps.size and (steps.dtype.kind not in "iu" or steps.max() > _STEP_MAX):
            raise SpecFormatError("a step must be an integer that fits in int64")
        if values.size and values.dtype.kind not in "iuf":
            raise SpecFormatError("a value must be a number")
        steps, values = steps.astype(np.int64), values.astype(np.float64)
        if steps.ndim != 1 or values.shape != (len(steps), len(cols) - 1):
            raise SpecFormatError(
                f"a body of shape {steps.shape} and {values.shape} under {len(cols)} columns"
            )
        if len(steps) and steps[0] < 0:
            raise SpecFormatError("steps must be nonnegative")
        if (np.diff(steps) <= 0).any():
            raise SpecFormatError(_STEPS_INCREASE)
        steps.flags.writeable = False
        values.flags.writeable = False
        for name, value in (("header", header), ("columns", cols),
                            ("steps", steps), ("values", values)):
            object.__setattr__(self, name, value)

    @cached_property
    def rows(self) -> tuple:
        """The body as (step, divergence, parameters...) tuples."""
        return tuple(zip(self.steps.tolist(), *self.values.T.tolist()))

    def write(self, path) -> None:
        """Write the header in its own order, then the columns and the
        body, a chunk of rows at a time. A write that fails removes the
        partial file."""
        with create_text(path) as fh:
            for key, value in self.header.items():
                fh.write(f"# {key} = {value}\n")
            fh.write(",".join(self.columns) + "\n")
            for lo in range(0, len(self.steps), _WRITE_CHUNK):
                hi = lo + _WRITE_CHUNK
                fields = [map(str, self.steps[lo:hi].tolist())]
                fields += [map(repr, col) for col in self.values[lo:hi].T.tolist()]
                fh.write("\n".join(map(",".join, zip(*fields))) + "\n")

    @classmethod
    def read(cls, path) -> "TraceFile":
        """Read a trace file: the header lines one by one, then the body in
        one numpy parse. The line reader reads the same body text where that
        parse might not read it alike (a parse error or warning, text outside
        ASCII, a signed step, steps not increasing), naming path and line."""
        with open_text(path) as fh:
            header, columns, head = _read_head(_lines(fh), path)
            body = fh.read()
        # split on "\n" only, as iterating the file does
        lines = body.split("\n")
        if body.isascii() and not _SIGNED_STEP.search("\n" + body):
            del body
            row = [("step", np.int64), ("values", np.float64, (len(columns) - 1,))]
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    table = np.loadtxt(lines, dtype=row, delimiter=",", comments=None, ndmin=1)
            except (ValueError, Warning):
                table = None
            if table is not None and (np.diff(table["step"]) > 0).all():
                return cls(header, columns, table["step"], table["values"])
        return _read_lines(_lines(lines, head + 1), path, header, columns)


def _metadata_line(header: dict, line: str, path, lineno: int) -> None:
    key, value = _key_value(line[1:], header, path, lineno)
    header[key] = _header_value(key, value, f"{path}:{lineno}: ")


def _read_head(numbered, path) -> tuple:
    """Read the metadata lines of (line number, line) pairs up to the
    column header; return (header, columns, line number of the columns)."""
    header = {}
    for lineno, line in numbered:
        if not line.startswith("#"):
            columns = tuple(line.split(","))
            _check_columns(columns, f"{path}:{lineno}: ")
            return header, columns, lineno
        _metadata_line(header, line, path, lineno)
    raise SpecFormatError(f"{path}: no column header found")


def _read_lines(numbered, path, header: dict, columns: tuple) -> TraceFile:
    """The line reader: the body's (line number, line) pairs after
    ``_read_head`` one at a time, every error naming its line. Steps are
    ASCII digits, values ASCII numbers without '_'; metadata may follow."""
    steps, values = [], []
    for lineno, line in numbered:
        if line.startswith("#"):
            _metadata_line(header, line, path, lineno)
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise SpecFormatError(
                f"{path}:{lineno}: row of width {len(parts)} under {len(columns)} columns"
            )
        try:
            step = _ascii_int(parts[0])
            values.append([_ascii_float(p) for p in parts[1:]])
        except ValueError as exc:
            raise SpecFormatError(f"{path}:{lineno}: bad row: {exc}") from None
        if step > _STEP_MAX:
            raise SpecFormatError(f"{path}:{lineno}: step {step} does not fit in 64 bits")
        if steps and step <= steps[-1]:
            raise SpecFormatError(f"{path}:{lineno}: {_STEPS_INCREASE}")
        steps.append(step)
    body = np.array(values, dtype=np.float64).reshape(len(steps), len(columns) - 1)
    return TraceFile(header, columns, steps, body)


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
    steps, divergence, params = state.trace_columns()
    values = np.column_stack([divergence, params[:, list(layout.values())]])
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
    trace = TraceFile(header, columns, steps, values)
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

"""Plain-text file formats: scenario specs, estimator tables, sample logs.

A scenario spec is a key=value file (``#`` starts a comment) naming a
prior and two channel stages. Channels are declared by a kind plus
exactly its parameters, prefixed ``xy_`` or ``yz_``:

    name = erasure-demo
    prior = 0.5, 0.5
    xy_kind = bec
    xy_delta = 0.25
    yz_kind = general
    yz_row_0 = 0.9, 0.1
    yz_row_1 = 0.7, 0.3
    yz_row_2 = 0.2, 0.8

Kinds are z_channel (parameter ``crossover``), bec (parameter
``delta``; output columns ordered 0, erasure, 1), and general
(numbered ``row_<i>`` keys, contiguous from 0). An estimator file uses
the same syntax with only ``row_<i>`` keys, one distribution over the
source alphabet per observed symbol; the literal ``undefined`` marks a
row with no defined distribution. Sample logs are CSV with the exact
header ``y,z`` and one pair of nonnegative integer symbol indices per
row, written in ASCII digits (no sign, no '_', no other script's digits).
Spec and estimator numbers follow the same rule: reals in ASCII without
'_', row indices in ASCII digits. Fields are stripped of ASCII whitespace
only.

Format problems raise SpecFormatError carrying the path and the line
number (bytes that are not UTF-8: the path only); whether the numbers
make a distribution is checked by the constructors they feed, not here.
"""

from __future__ import annotations

import re
from pathlib import Path

from .channels import ChannelSpec, bec, build_joint, general_channel, to_matrix, z_channel
from .errors import SpecFormatError, create_text, open_text
from .estimators import direct_solution
from .experiments import _ASCII_SPACE, Scenario, _ascii_float, _ascii_int
from .probability import ConditionalTable, Simplex
from .training import _coerce_sample

_ROW_KEY = re.compile(r"^row_([0-9]+)$")


def _parse_kv(path) -> dict:
    """key -> (value string, line number), rejecting malformed lines."""
    entries = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip(_ASCII_SPACE)
            if not line:
                continue
            if "=" not in line:
                raise SpecFormatError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip(_ASCII_SPACE)
            value = value.strip(_ASCII_SPACE)
            if not key:
                raise SpecFormatError(f"{path}:{lineno}: empty key")
            if key in entries:
                raise SpecFormatError(f"{path}:{lineno}: duplicate key {key!r}")
            if not value:
                raise SpecFormatError(f"{path}:{lineno}: key {key!r} has no value")
            entries[key] = (value, lineno)
    return entries


def _reals(text: str, path, lineno: int) -> list:
    try:
        return [_ascii_float(tok) for tok in text.split(",")]
    except ValueError:
        raise SpecFormatError(
            f"{path}:{lineno}: expected comma-separated reals, got {text!r}"
        ) from None


def _numbered_rows(entries: dict, prefix: str, path) -> list:
    """(value string, line number) of each <prefix><i> key, in index order."""
    found = {}
    for key, (value, lineno) in entries.items():
        if not key.startswith(prefix):
            continue
        # _ascii_int's digit rule without its strip: "row_ 1" is no row key
        index = key[len(prefix) :]
        if not (index.isascii() and index.isdigit()):
            raise SpecFormatError(f"{path}:{lineno}: bad row key {key!r}")
        found[int(index)] = (value, lineno)
    if not found:
        return []
    if sorted(found) != list(range(len(found))):
        raise SpecFormatError(
            f"{path}: {prefix}<i> keys must be contiguous from {prefix}0"
        )
    return [found[i] for i in range(len(found))]


def _channel_from(entries: dict, prefix: str, path, used: set) -> ChannelSpec:
    kind_key = f"{prefix}_kind"
    if kind_key not in entries:
        raise SpecFormatError(f"{path}: missing key {kind_key!r}")
    used.add(kind_key)
    kind, kind_line = entries[kind_key]
    if kind == "z_channel":
        param_key = f"{prefix}_crossover"
        if param_key not in entries:
            raise SpecFormatError(f"{path}: z_channel needs {param_key!r}")
        value, lineno = entries[param_key]
        used.add(param_key)
        return z_channel(_reals(value, path, lineno)[0])
    if kind == "bec":
        param_key = f"{prefix}_delta"
        if param_key not in entries:
            raise SpecFormatError(f"{path}: bec needs {param_key!r}")
        value, lineno = entries[param_key]
        used.add(param_key)
        return bec(_reals(value, path, lineno)[0])
    if kind == "general":
        rows = _numbered_rows(entries, f"{prefix}_row_", path)
        if len(rows) < 2:
            raise SpecFormatError(
                f"{path}: a general {prefix} channel needs {prefix}_row_0, "
                f"{prefix}_row_1, ..."
            )
        used.update(k for k in entries if k.startswith(f"{prefix}_row_"))
        return general_channel([_reals(value, path, lineno) for value, lineno in rows])
    raise SpecFormatError(
        f"{path}:{kind_line}: unknown channel kind {kind!r} "
        "(choose z_channel, bec, or general)"
    )


def read_scenario(path) -> Scenario:
    """Load a scenario spec file. The expected posterior is derived from
    the declared channels, so the result is consistent by construction."""
    entries = _parse_kv(path)
    used = set()
    if "prior" not in entries:
        raise SpecFormatError(f"{path}: missing key 'prior'")
    value, lineno = entries["prior"]
    prior = Simplex(_reals(value, path, lineno))
    used.add("prior")
    xy = _channel_from(entries, "xy", path, used)
    yz = _channel_from(entries, "yz", path, used)
    if "name" in entries:
        name = entries["name"][0]
        used.add("name")
    else:
        name = Path(path).stem
    for key, (_, lineno) in entries.items():
        if key not in used:
            raise SpecFormatError(f"{path}:{lineno}: unknown key {key!r}")
    joint = build_joint(prior, to_matrix(xy), to_matrix(yz))
    return Scenario(
        name=name,
        prior=prior,
        xy_channel=xy,
        yz_channel=yz,
        expected_posterior=direct_solution(joint),
    )


def _channel_lines(prefix: str, spec: ChannelSpec) -> list:
    if spec.kind == "z_channel":
        return [f"{prefix}_kind = z_channel", f"{prefix}_crossover = {spec.crossover!r}"]
    if spec.kind == "bec":
        return [f"{prefix}_kind = bec", f"{prefix}_delta = {spec.delta!r}"]
    lines = [f"{prefix}_kind = general"]
    for i, row in enumerate(spec.matrix.p):
        lines.append(f"{prefix}_row_{i} = " + ", ".join(repr(float(v)) for v in row))
    return lines


def write_scenario(path, scenario: Scenario) -> None:
    lines = [f"name = {scenario.name}"]
    lines.append("prior = " + ", ".join(repr(float(v)) for v in scenario.prior.probs))
    lines += _channel_lines("xy", scenario.xy_channel)
    lines += _channel_lines("yz", scenario.yz_channel)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_estimator(path) -> ConditionalTable:
    entries = _parse_kv(path)
    for key, (_, lineno) in entries.items():
        if not _ROW_KEY.match(key):
            raise SpecFormatError(f"{path}:{lineno}: unknown key {key!r}")
    rows = _numbered_rows(entries, "row_", path)
    if not rows:
        raise SpecFormatError(f"{path}: no row_<i> keys found")
    return ConditionalTable(
        [None if v == "undefined" else _reals(v, path, lineno) for v, lineno in rows]
    )


def write_estimator(path, est: ConditionalTable) -> None:
    lines = []
    for i, row in enumerate(est.rows):
        if row is None:
            lines.append(f"row_{i} = undefined")
        else:
            lines.append(f"row_{i} = " + ", ".join(repr(float(v)) for v in row.probs))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_samples(path) -> list:
    """Load a y,z sample log. Returns a nonempty list of (y, z) pairs."""
    pairs = []
    with open_text(path) as fh:
        header = fh.readline()
        if header.strip().replace(" ", "") != "y,z":
            raise SpecFormatError(f"{path}:1: expected the header 'y,z'")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip(_ASCII_SPACE)
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise SpecFormatError(f"{path}:{lineno}: expected two columns")
            try:
                pairs.append((_ascii_int(parts[0]), _ascii_int(parts[1])))
            except ValueError:
                raise SpecFormatError(
                    f"{path}:{lineno}: symbol indices must be nonnegative "
                    "integers in ASCII digits"
                ) from None
    if not pairs:
        raise SpecFormatError(f"{path}: no samples after the header")
    return pairs


def write_samples(path, pairs) -> None:
    """Write (y, z) pairs as a sample log. A pair that is not two integers
    raises DimensionError and leaves no file."""
    with create_text(path) as fh:
        fh.write("y,z\n")
        for pair in pairs:
            y, z = _coerce_sample(pair)
            fh.write(f"{y},{z}\n")

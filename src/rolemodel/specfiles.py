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
row with no defined distribution. Sample logs are CSV with the header
``y,z`` on line 1 and one pair of nonnegative integer symbol indices per
row, written in ASCII digits (no sign, no '_', no other script's digits).
Spec and estimator numbers follow the same rule: reals in ASCII without
'_', row indices in ASCII digits. Lines follow the one text rule in
``errors``, ``key = value`` lines as trace metadata.

Format problems raise SpecFormatError carrying the path and the line
number (bytes that are not UTF-8: the path only); whether the numbers
make a distribution is checked by the constructors they feed, not here.
"""

from __future__ import annotations

from pathlib import Path

from .channels import ChannelSpec, bec, build_joint, general_channel, to_matrix, z_channel
from .errors import (
    SpecFormatError,
    _ascii_float,
    _ascii_int,
    _key_value,
    _lines,
    _one_line,
    create_text,
    open_text,
)
from .estimators import direct_solution
from .experiments import Scenario
from .probability import ConditionalTable, Simplex
from .training import _coerce_sample


def _parse_kv(path) -> dict:
    """key -> (value string, line number), rejecting malformed lines."""
    entries = {}
    with open_text(path) as fh:
        for lineno, line in _lines(fh):
            line = line.partition("#")[0]
            if not line:
                continue
            key, value = _key_value(line, entries, path, lineno)
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
    """(value string, line number) of each <prefix><i> key, popped, in index order."""
    found = {}
    for key in [k for k in entries if k.startswith(prefix)]:
        value, lineno = entries.pop(key)
        # _ascii_int's digit rule without its strip: "row_ 1" is no row key
        index = key[len(prefix) :]
        if not (index.isascii() and index.isdigit()):
            raise SpecFormatError(f"{path}:{lineno}: bad row key {key!r}")
        found[int(index)] = (value, lineno)
    if sorted(found) != list(range(len(found))):
        raise SpecFormatError(
            f"{path}: {prefix}<i> keys must be contiguous from {prefix}0"
        )
    return [found[i] for i in range(len(found))]


_ONE_PARAMETER = {"z_channel": ("crossover", z_channel), "bec": ("delta", bec)}


def _channel_from(entries: dict, prefix: str, path) -> ChannelSpec:
    """The channel its <prefix>_ keys declare, taken out of ``entries``."""
    kind_key = f"{prefix}_kind"
    if kind_key not in entries:
        raise SpecFormatError(f"{path}: missing key {kind_key!r}")
    kind, kind_line = entries.pop(kind_key)
    if kind in _ONE_PARAMETER:
        suffix, make = _ONE_PARAMETER[kind]
        key = f"{prefix}_{suffix}"
        if key not in entries:
            raise SpecFormatError(f"{path}: {kind} needs {key!r}")
        value, lineno = entries.pop(key)
        return make(_reals(value, path, lineno)[0])
    if kind == "general":
        rows = _numbered_rows(entries, f"{prefix}_row_", path)
        if len(rows) < 2:
            raise SpecFormatError(
                f"{path}: a general {prefix} channel needs {prefix}_row_0, "
                f"{prefix}_row_1, ..."
            )
        return general_channel([_reals(value, path, lineno) for value, lineno in rows])
    raise SpecFormatError(
        f"{path}:{kind_line}: unknown channel kind {kind!r} "
        "(choose z_channel, bec, or general)"
    )


def read_scenario(path) -> Scenario:
    """Load a scenario spec file. The expected posterior is derived from
    the declared channels, so the result is consistent by construction."""
    entries = _parse_kv(path)
    if "prior" not in entries:
        raise SpecFormatError(f"{path}: missing key 'prior'")
    value, lineno = entries.pop("prior")
    prior = Simplex(_reals(value, path, lineno))
    xy = _channel_from(entries, "xy", path)
    yz = _channel_from(entries, "yz", path)
    name = entries.pop("name")[0] if "name" in entries else Path(path).stem
    if entries:
        key, (_, lineno) = next(iter(entries.items()))
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
    lines = [f"{prefix}_kind = {spec.kind}"]
    if spec.kind in _ONE_PARAMETER:
        suffix = _ONE_PARAMETER[spec.kind][0]
        return lines + [f"{prefix}_{suffix} = {getattr(spec, suffix)!r}"]
    for i, row in enumerate(spec.matrix.p):
        lines.append(f"{prefix}_row_{i} = " + ", ".join(repr(float(v)) for v in row))
    return lines


def write_scenario(path, scenario: Scenario) -> None:
    """Write a spec that read_scenario reads back. A name it would not
    read back unchanged (empty, with '#' or a line break, or with ASCII
    whitespace at either end) raises SpecFormatError before the file is
    created."""
    name = scenario.name
    if not name or "#" in name or not _one_line(name):
        raise SpecFormatError(f"scenario name {name!r} cannot be written as a spec line")
    lines = [f"name = {name}"]
    lines.append("prior = " + ", ".join(repr(float(v)) for v in scenario.prior.probs))
    lines += _channel_lines("xy", scenario.xy_channel)
    lines += _channel_lines("yz", scenario.yz_channel)
    with create_text(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_estimator(path) -> ConditionalTable:
    entries = _parse_kv(path)
    for key, (_, lineno) in entries.items():
        if not (key.startswith("row_") and key[4:].isascii() and key[4:].isdigit()):
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
    with create_text(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_samples(path) -> list:
    """Load a y,z sample log. Returns a nonempty list of (y, z) pairs."""
    pairs = []
    with open_text(path) as fh:
        numbered = _lines(fh)
        lineno, header = next(numbered, (None, ""))
        if lineno != 1 or header.replace(" ", "") != "y,z":
            raise SpecFormatError(f"{path}:1: expected the header 'y,z'")
        for lineno, line in numbered:
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

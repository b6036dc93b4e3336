"""Search-space definitions: typed parameters, sampling, and unit-cube encodings.

A :class:`SearchSpace` is an ordered list of :class:`ParameterSpec` objects.
Configurations map parameter names to values and can be encoded into the unit
cube in two ways: ``one_hot`` (categoricals expand to 0/1 blocks, the encoding
used for GP inputs) and ``index`` (categoricals map to a rank scalar, used for
forest inputs).

One column-wise codec, with one rule per parameter kind, serves every
encode, decode and sample through the code matrix: one row per
configuration, one column per parameter holding a float's unit coordinate,
an int's value, or an ordinal's or categorical's rank. A configuration's
snapped code row (:func:`to_codes`) is also its identity: two floats within
one grid step (2**-40 of their range) are the same configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .errors import EncodingError, InvalidConfigurationError, SpaceError

FLOAT = "float"
INT = "int"
ORDINAL = "ordinal"
CATEGORICAL = "categorical"

_KINDS = (FLOAT, INT, ORDINAL, CATEGORICAL)

ONE_HOT = "one_hot"
INDEX = "index"

_ENCODINGS = (ONE_HOT, INDEX)


@dataclass(frozen=True)
class ParameterSpec:
    """One typed parameter: float/int ranges or ordinal/categorical value sets."""

    name: str
    kind: str
    low: float | int | None = None
    high: float | int | None = None
    log_scale: bool = False
    levels: tuple = ()
    choices: tuple = ()
    default: Any = None

    def __post_init__(self):
        if not self.name:
            raise SpaceError("parameter name must be non-empty")
        if self.kind not in _KINDS:
            raise SpaceError(f"unknown parameter kind {self.kind!r} for {self.name!r}")
        if self.kind in (FLOAT, INT):
            if self.low is None or self.high is None:
                raise SpaceError(f"{self.name!r}: {self.kind} parameters need low/high bounds")
            if not (self.low < self.high):
                raise SpaceError(f"{self.name!r}: low must be < high (got {self.low}, {self.high})")
            if self.log_scale and self.low <= 0:
                raise SpaceError(f"{self.name!r}: log_scale requires low > 0")
            if self.kind == INT and not (
                float(self.low).is_integer() and float(self.high).is_integer()
            ):
                raise SpaceError(f"{self.name!r}: int bounds must be integers")
        elif self.kind == ORDINAL:
            object.__setattr__(self, "levels", tuple(self.levels))
            if len(self.levels) < 2:
                raise SpaceError(f"{self.name!r}: ordinal needs at least 2 levels")
            if len(set(self.levels)) != len(self.levels):
                raise SpaceError(f"{self.name!r}: ordinal levels must be distinct")
        elif self.kind == CATEGORICAL:
            object.__setattr__(self, "choices", tuple(self.choices))
            if len(self.choices) < 2:
                raise SpaceError(f"{self.name!r}: categorical needs at least 2 choices")
            if len(set(self.choices)) != len(self.choices):
                raise SpaceError(f"{self.name!r}: categorical choices must be distinct")
        if self.default is not None and not self.contains(self.default):
            raise SpaceError(f"{self.name!r}: default {self.default!r} outside the parameter domain")

    def contains(self, value) -> bool:
        """Whether ``value`` lies within bounds / the level or choice set."""
        if self.kind == FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool) and (
                self.low <= value <= self.high
            )
        if self.kind == INT:
            return (
                isinstance(value, (int, np.integer))
                and not isinstance(value, bool)
                and self.low <= value <= self.high
            )
        if self.kind == ORDINAL:
            return value in self.levels
        return value in self.choices

    def n_values(self) -> int | None:
        """Cardinality of the value set, or None for float parameters."""
        if self.kind == INT:
            return int(self.high) - int(self.low) + 1
        if self.kind == ORDINAL:
            return len(self.levels)
        if self.kind == CATEGORICAL:
            return len(self.choices)
        return None


@dataclass(frozen=True)
class Configuration:
    """One point in a search space; equality and hashing are value-based."""

    values: Mapping[str, Any]

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))

    def __getitem__(self, name):
        return self.values[name]

    def __hash__(self):
        return hash(tuple(sorted((k, v) for k, v in self.values.items())))

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.values.items())
        return f"Configuration({inner})"


class SearchSpace:
    """Ordered collection of parameters."""

    def __init__(self, parameters: Sequence[ParameterSpec]):
        parameters = list(parameters)
        if not parameters:
            raise SpaceError("search space needs at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise SpaceError("parameter names must be unique")
        self.parameters: tuple[ParameterSpec, ...] = tuple(parameters)
        self._names = frozenset(names)

    def __len__(self) -> int:
        return len(self.parameters)

    def __iter__(self) -> Iterator[ParameterSpec]:
        return iter(self.parameters)

    @property
    def dimensionality(self) -> int:
        """Parameter count; each categorical counts as one dimension."""
        return len(self.parameters)

    def validate(self, config: Configuration) -> None:
        """Raise InvalidConfigurationError unless ``config`` fits this space."""
        if config.values.keys() != self._names:
            missing = self._names - config.values.keys()
            extra = config.values.keys() - self._names
            raise InvalidConfigurationError(
                f"configuration keys mismatch (missing={sorted(missing)}, unknown={sorted(extra)})"
            )
        for spec in self.parameters:
            value = config.values[spec.name]
            if not spec.contains(value):
                raise InvalidConfigurationError(
                    f"value {value!r} outside domain of parameter {spec.name!r}"
                )

    def n_configurations(self) -> int | None:
        """Total number of distinct configurations, or None if any float dim."""
        sizes = [spec.n_values() for spec in self.parameters]
        return None if None in sizes else math.prod(sizes)

    def encoded_width(self, encoding: str) -> int:
        return sum(width for _, _, width in _layout(self, encoding))


# Float unit coordinates live on a grid of 2**-40, which a decode to a value
# and an encode back return exactly wherever a double resolves the range to
# about 1e-12, so a snapped row is bit-identical to the encoding of the
# configuration it decodes to.
_GRID = 2.0**40


def _layout(space: SearchSpace, encoding: str) -> list[tuple[ParameterSpec, int, int]]:
    """(parameter, first column, width) of each block of an encoded row."""
    if encoding not in _ENCODINGS:
        raise EncodingError(f"unknown encoding {encoding!r}; expected one of {_ENCODINGS}")
    out, start = [], 0
    for spec in space.parameters:
        width = len(spec.choices) if spec.kind == CATEGORICAL and encoding == ONE_HOT else 1
        out.append((spec, start, width))
        start += width
    return out


def _unit_to_real(spec: ParameterSpec, u: np.ndarray) -> np.ndarray:
    if spec.log_scale:
        lo, hi = math.log10(spec.low), math.log10(spec.high)
        return 10.0 ** (lo + u * (hi - lo))
    return spec.low + u * (spec.high - spec.low)


def _real_to_unit(spec: ParameterSpec, v: np.ndarray) -> np.ndarray:
    if spec.log_scale:
        lo, hi = math.log10(spec.low), math.log10(spec.high)
        return (np.log10(v) - lo) / (hi - lo)
    return (v - spec.low) / (spec.high - spec.low)


def _values(spec: ParameterSpec) -> tuple:
    return spec.levels if spec.kind == ORDINAL else spec.choices


def _code_bounds(spec: ParameterSpec) -> tuple:
    return (spec.low, spec.high) if spec.kind == INT else (0, spec.n_values() - 1)


def _snap_unit(u: np.ndarray) -> np.ndarray:
    """Float codes clamped to [0, 1] and rounded to the grid."""
    # + 0.0 turns -0.0 into 0.0, so equal codes have equal bytes
    return np.rint(np.clip(u, 0.0, 1.0) * _GRID) / _GRID + 0.0


def snap_codes(space: SearchSpace, codes: np.ndarray) -> np.ndarray:
    """Clamp each column of a code matrix to its parameter and round it onto
    the parameter's values: floats to the grid, the rest half-up."""
    out = np.empty(codes.shape)
    for j, spec in enumerate(space.parameters):
        if spec.kind == FLOAT:
            out[:, j] = _snap_unit(codes[:, j])
        else:
            out[:, j] = np.clip(np.floor(codes[:, j] + 0.5), *_code_bounds(spec))
    return out


def encode_codes(space: SearchSpace, codes: np.ndarray, encoding: str = ONE_HOT) -> np.ndarray:
    """Unit-cube rows of snapped codes: floats as they are, ints linearly or
    in log10, ranks over (levels - 1) or as one-hot blocks."""
    layout = _layout(space, encoding)
    X = np.zeros((len(codes), sum(width for _, _, width in layout)))
    for j, (spec, start, width) in enumerate(layout):
        col = codes[:, j]
        if width > 1:
            X[np.arange(len(codes)), start + col.astype(np.intp)] = 1.0
        elif spec.kind == FLOAT:
            X[:, start] = col
        elif spec.kind == INT:
            X[:, start] = _real_to_unit(spec, col)
        else:
            X[:, start] = col / (spec.n_values() - 1)
    return X


def decode_codes(space: SearchSpace, X: np.ndarray, encoding: str = ONE_HOT) -> np.ndarray:
    """Snapped codes of an (n, width) matrix of unit-cube rows: entries clamp
    to [0, 1], ints round half-up on their scale, ranks snap to the nearest
    one, and one-hot blocks take the argmax (lowest index on ties)."""
    X = np.asarray(X, dtype=float)
    expected = space.encoded_width(encoding)
    if X.ndim != 2 or X.shape[1] != expected:
        raise EncodingError(f"matrix shape {X.shape} does not match encoding width {expected}")
    X = np.clip(X, 0.0, 1.0)
    raw = np.empty((X.shape[0], len(space)))
    for j, (spec, start, width) in enumerate(_layout(space, encoding)):
        if width > 1:
            raw[:, j] = np.argmax(X[:, start : start + width], axis=1)
        elif spec.kind == FLOAT:
            raw[:, j] = X[:, start]
        elif spec.kind == INT:
            raw[:, j] = _unit_to_real(spec, X[:, start])
        else:
            raw[:, j] = X[:, start] * (spec.n_values() - 1)
    return snap_codes(space, raw)


def to_codes(space: SearchSpace, configs: Sequence[Configuration]) -> np.ndarray:
    """Codes of validated configurations, one row each."""
    for config in configs:
        space.validate(config)
    raw = np.empty((len(configs), len(space)))
    for j, spec in enumerate(space.parameters):
        values = [c.values[spec.name] for c in configs]
        if spec.kind == FLOAT:
            raw[:, j] = _real_to_unit(spec, np.array(values, dtype=float))
        elif spec.kind == INT:
            raw[:, j] = values
        else:
            raw[:, j] = [_values(spec).index(v) for v in values]
    return snap_codes(space, raw)


def from_codes(space: SearchSpace, codes: np.ndarray) -> list[Configuration]:
    """Configurations of snapped codes."""
    columns = []
    for j, spec in enumerate(space.parameters):
        col = codes[:, j]
        if spec.kind == FLOAT:
            columns.append(np.clip(_unit_to_real(spec, col), spec.low, spec.high).tolist())
        elif spec.kind == INT:
            columns.append(col.astype(np.int64).tolist())
        else:
            values = _values(spec)
            columns.append([values[r] for r in col.astype(np.intp)])
    names = [p.name for p in space.parameters]
    return [Configuration(dict(zip(names, row))) for row in zip(*columns)]


def sample_codes(space: SearchSpace, n: int, rng: np.random.Generator) -> np.ndarray:
    """Codes of n draws from the uniform prior: floats uniform on [low, high]
    (in log10 when log-scaled), ints uniform inclusive (log-scaled ones round
    a log10-uniform real half-up), ordinals/categoricals uniform."""
    if n < 1:
        raise ValueError("n must be >= 1")
    U = rng.uniform(size=(n, len(space)))
    for j, spec in enumerate(space.parameters):
        if spec.kind == INT and spec.log_scale:
            U[:, j] = _unit_to_real(spec, U[:, j])
        elif spec.kind != FLOAT:
            lo, hi = _code_bounds(spec)
            U[:, j] = lo + np.floor(U[:, j] * (hi - lo + 1))
    return snap_codes(space, U)


def all_codes(space: SearchSpace) -> np.ndarray:
    """Codes of every configuration of an all-discrete space, last parameter
    fastest."""
    if space.n_configurations() is None:
        raise SpaceError("cannot enumerate a space with float parameters")
    ranks = np.indices([spec.n_values() for spec in space.parameters]).reshape(len(space), -1).T
    return snap_codes(space, ranks + [_code_bounds(spec)[0] for spec in space.parameters])


def sample_random(space: SearchSpace, n: int, rng: np.random.Generator) -> list[Configuration]:
    """Draw n configurations from the uniform prior of the space (see
    :func:`sample_codes`)."""
    return from_codes(space, sample_codes(space, n, rng))


def latin_hypercube(space: SearchSpace, n: int, rng: np.random.Generator) -> np.ndarray:
    """Codes of a Latin hypercube design: per float/int dimension the n unit
    coordinates occupy n distinct equal-width strata; ordinals/categoricals
    are uniform."""
    codes = sample_codes(space, n, rng)
    for j, spec in enumerate(space.parameters):
        if spec.kind in (FLOAT, INT):
            u = (rng.permutation(n) + rng.uniform(size=n)) / n
            codes[:, j] = u if spec.kind == FLOAT else _unit_to_real(spec, u)
    return snap_codes(space, codes)


def encode_matrix(
    space: SearchSpace, configs: Sequence[Configuration], encoding: str = ONE_HOT
) -> np.ndarray:
    """Stack unit-vector encodings of many configurations into an (n, d) matrix."""
    return encode_codes(space, to_codes(space, configs), encoding)


# --- JSON search-space file format (used by the CLI) ---

_PARAM_FIELDS = {"name", "type", "low", "high", "log", "levels", "choices", "default"}
_SCALARS = (str, int, float, type(None))  # bool is an int


def parameter_from_dict(obj: Mapping[str, Any]) -> ParameterSpec:
    """Build a ParameterSpec from one entry of the JSON ``parameters`` list."""
    if not isinstance(obj, Mapping) or "name" not in obj or "type" not in obj:
        raise SpaceError(f"each parameter must be an object with 'name' and 'type', got {obj!r}")
    unknown = set(obj) - _PARAM_FIELDS
    if unknown:
        raise SpaceError(f"unknown parameter fields {sorted(unknown)}")
    if not isinstance(obj["name"], str):
        raise SpaceError(f"parameter name must be a string, got {obj['name']!r}")
    for key in ("low", "high"):
        if isinstance(obj.get(key), (bool, str, list, dict)):  # JSON, not a number or null
            raise SpaceError(f"{obj['name']!r}: {key} must be a number, got {obj[key]!r}")
    for key in ("levels", "choices"):
        items = obj.get(key, ())
        if not isinstance(items, (list, tuple)) or not all(isinstance(v, _SCALARS) for v in items):
            raise SpaceError(f"{obj['name']!r}: {key} must be a list of scalars, got {items!r}")
    return ParameterSpec(
        name=obj["name"],
        kind=obj["type"],
        low=obj.get("low"),
        high=obj.get("high"),
        log_scale=bool(obj.get("log", False)),
        levels=tuple(obj.get("levels", ())),
        choices=tuple(obj.get("choices", ())),
        default=obj.get("default"),
    )


def space_from_dict(obj: Mapping[str, Any]) -> SearchSpace:
    """Build a SearchSpace from the JSON object {"parameters": [...]}."""
    if not isinstance(obj.get("parameters"), list):
        raise SpaceError("search-space object needs a 'parameters' list")
    params = [parameter_from_dict(p) for p in obj["parameters"]]
    return SearchSpace(params)


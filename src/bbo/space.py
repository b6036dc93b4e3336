"""Search-space definitions: typed parameters, sampling, and unit-cube encodings.

A :class:`SearchSpace` is an ordered list of :class:`ParameterSpec` objects.
Configurations map parameter names to values and can be encoded into the unit
cube in two ways: ``one_hot`` (categoricals expand to 0/1 blocks, the encoding
used for GP inputs) and ``index`` (categoricals map to a rank scalar, used for
forest inputs).
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


def _round_half_up(x: float) -> int:
    # round-half-up on the real line (ties toward +inf), unlike banker's round()
    return int(math.floor(x + 0.5))


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

    # --- unit-interval transforms (scalar parameter <-> [0, 1]) ---

    def to_unit(self, value) -> float:
        if self.kind in (FLOAT, INT):
            if self.log_scale:
                lo, hi = math.log10(self.low), math.log10(self.high)
                return (math.log10(value) - lo) / (hi - lo)
            return (float(value) - self.low) / (self.high - self.low)
        if self.kind == ORDINAL:
            return self.levels.index(value) / (len(self.levels) - 1)
        return self.choices.index(value) / (len(self.choices) - 1)

    def from_unit(self, u: float):
        u = min(1.0, max(0.0, float(u)))
        if self.kind == FLOAT:
            if self.log_scale:
                lo, hi = math.log10(self.low), math.log10(self.high)
                return min(float(self.high), max(float(self.low), 10.0 ** (lo + u * (hi - lo))))
            return self.low + u * (self.high - self.low)
        if self.kind == INT:
            if self.log_scale:
                lo, hi = math.log10(self.low), math.log10(self.high)
                real = 10.0 ** (lo + u * (hi - lo))
            else:
                real = self.low + u * (self.high - self.low)
            return int(min(self.high, max(self.low, _round_half_up(real))))
        if self.kind == ORDINAL:
            rank = _round_half_up(u * (len(self.levels) - 1))
            return self.levels[min(len(self.levels) - 1, max(0, rank))]
        rank = _round_half_up(u * (len(self.choices) - 1))
        return self.choices[min(len(self.choices) - 1, max(0, rank))]


@dataclass(frozen=True)
class Configuration:
    """One point in a search space; equality and hashing are value-based."""

    values: Mapping[str, Any]

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))

    def __getitem__(self, name):
        return self.values[name]

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.values == other.values

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
        self._by_name = {p.name: p for p in self.parameters}

    def __len__(self) -> int:
        return len(self.parameters)

    def __iter__(self) -> Iterator[ParameterSpec]:
        return iter(self.parameters)

    def __getitem__(self, name: str) -> ParameterSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidConfigurationError(f"unknown parameter {name!r}") from None

    @property
    def dimensionality(self) -> int:
        """Parameter count; each categorical counts as one dimension."""
        return len(self.parameters)

    def validate(self, config: Configuration) -> None:
        """Raise InvalidConfigurationError unless ``config`` fits this space."""
        if set(config.values) != set(self._by_name):
            missing = set(self._by_name) - set(config.values)
            extra = set(config.values) - set(self._by_name)
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
        total = 1
        for spec in self.parameters:
            n = spec.n_values()
            if n is None:
                return None
            total *= n
        return total

    def all_configurations(self) -> Iterator[Configuration]:
        """Enumerate every configuration of an all-discrete space."""
        if self.n_configurations() is None:
            raise SpaceError("cannot enumerate a space with float parameters")

        def values_of(spec: ParameterSpec):
            if spec.kind == INT:
                return range(int(spec.low), int(spec.high) + 1)
            if spec.kind == ORDINAL:
                return spec.levels
            return spec.choices

        import itertools

        names = [p.name for p in self.parameters]
        for combo in itertools.product(*(values_of(p) for p in self.parameters)):
            yield Configuration(dict(zip(names, combo)))

    def encoded_width(self, encoding: str) -> int:
        _check_encoding(encoding)
        width = 0
        for spec in self.parameters:
            if spec.kind == CATEGORICAL and encoding == ONE_HOT:
                width += len(spec.choices)
            else:
                width += 1
        return width


def _check_encoding(encoding: str) -> None:
    if encoding not in _ENCODINGS:
        raise EncodingError(f"unknown encoding {encoding!r}; expected one of {_ENCODINGS}")


def sample_random(space: SearchSpace, n: int, rng: np.random.Generator) -> list[Configuration]:
    """Draw n configurations from the uniform prior of the space.

    Floats are uniform on [low, high] (uniform in log10 domain when
    log-scaled), ints uniform inclusive, ordinals/categoricals uniform over
    their value sets.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for _ in range(n):
        values = {}
        for spec in space.parameters:
            if spec.kind == FLOAT:
                if spec.log_scale:
                    values[spec.name] = float(
                        10.0 ** rng.uniform(math.log10(spec.low), math.log10(spec.high))
                    )
                else:
                    values[spec.name] = float(rng.uniform(spec.low, spec.high))
            elif spec.kind == INT:
                if spec.log_scale:
                    real = 10.0 ** rng.uniform(math.log10(spec.low), math.log10(spec.high))
                    values[spec.name] = int(
                        min(spec.high, max(spec.low, _round_half_up(real)))
                    )
                else:
                    values[spec.name] = int(rng.integers(int(spec.low), int(spec.high) + 1))
            elif spec.kind == ORDINAL:
                values[spec.name] = spec.levels[rng.integers(len(spec.levels))]
            else:
                values[spec.name] = spec.choices[rng.integers(len(spec.choices))]
        out.append(Configuration(values))
    return out


def latin_hypercube(space: SearchSpace, n: int, rng: np.random.Generator) -> list[Configuration]:
    """Latin hypercube design: per float/int dimension the n unit coordinates
    occupy n distinct equal-width strata; ordinals/categoricals are uniform."""
    if n < 1:
        raise ValueError("n must be >= 1")
    columns: dict[str, list] = {}
    for spec in space.parameters:
        if spec.kind in (FLOAT, INT):
            strata = rng.permutation(n)
            u = (strata + rng.uniform(size=n)) / n
            columns[spec.name] = [spec.from_unit(v) for v in u]
        elif spec.kind == ORDINAL:
            idx = rng.integers(len(spec.levels), size=n)
            columns[spec.name] = [spec.levels[i] for i in idx]
        else:
            idx = rng.integers(len(spec.choices), size=n)
            columns[spec.name] = [spec.choices[i] for i in idx]
    return [
        Configuration({name: columns[name][i] for name in (p.name for p in space.parameters)})
        for i in range(n)
    ]


def to_unit_vector(space: SearchSpace, config: Configuration, encoding: str = ONE_HOT) -> np.ndarray:
    """Encode a configuration as a vector in the unit cube."""
    _check_encoding(encoding)
    space.validate(config)
    out = np.empty(space.encoded_width(encoding))
    i = 0
    for spec in space.parameters:
        value = config.values[spec.name]
        if spec.kind == CATEGORICAL and encoding == ONE_HOT:
            k = len(spec.choices)
            block = np.zeros(k)
            block[spec.choices.index(value)] = 1.0
            out[i : i + k] = block
            i += k
        else:
            out[i] = spec.to_unit(value)
            i += 1
    return out


def from_unit_vector(space: SearchSpace, vector: Sequence[float], encoding: str = ONE_HOT) -> Configuration:
    """Decode a unit-cube vector back into a configuration.

    Entries are clamped to [0, 1] first; ints round half-up, ordinals snap to
    the nearest level rank, one-hot blocks decode by argmax (lowest index wins
    ties).
    """
    _check_encoding(encoding)
    vector = np.asarray(vector, dtype=float)
    expected = space.encoded_width(encoding)
    if vector.ndim != 1 or vector.shape[0] != expected:
        raise EncodingError(
            f"vector length {vector.shape} does not match encoding width {expected}"
        )
    values = {}
    i = 0
    for spec in space.parameters:
        if spec.kind == CATEGORICAL and encoding == ONE_HOT:
            k = len(spec.choices)
            block = vector[i : i + k]
            values[spec.name] = spec.choices[int(np.argmax(block))]
            i += k
        else:
            values[spec.name] = spec.from_unit(vector[i])
            i += 1
    return Configuration(values)


def encode_matrix(
    space: SearchSpace, configs: Sequence[Configuration], encoding: str = ONE_HOT
) -> np.ndarray:
    """Stack unit-vector encodings of many configurations into an (n, d) matrix."""
    return np.array([to_unit_vector(space, c, encoding) for c in configs], dtype=float)


# --- JSON search-space file format (used by the CLI) ---

_PARAM_FIELDS = {"name", "type", "low", "high", "log", "levels", "choices", "default"}


def parameter_from_dict(obj: Mapping[str, Any]) -> ParameterSpec:
    """Build a ParameterSpec from one entry of the JSON ``parameters`` list."""
    unknown = set(obj) - _PARAM_FIELDS
    if unknown:
        raise SpaceError(f"unknown parameter fields {sorted(unknown)}")
    if "name" not in obj or "type" not in obj:
        raise SpaceError("each parameter needs 'name' and 'type'")
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
    if "parameters" not in obj:
        raise SpaceError("search-space object needs a 'parameters' list")
    params = [parameter_from_dict(p) for p in obj["parameters"]]
    return SearchSpace(params)


def space_to_dict(space: SearchSpace) -> dict:
    """Inverse of :func:`space_from_dict` (canonical field order)."""
    out = []
    for p in space.parameters:
        entry: dict[str, Any] = {"name": p.name, "type": p.kind}
        if p.kind in (FLOAT, INT):
            entry["low"] = p.low
            entry["high"] = p.high
            if p.log_scale:
                entry["log"] = True
        elif p.kind == ORDINAL:
            entry["levels"] = list(p.levels)
        else:
            entry["choices"] = list(p.choices)
        if p.default is not None:
            entry["default"] = p.default
        out.append(entry)
    return {"parameters": out}

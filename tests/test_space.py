"""Tests for search-space sampling and encodings."""

import math

import numpy as np
import pytest

from bbo.errors import EncodingError, InvalidConfigurationError, SpaceError
from bbo.space import (
    Configuration,
    ParameterSpec,
    SearchSpace,
    all_codes,
    decode_codes,
    encode_codes,
    encode_matrix,
    from_codes,
    latin_hypercube,
    parameter_from_dict,
    sample_random,
    space_from_dict,
    to_codes,
)


def make_space(*specs):
    return SearchSpace(list(specs))


def encode(space, config, encoding):
    """Unit-cube row of one configuration, through its code row."""
    return encode_codes(space, to_codes(space, [config]), encoding)[0]


def decode(space, vector, encoding):
    """Configuration of one unit-cube row, through its code row."""
    (config,) = from_codes(space, decode_codes(space, np.array([vector], dtype=float), encoding))
    return config


class TestParameterSpec:
    def test_float_bounds_validation(self):
        with pytest.raises(SpaceError):
            ParameterSpec("x", "float", low=1.0, high=0.0)

    def test_log_scale_requires_positive_low(self):
        with pytest.raises(SpaceError):
            ParameterSpec("x", "float", low=0.0, high=1.0, log_scale=True)

    def test_ordinal_needs_two_distinct_levels(self):
        with pytest.raises(SpaceError):
            ParameterSpec("o", "ordinal", levels=("a",))
        with pytest.raises(SpaceError):
            ParameterSpec("o", "ordinal", levels=("a", "a"))

    def test_categorical_needs_two_distinct_choices(self):
        with pytest.raises(SpaceError):
            ParameterSpec("c", "categorical", choices=("a",))

    def test_default_must_lie_inside(self):
        with pytest.raises(SpaceError):
            ParameterSpec("x", "float", low=0.0, high=1.0, default=2.0)
        spec = ParameterSpec("x", "float", low=0.0, high=1.0, default=0.5)
        assert spec.default == 0.5

    def test_unknown_kind(self):
        with pytest.raises(SpaceError):
            ParameterSpec("x", "gaussian", low=0, high=1)


class TestSearchSpace:
    def test_unique_names_required(self):
        p = ParameterSpec("x", "float", low=0.0, high=1.0)
        with pytest.raises(SpaceError):
            SearchSpace([p, p])

    def test_empty_rejected(self):
        with pytest.raises(SpaceError):
            SearchSpace([])

    def test_dimensionality_counts_categoricals_once(self):
        space = make_space(
            ParameterSpec("x", "float", low=0, high=1),
            ParameterSpec("c", "categorical", choices=("a", "b", "c")),
        )
        assert space.dimensionality == 2

    def test_validate_rejects_out_of_bounds(self):
        space = make_space(ParameterSpec("x", "float", low=0.0, high=1.0))
        with pytest.raises(InvalidConfigurationError):
            space.validate(Configuration({"x": 2.0}))
        with pytest.raises(InvalidConfigurationError):
            space.validate(Configuration({"y": 0.5}))

    def test_enumeration_of_discrete_space(self):
        space = make_space(
            ParameterSpec("k", "int", low=0, high=2),
            ParameterSpec("c", "categorical", choices=("a", "b")),
        )
        assert space.n_configurations() == 6
        configs = from_codes(space, all_codes(space))
        assert len(set(configs)) == 6
        # last parameter fastest
        assert [(c["k"], c["c"]) for c in configs[:3]] == [(0, "a"), (0, "b"), (1, "a")]


class TestSampleRandom:
    def test_determinism_same_seed(self):
        space = make_space(ParameterSpec("x", "float", low=0.0, high=1.0))
        a = sample_random(space, 3, np.random.default_rng(7))
        b = sample_random(space, 3, np.random.default_rng(7))
        assert a == b

    def test_categorical_frequencies(self):
        space = make_space(ParameterSpec("c", "categorical", choices=("a", "b")))
        configs = sample_random(space, 10000, np.random.default_rng(0))
        freq = sum(1 for c in configs if c["c"] == "a") / 10000
        assert 0.47 <= freq <= 0.53  # 3 sigma binomial bound around p=0.5

    def test_log_scale_median(self):
        space = make_space(ParameterSpec("x", "float", low=1.0, high=100.0, log_scale=True))
        configs = sample_random(space, 10000, np.random.default_rng(0))
        median = np.median([math.log10(c["x"]) for c in configs])
        assert 0.9 <= median <= 1.1  # uniform in log10, median log ~ 1

    def test_bounds_respected_100k_draws_per_kind(self):
        space = make_space(
            ParameterSpec("x", "float", low=-2.0, high=3.0),
            ParameterSpec("lx", "float", low=0.1, high=10.0, log_scale=True),
            ParameterSpec("k", "int", low=-3, high=4),
            ParameterSpec("o", "ordinal", levels=(1, 5, 9)),
            ParameterSpec("c", "categorical", choices=("a", "b", "c")),
        )
        for config in sample_random(space, 100_000, np.random.default_rng(1)):
            for spec in space.parameters:
                assert spec.contains(config[spec.name])

    def test_int_uniform_inclusive(self):
        space = make_space(ParameterSpec("k", "int", low=0, high=2))
        values = [c["k"] for c in sample_random(space, 3000, np.random.default_rng(3))]
        assert set(values) == {0, 1, 2}
        counts = np.bincount(values)
        assert counts.min() > 800


class TestLatinHypercube:
    def test_stratification_single_float(self):
        space = make_space(ParameterSpec("x", "float", low=0.0, high=1.0))
        configs = from_codes(space, latin_hypercube(space, 4, np.random.default_rng(0)))
        strata = sorted(int(c["x"] * 4) for c in configs)
        assert strata == [0, 1, 2, 3]

    def test_single_point(self):
        space = make_space(ParameterSpec("x", "float", low=0.0, high=1.0))
        configs = from_codes(space, latin_hypercube(space, 1, np.random.default_rng(0)))
        assert len(configs) == 1
        space.validate(configs[0])

    def test_stratification_two_dims(self):
        space = make_space(
            ParameterSpec("x", "float", low=0.0, high=1.0),
            ParameterSpec("y", "float", low=0.0, high=1.0),
        )
        n = 8
        codes = latin_hypercube(space, n, np.random.default_rng(2))
        # the design is snapped: its rows are the codes of its configurations
        configs = from_codes(space, codes)
        assert to_codes(space, configs).tobytes() == codes.tobytes()
        for name in ("x", "y"):
            strata = sorted(min(n - 1, int(c[name] * n)) for c in configs)
            assert strata == list(range(n))


class TestEncodings:
    def test_float_affine_midpoint(self):
        space = make_space(ParameterSpec("x", "float", low=0.0, high=10.0))
        v = encode(space, Configuration({"x": 5.0}), "index")
        assert v == pytest.approx([0.5])

    def test_one_hot_block(self):
        space = make_space(ParameterSpec("c", "categorical", choices=("a", "b", "c")))
        v = encode(space, Configuration({"c": "b"}), "one_hot")
        assert list(v) == [0.0, 1.0, 0.0]

    def test_log_midpoint(self):
        space = make_space(ParameterSpec("x", "float", low=1.0, high=100.0, log_scale=True))
        v = encode(space, Configuration({"x": 10.0}), "one_hot")
        assert v == pytest.approx([0.5])

    def test_int_round_half_up(self):
        space = make_space(ParameterSpec("k", "int", low=0, high=10))
        config = decode(space, [0.55], "index")
        assert config["k"] == 6  # 5.5 rounds half-up

    def test_one_hot_argmax_decode(self):
        space = make_space(ParameterSpec("c", "categorical", choices=("a", "b", "c")))
        config = decode(space, [0.2, 0.2, 0.6], "one_hot")
        assert config["c"] == "c"
        # ties break toward the lowest index
        config = decode(space, [0.4, 0.4, 0.2], "one_hot")
        assert config["c"] == "a"

    def test_length_mismatch(self):
        space = make_space(ParameterSpec("x", "float", low=0.0, high=1.0))
        for X in ([[0.1, 0.2]], [0.1], [[[0.1]]]):
            with pytest.raises(EncodingError):
                decode_codes(space, np.array(X), "index")

    def test_unknown_encoding(self):
        space = make_space(ParameterSpec("x", "float", low=0.0, high=1.0))
        with pytest.raises(EncodingError):
            encode(space, Configuration({"x": 0.5}), "binary")

    def test_round_trip_all_kinds(self):
        space = make_space(
            ParameterSpec("x", "float", low=-2.0, high=3.0),
            ParameterSpec("lx", "float", low=0.1, high=10.0, log_scale=True),
            ParameterSpec("k", "int", low=-3, high=4),
            ParameterSpec("o", "ordinal", levels=(1, 5, 9)),
            ParameterSpec("c", "categorical", choices=("a", "b", "c")),
        )
        rng = np.random.default_rng(5)
        for encoding in ("one_hot", "index"):
            for config in sample_random(space, 100, rng):
                back = decode(space, encode(space, config, encoding), encoding)
                for name in ("k", "o", "c"):
                    assert back[name] == config[name]
                for name in ("x", "lx"):
                    assert back[name] == pytest.approx(config[name], rel=1e-12, abs=1e-12)

    def test_decode_encode_fixpoint(self):
        space = make_space(
            ParameterSpec("k", "int", low=0, high=7),
            ParameterSpec("c", "categorical", choices=("a", "b", "c", "d")),
        )
        rng = np.random.default_rng(9)
        for encoding in ("one_hot", "index"):
            width = space.encoded_width(encoding)
            for _ in range(100):
                v = rng.uniform(size=width)
                c1 = decode(space, v, encoding)
                c2 = decode(space, encode(space, c1, encoding), encoding)
                assert c1 == c2

    def test_decode_clamps_out_of_range(self):
        space = make_space(ParameterSpec("x", "float", low=0.0, high=1.0))
        assert decode(space, [1.7], "index")["x"] == 1.0
        assert decode(space, [-0.3], "index")["x"] == 0.0


class TestCodec:
    def every_kind(self):
        return make_space(
            ParameterSpec("x", "float", low=-2.0, high=3.0),
            ParameterSpec("lx", "float", low=1e-4, high=10.0, log_scale=True),
            ParameterSpec("lk", "int", low=1, high=1000, log_scale=True),
            ParameterSpec("k", "int", low=-3, high=4),
            ParameterSpec("o", "ordinal", levels=(1, 5, 9)),
            ParameterSpec("c2", "categorical", choices=("a", "b")),
            ParameterSpec("c4", "categorical", choices=("p", "q", "r", "s")),
        )

    @pytest.mark.parametrize("encoding", ["one_hot", "index"])
    def test_snapped_rows_are_encodings_of_their_configurations(self, encoding):
        space = self.every_kind()
        rng = np.random.default_rng(13)
        X = rng.uniform(-0.1, 1.1, size=(1000, space.encoded_width(encoding)))
        snapped = encode_codes(space, decode_codes(space, X, encoding), encoding)
        again = encode_codes(space, decode_codes(space, snapped, encoding), encoding)
        assert again.tobytes() == snapped.tobytes()
        configs = from_codes(space, decode_codes(space, snapped, encoding))
        assert encode_matrix(space, configs, encoding).tobytes() == snapped.tobytes()

    @pytest.mark.parametrize("encoding", ["one_hot", "index"])
    def test_sampled_configurations_round_trip_exactly(self, encoding):
        space = self.every_kind()
        for config in sample_random(space, 1000, np.random.default_rng(17)):
            assert decode(space, encode(space, config, encoding), encoding) == config


class TestJsonFormat:
    def test_from_dict_reads_every_field(self):
        doc = {
            "parameters": [
                {"name": "x", "type": "float", "low": 0.0, "high": 1.0},
                {"name": "lr", "type": "float", "low": 1e-4, "high": 1.0, "log": True},
                {"name": "k", "type": "int", "low": 1, "high": 8, "default": 4},
                {"name": "o", "type": "ordinal", "levels": [1, 2, 4]},
                {"name": "c", "type": "categorical", "choices": ["adam", "sgd"]},
            ]
        }
        assert space_from_dict(doc).parameters == (
            ParameterSpec("x", "float", low=0.0, high=1.0),
            ParameterSpec("lr", "float", low=1e-4, high=1.0, log_scale=True),
            ParameterSpec("k", "int", low=1, high=8, default=4),
            ParameterSpec("o", "ordinal", levels=(1, 2, 4)),
            ParameterSpec("c", "categorical", choices=("adam", "sgd")),
        )

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpaceError):
            parameter_from_dict({"name": "x", "type": "float", "low": 0, "high": 1, "prior": "u"})

    def test_missing_parameters_key(self):
        with pytest.raises(SpaceError):
            space_from_dict({"params": []})

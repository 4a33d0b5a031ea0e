"""SimJobSpec: round-trip, hashing, validation (property-based)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.service.spec import SimJobSpec
from repro.system.design import DESIGN_ORDER

NETWORKS = ("ResNet18", "ResNet50", "MobileNet", "MLP1", "AlphaGoZero")
PRECISIONS = ("8/32", "16/32", "8/16", "32/32")
TIMINGS = ("DDR4-2133", "DDR4-3200", "HBM-like")
ALL_DESIGNS = tuple(d.value for d in DESIGN_ORDER)

_eta = st.floats(1e-4, 0.5, allow_nan=False, allow_infinity=False)
_alpha = st.floats(0.0, 0.99, allow_nan=False, allow_infinity=False)

optimizers = st.one_of(
    st.tuples(st.just("sgd"), st.fixed_dictionaries({"eta": _eta})),
    st.tuples(
        st.just("momentum_sgd"),
        st.fixed_dictionaries(
            {"eta": _eta, "alpha": _alpha},
            optional={"weight_decay": st.floats(0.0, 0.01)},
        ),
    ),
    st.tuples(
        st.just("adam"),
        st.fixed_dictionaries({"eta": _eta, "beta1": _alpha}),
    ),
)

design_sets = st.sets(
    st.sampled_from(ALL_DESIGNS), min_size=0, max_size=5
).map(lambda s: ("Baseline",) + tuple(s))


@st.composite
def specs(draw):
    name, params = draw(optimizers)
    return SimJobSpec(
        network=draw(st.sampled_from(NETWORKS)),
        batch=draw(st.one_of(st.none(), st.integers(1, 256))),
        optimizer=name,
        optimizer_params=params,
        precision=draw(st.sampled_from(PRECISIONS)),
        timing=draw(st.sampled_from(TIMINGS)),
        geometry=draw(
            st.fixed_dictionaries(
                {}, optional={"ranks": st.sampled_from((2, 4, 8))}
            )
        ),
        npu=draw(
            st.fixed_dictionaries(
                {},
                optional={"array_rows": st.sampled_from((64, 128, 256))},
            )
        ),
        designs=draw(design_sets),
        columns_per_stripe=draw(st.sampled_from((8, 16, 32))),
        channels=draw(st.one_of(st.none(), st.sampled_from((1, 2, 4, 8)))),
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(specs())
    def test_dict_round_trip_lossless(self, spec):
        assert SimJobSpec.from_dict(spec.to_dict()) == spec
        assert SimJobSpec.from_dict(spec.to_dict()).to_dict() == (
            spec.to_dict()
        )

    @settings(max_examples=60, deadline=None)
    @given(specs())
    def test_json_round_trip_lossless(self, spec):
        assert SimJobSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=60, deadline=None)
    @given(specs())
    def test_hash_stable_across_round_trip(self, spec):
        assert (
            SimJobSpec.from_dict(spec.to_dict()).content_hash()
            == spec.content_hash()
        )


class TestHashing:
    @settings(max_examples=60, deadline=None)
    @given(specs(), st.randoms(use_true_random=False))
    def test_hash_key_order_insensitive(self, spec, rnd):
        d = spec.to_dict()
        shuffled_keys = list(d)
        rnd.shuffle(shuffled_keys)
        shuffled = {k: d[k] for k in shuffled_keys}
        assert (
            SimJobSpec.from_dict(shuffled).content_hash()
            == spec.content_hash()
        )

    @settings(max_examples=60, deadline=None)
    @given(specs(), st.randoms(use_true_random=False))
    def test_hash_design_order_insensitive(self, spec, rnd):
        d = spec.to_dict()
        designs = list(d["designs"])
        rnd.shuffle(designs)
        d["designs"] = designs
        assert (
            SimJobSpec.from_dict(d).content_hash() == spec.content_hash()
        )

    @settings(max_examples=60, deadline=None)
    @given(specs(), specs())
    def test_hash_collision_distinct(self, a, b):
        # Differing canonical content must produce differing hashes;
        # equal content must produce equal hashes.
        if a.canonical_json() == b.canonical_json():
            assert a.content_hash() == b.content_hash()
        else:
            assert a.content_hash() != b.content_hash()

    def test_explicit_defaults_equal_omitted_defaults(self):
        assert (
            SimJobSpec(network="MLP1").content_hash()
            == SimJobSpec(
                network="MLP1", precision="8/32", timing="DDR4-2133"
            ).content_hash()
        )


class TestValidation:
    def test_unknown_network(self):
        with pytest.raises(ConfigError, match="unknown network"):
            SimJobSpec(network="VGG16")

    def test_unknown_precision(self):
        with pytest.raises(ConfigError, match="unknown precision"):
            SimJobSpec(network="MLP1", precision="4/32")

    def test_unknown_timing(self):
        with pytest.raises(ConfigError, match="unknown timing"):
            SimJobSpec(network="MLP1", timing="DDR5-4800")

    def test_designs_must_include_baseline(self):
        with pytest.raises(ConfigError, match="baseline"):
            SimJobSpec(network="MLP1", designs=("GradPIM-BD",))

    def test_unknown_design(self):
        with pytest.raises(ConfigError, match="unknown design"):
            SimJobSpec(network="MLP1", designs=("Baseline", "GradPIM-XX"))

    def test_unknown_optimizer(self):
        with pytest.raises(ConfigError, match="unknown optimizer"):
            SimJobSpec(network="MLP1", optimizer="lion")

    def test_bad_hyperparameter_name(self):
        with pytest.raises(ConfigError, match="hyperparameters"):
            SimJobSpec(
                network="MLP1",
                optimizer="sgd",
                optimizer_params={"learning_rate": 0.1},
            )

    def test_bad_geometry_override(self):
        with pytest.raises(ConfigError, match="geometry"):
            SimJobSpec(network="MLP1", geometry={"lanes": 2})

    def test_unknown_dict_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown spec field"):
            SimJobSpec.from_dict({"network": "MLP1", "fidelity": "high"})

    def test_missing_network_rejected(self):
        with pytest.raises(ConfigError, match="network"):
            SimJobSpec.from_dict({"precision": "8/32"})

    def test_negative_batch_rejected(self):
        with pytest.raises(ConfigError, match="batch"):
            SimJobSpec(network="MLP1", batch=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch", True),
            ("batch", "8"),
            ("batch", 8.0),
            ("batch", -3),
            ("columns_per_stripe", "8"),
            ("columns_per_stripe", True),
            ("columns_per_stripe", 0),
            ("columns_per_stripe", 129),
            ("columns_per_stripe", 256),
            ("columns_per_stripe", 1e9),
        ],
    )
    def test_bad_counts_rejected_naming_the_field(self, field, value):
        """Regression: a bool batch used to simulate as batch 1, a
        string stripe width leaked a raw TypeError, and a stripe wider
        than a row (128 columns) passed the spec only to fail inside
        the worker with a CompileError."""
        with pytest.raises(ConfigError, match=field):
            SimJobSpec.from_dict({"network": "MLP1", field: value})

    def test_stripe_width_bounds_are_inclusive(self):
        for width in (1, 128):
            assert SimJobSpec(
                network="MLP1", columns_per_stripe=width
            ).columns_per_stripe == width

    def test_stripe_bound_follows_a_wider_row_override(self):
        spec = SimJobSpec(
            network="MLP1", columns_per_stripe=200,
            geometry={"row_bytes": 16384},
        )
        assert spec.resolve().geometry.columns_per_row == 256

    def test_valid_specs_keep_their_content_hashes(self):
        """The edge checks reject more input but change no address."""
        assert SimJobSpec(network="MLP1").content_hash() == (
            "6dfbf5fee10157ea7289671e22226b4b"
            "4638fc55fc454ade5415cec465056006"
        )
        assert SimJobSpec(
            network="ResNet18", batch=16, columns_per_stripe=128
        ).content_hash() == (
            "f5d7df450d5444f0c87b7cefc5489dc6"
            "db2f938711bdd6ff98171ba1683ff288"
        )


class TestChannels:
    def test_ddr4_default_is_one_channel(self):
        assert SimJobSpec(network="MLP1").channels == 1

    def test_hbm_default_is_the_physical_stack(self):
        # Omitting channels on the HBM2 preset materializes the real
        # 8-channel stack — the substrate is no longer a single-bus
        # fake.
        spec = SimJobSpec(network="MLP1", timing="HBM-like")
        assert spec.channels == 8
        assert spec.resolve().geometry.channels == 8

    def test_explicit_channels_beat_the_preset(self):
        spec = SimJobSpec(network="MLP1", timing="HBM-like", channels=1)
        assert spec.channels == 1
        assert spec.resolve().geometry.channels == 1

    def test_geometry_override_folds_into_the_field(self):
        # Both spellings hash to one content address.
        a = SimJobSpec(network="MLP1", geometry={"channels": 4})
        b = SimJobSpec(network="MLP1", channels=4)
        assert a.channels == 4
        assert "channels" not in a.geometry
        assert a.content_hash() == b.content_hash()

    def test_conflicting_spellings_rejected(self):
        with pytest.raises(ConfigError, match="channels"):
            SimJobSpec(
                network="MLP1", channels=2, geometry={"channels": 4}
            )

    def test_agreeing_spellings_accepted(self):
        spec = SimJobSpec(
            network="MLP1", channels=4, geometry={"channels": 4}
        )
        assert spec.channels == 4

    def test_channel_count_changes_the_hash(self):
        assert (
            SimJobSpec(network="MLP1", channels=2).content_hash()
            != SimJobSpec(network="MLP1").content_hash()
        )

    def test_bad_channel_counts_rejected(self):
        with pytest.raises(ConfigError, match="channels"):
            SimJobSpec(network="MLP1", channels=0)
        with pytest.raises(ConfigError):
            SimJobSpec(network="MLP1", channels=3)  # pow2 via geometry


class TestResolve:
    def test_resolves_defaults(self):
        job = SimJobSpec(network="MLP1").resolve()
        assert job.batch == 128  # the MLP's zoo default
        assert job.optimizer.name == "momentum_sgd"
        assert job.timing.name == "DDR4-2133"
        assert len(job.designs) == 6

    def test_resolves_overrides(self):
        spec = SimJobSpec(
            network="ResNet18",
            batch=16,
            npu={"array_rows": 128},
            geometry={"ranks": 2},
        )
        job = spec.resolve()
        assert job.batch == 16
        assert job.npu.array_rows == 128
        assert job.geometry.ranks == 2

    def test_canonical_json_is_deterministic(self):
        spec = SimJobSpec(network="MLP1")
        assert spec.canonical_json() == spec.canonical_json()
        assert json.loads(spec.canonical_json()) == spec.to_dict()


class TestValidateFlag:
    def test_default_on_and_round_trips(self):
        spec = SimJobSpec(network="MLP1")
        assert spec.validate is True
        assert spec.to_dict()["validate"] is True
        off = SimJobSpec.from_dict({"network": "MLP1", "validate": False})
        assert off.validate is False
        assert SimJobSpec.from_dict(off.to_dict()) == off

    def test_validate_is_part_of_the_content_hash(self):
        on = SimJobSpec(network="MLP1")
        off = SimJobSpec(network="MLP1", validate=False)
        assert on.content_hash() != off.content_hash()

    def test_validate_must_be_boolean(self):
        with pytest.raises(ConfigError):
            SimJobSpec(network="MLP1", validate="yes")

    def test_resolve_carries_validate(self):
        assert SimJobSpec(network="MLP1").resolve().validate is True
        assert (
            SimJobSpec(network="MLP1", validate=False).resolve().validate
            is False
        )


class TestEngineField:
    def test_default_and_round_trip(self):
        spec = SimJobSpec(network="MLP1")
        assert spec.engine == "incremental"
        assert spec.to_dict()["engine"] == "incremental"
        periodic = SimJobSpec.from_dict(
            {"network": "MLP1", "engine": "periodic"}
        )
        assert periodic.engine == "periodic"
        assert SimJobSpec.from_dict(periodic.to_dict()) == periodic

    def test_engine_is_part_of_the_content_hash(self):
        default = SimJobSpec(network="MLP1")
        periodic = SimJobSpec(network="MLP1", engine="periodic")
        assert default.content_hash() != periodic.content_hash()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            SimJobSpec(network="MLP1", engine="warp-drive")

    def test_resolve_carries_engine(self):
        assert (
            SimJobSpec(network="MLP1", engine="periodic")
            .resolve()
            .engine
            == "periodic"
        )

    def test_engines_produce_identical_results(self):
        from repro.service.pool import clear_model_cache, execute_spec

        results = {}
        for engine in ("incremental", "periodic", "columnar"):
            clear_model_cache()
            spec = SimJobSpec(
                network="MLP1",
                columns_per_stripe=8,
                designs=("Baseline", "GradPIM-BD"),
                engine=engine,
            )
            results[engine] = execute_spec(spec).to_dict()
        assert results["incremental"] == results["periodic"]
        assert results["incremental"] == results["columnar"]

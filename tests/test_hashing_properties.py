"""Property-based tests for config hashing and shard partitioning.

The cache key and the shard assignment are the load-bearing identities of
the whole distributed pipeline: a key that varies with dict order would
fracture the cache, a key *insensitive* to some config field would serve
wrong results, and a shard partition that is not disjoint/exhaustive
would double-run or drop cells.  Hypothesis hunts the corners.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.propagation import PropagationSpec
from repro.energy.radio_specs import RadioSpec, TxPowerLevel
from repro.faults import FaultPlan
from repro.models.scenario import RadioAssignment, ScenarioConfig
from repro.runner import ShardSpec, canonical_json, config_key, shard_index
from repro.runner.hashing import CACHE_SCHEMA_VERSION
from repro.topology.registry import TopologySpec

# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------

#: JSON-able scalar leaves.  Floats exclude NaN (tagged specially and not
#: equal to itself — covered by a dedicated test below).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False),
    st.text(max_size=20),
)

#: Nested plain data, the shape canonicalized configs reduce to.
nested = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)

#: Valid sha256-hex cell keys (what config_key produces).
keys = st.binary(min_size=1, max_size=32).map(
    lambda blob: hashlib.sha256(blob).hexdigest()
)


def shuffled_dict(data: dict, order: list) -> dict:
    """The same mapping with a different insertion order."""
    items = list(data.items())
    return dict(items[i] for i in order)


# ---------------------------------------------------------------------------
# canonical_json / config_key invariance and sensitivity.
# ---------------------------------------------------------------------------


class TestDictOrderInvariance:
    @given(
        data=st.dictionaries(st.text(max_size=10), nested, max_size=6),
        seed=st.randoms(use_true_random=False),
    )
    def test_key_insertion_order_never_changes_the_hash(self, data, seed):
        order = list(range(len(data)))
        seed.shuffle(order)
        reordered = shuffled_dict(data, order)
        assert reordered == data
        assert canonical_json(data) == canonical_json(reordered)
        assert config_key(data) == config_key(reordered)

    @given(data=st.dictionaries(st.text(max_size=10), nested, max_size=4))
    def test_nested_dataclass_and_dict_agree_on_order(self, data):
        @dataclasses.dataclass
        class Holder:
            payload: dict

        reordered = shuffled_dict(data, list(reversed(range(len(data)))))
        assert canonical_json(Holder(data)) == canonical_json(
            Holder(reordered)
        )

    @given(value=nested)
    def test_canonical_json_is_deterministic(self, value):
        assert canonical_json(value) == canonical_json(value)


class TestScenarioFieldSensitivity:
    """Every single ScenarioConfig field must perturb the cache key."""

    BASE = ScenarioConfig(
        rows=3, cols=3, sink=4, n_senders=2, sim_time_s=10.0, burst_packets=10
    )

    #: A validity-preserving mutation per field that a generic rule cannot
    #: produce (enums, cross-field constraints, nested specs).
    SPECIAL = {
        "model": "sensor",
        "traffic": "poisson",
        "sink": 5,
        "n_senders": 3,
        "low_spec": BASE.low_spec.replace(rate_bps=BASE.low_spec.rate_bps + 1),
        "high_spec": BASE.high_spec.replace(
            rate_bps=BASE.high_spec.rate_bps + 1
        ),
        "multihop_range_m": 123.0,
        "topology": TopologySpec.of("uniform-random", n=9, width_m=80.0,
                                    height_m=80.0),
        "propagation": PropagationSpec.of("log-normal", sigma_db=4.0),
        "high_radios": RadioAssignment(overrides=((0, "Cabletron"),)),
        "traffic_mix": ((1, "poisson"),),
        "routing": "lazy",
        "routing_policy": "tx-energy",
        "faults": FaultPlan(crashes=((1.0, 1),)),
    }

    @staticmethod
    def mutate(name, value):
        if isinstance(value, bool):
            return not value
        if isinstance(value, int):
            return value + 1
        if isinstance(value, float):
            return value + 1.0
        raise AssertionError(
            f"field {name!r} of type {type(value).__name__} needs a SPECIAL "
            "mutation"
        )

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(ScenarioConfig)]
    )
    def test_field_changes_key(self, field):
        value = getattr(self.BASE, field)
        changed = self.SPECIAL.get(field, None)
        if changed is None:
            changed = self.mutate(field, value)
        tweaked = self.BASE.replace(**{field: changed})
        assert getattr(tweaked, field) != value
        assert config_key(tweaked) != config_key(self.BASE)

    def test_v9_key_has_no_engine_selectors(self):
        # Schema v9 retired the agenda and MAC-engine selectors along with
        # the alternate engines; neither may widen the key again.
        payload = json.loads(canonical_json(self.BASE))
        assert payload["schema"] == CACHE_SCHEMA_VERSION == 9
        assert not {"scheduler", "mac_engine"} & set(payload["config"])

    def test_radio_spec_every_field_participates(self):
        spec = self.BASE.low_spec
        for field in dataclasses.fields(RadioSpec):
            value = getattr(spec, field.name)
            if field.name == "kind":
                changed = "high"  # validated enum
            elif isinstance(value, str):
                changed = value + "x"
            elif value is None:
                changed = 1.0
            elif isinstance(value, tuple):
                # tx_power_levels: grow the (empty by default) ladder.
                changed = value + (TxPowerLevel(p_tx_w=0.01, range_m=10.0),)
            else:
                changed = type(value)(value + 1)
            tweaked = self.BASE.replace(
                low_spec=spec.replace(**{field.name: changed})
            )
            assert config_key(tweaked) != config_key(self.BASE), field.name


class TestNonFiniteFloats:
    @given(tag=st.sampled_from(["inf", "-inf", "nan"]))
    def test_tagged_and_distinct_from_strings(self, tag):
        @dataclasses.dataclass
        class Holder:
            value: object

        assert config_key(Holder(float(tag))) != config_key(Holder(tag))

    def test_nan_hashes_consistently(self):
        assert config_key(float("nan")) == config_key(float("nan"))


# ---------------------------------------------------------------------------
# Shard-partition properties.
# ---------------------------------------------------------------------------


class TestShardPartitionProperties:
    @given(key=keys, count=st.integers(min_value=1, max_value=64))
    def test_index_in_range(self, key, count):
        assert 0 <= shard_index(key, count) < count

    @given(key=keys, count=st.integers(min_value=1, max_value=64))
    def test_assignment_is_stable(self, key, count):
        assert shard_index(key, count) == shard_index(key, count)

    @given(
        batch=st.lists(keys, min_size=1, max_size=30, unique=True),
        count=st.integers(min_value=1, max_value=8),
    )
    def test_partition_disjoint_and_exhaustive(self, batch, count):
        slices = [
            {key for key in batch if ShardSpec(index, count).owns(key)}
            for index in range(count)
        ]
        assert set().union(*slices) == set(batch)  # exhaustive
        assert sum(len(piece) for piece in slices) == len(batch)  # disjoint

    @given(key=keys)
    def test_single_shard_owns_everything(self, key):
        assert shard_index(key, 1) == 0
        assert ShardSpec(0, 1).owns(key)

    @settings(max_examples=20)
    @given(
        batch=st.lists(keys, min_size=8, max_size=40, unique=True),
        count=st.integers(min_value=2, max_value=4),
    )
    def test_assignment_independent_of_batch_composition(self, batch, count):
        # owning shard is a pure function of (key, count): dropping other
        # keys from the batch never reassigns the survivors
        full = {key: shard_index(key, count) for key in batch}
        half = {key: shard_index(key, count) for key in batch[::2]}
        assert all(full[key] == shard for key, shard in half.items())

"""Energy meters (``MeterBank`` rows and their ``NodeMeter`` views) and
power integrators."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.energy.meter import MeterBank, PowerIntegrator
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=1)


def node_meter():
    return MeterBank(1).meter(0)


class TestEnergyMeter:
    """One node's meter: the ``NodeMeter`` view of a bank row."""

    def test_starts_empty(self):
        meter = node_meter()
        assert meter.total() == 0.0
        assert meter.breakdown() == {}
        assert meter.by_category() == {}

    def test_charge_accumulates(self):
        meter = node_meter()
        meter.charge(1.0, "radio", "tx")
        meter.charge(2.0, "radio", "tx")
        assert meter.total() == 3.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            node_meter().charge(-0.1, "radio", "tx")

    def test_filter_by_component(self):
        meter = node_meter()
        meter.charge(1.0, "radio.low", "tx")
        meter.charge(2.0, "radio.high", "tx")
        assert meter.total(component="radio.low") == 1.0

    def test_filter_by_categories(self):
        meter = node_meter()
        meter.charge(1.0, "r", "tx")
        meter.charge(2.0, "r", "rx")
        meter.charge(4.0, "r", "idle")
        assert meter.total(categories=("tx", "rx")) == 3.0

    def test_by_category(self):
        meter = node_meter()
        meter.charge(1.0, "a", "tx")
        meter.charge(2.0, "b", "tx")
        meter.charge(3.0, "a", "rx")
        assert meter.by_category() == {"tx": 3.0, "rx": 3.0}
        assert meter.by_category(component="a") == {"tx": 1.0, "rx": 3.0}

    def test_breakdown_is_copy(self):
        meter = node_meter()
        meter.charge(1.0, "a", "tx")
        breakdown = meter.breakdown()
        breakdown[("a", "tx")] = 99.0
        assert meter.total() == 1.0


class TestPowerIntegrator:
    def test_integrates_constant_power(self, sim):
        meter = node_meter()
        integrator = PowerIntegrator(sim, meter, "radio")
        integrator.set_power(2.0, "idle")
        sim.call_later(5.0, lambda: None)
        sim.run()
        integrator.flush()
        assert meter.total() == pytest.approx(10.0)

    def test_segments_by_category(self, sim):
        meter = node_meter()
        integrator = PowerIntegrator(sim, meter, "radio")
        integrator.set_power(1.0, "idle")
        sim.call_later(2.0, lambda: integrator.set_power(3.0, "tx"))
        sim.call_later(5.0, lambda: None)
        sim.run()
        integrator.flush()
        categories = meter.by_category()
        assert categories["idle"] == pytest.approx(2.0)
        assert categories["tx"] == pytest.approx(9.0)

    def test_zero_power_charges_nothing(self, sim):
        meter = node_meter()
        integrator = PowerIntegrator(sim, meter, "radio")
        sim.call_later(10.0, lambda: None)
        sim.run()
        integrator.flush()
        assert meter.total() == 0.0

    def test_negative_power_rejected(self, sim):
        integrator = PowerIntegrator(sim, node_meter(), "radio")
        with pytest.raises(ValueError):
            integrator.set_power(-1.0, "idle")

    def test_double_flush_no_double_charge(self, sim):
        meter = node_meter()
        integrator = PowerIntegrator(sim, meter, "radio")
        integrator.set_power(1.0, "idle")
        sim.call_later(4.0, lambda: None)
        sim.run()
        integrator.flush()
        integrator.flush()
        assert meter.total() == pytest.approx(4.0)


# -- summation order: bank reads equal plain per-node dicts, bit for bit ----

COMPONENTS = ("radio.low", "radio.high")
CATEGORIES = ("tx", "rx", "idle", "overhear")
JOULES = st.floats(
    min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def charge_ops(draw):
    """Interleaved single charges and batched fanouts over a small fleet.

    A fanout op carries one frame's charge tuples (say, the overhear and
    the addressed plan) and ``(node, tuple choice)`` targets."""
    n = draw(st.integers(min_value=1, max_value=4))
    node = st.integers(min_value=0, max_value=n - 1)
    charges = st.lists(
        st.tuples(JOULES, st.sampled_from(CATEGORIES)), min_size=1, max_size=3
    )
    single = st.tuples(
        st.just("charge"), node, JOULES, st.sampled_from(COMPONENTS),
        st.sampled_from(CATEGORIES),
    )
    fanout = st.tuples(
        st.just("fanout"),
        st.sampled_from(COMPONENTS),
        st.lists(charges, min_size=2, max_size=2),
        st.lists(st.tuples(node, st.integers(0, 1)), max_size=5),
    )
    return n, draw(st.lists(st.one_of(single, fanout), max_size=30))


def dict_reads(charges, component=None):
    """``total``/``by_category`` of a plain dict fed charges in order."""
    total = 0.0
    by_category = {}
    for (comp, category), joules in charges.items():
        if component is None or comp == component:
            total += joules
            by_category[category] = by_category.get(category, 0.0) + joules
    return total, by_category


class TestBankMatchesPlainDicts:
    @settings(max_examples=60, deadline=None)
    @given(case=charge_ops())
    def test_reads_equal_charge_order_reference(self, case):
        n, ops = case
        bank = MeterBank(n)
        reference = [{} for _ in range(n)]

        def accumulate(index, joules, component, category):
            key = (component, category)
            reference[index][key] = reference[index].get(key, 0.0) + joules

        for op in ops:
            if op[0] == "charge":
                _, index, joules, component, category = op
                bank.meter(index).charge(joules, component, category)
                accumulate(index, joules, component, category)
                continue
            _, component, frame_charges, targets = op
            plans = [
                bank.fanout_plan(component, charges) for charges in frame_charges
            ]
            bank.apply_fanout([(index, plans[i]) for index, i in targets])
            for index, i in targets:
                for joules, category in frame_charges[i]:
                    accumulate(index, joules, component, category)

        for index, expected in enumerate(reference):
            meter = bank.meter(index)
            # list(...) compares key order as well as values.
            assert list(meter.breakdown().items()) == list(expected.items())
            for component in (None, *COMPONENTS):
                total, by_category = dict_reads(expected, component)
                assert meter.total(component=component) == total
                assert list(meter.by_category(component).items()) == list(
                    by_category.items()
                )

    def test_fanout_plan_rejects_negative_charges(self):
        with pytest.raises(ValueError, match="negative"):
            MeterBank(1).fanout_plan("radio", ((1.0, "rx"), (-0.5, "rx")))


# -- the integrator's cached-column fast path -------------------------------


class ChargeThroughMeter:
    """The integrator as it was before its fast path: every segment closes
    through ``NodeMeter.charge``."""

    def __init__(self, sim, meter, component):
        self.sim = sim
        self.meter = meter
        self.component = component
        self._since = sim.now
        self._power_w = 0.0
        self._category = "idle"

    def set_power(self, watts, category):
        if watts < 0:
            raise ValueError(f"negative power {watts!r}")
        self.flush()
        self._power_w = watts
        self._category = category

    def flush(self):
        elapsed = self.sim.now - self._since
        if elapsed > 0 and self._power_w > 0:
            self.meter.charge(
                self._power_w * elapsed, self.component, self._category
            )
        self._since = self.sim.now


WATTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def integrator_ops(draw):
    """Clock advances interleaved with ``set_power``/``flush`` on one of
    two nodes' integrators, and direct charges that share the
    integrator's component (so another path may stamp a key first)."""
    node = st.integers(min_value=0, max_value=1)
    advance = st.tuples(
        st.just("advance"),
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        ),
    )
    set_power = st.tuples(
        st.just("set_power"), node, WATTS, st.sampled_from(CATEGORIES)
    )
    flush = st.tuples(st.just("flush"), node)
    direct = st.tuples(
        st.just("charge"), node, JOULES, st.sampled_from(("tx", "wakeup"))
    )
    return draw(
        st.lists(st.one_of(advance, set_power, flush, direct), max_size=40)
    )


class TestIntegratorFastPath:
    @settings(max_examples=80, deadline=None)
    @given(ops=integrator_ops())
    # Node 1 charges idle first, so node 0's first idle charge finds the
    # column already cached and must still stamp its own first-charge seq.
    @example(
        ops=[
            ("set_power", 0, 1.0, "idle"),
            ("set_power", 1, 2.0, "idle"),
            ("advance", 1.0),
            ("flush", 1),
            ("flush", 0),
            ("charge", 0, 0.5, "tx"),
        ]
    )
    def test_bank_equals_charge_through_meter(self, ops):
        sims = [Simulator(seed=1), Simulator(seed=1)]
        banks = [MeterBank(2), MeterBank(2)]
        integrators = [
            [
                kind(sim, bank.meter(i), "radio.high")
                for i in range(2)
            ]
            for kind, sim, bank in zip(
                (PowerIntegrator, ChargeThroughMeter), sims, banks
            )
        ]
        for op in ops:
            for sim, bank, nodes in zip(sims, banks, integrators):
                if op[0] == "advance":
                    sim.run(sim.now + op[1])
                elif op[0] == "set_power":
                    nodes[op[1]].set_power(op[2], op[3])
                elif op[0] == "flush":
                    nodes[op[1]].flush()
                else:
                    bank.meter(op[1]).charge(op[2], "radio.high", op[3])
        for sim, nodes in zip(sims, integrators):
            for integrator in nodes:
                integrator.flush()
        fast, reference = banks
        for index in range(2):
            # Same keys in the same first-charge order, and the same bits.
            assert [
                (key, joules.hex()) for key, joules in fast.node_items(index)
            ] == [
                (key, joules.hex())
                for key, joules in reference.node_items(index)
            ]

    def test_negative_power_rejected_after_fast_path(self, sim):
        meter = node_meter()
        integrator = PowerIntegrator(sim, meter, "radio")
        integrator.set_power(1.0, "idle")
        sim.call_later(1.0, lambda: integrator.set_power(2.0, "idle"))
        sim.call_later(2.0, lambda: integrator.set_power(1.0, "tx"))
        sim.run()
        with pytest.raises(ValueError, match="negative"):
            integrator.set_power(-0.5, "idle")
        # The refused call left the open segment alone.
        assert integrator.power_w == 1.0
        assert meter.breakdown() == {("radio", "idle"): 3.0}

"""Radio ports: the per-node attachment points to a shared medium.

Two concrete radios mirror the paper's platform:

* :class:`LowPowerRadio` — the sensor radio (Mica/Mica2/Micaz class).  It is
  always on.  Following Section 2.1, its idle/power-management draw is a
  *base cost* excluded from the accounting; it charges event-based energy:
  full transmit and receive power for the frames it sends/receives, and
  split header/body overhearing charges so the evaluation can reproduce both
  the "Sensor-ideal" and "Sensor-header" baselines.

* :class:`HighPowerRadio` — the IEEE 802.11 radio.  It is off by default and
  *fully* charged when awake: a wake-up energy lump, integrated idle power
  for every awake second, transmit power while sending, and incremental
  receive power (``Prx − Pidle``) for frames it hears, whether addressed to
  it or not.

The energy-model asymmetry is deliberate and mirrors the paper's Section 4:
"the sensor model is shown in the best possible light, while the dual-radio
model pays for the cost of the IEEE 802.11 radios fully."

Ports on one medium need not share a :class:`~repro.energy.radio_specs.RadioSpec`:
heterogeneous deployments (scenario ``high_radios`` assignments) register
radios of different models — and therefore ranges and meter components —
side by side.  The medium builds its neighbor index once, at its first
use (first frame, neighbor query or fault op), reading each port's
``range_m`` then; a port constructed on a medium already in use raises
:class:`ValueError`.  Port registration order also fixes the order of the
medium's neighbor tuples, so construction loops should register nodes in
a deterministic order (the scenario builder uses ascending node id).
"""

from __future__ import annotations

import typing

from repro.energy.meter import (
    CATEGORY_IDLE,
    CATEGORY_RX,
    CATEGORY_TX,
    CATEGORY_WAKEUP,
    NodeMeter,
    PowerIntegrator,
)
from repro.energy.radio_specs import RadioSpec
from repro.mac.frames import Frame
from repro.radio.states import RadioState
from repro.sim.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.channel.medium import Medium, Transmission
    from repro.sim.simulator import Simulator

#: Category for the header portion of overheard frames (charged by the
#: paper's "Sensor-header" baseline).
CATEGORY_OVERHEAR_HEADER = "overhear_header"

#: Category for the rest of an overheard frame (charged only by fully
#: truthful accountings).
CATEGORY_OVERHEAR_BODY = "overhear_body"


class RadioPort:
    """Base class wiring a radio to a medium, a meter and a MAC.

    Parameters
    ----------
    sim / node_id / spec / medium / meter:
        Kernel, owning node, energy characteristics, channel, accounting.
    component:
        Meter component label; defaults to ``"radio.<spec name>"``.
    """

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        spec: RadioSpec,
        medium: "Medium",
        meter: NodeMeter,
        component: str | None = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.spec = spec
        self.medium = medium
        self.meter = meter
        self.component = component or f"radio.{spec.name}"
        if spec.tx_power_levels:
            # Instance attribute only for ports that opted into a discrete
            # power ladder; the common case stays on the class-level None
            # and its transmit path is unchanged.
            self._tx_levels = spec.tx_power_levels
        #: Extra fixed on-air time per frame (e.g. the 802.11b PLCP
        #: preamble); MAC presets may set this.
        self.preamble_s = 0.0
        #: When set, decodable frames addressed to other nodes are also
        #: handed to :meth:`deliver_overheard` (used by BCP's shortcut
        #: learning, which listens for its own packets being forwarded).
        self.promiscuous = False
        self._receiver: typing.Callable[[Frame], None] | None = None
        self._overhear_handler: typing.Callable[[Frame], None] | None = None
        self._transmitting = False
        self.frames_tx = 0
        self.frames_rx = 0
        #: Registration-order position on the medium (assigned by
        #: :meth:`Medium.register`); indexes the medium's per-port arrays
        #: (busy refcounts, listening flags, meter rows).
        self._medium_rank = -1
        medium.register(self)

    # -- identity shortcuts used by the medium ---------------------------

    @property
    def range_m(self) -> float:
        """Nominal transmit range in meters."""
        return self.spec.range_m

    @property
    def rate_bps(self) -> float:
        """Bit rate used to compute frame airtime."""
        return self.spec.rate_bps

    @property
    def is_transmitting(self) -> bool:
        """Whether a transmission of ours is currently on the air."""
        return self._transmitting

    @property
    def is_listening(self) -> bool:
        """Whether the radio could currently decode an incoming frame."""
        raise NotImplementedError

    # -- MAC wiring -------------------------------------------------------

    def set_receiver(self, callback: typing.Callable[[Frame], None]) -> None:
        """Install the MAC's frame-delivery callback."""
        self._receiver = callback

    def set_overhear_handler(
        self, callback: typing.Callable[[Frame], None]
    ) -> None:
        """Install the promiscuous-mode callback and enable the mode.

        Handlers must not charge energy or draw randomness: the medium
        runs them after the frame's batched reception charges, in
        ascending rank order, so a side-effecting handler would see (and
        leave) accounting out of per-receiver order.  (BCP's shortcut
        learning, the one production handler, only mutates routing
        dictionaries.)
        """
        self._overhear_handler = callback
        self.promiscuous = True
        self.medium.note_promiscuous(self)

    def deliver(self, frame: Frame) -> None:
        """Called by the medium when a frame decodes successfully here."""
        self.frames_rx += 1
        if self._receiver is not None:
            self._receiver(frame)

    def deliver_overheard(self, frame: Frame) -> None:
        """Called by the medium for decodable frames addressed elsewhere."""
        if self._overhear_handler is not None:
            self._overhear_handler(frame)

    # -- transmission ------------------------------------------------------

    def airtime(self, frame: Frame) -> float:
        """On-air duration for ``frame`` including any preamble."""
        return self.preamble_s + (
            frame.payload_bits + frame.header_bits
        ) / self.spec.rate_bps

    def transmit(
        self, frame: Frame, on_end: typing.Callable[[], None] | None = None
    ) -> "Transmission":
        """Put ``frame`` on the air; ``on_end()`` runs at end-of-frame.

        The callback runs from the frame's end-of-frame agenda entry,
        after the medium has delivered the frame and this radio has left
        the transmitting state.  Returns the medium's in-flight record;
        clearing its ``on_end`` detaches the callback.

        Raises
        ------
        SimulationError
            If a transmission is already in progress (MACs serialize).
        """
        if self._transmitting:
            raise SimulationError(
                f"node {self.node_id} {self.component}: transmit while busy"
            )
        if self._checks_tx_state:
            self._check_can_transmit()
        self._transmitting = True
        self.frames_tx += 1
        duration = self.airtime(frame)
        if self._tx_levels is not None:
            self._tx_power_w = self._select_tx_power(frame)
        self._begin_tx_accounting(duration)
        self.medium.note_state(self)
        return self.medium.transmit(self, frame, duration, on_end)

    def _end_transmit(self, duration: float) -> None:
        """End of our frame (called by the medium's record)."""
        self._transmitting = False
        self._end_tx_accounting(duration)
        self.medium.note_state(self)

    # -- discrete transmit-power selection ---------------------------------

    #: Class attributes: ports without a power ladder (every Table 1 spec)
    #: pay neither a per-instance slot nor a per-frame selection.
    _tx_levels: tuple | None = None
    _tx_power_w = 0.0

    def _select_tx_power(self, frame: Frame) -> float:
        """Cheapest ladder level whose reach covers the next hop.

        A destination outside the layout transmits at full nominal
        power.  Power selection is an *accounting* refinement: the medium's neighbor
        index reads the nominal ``range_m``, so audibility — who hears,
        collides with, or overhears the frame — is unchanged; only the
        transmit-side energy bill shrinks for short hops.
        """
        dst = frame.dst
        layout = self.medium.layout
        if dst not in layout:
            return self.spec.p_tx_w
        return self.spec.tx_power_for_range(
            layout.distance(self.node_id, dst)
        )

    # -- fault injection ---------------------------------------------------

    #: Class attribute: the overwhelmingly common never-faulted port pays
    #: no per-instance slot for it.
    _powered_down = False

    def power_down(self) -> None:
        """Kill the radio (fault injection): deaf and mute until
        :meth:`power_up`.

        Idempotent.  The medium separately aborts any in-flight frame of
        ours via :meth:`Medium.retire_node`; its end-of-frame entry still
        pops and :meth:`_end_transmit` then runs against the cleared state, which
        subclass accounting hooks must tolerate.
        """
        if self._powered_down:
            return
        self._powered_down = True
        self._transmitting = False
        self.medium.note_state(self)

    def power_up(self) -> None:
        """Undo :meth:`power_down` (a recovering node rejoins deaf-idle;
        the high-power radio additionally needs a fresh :meth:`wake`)."""
        if not self._powered_down:
            return
        self._powered_down = False
        self.medium.note_state(self)

    # -- hooks for subclasses ----------------------------------------------

    #: Whether ``transmit`` consults :meth:`_check_can_transmit`; radio
    #: classes that override the hook must set this True.  Gating on a
    #: class attribute spares the always-on radio a no-op method call on
    #: every frame.
    _checks_tx_state = False

    def _check_can_transmit(self) -> None:
        """Raise if the radio is in a state that cannot transmit."""

    def _begin_tx_accounting(self, duration: float) -> None:
        raise NotImplementedError

    def _end_tx_accounting(self, duration: float) -> None:
        raise NotImplementedError

    def reception_charges(
        self, frame: Frame, duration: float, addressed: bool
    ) -> tuple[tuple[float, str], ...]:
        """The ``(joules, category)`` charges for hearing ``frame``.

        The radio's only receive-side accounting hook: the medium charges
        every listener through it, under the port's ``component``.  Must
        be a pure function of the radio's class, spec and the frame's
        shape (header bits and airtime) — the medium calls it once per
        charge class (ports sharing ``(type, spec, component)``) and frame
        shape, and replays the resulting plan for every such listener
        through :meth:`MeterBank.apply_fanout`.
        """
        raise NotImplementedError


class LowPowerRadio(RadioPort):
    """The always-on sensor radio (event-based energy accounting)."""

    #: Cached ``(row, column)`` into the meter bank's TX column, filled
    #: after the first charge (see ``_begin_tx_accounting``).
    _tx_fast: tuple[int, list[float]] | None = None

    @property
    def is_listening(self) -> bool:
        return not self._transmitting and not self._powered_down

    def _begin_tx_accounting(self, duration: float) -> None:
        # Charged up front; the amount is fixed once the frame is committed.
        # A laddered port transmits at the power ``transmit`` just selected.
        power = (
            self.spec.p_tx_w if self._tx_levels is None else self._tx_power_w
        )
        fast = self._tx_fast
        if fast is not None:
            # The first charge below stamped this node's first-seq for the
            # TX column and fixed the column's identity, so every later
            # charge is a single in-place add.  The charge is power * dt
            # with both factors non-negative (specs reject negative
            # powers), so the bank's sign check is vacuous here.
            row, column = fast
            column[row] += power * duration
            return
        meter = self.meter
        meter.charge(power * duration, self.component, CATEGORY_TX)
        self._tx_fast = (
            meter.index,
            meter.bank._energy[(self.component, CATEGORY_TX)],
        )

    def _end_tx_accounting(self, duration: float) -> None:
        return None

    def reception_charges(
        self, frame: Frame, duration: float, addressed: bool
    ) -> tuple[tuple[float, str], ...]:
        if addressed:
            return ((self.spec.p_rx_w * duration, CATEGORY_RX),)
        header_s = min(duration, frame.header_bits / self.rate_bps)
        return (
            (self.spec.p_rx_w * header_s, CATEGORY_OVERHEAR_HEADER),
            (
                self.spec.p_rx_w * (duration - header_s),
                CATEGORY_OVERHEAR_BODY,
            ),
        )


class HighPowerRadio(RadioPort):
    """The off-by-default IEEE 802.11 radio (full state accounting)."""

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        spec: RadioSpec,
        medium: "Medium",
        meter: NodeMeter,
        component: str | None = None,
    ):
        super().__init__(sim, node_id, spec, medium, meter, component)
        self.state = RadioState.OFF
        self._integrator = PowerIntegrator(sim, meter, self.component)
        self._wake_waiters: list[typing.Callable[[], None]] = []
        self.wakeup_count = 0

    # -- state -------------------------------------------------------------

    @property
    def is_on(self) -> bool:
        """Whether the radio is awake (idle or transmitting)."""
        return self.state in (RadioState.IDLE, RadioState.TX)

    @property
    def is_listening(self) -> bool:
        return self.state == RadioState.IDLE

    def wake(self, on_ready: typing.Callable[[], None] | None = None) -> None:
        """Turn the radio on; ``on_ready()`` runs once it reaches IDLE.

        Waking costs ``e_wakeup_j`` and takes ``t_wakeup_s`` (Table 1 /
        derived).  Concurrent wake requests share one transition.  The
        callback runs from its own agenda entry, at once if the radio is
        already on; a dead radio never reaches IDLE, so it never runs.
        """
        if self._powered_down:
            return
        sim = self.sim
        if self.is_on:
            if on_ready is not None:
                sim.call_at(sim.now, on_ready)
            return
        if on_ready is not None:
            self._wake_waiters.append(on_ready)
        if self.state == RadioState.WAKING:
            return
        self.state = RadioState.WAKING
        self.wakeup_count += 1
        self.meter.charge(self.spec.e_wakeup_j, self.component, CATEGORY_WAKEUP)
        sim.call_later(self.spec.t_wakeup_s, self._finish_wake)

    def _finish_wake(self) -> None:
        if self.state != RadioState.WAKING:
            return  # sleep() raced the wake; waiters were already dropped
        self.state = RadioState.IDLE
        self._integrator.set_power(self.spec.p_idle_w, CATEGORY_IDLE)
        self.medium.note_state(self)
        waiters, self._wake_waiters = self._wake_waiters, []
        sim = self.sim
        for waiter in waiters:
            sim.call_at(sim.now, waiter)

    def sleep(self) -> None:
        """Turn the radio off immediately (switch-off cost is negligible).

        A sleep mid-wake drops the wake's waiters, as :meth:`power_down`
        does: their callbacks never run.  BCP never sleeps a waking radio.

        Raises
        ------
        SimulationError
            If called mid-transmission; callers must wait for frame end.
        """
        if self._transmitting:
            raise SimulationError(
                f"node {self.node_id}: cannot sleep while transmitting"
            )
        if self.state == RadioState.OFF:
            return
        self._wake_waiters = []
        self.state = RadioState.OFF
        self._integrator.set_power(0.0, CATEGORY_IDLE)
        self.medium.note_state(self)

    def power_down(self) -> None:
        """Fault-injection death: OFF, zero draw, wake waiters dropped.

        The dropped waiters belong to the dying node's own BCP (its
        session continuation hangs on its local radio's wake).  They
        never run, which is exactly what "dead" means; the agent drops
        the stranded session when the node revives
        (:meth:`repro.core.bcp.BcpAgent.revive`).
        """
        if self._powered_down:
            return
        self._wake_waiters = []
        self.state = RadioState.OFF
        self._integrator.set_power(0.0, CATEGORY_IDLE)
        super().power_down()

    def flush_accounting(self) -> None:
        """Close the open integration segment (call at end of run)."""
        self._integrator.flush()

    # -- energy hooks --------------------------------------------------------

    _checks_tx_state = True

    def _check_can_transmit(self) -> None:
        if not self.is_on:
            raise SimulationError(
                f"node {self.node_id}: high-power radio is {self.state}, "
                "cannot transmit"
            )

    def _begin_tx_accounting(self, duration: float) -> None:
        self.state = RadioState.TX
        power = (
            self.spec.p_tx_w
            if self._tx_levels is None
            else self._tx_power_w
        )
        self._integrator.set_power(power, CATEGORY_TX)

    def _end_tx_accounting(self, duration: float) -> None:
        if self._powered_down:
            # The aborted frame's end entry popped after a mid-frame
            # death; the radio must stay OFF at zero draw.
            return
        # sleep() is forbidden mid-transmission, so we are still awake here.
        self.state = RadioState.IDLE
        self._integrator.set_power(self.spec.p_idle_w, CATEGORY_IDLE)

    def reception_charges(
        self, frame: Frame, duration: float, addressed: bool
    ) -> tuple[tuple[float, str], ...]:
        # The idle baseline is already integrated; receptions cost the
        # increment above idle.
        increment = max(0.0, self.spec.p_rx_w - self.spec.p_idle_w) * duration
        return ((increment, CATEGORY_RX if addressed else "overhear"),)

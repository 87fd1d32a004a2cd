"""Stable content hashes for experiment configurations.

A cache key must identify the *fully resolved* configuration: two configs
that differ in any field — including nested :class:`~repro.energy.radio_specs.RadioSpec`
values — must hash differently, and the same config must hash identically
across processes, platforms and Python versions.  ``hash()`` is salted and
``pickle`` is version-sensitive, so we canonicalize to JSON instead:
dataclass → nested plain dict (sorted keys) → compact JSON → sha256.

The key also covers the config's class (module-qualified name), the cache
schema version, and the package version, so configs of different types can
never collide and both format changes and simulator releases invalidate
stale entries wholesale.  The package version cannot see uncommitted
simulator edits, though — when iterating on simulator code itself, run
with ``--no-cache`` (or bump :data:`CACHE_SCHEMA_VERSION`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing

#: Bump to invalidate every existing cache entry (result format changes,
#: semantic changes to the simulator that keep configs identical, ...).
#: v2: entries carry a ``result_type`` tag (the cache now stores
#: prototype measurements alongside simulation results).
#: v3: ScenarioConfig grew the scenario-composition axes (topology /
#: propagation / high_radios / traffic_mix specs); every pre-axis key is
#: retired wholesale rather than left as unreachable dead weight.
#: v4: ScenarioConfig grew the ``routing`` engine selector (auto / eager
#: / lazy); pre-selector keys are retired wholesale.
#: v5: ScenarioConfig grew the ``scheduler`` agenda selector (heap /
#: calendar).  Results are byte-identical across backends, but the field
#: is part of the canonicalized config, so pre-field keys are retired.
#: v6: ScenarioConfig grew the ``mac_engine`` selector (flat /
#: generator), and MAC runs now report a ``mac.acks_dropped`` counter —
#: the counters dict is part of the digested result, so paper-scenario
#: golden digests were consciously re-pinned in the same change (both
#: engines × both schedulers reproduce the new digests byte-identically).
#: v7: ScenarioConfig grew the ``faults`` schedule
#: (:class:`~repro.faults.plan.FaultPlan`).  The no-fault path is
#: byte-identical (golden digests unchanged), but the field widens every
#: config key, so pre-fault keys are retired wholesale.
#: v8: ScenarioConfig grew the ``routing_policy`` axis (hops / tx-energy
#: / residual-energy) and RadioSpec the ``tx_power_levels`` ladder.  The
#: ``"hops"`` default with an empty ladder is byte-identical (golden
#: digests unchanged), but both fields widen every config key, so
#: pre-policy keys are retired wholesale.
#: v9: ScenarioConfig lost the ``scheduler`` and ``mac_engine`` selectors
#: (the calendar agenda and the generator MAC engine were deleted; the
#: heap agenda and the flat MAC were the defaults every golden digest
#: was pinned on, so results are unchanged).  Keys that canonicalized
#: the removed fields are retired wholesale.
#: v10: an eager (threaded) routing table keeps its routes across a fault
#: epoch that only flips links; it used to rebuild them with fresh tie
#: draws.  Cached eager cells with link events change, so every entry is
#: retired (no paper scenario or pinned digest has link events).
CACHE_SCHEMA_VERSION = 10


def _canonicalize(value: typing.Any) -> typing.Any:
    """Reduce ``value`` to JSON-encodable plain data, deterministically."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _canonicalize(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _canonicalize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonicalize(item) for item in value]
    if isinstance(value, float):
        # json.dumps renders finite doubles via repr(), which round-trips
        # exactly.  Non-finite values would emit `Infinity`/`NaN` (not
        # standard JSON), so encode them as a tagged object — a bare repr
        # string would collide with a literal string field of "inf".
        if value != value or value in (float("inf"), float("-inf")):
            return {"__float__": repr(value)}
        return value
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for hashing: {value!r}"
    )


def _package_version() -> str:
    # Imported lazily: ``repro`` pulls in the model layer, which (via the
    # sweep modules) imports this package.
    import repro

    return repro.__version__


def canonical_json(config: typing.Any) -> str:
    """The canonical JSON form of a (possibly nested) dataclass config."""
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "version": _package_version(),
        "type": f"{type(config).__module__}.{type(config).__qualname__}",
        "config": _canonicalize(config),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_key(config: typing.Any) -> str:
    """A stable sha256 hex key identifying ``config``."""
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def stored_config_key(stored: typing.Any) -> str:
    """The key of a cache entry's stored ``config`` (the parsed
    :func:`canonical_json`): equal to :func:`config_key` of the config
    that produced the entry."""
    blob = json.dumps(stored, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()

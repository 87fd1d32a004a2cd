"""Per-layer attribution of a cProfile run.

The layers are the packages under ``repro/`` (``sim``, ``channel``,
``mac``, ...).  A function's layer is the package its source file lives
in.  Time spent in functions outside ``repro`` — the standard library
(``random.shuffle``), builtins (``list.sort``), the harness — is charged
to the ``repro`` layer that called it, walking up the caller edges the
profiler records and splitting by the time each edge carried.  Time
with no ``repro`` caller at all lands in ``other``.

Call counts are keyed by ``(layer, function name)``, never by file and
line, so moving a method between classes or modules of one package
keeps its metric.
"""

from __future__ import annotations

import collections
import os
import pstats
import typing

#: Layers reported on their own; every other ``repro`` package and all
#: unattributable time is summed into ``other``.
LAYERS = (
    "sim",
    "channel",
    "mac",
    "radio",
    "energy",
    "core",
    "net",
    "faults",
    "traffic",
    "stats",
    "topology",
    "models",
)
OTHER = "other"

_FuncKey = typing.Tuple[str, int, str]


def layer_of(filename: str, repro_root: str) -> str | None:
    """The layer of ``filename``: its ``repro`` package, or None outside."""
    path = os.path.normpath(filename)
    if not path.startswith(repro_root + os.sep):
        return None
    parts = path[len(repro_root) + 1 :].split(os.sep)
    package = parts[0] if len(parts) > 1 else OTHER
    return package if package in LAYERS else OTHER


class LayerSplit:
    """Self time and call counts of one profile, grouped by layer."""

    def __init__(self, stats: pstats.Stats, repro_root: str):
        self._raw: dict[_FuncKey, tuple] = stats.stats  # type: ignore[attr-defined]
        root = os.path.normpath(repro_root)
        self._layer = {key: layer_of(key[0], root) for key in self._raw}
        self._memo: dict[_FuncKey, dict[str, float]] = {}
        self.self_s = self._attribute()

    def _shares_of(self, key: _FuncKey) -> dict[str, float]:
        """How time charged to ``key`` splits across layers.

        A ``repro`` function is its own layer.  Any other function passes
        the charge up to its callers, each caller edge weighted by the
        cumulative time it carried; a recursion cycle among non-``repro``
        frames, or a frame with no caller, resolves to ``other``.
        """
        layer = self._layer.get(key)
        if layer is not None:
            return {layer: 1.0}
        if key in self._memo:
            return self._memo[key]
        self._memo[key] = {OTHER: 1.0}  # cycle guard
        callers = self._raw[key][4] if key in self._raw else {}
        shares: dict[str, float] = collections.defaultdict(float)
        total = sum(edge[3] for edge in callers.values())
        for caller, edge in callers.items():
            weight = edge[3] / total if total > 0 else 1.0 / len(callers)
            for target, share in self._shares_of(caller).items():
                shares[target] += weight * share
        result = dict(shares) if shares else {OTHER: 1.0}
        self._memo[key] = result
        return result

    def _attribute(self) -> dict[str, float]:
        out = dict.fromkeys((*LAYERS, OTHER), 0.0)
        for key, (_cc, _nc, tt, _ct, callers) in self._raw.items():
            layer = self._layer[key]
            if layer is not None:
                out[layer] += tt
                continue
            if not callers:
                out[OTHER] += tt
                continue
            # Split this function's self time by the self time each caller
            # edge carried, then resolve each caller to its layer.
            edge_tt = sum(edge[2] for edge in callers.values())
            for caller, edge in callers.items():
                part = tt * edge[2] / edge_tt if edge_tt > 0 else tt / len(callers)
                for target, share in self._shares_of(caller).items():
                    out[target] += part * share
        return out

    def calls(self, layer: str, *names: str) -> int:
        """Calls to functions named any of ``names`` defined in ``layer``."""
        wanted = set(names)
        return sum(
            self._raw[key][1]
            for key, key_layer in self._layer.items()
            if key_layer == layer and key[2] in wanted
        )

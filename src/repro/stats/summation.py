"""Left-to-right float summation, bit-identical on every CPython."""

from __future__ import annotations

import typing


def ltr_sum(values: typing.Iterable[float]) -> float:
    """``values`` added left to right, one rounding per term.

    Built-in :func:`sum` over floats did exactly this up to CPython 3.11;
    from 3.12 on it compensates the rounding error (Neumaier summation),
    so its last bits depend on the interpreter.  Every float total that a
    pinned digest or a rendered figure sees goes through here instead, so
    the goldens hold on every supported Python.
    """
    total = 0.0
    for value in values:
        total += value
    return total

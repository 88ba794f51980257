"""The benchmark's traced run rebinds package names; each must still exist.

``perfbench/tracer.py`` times a layer by replacing a module attribute
(``oracle.loss``, ``cli.solve_min_loss``, ...) with a wrapper. A rename
in the package would leave that layer untimed without any error, so this
checks the names, not the timings.
"""

from __future__ import annotations

from perfbench.tracer import bindings


def test_every_traced_binding_resolves():
    for module, attr, span, _ in bindings():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"

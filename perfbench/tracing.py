"""Per-layer spans recorded from the benchmark's side of the package boundary.

The pipeline reaches each layer through a module-global name:
``sweep_interaction_time`` calls ``run_protocol``, which calls
``evolve_atom_field_mixture``, ``pi_half_pulse`` and ``temperature_from_pe``;
``dynamics`` calls ``coherent_amplitudes``, ``propagate`` and
``partial_trace_field``; ``cli`` and ``validation`` call the same functions
through their own imports or module attributes. ``LayerTracer`` rebinds every
name in every loaded ``cavitytherm`` module that refers to a traced function
to a timing wrapper, and restores the originals on exit. It is used only in
the traced run.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# (layer name, module, attribute): the function object found there is traced
# under every name that refers to it.
LAYERS = (
    ("hilbert.coherent_amplitudes", "cavitytherm.hilbert", "coherent_amplitudes"),
    ("hilbert.partial_trace_field", "cavitytherm.hilbert", "partial_trace_field"),
    ("dynamics.propagate", "cavitytherm.dynamics", "propagate"),
    ("dynamics.coherence_from_propagator", "cavitytherm.dynamics", "coherence_from_propagator"),
    ("dynamics.evolve_atom_field_mixture", "cavitytherm.dynamics", "evolve_atom_field_mixture"),
    ("protocol.run_protocol", "cavitytherm.protocol", "run_protocol"),
    ("protocol.pi_half_pulse", "cavitytherm.protocol", "pi_half_pulse"),
    ("protocol.sweep_interaction_time", "cavitytherm.protocol", "sweep_interaction_time"),
    ("analytic.temperature_from_pe", "cavitytherm.analytic", "temperature_from_pe"),
)


@dataclass
class LayerStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class LayerTracer:
    """Install with ``with tracer:``; totals accumulate across installs.

    ``sampler`` is the running ``SpeedSampler``; its handler time is taken out
    of every span. ``protocol_amplitudes`` counts the amplitudes handed to
    ``propagate`` while a ``run_protocol`` call is open.
    """

    def __init__(self, sampler) -> None:
        self.sampler = sampler
        self.stats = {name: LayerStats() for name, _, _ in LAYERS}
        self.protocol_amplitudes = 0
        self._stack: list[list[float]] = []
        self._open_protocol = 0
        self._rebound: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        is_protocol = name == "protocol.run_protocol"
        is_propagate = name == "dynamics.propagate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_propagate and self._open_protocol:
                self.protocol_amplitudes += args[0].amplitudes.size
            if is_protocol:
                self._open_protocol += 1
            frame = [0.0]
            self._stack.append(frame)
            busy0 = self.sampler.busy
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0 - (self.sampler.busy - busy0)
                self._stack.pop()
                if is_protocol:
                    self._open_protocol -= 1
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed

        return wrapper

    def _sites(self) -> list[tuple[object, str, object, object]]:
        """Every (module, name, function, wrapper) binding of a traced function."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cavitytherm" or key.startswith("cavitytherm."))]
        sites = []
        for name, module_name, attr in LAYERS:
            fn = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, fn)
            for module in modules:
                sites.extend((module, key, fn, wrapper)
                             for key, value in vars(module).items() if value is fn)
        return sites

    def __enter__(self) -> "LayerTracer":
        if not self._rebound:
            self._rebound = self._sites()
        for module, key, _, wrapper in self._rebound:
            setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, key, fn, _ in self._rebound:
            setattr(module, key, fn)

"""The traced pass: harness-side spans and the cProfile -> layer fold.

Two views of one traced pass, both kept in memory until the run ends:

* :class:`Tracer` records a span (id, parent, name, layer, start, end)
  around every public call the harness makes, and grafts the
  ``PhaseProfiler`` spans a call reported under the span of that call.
* :func:`fold_profile` folds cProfile's per-function self times and call
  counts into the layer list below by source path.  Time in builtins and in
  the standard library (``heappop``, ``sorted``, ``dict.get``, ``pickle``)
  is charged to the layers that called it, split by cProfile's caller edges.

A layer is a module path under ``src/repro/``; ``third_party`` is networkx
(which OLSR and the topology generators lean on) and ``other`` is whatever
is left: the harness itself, ``repro.cli``, import machinery.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

LAYERS = (
    "sim.engine",
    "sim.eventq",
    "sim.timers",
    "sim.tracing",
    "net.link",
    "net.node",
    "net.dynamics",
    "routing.dv",
    "routing.bgp",
    "routing.spf",
    "routing.dual",
    "routing.aodv",
    "routing.dsr",
    "routing.olsr",
    "routing.common",
    "topology",
    "traffic",
    "metrics",
    "mobility",
    "validation",
    "obs",
    "experiments.scenario",
    "experiments.runner",
    "experiments.io",
    "experiments.report",
    "dist.partition",
    "dist.worker",
    "dist.proxy",
    "dist.runner",
    "dist.merge",
    "third_party",
    "other",
)

#: Files that do not get the layer their package defaults to.
_FILE_LAYER = {
    "sim/eventq.py": "sim.eventq",
    "sim/timers.py": "sim.timers",
    "sim/tracing.py": "sim.tracing",
    "net/node.py": "net.node",
    "net/packet.py": "net.node",
    "net/network.py": "net.node",
    "net/dynamics.py": "net.dynamics",
    "routing/dv_common.py": "routing.dv",
    "routing/rip.py": "routing.dv",
    "routing/dbf.py": "routing.dv",
    "routing/bgp.py": "routing.bgp",
    "routing/damping.py": "routing.bgp",
    "routing/spf.py": "routing.spf",
    "routing/dual.py": "routing.dual",
    "routing/aodv.py": "routing.aodv",
    "routing/dsr.py": "routing.dsr",
    "routing/olsr.py": "routing.olsr",
    "experiments/runner.py": "experiments.runner",
    "experiments/persistence.py": "experiments.io",
    "experiments/store.py": "experiments.io",
    "experiments/campaign.py": "experiments.report",
    "experiments/figures.py": "experiments.report",
    "experiments/plotting.py": "experiments.report",
    "experiments/report.py": "experiments.report",
    "experiments/validation.py": "experiments.report",
    "dist/partition.py": "dist.partition",
    "dist/worker.py": "dist.worker",
    "dist/proxy.py": "dist.proxy",
    "dist/merge.py": "dist.merge",
}

#: Where the rest of each package goes (link/queues/channels, rng/units,
#: base/messages/rib/static, scenario/churn/config/extensions, dist.runner).
_PACKAGE_LAYER = {
    "sim": "sim.engine",
    "net": "net.link",
    "routing": "routing.common",
    "topology": "topology",
    "traffic": "traffic",
    "metrics": "metrics",
    "mobility": "mobility",
    "validation": "validation",
    "obs": "obs",
    "experiments": "experiments.scenario",
    "dist": "dist.runner",
}

_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep
_NETWORKX_MARK = os.sep + "networkx" + os.sep
_HERE = os.path.dirname(os.path.abspath(__file__)) + os.sep


@functools.lru_cache(maxsize=None)
def layer_of(filename: str):
    """The layer that owns ``filename``, or ``None`` for builtins and stdlib."""
    at = filename.rfind(_REPRO_MARK)
    if at >= 0:
        relative = filename[at + len(_REPRO_MARK):].replace(os.sep, "/")
        if relative in _FILE_LAYER:
            return _FILE_LAYER[relative]
        return _PACKAGE_LAYER.get(relative.split("/", 1)[0], "other")
    if _NETWORKX_MARK in filename:
        return "third_party"
    if filename.startswith(_HERE):
        return "other"
    return None


def fold_profile(profile) -> dict[str, dict[str, float]]:
    """Per layer: ``self_s`` (own time plus the builtin/stdlib time it caused)
    and ``calls`` (exact calls of the layer's own functions)."""
    profile.create_stats()
    stats = profile.stats  # func -> (cc, nc, tt, ct, callers)
    owner = {func: layer_of(func[0]) for func in stats}
    unowned = [func for func, layer in owner.items() if layer is None]

    # split[f]: how an unowned function's self time divides over layers.  Each
    # round pushes ownership one call level further down from owned callers;
    # chains of unowned callers (json, dataclasses, pickle) are a few levels
    # deep, and what a cycle never resolves is left to "other" below.
    split: dict = {func: {} for func in unowned}
    for _ in range(16):
        for func in unowned:
            # Caller edges carry (cc, nc, tt, ct): weight by the callee time
            # spent under that caller, or by call count where it is too cheap
            # for the clock to resolve.
            weights = {
                caller: (edge[2] if edge[2] > 0 else edge[1] * 1e-9)
                for caller, edge in stats[func][4].items()
            }
            total = sum(weights.values())
            shares: dict[str, float] = {}
            for caller, weight in weights.items():
                layer = owner.get(caller)
                parts = {layer: 1.0} if layer is not None else split.get(caller, {})
                for name, part in parts.items():
                    shares[name] = shares.get(name, 0.0) + part * weight / total
            split[func] = shares

    folded = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_cc, ncalls, self_s, _ct, _callers) in stats.items():
        layer = owner[func]
        if layer is not None:
            folded[layer]["calls"] += ncalls
            folded[layer]["self_s"] += self_s
            continue
        shares = split[func]
        for name, part in shares.items():
            folded[name]["self_s"] += self_s * part
        folded["other"]["self_s"] += self_s * max(0.0, 1.0 - sum(shares.values()))
    return folded


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Time the enclosed block; yields the span record (``None`` if disabled)."""
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1]["id"] if self._stack else None
        record = self._add(name, layer, parent, time.perf_counter(), None)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _add(self, name: str, layer: str, parent, start: float, end) -> dict:
        record = {
            "id": len(self.spans) + 1,
            "parent": parent,
            "name": name,
            "layer": layer,
            "start": start,
            "end": end,
        }
        self.spans.append(record)
        return record

    def graft_phases(self, parent, root) -> None:
        """Hang a ``PhaseProfiler`` tree under ``parent``.

        Phase spans carry a duration but no start; a profiler's children run
        back to back, so they are laid end to end from the parent's start.
        """
        if parent is None:
            return
        cursor = parent["start"]
        for phase in root.children:
            record = self._add(
                phase.name, parent["layer"], parent["id"], cursor, cursor + phase.wall_s
            )
            self.graft_phases(record, phase)
            cursor = record["end"]

    def chrome_events(self) -> list[dict]:
        """Chrome trace ``X`` events; span and parent ids ride in ``args``."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        return [
            {
                "name": s["name"],
                "cat": s["layer"],
                "ph": "X",
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "span_id": s["id"],
                    "parent_id": s["parent"],
                    "layer": s["layer"],
                },
            }
            for s in self.spans
        ]

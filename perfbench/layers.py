"""Module -> layer map for ``src/repro`` and the cProfile layer split.

A layer is a named slice of the simulator.  Every ``.py`` file under
``src/repro`` maps to exactly one layer: a file rule wins over a package
rule, and a package rule covers the rest of its package.  A file that no
rule covers maps to ``None``; the benchmark's own test fails on it, so a new
module never falls silently into ``other``.

Time spent outside ``src/repro`` (C builtins, numpy, the standard library)
is charged to the layer of the ``src/repro`` frames that called it, split in
proportion to the time each caller spent in it.
"""

from __future__ import annotations

import pstats
from pathlib import PurePosixPath
from typing import Dict, Iterable, List, Optional, Tuple

#: Layers in report order.
LAYERS: Tuple[str, ...] = (
    "sim.engine", "psarch.worker", "psarch.job", "psarch.server",
    "core.sharding", "core.control", "elastic", "serving", "sim.model",
    "scenarios", "orchestrator", "obs", "other",
)

#: Single files, relative to ``src/repro``.
FILE_RULES: Dict[str, str] = {
    "sim/engine.py": "sim.engine",
    "psarch/worker.py": "psarch.worker",
    "psarch/server.py": "psarch.server",
    "core/sharding.py": "core.sharding",
    "core/shard.py": "core.sharding",
    "core/shuffler.py": "core.sharding",
    "__init__.py": "other",
    "__main__.py": "other",
}

#: Whole packages (first path component), for every file no file rule names.
PACKAGE_RULES: Dict[str, str] = {
    "sim": "sim.model",
    "psarch": "psarch.job",
    "core": "core.control",
    "elastic": "elastic",
    "serving": "serving",
    "scenarios": "scenarios",
    "orchestrator": "orchestrator",
    "obs": "obs",
    "allreduce": "other",
    "analysis": "other",
    "baselines": "other",
    "checkpoint": "other",
    "experiments": "other",
    "ml": "other",
    "perf": "other",
}

#: Phase metrics: cumulative time of public functions, as
#: ``name -> (file under src/repro, function name)``.
PHASES: Dict[str, Tuple[str, str]] = {
    "scenarios.build_s": ("scenarios/matrix.py", "build_scenario_job"),
    "psarch.run_s": ("psarch/job.py", "run"),
    "scenarios.fingerprint_s": ("scenarios/fingerprint.py", "fingerprint"),
}

#: Time in the result store, counted once at calls from outside its file.
STORE_FILE = "orchestrator/store.py"

#: Entry-point call counts: ``name -> (file under src/repro, function name)``.
#: cProfile counts every resumption of a generator as a call.
ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    "psarch.job.push_fanout.calls": ("psarch/job.py", "push_fanout"),
    "psarch.worker.run.resumes": ("psarch/worker.py", "run"),
    "core.sharding.next_range.calls": ("core/sharding.py", "next_range"),
    "psarch.server.submit.calls": ("psarch/server.py", "submit"),
}


def layer_of(relpath: str) -> Optional[str]:
    """The layer of a file given relative to ``src/repro``; ``None`` if unmapped."""
    if relpath in FILE_RULES:
        return FILE_RULES[relpath]
    parts = PurePosixPath(relpath).parts
    if len(parts) > 1:
        return PACKAGE_RULES.get(parts[0])
    return None


def repro_relpath(filename: str) -> Optional[str]:
    """``filename`` relative to the ``repro`` package, or ``None`` if outside it."""
    parts = PurePosixPath(filename.replace("\\", "/")).parts
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro" and index > 0 and parts[index - 1] == "src":
            return "/".join(parts[index + 1:])
    return None


def unmapped(relpaths: Iterable[str]) -> List[str]:
    """The files among ``relpaths`` that no rule maps to a layer."""
    return sorted(path for path in relpaths if layer_of(path) is None)


_Func = Tuple[str, int, str]


class LayerSplit:
    """Self time and call counts per layer, read from one cProfile run."""

    def __init__(self, stats: pstats.Stats) -> None:
        self._entries = stats.stats  # type: ignore[attr-defined]
        self._relpath: Dict[_Func, Optional[str]] = {
            func: repro_relpath(func[0]) for func in self._entries}
        self._dist_cache: Dict[_Func, Dict[str, float]] = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        for func, (_, nc, tt, _, callers) in self._entries.items():
            if func[2] == "<method 'disable' of '_lsprof.Profiler' objects>":
                continue
            relpath = self._relpath[func]
            if relpath is not None:
                layer = layer_of(relpath) or "other"
                self.self_s[layer] += tt
                self.calls[layer] += nc
                continue
            # Weighted by the self time this function spent under each caller.
            weights = {caller: edge[2] for caller, edge in callers.items()}
            for layer, share in self._mix(weights, {func}).items():
                self.self_s[layer] += tt * share

    def _mix(self, weights: Dict[_Func, float],
             visiting: set) -> Dict[str, float]:
        """Blend the layer distributions of callers by ``weights``."""
        if not weights:
            return {"other": 1.0}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {caller: 1.0 for caller in weights}
            total = float(len(weights))
        mixed: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, share in self._dist(caller, visiting).items():
                mixed[layer] = mixed.get(layer, 0.0) + share * weight / total
        return mixed

    def _dist(self, func: _Func, visiting: set) -> Dict[str, float]:
        """Which layers a frame's time belongs to: its own, or its callers'.

        A cycle of frames outside ``src/repro`` is cut and charged to
        ``other``.
        """
        relpath = self._relpath.get(func)
        if relpath is not None:
            return {layer_of(relpath) or "other": 1.0}
        if func in visiting or func not in self._entries:
            return {"other": 1.0}
        cached = self._dist_cache.get(func)
        if cached is None:
            # Weighted by the cumulative time spent under each caller.
            callers = self._entries[func][4]
            cached = self._mix({caller: edge[3] for caller, edge in callers.items()},
                               visiting | {func})
            self._dist_cache[func] = cached
        return cached

    def shares(self) -> Dict[str, float]:
        """Each layer's share of the profiled self time (sums to 1)."""
        total = sum(self.self_s.values())
        return {layer: (self.self_s[layer] / total if total > 0 else 0.0)
                for layer in LAYERS}

    def _matching(self, relpath: str, name: str):
        for func, entry in self._entries.items():
            if func[2] == name and self._relpath[func] == relpath:
                yield entry

    def cumulative_s(self, relpath: str, name: str) -> float:
        """Cumulative time of every function ``name`` defined in ``relpath``."""
        return sum(entry[3] for entry in self._matching(relpath, name))

    def call_count(self, relpath: str, name: str) -> int:
        """Calls (or generator resumptions) of functions ``name`` in ``relpath``."""
        return sum(entry[1] for entry in self._matching(relpath, name))

    def file_entry_s(self, relpath: str) -> float:
        """Cumulative time spent in ``relpath``, entered from any other file."""
        total = 0.0
        for func, entry in self._entries.items():
            if self._relpath[func] != relpath:
                continue
            for caller, edge in entry[4].items():
                if self._relpath.get(caller) != relpath:
                    total += edge[3]
        return total

    def metrics(self) -> Dict[str, float]:
        """Every per-layer, phase and entry-point metric of this profile."""
        out: Dict[str, float] = {}
        shares = self.shares()
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.share"] = shares[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        for name, (relpath, func) in PHASES.items():
            out[name] = self.cumulative_s(relpath, func)
        out["orchestrator.store_s"] = self.file_entry_s(STORE_FILE)
        for name, (relpath, func) in ENTRY_POINTS.items():
            out[name] = self.call_count(relpath, func)
        return out

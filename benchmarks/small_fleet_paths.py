"""Per-call cost of the small-fleet commit paths, two source trees in one process.

Registry scenarios run 3 parameter servers, where a vectorized push fan-out
has few servers to amortise its numpy calls over, and the serving tier
commits one request at a time through ``ParameterServer.submit``.  This
script times both paths inside real scenario runs:

* ``fanout`` — ``PSTrainingJob.push_fanout`` in ``dedicated-antdt-nd``
  (3 servers).
* ``submit`` — ``ParameterServer._commit_request``, the eager scalar commit
  behind ``submit``, in ``serving-steady-diurnal``.

Each tree's ``repro`` package is imported under its own module table, and
the rounds alternate which tree runs first, so host drift hits both sides
alike.  The timing wrapper costs the same on both sides.

Run from the repository root::

    python benchmarks/small_fleet_paths.py PARENT/src src --rounds 10
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Dict, List

PATHS = {
    "fanout": ("dedicated-antdt-nd", "repro.psarch.job", "PSTrainingJob", "push_fanout"),
    "submit": ("serving-steady-diurnal", "repro.psarch.server", "ParameterServer",
               "_commit_request"),
}


def _unload() -> Dict[str, object]:
    """Remove every ``repro`` module from the module table; return them."""
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name == "repro" or name.startswith("repro.")}


@contextmanager
def active(tree: Dict[str, object]):
    """Make ``tree`` the ``repro`` package (lazy imports land in it too)."""
    saved = _unload()
    sys.path.insert(0, tree["src"])
    sys.modules.update(tree["modules"])
    try:
        yield tree["modules"]
    finally:
        sys.path.remove(tree["src"])
        tree["modules"] = _unload()
        sys.modules.update(saved)


def load_tree(src: str) -> Dict[str, object]:
    """Import ``repro`` from ``src`` into a module table of its own."""
    tree = {"src": src, "modules": {}}
    with active(tree):
        for name in ("repro.scenarios", "repro.scenarios.registry",
                     "repro.psarch.job", "repro.psarch.server"):
            importlib.import_module(name)
    return tree


def time_path(modules: Dict[str, object], path: str) -> float:
    """Mean microseconds per call of ``path`` over one scenario run."""
    scenario, module, cls_name, method = PATHS[path]
    cls = getattr(modules[module], cls_name)
    original = getattr(cls, method)
    spent = [0.0, 0]
    clock = time.perf_counter

    def timed(*args, **kwargs):
        start = clock()
        result = original(*args, **kwargs)
        spent[0] += clock() - start
        spent[1] += 1
        return result

    setattr(cls, method, timed)
    try:
        spec = modules["repro.scenarios.registry"].get_scenario(scenario)
        job, _ = modules["repro.scenarios"].build_scenario_job(spec, coalesce=True)
        job.run()
    finally:
        setattr(cls, method, original)
    if not spent[1]:
        raise RuntimeError(f"{scenario} never called {cls_name}.{method}")
    return spent[0] / spent[1] * 1e6


def main(argv: List[str] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    trees = {"old": load_tree(args.old_src), "new": load_tree(args.new_src)}
    samples = {(side, path): [] for side in trees for path in PATHS}
    for round_index in range(args.rounds):
        order = ("old", "new") if round_index % 2 == 0 else ("new", "old")
        for path in PATHS:
            for side in order:
                with active(trees[side]) as modules:
                    samples[side, path].append(time_path(modules, path))
    for path in PATHS:
        old, new = samples["old", path], samples["new", path]
        wins = sum(n < o for o, n in zip(old, new))
        print(f"{path:7s} old {statistics.median(old):6.2f} us  "
              f"new {statistics.median(new):6.2f} us  "
              f"new faster in {wins}/{len(old)} rounds")


if __name__ == "__main__":
    main()

"""The benchmark's own checks: the layer map, the layer split, the metric list.

A new module under ``src/repro`` that no layer rule covers fails
``test_every_module_maps_to_a_layer``, so its time cannot fall silently into
``other``.
"""

import cProfile
import json
import pstats
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

from repro.scenarios import get_scenario  # noqa: E402
from repro.scenarios.matrix import build_scenario_job  # noqa: E402

SRC = ROOT / "src" / "repro"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTATIONS = json.loads((HERE / "expectations.json").read_text())


def _modules():
    return [path.relative_to(SRC).as_posix() for path in sorted(SRC.rglob("*.py"))]


def test_every_module_maps_to_a_layer():
    modules = _modules()
    assert modules
    assert layers.unmapped(modules) == []
    assert {layers.layer_of(path) for path in modules} == set(layers.LAYERS)


def test_layer_rules_name_real_files_and_layers():
    for path, layer in layers.FILE_RULES.items():
        assert (SRC / path).is_file(), f"stale file rule {path}"
        assert layer in layers.LAYERS
    for package, layer in layers.PACKAGE_RULES.items():
        assert (SRC / package / "__init__.py").is_file(), f"stale package rule {package}"
        assert layer in layers.LAYERS


def test_unmapped_module_is_reported():
    assert layers.unmapped(["newpkg/thing.py", "loose.py", "sim/engine.py"]) == [
        "loose.py", "newpkg/thing.py"]


def test_repro_relpath():
    assert layers.repro_relpath("/x/src/repro/sim/engine.py") == "sim/engine.py"
    assert layers.repro_relpath("/x/site-packages/numpy/core/numeric.py") is None
    assert layers.repro_relpath("~") is None


def test_split_of_a_profiled_run_sums_to_one():
    spec = get_scenario("nd-transient-mild")
    profiler = cProfile.Profile()
    profiler.enable()
    job, _ = build_scenario_job(spec)
    job.run()
    profiler.disable()
    split = layers.LayerSplit(pstats.Stats(profiler))
    shares = split.shares()
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    assert all(value >= 0.0 for value in split.self_s.values())
    assert shares["sim.engine"] > 0.0 and shares["psarch.worker"] > 0.0
    metrics = split.metrics()
    assert metrics["psarch.worker.run.resumes"] > 0
    assert metrics["core.sharding.next_range.calls"] > 0
    assert metrics["psarch.run_s"] > 0.0


def test_builtin_time_is_charged_to_the_calling_layer():
    profiler = cProfile.Profile()
    profiler.enable()
    sorted(range(200_000), key=lambda value: -value)
    profiler.disable()
    split = layers.LayerSplit(pstats.Stats(profiler))
    # Called from this test file, outside src/repro.
    assert split.self_s["other"] > 0.0
    assert sum(split.self_s.values()) == split.self_s["other"]


def test_benchmark_lists_every_metric_the_trace_prints():
    per_layer = {metric["name"] for metric in BENCHMARK["per_layer"]}
    expected = {f"{layer}.{kind}" for layer in layers.LAYERS
                for kind in ("self_s", "share", "calls")}
    expected |= set(layers.PHASES) | {"orchestrator.store_s"} | set(layers.ENTRY_POINTS)
    expected |= {name for name in workloads.COUNTERS
                 if name.split(".")[0] in ("engine", "serving", "control", "elastic")}
    expected |= {"engine.coalesce_ratio", "trace.overhead_x", "error_rate"}
    assert per_layer == expected


def test_expectations_cover_every_workload_and_per_layer_metric():
    names = {workload["name"] for workload in BENCHMARK["workloads"]}
    assert names == set(EXPECTATIONS["workloads"]) == set(workloads.WORKLOADS)
    for entry in EXPECTATIONS["workloads"].values():
        assert set(entry["loads"]).isdisjoint(entry["bypasses"])
        assert set(entry["loads"]) | set(entry["bypasses"]) <= set(layers.LAYERS)
    end_to_end = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    assert set(EXPECTATIONS["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for prediction in EXPECTATIONS["per_layer"].values():
        for move in prediction["moves"]:
            assert move["metric"] in end_to_end and move["workload"] in names
        assert set(prediction["no_change_on"]) <= names


def test_nearest_rank():
    values = [float(v) for v in range(1, 37)]
    assert workloads.nearest_rank(values, 0.5) == 18.0
    # p70 of 36 samples leaves exactly ten beyond it.
    assert workloads.nearest_rank(values, 0.7) == 26.0
    assert workloads.nearest_rank([3.0], 0.7) == 3.0

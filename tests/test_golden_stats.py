"""Golden-stats snapshot regression suite.

Every workload in :data:`GOLDEN_WORKLOADS` is simulated on the
baseline machine and on the optimized machine, and a few kernels
also in the optimizer's sensitivity-study modes (:data:`GOLDEN_MODES`:
Figure 9's feedback-only mode, Figure 10's depth-1 chaining); each
run's full :meth:`PipelineStats.to_json` is compared against a
committed snapshot under ``tests/golden/``.  Any behavioural change
in the emulator, the assembler, a workload kernel, the synthetic
generator, the timing model or the optimizer shows up as a
counter-level diff here — deliberately strict, so unintentional drift
cannot hide inside an aggregate.

Refreshing after an *intentional* change::

    PYTHONPATH=src python -m pytest tests/test_golden_stats.py \
        --update-golden

then review and commit the rewritten ``tests/golden/*.json``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.uarch.config import default_config
from repro.uarch.pipeline import simulate_trace
from repro.uarch.stats import PipelineStats
from repro.workloads import build_trace

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: One kernel per paper suite plus one synthetic program per family —
#: broad enough to cover every workload generator, small enough that
#: the snapshot pass stays cheap.
GOLDEN_WORKLOADS = (
    "mcf",  # SPECint
    "equake",  # SPECfp
    "untoast",  # mediabench
    "synth:ptrchase@seed=0",
    "synth:stream@seed=0",
    "synth:branchy@seed=0",
    "synth:ilp@seed=0",
    "synth:mixed@seed=0",
)


#: Kernels pinned in the optimizer's sensitivity-study modes.
MODE_WORKLOADS = ("mcf", "untoast")

#: Snapshot mode -> machine configuration.
GOLDEN_MODES = {
    "baseline": default_config(),
    "optimized": default_config().with_optimizer(),
    "feedback-only": default_config().with_optimizer(enable_opt=False),
    "depth1": default_config().with_optimizer(add_depth=1, mem_depth=1),
}

#: Every (workload, mode) pair with a committed snapshot.
GOLDEN_CASES = tuple(
    [(name, "baseline") for name in GOLDEN_WORKLOADS]
    + [(name, "optimized") for name in GOLDEN_WORKLOADS]
    + [(name, mode) for mode in ("feedback-only", "depth1")
       for name in MODE_WORKLOADS])


def golden_path(name: str, mode: str = "baseline") -> pathlib.Path:
    safe = name.replace(":", "_").replace("@", "_").replace(",", "_") \
        .replace("=", "-")
    return GOLDEN_DIR / f"{safe}.{mode}.json"


def compute_stats(name: str, mode: str = "baseline") -> PipelineStats:
    return simulate_trace(build_trace(name).trace, GOLDEN_MODES[mode])


@pytest.mark.parametrize("name", GOLDEN_WORKLOADS)
def test_baseline_stats_match_golden_snapshot(name, update_golden):
    check_snapshot(name, "baseline", update_golden)


@pytest.mark.parametrize(
    "name,mode", [case for case in GOLDEN_CASES if case[1] != "baseline"])
def test_optimizer_stats_match_golden_snapshot(name, mode, update_golden):
    check_snapshot(name, mode, update_golden)


def check_snapshot(name: str, mode: str, update_golden: bool) -> None:
    stats = compute_stats(name, mode)
    path = golden_path(name, mode)
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(stats.to_json() + "\n")
        return
    assert path.exists(), (
        f"missing golden snapshot {path.name}; generate it with "
        f"pytest tests/test_golden_stats.py --update-golden")
    expected = PipelineStats.from_json(path.read_text())
    current = stats.to_dict()
    recorded = expected.to_dict()
    if current != recorded:
        diffs = {key: (recorded[key], current[key])
                 for key in recorded
                 if recorded[key] != current.get(key)}
        pytest.fail(f"{name} ({mode}): stats drifted from golden snapshot "
                    f"(recorded, current): {diffs}; if intentional, "
                    f"refresh with --update-golden")


def test_golden_directory_has_no_orphans():
    """Every committed snapshot corresponds to a listed case."""
    expected = {golden_path(name, mode).name
                for name, mode in GOLDEN_CASES}
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert actual <= expected, (
        f"orphaned golden snapshots: {sorted(actual - expected)}")


def test_snapshots_are_canonical_json():
    """Snapshots stay byte-stable: canonical JSON, trailing newline."""
    for path in GOLDEN_DIR.glob("*.json"):
        text = path.read_text()
        assert text.endswith("\n"), path.name
        data = json.loads(text)
        assert PipelineStats.from_dict(data).to_json() == text.strip(), \
            path.name

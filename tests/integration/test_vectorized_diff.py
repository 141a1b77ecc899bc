"""The golden-digest gate for the simulation core.

``golden_digests.json`` pins, bit for bit, what the simulator produced on
a fixed set of cells: the sha256 of ``dataclasses.asdict(RunResult)``
rendered as sorted-key JSON (the recipe of ``perfbench/cells.py``'s
``result_digest``), and the sha256 of the recovered PM image plus the
undone-region list at fixed crash points. Every cell below is compared
against it:

* every Table 3 workload under every registered scheme (contended small
  machine, so stalls/backpressure/dropping all fire),
* the open-loop service workloads under the schemes with the most
  divergent commit timing,
* two cells at the harness's default quick scale,
* single-MSHR, blocking (``mshrs_per_cache=0``), serialized-drain and
  locked-set-contention machine variants,
* every fuzz-corpus regression schedule,
* recovered images at three crash fractions under undo, redo, hardware
  undo and software logging - the payload path (snapshots, drained
  writes, log entries) that only a crash ever reads.

The digests were recorded before the simulator's hot paths were folded
into one core; the test names keep the ``fast_matches_reference`` wording
of the two-core identity gate they replace. A digest mismatch is a
behaviour change: either a bug, or a deliberate model change that must
re-record the fixture (``python tests/integration/test_vectorized_diff.py
--record``) in its own reviewed commit - see docs/PERF.md.
"""

import glob
import hashlib
import json
import os
import sys
from dataclasses import asdict, replace as dc_replace

import pytest

from repro.common.params import SystemConfig
from repro.harness import runner
from repro.harness.fuzz import build_machine as fuzz_build_machine
from repro.harness.fuzz import load_corpus_entry
from repro.persist import scheme_names
from repro.recovery import crash_machine, recover
from repro.workloads import (
    ServiceParams,
    WorkloadParams,
    service_workload_names,
    workload_names,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_digests.json")
CORPUS_DIR = os.path.join(
    os.path.dirname(__file__), "..", "property", "corpus"
)
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

MATRIX = [(w, s) for w in workload_names() for s in scheme_names()]

#: every service workload under the schemes with the most divergent
#: commit timing (async ASAP variants, sync SW, undo locking)
SERVICE_MATRIX = [
    (w, s)
    for w in service_workload_names()
    for s in ("asap", "asap_redo", "sw", "hwundo")
]

#: crash cells: one per log discipline (ASAP undo, hardware undo, ASAP
#: redo, software undo), each crashed at these fractions of its full run
CRASH_CELLS = [("HM", "asap"), ("Q", "hwundo"), ("BT", "asap_redo"), ("SS", "sw")]
CRASH_FRACTIONS = (0.25, 0.5, 0.75)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _config() -> SystemConfig:
    # Small but contended: 8-entry WPQs and 4 cores keep backpressure,
    # slot stalls, and LPO/DPO dropping live in short runs.
    return SystemConfig.small(num_cores=4, wpq_entries=8)


def _params(size: int = 256) -> WorkloadParams:
    return WorkloadParams(
        num_threads=4, ops_per_thread=16, value_bytes=size, setup_items=24
    )


def _service_params() -> ServiceParams:
    # Past the knee, so queueing (and late drain-time commits under the
    # async schemes) are actually exercised.
    return ServiceParams(
        num_threads=4, requests=48, value_bytes=256, setup_items=24,
        offered_load=8.0,
    )


def _memory_variant(config, **overrides):
    return dc_replace(config, memory=dc_replace(config.memory, **overrides))


def _locked_set_config() -> SystemConfig:
    # Tiny associativity plus slow PM keeps LPO LockBits set long enough
    # that fills hit fully locked sets.
    config = SystemConfig.small(
        num_cores=4, wpq_entries=4, pm_latency_multiplier=16.0
    )
    return dc_replace(
        config,
        l1=dc_replace(config.l1, size_bytes=1024, assoc=1),
        l2=dc_replace(config.l2, size_bytes=2048, assoc=1),
        l3=dc_replace(config.l3, size_bytes=4096, assoc=2),
    )


def _run(workload, scheme, config=None, params=None) -> dict:
    return asdict(runner.run_once(workload, scheme, config, params))


def _corpus_machine(path):
    case, _ = load_corpus_entry(path)
    case.fifo_backpressure = True
    case.ordered_line_log_persists = True
    return fuzz_build_machine(case)


def _crash_digests(workload, scheme) -> dict:
    """{fraction: digest of (undone rids, recovered image words)}."""
    total = runner.run_once(workload, scheme, _config(), _params()).cycles
    out = {}
    for fraction in CRASH_FRACTIONS:
        machine = runner.build_machine(workload, scheme, _config(), _params())
        state = crash_machine(machine, at_cycle=max(1, int(total * fraction)))
        image, report = recover(state)
        out[f"{fraction:g}"] = _digest(
            [report.undone_rids, sorted(image.items())]
        )
    return out


#: the harness's actual quick machine (8 cores, 16-entry WPQs)
QUICK_CELLS = [("HM", "asap"), ("Q", "hwundo")]
SINGLE_MSHR_CELLS = [("HM", "asap"), ("SS", "asap_redo")]
BLOCKING_CELLS = [("HM", "asap"), ("BT", "sw")]
SERIAL_DRAIN_CELLS = [("Q", "asap"), ("HM", "asap_redo")]

#: group -> (cells, run(*cell) -> asdict(RunResult)); a cell's fixture
#: key is its fields joined with "-"
GROUPS = {
    "matrix": (MATRIX, lambda w, s: _run(w, s, _config(), _params())),
    "service": (
        SERVICE_MATRIX, lambda w, s: _run(w, s, _config(), _service_params())
    ),
    "quick_scale": (QUICK_CELLS, lambda w, s: _run(w, s)),
    "single_mshr": (
        SINGLE_MSHR_CELLS,
        lambda w, s: _run(
            w, s, _memory_variant(_config(), mshrs_per_cache=1), _params()
        ),
    ),
    "legacy_blocking": (
        BLOCKING_CELLS,
        lambda w, s: _run(
            w, s, _memory_variant(_config(), mshrs_per_cache=0), _params()
        ),
    ),
    "serialized_drains": (
        SERIAL_DRAIN_CELLS,
        lambda w, s: _run(
            w, s, _memory_variant(_config(), overlapped_drains=False), _params()
        ),
    ),
    "locked_set": (
        [("asap",), ("asap_redo",)],
        lambda s: _run("HM", s, _locked_set_config(), _params()),
    ),
    "corpus": (
        [(os.path.basename(p),) for p in CORPUS_FILES],
        lambda name: asdict(_corpus_machine(os.path.join(CORPUS_DIR, name)).run()),
    ),
}


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


GOLDEN = _golden() if os.path.exists(GOLDEN_PATH) else {}


def _check(group: str, *cell) -> dict:
    """Run one cell and compare its digest with the fixture's."""
    result = GROUPS[group][1](*cell)
    assert _digest(result) == GOLDEN[group]["-".join(cell)]
    return result


@pytest.mark.parametrize(
    "workload,scheme", MATRIX, ids=[f"{w}-{s}" for w, s in MATRIX]
)
def test_fast_matches_reference(workload, scheme):
    _check("matrix", workload, scheme)


@pytest.mark.parametrize(
    "workload,scheme", SERVICE_MATRIX, ids=[f"{w}-{s}" for w, s in SERVICE_MATRIX]
)
def test_fast_matches_reference_service(workload, scheme):
    # The latency fields (histogram, percentiles, offered-vs-achieved) are
    # filled from commit-time callbacks.
    result = _check("service", workload, scheme)
    assert result["requests_completed"] == 48
    assert result["latency_histogram"]
    assert result["p99_cycles"] > 0
    assert result["offered_vs_achieved"][0] == 8.0


@pytest.mark.parametrize("workload,scheme", QUICK_CELLS)
def test_fast_matches_reference_quick_scale(workload, scheme):
    _check("quick_scale", workload, scheme)


@pytest.mark.parametrize("workload,scheme", SINGLE_MSHR_CELLS)
def test_fast_matches_reference_single_mshr(workload, scheme):
    # One MSHR per file: every concurrent distinct-line miss exhausts the
    # file, so the parked-retry and merge paths both run constantly.
    result = _check("single_mshr", workload, scheme)
    assert result["stall_breakdown"]["mshr"] > 0


@pytest.mark.parametrize("workload,scheme", BLOCKING_CELLS)
def test_fast_matches_reference_legacy_blocking(workload, scheme):
    # mshrs_per_cache=0 keeps the pre-MSHR immediate-fill model selectable.
    result = _check("legacy_blocking", workload, scheme)
    assert result["mshr_merges"] == 0


@pytest.mark.parametrize("workload,scheme", SERIAL_DRAIN_CELLS)
def test_fast_matches_reference_serialized_drains(workload, scheme):
    # The legacy lockstep-drain comparator (one write-bus token across all
    # channels).
    _check("serialized_drains", workload, scheme)


@pytest.mark.parametrize("scheme,expect_stalls", [("asap", True), ("asap_redo", False)])
def test_fast_matches_reference_locked_set_contention(scheme, expect_stalls):
    # Only the undo scheme locks lines (redo logs never set the LockBit),
    # so only its cell must actually stall.
    result = _check("locked_set", scheme)
    if expect_stalls:
        assert result["stall_breakdown"]["locked_set"] > 0


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_corpus_case_matches_reference(path):
    # Corpus schedules are adversarial by construction (each once broke
    # the model).
    _check("corpus", os.path.basename(path))


@pytest.mark.parametrize(
    "workload,scheme", CRASH_CELLS, ids=[f"{w}-{s}" for w, s in CRASH_CELLS]
)
def test_recovered_image_matches_golden(workload, scheme):
    assert _crash_digests(workload, scheme) == GOLDEN["crash"][f"{workload}-{scheme}"]


def record() -> dict:
    """Recompute every digest the tests above compare against."""
    fixture = {
        group: {"-".join(cell): _digest(run(*cell)) for cell in cells}
        for group, (cells, run) in GROUPS.items()
    }
    fixture["crash"] = {f"{w}-{s}": _crash_digests(w, s) for w, s in CRASH_CELLS}
    return fixture


if __name__ == "__main__":
    # Re-recording is a deliberate act: a digest change means the
    # simulator's behaviour changed.
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_vectorized_diff.py --record")
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")

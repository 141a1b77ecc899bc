"""A run stopped at ``until`` and resumed ends exactly as one full run.

``Machine.run(until=c)`` is how crash points are reached; calling
``run()`` again afterwards must continue the same threads, not start
them over while their first steps are still queued.
"""

import json
from dataclasses import asdict

import pytest

from repro.common.params import SystemConfig
from repro.harness.runner import build_machine
from repro.persist import scheme_names
from repro.workloads import WorkloadParams

PARAMS = WorkloadParams(num_threads=4, ops_per_thread=8, value_bytes=128, setup_items=16)


def _machine(workload, scheme):
    return build_machine(workload, scheme, SystemConfig.small(num_cores=4, wpq_entries=8), PARAMS)


def _digest(result) -> str:
    return json.dumps(asdict(result), sort_keys=True, default=repr)


@pytest.mark.parametrize("scheme", scheme_names())
@pytest.mark.parametrize("workload", ["HM", "BT", "TPCC", "Q"])
def test_split_run_matches_one_run(workload, scheme):
    full = _machine(workload, scheme).run()
    for fraction in (0.3, 0.7):
        machine = _machine(workload, scheme)
        until = int(full.cycles * fraction)
        machine.run(until=until)
        assert machine.scheduler.now == until
        assert _digest(machine.run()) == _digest(full), fraction

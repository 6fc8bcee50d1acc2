"""Every job of the benchmark's smoke rounds gives the answer its workload
expects (perfbench/expected.py), so a change that would make benchmark jobs
fail is caught here, before the benchmark runs.

perfbench/ is imported read-only; its documents go to a temporary
directory.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_round_answers_pass_their_checks(name, seed, tmp_path):
    lib = workloads.Library()
    jobs = [job for rnd in workloads.build(name, lib, seed, str(tmp_path), smoke=True)
            for job in rnd]
    assert jobs
    assert [job.name for job in jobs if not job.check(job.run())] == []

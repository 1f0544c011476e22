"""The benchmark's pinned output digests hold for the library as it is.

Each workload of ``perfbench/workloads.py`` runs one operation at the
default seed, at both sizes, with the benchmark's own set-up, checks and
digests; the digests must equal those in ``perfbench/pinned.json``. The
benchmark files are imported, never written, so a change that alters a
sampler index, an NMS keep list, a pooled feature or a loss value fails
here instead of only in a benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from tracing import NullTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINNED = json.loads((PERFBENCH / "pinned.json").read_text())


@pytest.mark.parametrize("scale", ["small", "full"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_op_matches_pinned_digests(workload, scale, tmp_path):
    seed = PINNED["default_seed"]
    wl = WORKLOADS[workload](PINNED["workloads"][workload][scale],
                             PINNED["camera"], seed, tmp_path, NullTracer())
    failures, _, digests = wl.check(wl.op(NullTracer()))
    assert failures == []
    assert digests == PINNED["digests"][workload][scale]

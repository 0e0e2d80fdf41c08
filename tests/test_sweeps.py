"""Tree-sweep consistency checks that must survive `python -O`."""

from __future__ import annotations

import pytest

from xorsat_reduce import sweeps
from xorsat_reduce.sweeps import SweepConfig


def test_tree_sample_rejects_a_count_mismatch(monkeypatch):
    calls = []
    real = sweeps.backtrack_count

    def second_call_off_by_one(instance, reduction):
        count, stats = real(instance, reduction)
        calls.append(count)
        return count + (len(calls) == 2), stats

    monkeypatch.setattr(sweeps, "backtrack_count", second_call_off_by_one)
    config = SweepConfig("occ1in3", (12,), 0.8, samples=1, perm_trials=2)
    with pytest.raises(RuntimeError, match="solution count"):
        sweeps.tree_sweep(config)
    assert len(calls) == 2

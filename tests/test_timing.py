"""Per-stage wall-clock accounting (``repro.timing``)."""

from __future__ import annotations

import numpy as np

from repro.timing import collect_stages, record_stage, stage_timer


class TestStageTimers:
    def test_record_and_collect(self):
        collect_stages()  # drain
        record_stage("trie", 0.25)
        record_stage("trie", 0.5)
        record_stage("sa", 1.0)
        stages = collect_stages()
        assert stages == {"trie": 0.75, "sa": 1.0}
        assert collect_stages() == {}  # reset drained the accumulator

    def test_stage_timer_context(self):
        collect_stages()
        with stage_timer("grid"):
            pass
        stages = collect_stages()
        assert set(stages) == {"grid"}
        assert stages["grid"] >= 0.0

    def test_build_records_stages(self):
        from repro.core.alphabet import Alphabet
        from repro.core.weighted_string import WeightedString
        from repro.indexes.registry import build_index

        rng = np.random.default_rng(2)
        matrix = rng.dirichlet(np.ones(4), size=200)
        source = WeightedString(matrix, Alphabet("ACGT"))
        collect_stages()
        build_index(source, 4.0, kind="MWST", ell=6)
        assert "trie" in collect_stages()
        build_index(source, 4.0, kind="WSA")
        assert "sa" in collect_stages()

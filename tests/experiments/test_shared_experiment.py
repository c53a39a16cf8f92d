"""The shared-cache experiment family: table, wins, provenance."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import ConfigError
from repro.experiments import shared
from repro.experiments.base import (
    ExperimentResult,
    attach_provenance,
    render_table,
)

#: Fast scale for the table fixture (the run() floor is 4.0).
SCALE = 8.0

#: sha256 of ``render_table`` of the quick table at seed 42, SCALE.
#: Freezes every cell the multi-process engine produces: a change to
#: the schedule, the replay semantics or the accounting shows here.
QUICK_TABLE_DIGEST = (
    "299536416d6aa12af03fc1938eb851658f6df917bd5e27e813999090c111d90a"
)


@pytest.fixture(scope="module")
def quick_table() -> ExperimentResult:
    return shared.run(seed=42, scale_multiplier=SCALE, quick=True)


class TestMixBenchmarks:
    def test_homogeneous_replicates_one_binary(self):
        assert shared.mix_benchmarks("homogeneous", 3) == ["crafty"] * 3

    def test_heterogeneous_cycles_palette(self):
        names = shared.mix_benchmarks("heterogeneous", 8)
        assert len(names) == 8
        assert set(names) == set(shared.HETEROGENEOUS_PALETTE)

    def test_unknown_mix_rejected(self):
        with pytest.raises(ConfigError, match="mix"):
            shared.mix_benchmarks("bimodal", 2)

    def test_single_process_rejected(self):
        with pytest.raises(ConfigError, match="processes"):
            shared.mix_benchmarks("homogeneous", 1)


class TestTable:
    def test_shape(self, quick_table):
        # quick: 2 mixes x 1 process count x 4 policies.
        assert len(quick_table.rows) == 8
        assert quick_table.columns[:3] == ["Mix", "Procs", "Policy"]
        assert {row["Procs"] for row in quick_table.rows} == {2}

    @pytest.mark.parametrize("mix", ["homogeneous", "heterogeneous"])
    def test_shared_persistent_beats_private(self, quick_table, mix):
        """The acceptance comparison: at equal total capacity, pooling
        the persistent generations lowers the aggregate miss rate,
        compiles fewer bytes, and wastes fewer bytes on duplicates."""
        rows = {(r["Mix"], r["Policy"]): r for r in quick_table.rows}
        private = rows[(mix, "private")]
        pooled = rows[(mix, "shared-persistent")]
        assert pooled["MissPct"] < private["MissPct"]
        assert pooled["GeneratedKB"] < private["GeneratedKB"]
        assert pooled["DupKB"] < private["DupKB"]

    def test_shared_all_holds_single_copies(self, quick_table):
        for row in quick_table.rows:
            if row["Policy"] == "shared-all":
                assert row["DupKB"] == 0.0

    def test_notes_state_the_comparison(self, quick_table):
        joined = " ".join(quick_table.notes)
        assert "equal total capacity" in joined
        assert "shared-persistent compiles" in joined

    def test_rendered_table_digest_is_frozen(self, quick_table):
        rendered = render_table(quick_table).encode("utf-8")
        assert hashlib.sha256(rendered).hexdigest() == QUICK_TABLE_DIGEST

    def test_provenance_attached(self, quick_table):
        assert quick_table.seed == 42
        assert quick_table.config_digest
        rendered = render_table(quick_table)
        assert f"seed=42  config={quick_table.config_digest}" in rendered

    def test_scale_floor_is_applied_and_noted(self):
        result = shared.run(
            seed=42,
            scale_multiplier=1.0,
            quick=True,
            process_counts=(2,),
        )
        assert any("floor" in note for note in result.notes)


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, quick_table):
        again = shared.run(seed=42, scale_multiplier=SCALE, quick=True)
        assert render_table(again) == render_table(quick_table)

    def test_parallel_equals_serial(self, quick_table):
        parallel = shared.run(
            seed=42, scale_multiplier=SCALE, quick=True, jobs=2
        )
        assert parallel.rows == quick_table.rows
        assert render_table(parallel) == render_table(quick_table)

    def test_seed_changes_the_table(self, quick_table):
        other = shared.run(seed=7, scale_multiplier=SCALE, quick=True)
        assert other.rows != quick_table.rows
        assert other.config_digest != quick_table.config_digest


class TestProvenanceHelper:
    def test_digest_is_canonical(self):
        def result():
            return ExperimentResult(
                experiment_id="x", title="t", columns=["A"]
            )

        first = attach_provenance(result(), 42, alpha=1, beta=[2])
        second = attach_provenance(result(), 42, beta=[2], alpha=1)
        assert first.config_digest == second.config_digest
        assert len(first.config_digest) == 12

    def test_digest_covers_params_and_seed(self):
        def result():
            return ExperimentResult(
                experiment_id="x", title="t", columns=["A"]
            )

        base = attach_provenance(result(), 42, alpha=1)
        assert attach_provenance(result(), 43, alpha=1).config_digest != (
            base.config_digest
        )
        assert attach_provenance(result(), 42, alpha=2).config_digest != (
            base.config_digest
        )

    def test_unstamped_result_renders_without_seed_line(self):
        rendered = render_table(
            ExperimentResult(experiment_id="x", title="t", columns=["A"])
        )
        assert "seed=" not in rendered

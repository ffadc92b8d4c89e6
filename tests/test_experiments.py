"""Tests for the experiment harnesses: every table/figure regenerates
and reproduces the paper's qualitative claims."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments import (
    fig7_top_generation,
    fig11_matrix_example,
    fig20_trace,
    table1_ddu_synthesis,
    table2_dau_synthesis,
    table4_event_sequence,
    table5_ddu_vs_pdda,
    table6_gdl_sequence,
    table7_gdl,
    table8_rdl_sequence,
    table9_rdl,
    table10_soclc_robot,
    table11_malloc,
    table12_socdmmu,
)


def test_registry_covers_every_table_and_figure():
    expected = {"table1", "table2", "table3", "table4", "table5", "table6",
                "table7", "table8", "table9", "table10", "table11",
                "table12", "fig7", "fig11", "fig20",
                "ablation_policies", "ablation_recovery", "ablation_hierbus", "complexity_survey",
                "latency_profile", "diagrams", "exhaustive_bound"}
    assert set(EXPERIMENTS) == expected


def test_run_experiment_unknown_id():
    with pytest.raises(KeyError):
        run_experiment("table99")


def test_table1_matches_published_rows():
    result = table1_ddu_synthesis.run()
    for row in result.rows:
        assert row.lines == row.paper_lines
        assert row.area == row.paper_area
        assert row.worst_iterations == row.paper_worst
        assert row.measured_chain_iterations <= row.worst_iterations
    assert "Table 1" in result.render()


def test_table2_reproduces_dau_summary():
    result = table2_dau_synthesis.run()
    assert result.total_area == 1836
    assert result.avoidance_steps == 38
    assert 0.004 < result.area_percent < 0.006
    assert result.measured_max_decision_cycles <= result.avoidance_steps
    assert ".005%" in result.render() or "0.005" in result.render()


def test_table4_sequence_ends_in_detection():
    result = table4_event_sequence.run()
    assert result.deadlock_detected_at > 0
    kinds = [kind for _t, _a, kind, _r in result.events]
    assert "deadlock_detected" in kinds
    assert "r" in result.residual_matrix_text
    assert "g" in result.residual_matrix_text


def test_table5_hardware_wins():
    result = table5_ddu_vs_pdda.run()
    assert result.app_speedup_percent > 20
    assert result.algorithm_speedup > 100
    text = result.render()
    assert "paper" in text and "46%" in text


def test_table6_idct_to_lower_priority():
    result = table6_gdl_sequence.run()
    assert result.gdl_avoided
    assert result.idct_went_to == "p3"


def test_table7_hardware_wins():
    result = table7_gdl.run()
    assert result.app_speedup_percent > 15
    assert result.algorithm_speedup > 100
    assert result.hardware.avoidance_invocations == 12


def test_table8_giveup_asked_of_p2():
    result = table8_rdl_sequence.run()
    assert result.rdl_avoided
    assert result.giveup_asked_of == "p2"


def test_table9_hardware_wins():
    result = table9_rdl.run()
    assert result.app_speedup_percent > 20
    assert result.algorithm_speedup > 100
    assert result.hardware.avoidance_invocations == 14


def test_table10_soclc_wins_all_three_rows():
    result = table10_soclc_robot.run()
    assert result.software.lock_latency > result.hardware.lock_latency
    assert result.software.lock_delay > result.hardware.lock_delay
    assert result.software.overall_cycles > result.hardware.overall_cycles
    # Latency ratio is the calibrated 1.79X.
    ratio = result.software.lock_latency / result.hardware.lock_latency
    assert ratio == pytest.approx(1.79, abs=0.01)


def test_table11_mm_shares_close_to_paper():
    result = table11_malloc.run()
    from repro.experiments.table11_malloc import PAPER_TABLE_11
    for run_ in result.runs:
        paper_total, paper_mm, paper_pct = PAPER_TABLE_11[run_.benchmark]
        assert run_.total_cycles == pytest.approx(paper_total, rel=0.05)
        assert run_.mm_cycles == pytest.approx(paper_mm, rel=0.10)
        assert run_.mm_percent == pytest.approx(paper_pct, abs=2.0)


def test_table12_reductions_close_to_paper():
    result = table12_socdmmu.run()
    from repro.experiments.table12_socdmmu import PAPER_TABLE_12
    for row in result.rows:
        paper = PAPER_TABLE_12[row.benchmark]
        assert row.mm_reduction_percent == pytest.approx(paper[3], abs=3)
        assert row.exe_reduction_percent == pytest.approx(paper[4], abs=3)
        assert row.mm_percent < 1.5


def test_fig7_generates_three_pe_soclc_top():
    result = fig7_top_generation.run()
    assert result.num_pe_instances == 3
    assert result.has_soclc


def test_fig11_terminal_sets_match_example_4():
    result = fig11_matrix_example.run()
    assert list(result.terminal_rows) == ["q2", "q3"]
    assert list(result.terminal_columns) == ["p2", "p4", "p6"]
    assert result.deadlock        # the example contains a cycle


def test_fig20_gantt_renders_three_tasks():
    result = fig20_trace.run()
    assert "task1" in result.gantt_rtos6
    assert "task3" in result.gantt_rtos5
    assert "#" in result.gantt_rtos6


def test_every_experiment_renders_text():
    for exp_id in EXPERIMENTS:
        result = run_experiment(exp_id)
        text = result.render()
        assert isinstance(text, str) and len(text) > 40


def test_report_md_matches_a_fresh_regeneration(tmp_path):
    """REPORT.md is exactly what the experiments CLI writes today."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    fresh = tmp_path / "REPORT.md"
    subprocess.run([sys.executable, "-m", "repro.experiments",
                    "--markdown", str(fresh)], cwd=root, env=env,
                   capture_output=True, check=True)
    assert fresh.read_bytes() == (root / "REPORT.md").read_bytes(), (
        "REPORT.md is stale; regenerate it with "
        "`PYTHONPATH=src python -m repro.experiments --markdown REPORT.md`")

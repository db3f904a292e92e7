"""Integration tests: the populated suite, scaling studies, analysis
tables/figures, performance models, and the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    JuqcsNetworkModel,
    NekrsPredictor,
    PicongpuScalingModel,
    figure2,
    figure3,
    render_table1,
    render_table2,
    table1_records,
    table2_records,
)
from repro.cli import main
from repro.core import (
    BENCHMARKS,
    Category,
    JupiterBenchmarkSuite,
    MemoryVariant,
    load_suite,
)


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def suite():
    return load_suite()


class TestSuiteFacade:
    def test_all_23_registered(self, suite):
        assert len(suite.names()) == 23
        assert set(suite.names()) == {b.name for b in BENCHMARKS}

    def test_get_caches_instances(self, suite):
        assert suite.get("Arbor") is suite.get("Arbor")

    def test_unknown_benchmark(self, suite):
        with pytest.raises(KeyError):
            suite.get("LINPACK-3000")

    def test_unregistered_name_rejected(self):
        fresh = JupiterBenchmarkSuite()
        with pytest.raises(KeyError):
            fresh.register("NotInTable2", lambda: None)

    def test_infos_by_category(self, suite):
        assert len(suite.infos(Category.HIGH_SCALING)) == 5
        assert len(suite.infos(Category.SYNTHETIC)) == 7

    def test_reference_run(self, suite):
        ref = suite.reference_run("Arbor")
        assert ref.nodes == 8
        assert ref.time_metric == pytest.approx(498, rel=0.1)

    def test_strong_scaling_study(self, suite):
        study = suite.strong_scaling_study("nekRS")
        assert study.reference.nodes == 8
        assert study.monotone_decreasing()

    def test_weak_scaling_study(self, suite):
        study = suite.weak_scaling_study("PIConGPU", (8, 32),
                                         variant=MemoryVariant.SMALL)
        assert study.efficiency_at(32) > 0.9

    def test_variant_validation_through_suite(self, suite):
        with pytest.raises(ValueError):
            suite.run("JUQCS", 8, variant=MemoryVariant.TINY)  # S/L only

    def test_deterministic_results(self, suite):
        a = suite.run("Chroma-QCD", 2).fom_seconds
        b = suite.run("Chroma-QCD", 2).fom_seconds
        assert a == b


class TestAnalysisTables:
    def test_table1_complete(self):
        records = table1_records()
        assert len(records) == 23
        text = render_table1()
        for info in BENCHMARKS:
            assert info.name in text

    def test_table1_starred_rows(self):
        text = render_table1()
        for name in ("Amber*", "ParFlow*", "SOMA*", "ResNet*"):
            assert name in text

    def test_table2_highscale_column(self):
        by_name = {r.params["benchmark"].rstrip("*"): r.params
                   for r in table2_records()}
        assert by_name["Arbor"]["highscale"] == "642^{T,S,M,L}"
        assert by_name["GROMACS"]["highscale"] == "-"

    def test_table2_renders(self):
        text = render_table2()
        assert "LGPLv2.1" in text       # GROMACS licence
        assert "642^{T,S,M,L}" in text


class TestFigures:
    def test_figure2_subset(self, suite):
        data = figure2(suite, apps=(("Arbor", False), ("JUQCS", True)))
        assert set(data.curves) == {"Arbor", "JUQCS"}
        text = data.render()
        assert "Arbor" in text and "(1.00, 1.00)" in text

    def test_figure3_subset(self, suite):
        data = figure3(suite, nodes=(1, 2, 8),
                       apps=(("JUQCS", MemoryVariant.SMALL),))
        eff = dict(data.curves["JUQCS"].efficiency())
        assert eff[1] == pytest.approx(1.0)
        assert eff[2] < 0.7  # the NVLink -> IB drop
        assert dict(data.juqcs_compute)[8] == pytest.approx(1.0, abs=0.05)
        assert "JUQCS (comm.)" in data.render()


class TestPerformanceModels:
    def test_juqcs_model_rank_bit_classes(self):
        m = JuqcsNetworkModel()
        # low rank bits stay on NVLink, high bits cross nodes
        low = m.gate_comm_seconds(30, 64, rank_bit=0)
        high = m.gate_comm_seconds(30, 64, rank_bit=5)
        assert high > 3 * low

    def test_juqcs_model_bounds(self):
        m = JuqcsNetworkModel()
        with pytest.raises(ValueError):
            m.gate_comm_seconds(30, 8, rank_bit=5)

    def test_nekrs_predictor_accuracy(self):
        p = NekrsPredictor(warmup_steps=2)
        steps = [10.0, 4.0] + [1.0] * 8
        predicted = p.predict(steps, 100)
        actual = 14.0 + 98.0
        assert p.relative_error(steps, 100, actual) < 0.01
        assert predicted == pytest.approx(actual)

    def test_nekrs_predictor_validation(self):
        p = NekrsPredictor()
        with pytest.raises(ValueError):
            p.predict([1.0], 100)
        with pytest.raises(ValueError):
            p.predict([1.0, 1.0, 1.0], 2)

    def test_picongpu_model_gives_paper_cap(self):
        model = PicongpuScalingModel()
        assert model.max_nodes((4096, 2048, 1024)) == 640
        assert not model.valid((4096, 2048, 1024), 642)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "23 benchmarks" in out

    def test_tables(self, capsys):
        assert main(["table1"]) == 0
        assert "Benchmark" in capsys.readouterr().out
        assert main(["table2"]) == 0
        assert "Licence" in capsys.readouterr().out

    def test_run_real(self, capsys):
        code = main(["run", "JUQCS", "--nodes", "1", "--real",
                     "--scale", "0.4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASSED" in out

    def test_run_with_variant(self, capsys):
        assert main(["run", "JUQCS", "--nodes", "8", "--variant",
                     "S"]) == 0
        assert "variant   : S" in capsys.readouterr().out

    def test_fig2_subset(self, capsys):
        assert main(["fig2", "--apps", "Arbor"]) == 0
        assert "Arbor" in capsys.readouterr().out

    def test_fig3_small(self, capsys):
        assert main(["fig3", "--nodes", "1,2"]) == 0
        assert "JUQCS" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["fig2", "--apps", "Arbor,Amber"],
        ["fig3", "--nodes", "1,2"],
    ], ids=["fig2", "fig3"])
    def test_figures_on_process_backend_match_serial(self, capsys, argv):
        """The study points travel to worker processes by pickle; the
        figure must come back byte for byte as in the serial run."""
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2", "--backend", "process"]) == 0
        assert capsys.readouterr().out == serial
        assert "benchmark" in serial

    def test_procurement(self, capsys):
        assert main(["procurement"]) == 0
        assert "value-for-money" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["table2", "suite", "report"])
    def test_closed_stdout_is_not_a_traceback(self, tmp_path, command):
        """``jubench ... | head``: the reader is gone before the first
        byte is written, the worst case of a closed pipe."""
        env = {"PYTHONPATH": str(SRC)}
        argv = [sys.executable, "-m", "repro", command]
        if command == "suite":
            argv += ["--benchmarks", "STREAM,HPL"]
        if command == "report":
            trace = tmp_path / "t.jsonl"
            subprocess.run(
                [sys.executable, "-m", "repro", "run", "STREAM",
                 "--trace-out", str(trace)],
                check=True, capture_output=True, env=env)
            argv.append(str(trace))
        reader, writer = os.pipe()
        os.close(reader)
        try:
            proc = subprocess.run(argv, stdout=writer, env=env,
                                  stderr=subprocess.PIPE, text=True)
        finally:
            os.close(writer)
        assert proc.returncode == 141, proc.stderr
        assert proc.stderr == ""

"""Tests for the JUBE-style result tables (``repro.jube.result``)."""

import pytest

from repro.jube import Column, ResultTable, WorkunitRecord


class TestResultTable:
    def test_missing_value_rendered_as_dash(self):
        t = ResultTable("t", columns=[Column(key="a"), Column(key="b")])
        text = t.render([WorkunitRecord(params={"a": 1}, outputs={})])
        assert "-" in text.splitlines()[2]

    def test_sort_by_unknown_column(self):
        t = ResultTable("t", columns=[Column(key="a")], sort_by="zz")
        with pytest.raises(KeyError):
            t.rows([WorkunitRecord(params={"a": 1}, outputs={})])

    def test_column_source_specific_step(self):
        t = ResultTable("t", columns=[Column(key="x", source="execute")])
        rec = WorkunitRecord(params={"x": "wrong"},
                             outputs={"execute": {"x": "right"}})
        assert t.rows([rec]) == [["right"]]

"""The one append-only log rule (``repro.exec.jsonl.JsonlLog``), held
over every view of it: the history database, the service result store
and the telemetry trace.

A three-record file of each is cut at every byte, as a crash mid-append
leaves it: the complete prefix loads, exactly one warning line names
the dropped bytes, and reading repairs nothing.  The two stores are
also appended to: the append lands on a clean line, the repaired file
holds exactly one header line, and reopening it is silent.
"""

import pytest

from repro.history import HistoryStore, RunRecord
from repro.service import ResultEnvelope, ResultStore
from repro.telemetry import JsonlSink, read_events


def _run(i):
    return RunRecord(benchmark="ICON", fom_seconds=100.0 + i,
                     params={"nodes": 256}, vmpi_mode="event",
                     code="deadbeef")


def _result(i):
    return ResultEnvelope(task_id=f"STREAM-{i:04d}", client="c0",
                          benchmark="STREAM", key=f"STREAM-k{i}",
                          status="ok", value={"fom_seconds": 1.0 + i})


class _History:
    who, first = "history", 1      # records start on line 2

    @staticmethod
    def write(path):
        store = HistoryStore.open(path)
        for i in range(3):
            store.append(_run(i))

    open = staticmethod(HistoryStore.open)

    @staticmethod
    def loaded(store):
        return store.records

    @staticmethod
    def append(store):
        new = store.append(_run(3))
        assert new.seq == len(store) - 1    # the series continues
        return new


class _Results:
    who, first = "service", 1

    @staticmethod
    def write(path):
        store = ResultStore(path)
        for i in range(3):
            store.append(_result(i))

    open = staticmethod(ResultStore.open)

    @staticmethod
    def loaded(store):
        return store.records

    @staticmethod
    def append(store):
        store.append(_result(3))
        return _result(3)


class _Trace:
    who, first = "telemetry", 0    # read_events yields the meta header too
    append = None

    @staticmethod
    def write(path):
        with JsonlSink(path) as sink:
            for i in range(3):
                sink.emit({"type": "metrics", "snapshot": {"n": i}})

    @staticmethod
    def open(path):
        return list(read_events(path))

    @staticmethod
    def loaded(events):
        return events


VIEWS = {"history": _History(), "results": _Results(), "trace": _Trace()}


@pytest.mark.parametrize("view", VIEWS.values(), ids=VIEWS)
def test_every_cut_loads_its_prefix_and_the_append_repairs(
        view, tmp_path, capsys):
    whole = tmp_path / "whole.jsonl"
    view.write(whole)
    data = whole.read_bytes()
    items = view.loaded(view.open(whole))
    ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    assert len(ends) == len(items) + view.first == 4
    header = data[:ends[0]]
    path = tmp_path / "torn.jsonl"
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        opened = view.open(path)
        err = capsys.readouterr().err
        complete = [end for end in ends if end <= cut]
        kept = items[:max(len(complete) - view.first, 0)]
        assert view.loaded(opened) == kept, cut
        start = complete[-1] if complete else 0
        if cut == start:     # a whole number of lines: nothing torn
            assert err == ""
        else:
            assert err == (f"{view.who}: warning: {path}: dropped "
                           f"{cut - start} byte(s) of a torn final line "
                           f"(an append was cut short)\n")
        assert path.read_bytes() == data[:cut]   # reading repairs nothing
        if view.append is None:
            continue
        new = view.append(opened)
        repaired = path.read_bytes()
        assert repaired.splitlines(keepends=True).count(header) == 1, cut
        assert repaired.endswith(b"\n")
        again = view.open(path)
        assert capsys.readouterr().err == ""
        assert view.loaded(again) == kept + [new], cut


def test_a_duplicate_header_loads_and_gets_no_third(tmp_path, capsys):
    """A results file whose first record tore and whose reopen wrote a
    second header (as older versions did) still loads its records, and
    appending to it writes no further header."""
    path = tmp_path / "results.jsonl"
    ResultStore(path).append(_result(0))
    header, record = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(header + header + record)
    store = ResultStore.open(path)
    assert store.records == [_result(0)]
    store.append(_result(1))
    assert path.read_bytes().count(header) == 2
    assert ResultStore.open(path).records == [_result(0), _result(1)]
    assert capsys.readouterr().err == ""

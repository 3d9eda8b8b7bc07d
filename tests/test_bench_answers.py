"""The benchmark's stored answers hold in the test suite too.

perfbench/workloads.py writes the df-p2 and df-p3 documents of a seed and
checks each op's CLI answer against perfbench/expected/.  Loaded here
read-only, as test_bench_hooks.py loads tracing.py, it runs those same
checks on seed 1, round 0: the df, expansion and limit answers must stay
byte-identical to the stored ones, and the known refusals must stay the
stored refusals.  The corpus-p2 checks run on all 938 configs: each
verdict, certificate and bounded search answer must be the stored one.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
             / "workloads.py")


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("name", ["df-p2", "df-p3"])
def test_df_answers_match_the_stored_ones(monkeypatch, tmp_path, name):
    wl = _workloads(monkeypatch)
    refused = {ck.kind for ck in wl.DF_P2_KINDS + wl.DF_P3_KINDS
               if ck.known_failing}
    ops = wl.build(name, 1, False, tmp_path).rounds[0]
    got = {op.kind: op.check(op.run()) for op in ops}
    assert got == {op.kind: wl.REFUSED if op.kind in refused else wl.OK
                   for op in ops}


def test_corpus_answers_match_the_stored_ones(monkeypatch, tmp_path):
    wl = _workloads(monkeypatch)
    ops = [op for rnd in wl.build("corpus-p2", 1, False, tmp_path).rounds
           for op in rnd]
    assert len(ops) == len(wl.corpus_configs()) == 938
    assert [op.check(op.run()) for op in ops] == [wl.OK] * len(ops)

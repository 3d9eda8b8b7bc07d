"""The benchmark's layer hooks name functions that exist.

perfbench/tracing.py wraps program functions by module and attribute
name, and reports a missing target as absent instead of failing, so a
refactor that moves a hooked function would quietly zero its layer.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from chowstab import (Ambient, DiagonalOnePS, FatPointSpec,
                      central_fibre_sections, classify, exhaustive_ops_search,
                      normalize_cycle, testconfig)
from chowstab.hilbert import h0_with_vanishing, jet_vanishing_matrix

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_hook_target_resolves(monkeypatch):
    hooks = _tracing(monkeypatch).HOOKS
    assert hooks
    missing = []
    for hook in hooks:
        target = importlib.import_module(hook.module)
        for name in hook.attr.split("."):
            target = getattr(target, name, None)
        if not callable(target):
            missing.append(f"{hook.module}.{hook.attr}")
    assert missing == []


def test_exact_elimination_is_traced(monkeypatch):
    # the stability layer and the kernel route share exactcore._rref, so
    # the rref layer counts the scan's and the kernel's work; the search
    # grows its frames by pivot steps, which read as stability.search
    # self time and run no elimination
    tracing = _tracing(monkeypatch)
    assert any(h.layer == "exactcore.rref" for h in tracing.HOOKS)
    p2 = Ambient.projective(2)
    collinear = normalize_cycle(p2, [([1, 0, 0], 1), ([0, 1, 0], 1),
                                     ([1, 1, 0], 1)])
    general = normalize_cycle(p2, [([1, 0, 0], 1), ([0, 1, 0], 1),
                                   ([0, 0, 1], 1), ([1, 1, 1], 1)])
    runs = {
        "classify": lambda: classify(collinear),
        "search": lambda: exhaustive_ops_search(collinear, 1),
        "fibre": lambda: central_fibre_sections(
            general, DiagonalOnePS((1, 0, -1)), 3),
    }
    tracer = tracing.Tracer(enabled=True)
    installed = tracing.Installed(tracer)
    try:
        assert installed.absent == []
        counted = {}
        for name, run in runs.items():
            before = tracer.stats["exactcore.rref"].calls
            run()
            counted[name] = tracer.stats["exactcore.rref"].calls - before
    finally:
        installed.remove()
    assert classify(collinear).is_unstable
    assert counted["search"] == 0, counted
    assert counted["classify"] and counted["fibre"], counted


P2_POINTS = {
    "small": [([1, 0, 0], 1), ([0, 1, 0], 2), ([1, 1, 1], 1)],
    # numerators near 2^40 put the degree-4 entries far past 2^62
    "wide": [([1, 0, 0], 1), ([3, 2 ** 40 + 1, -(2 ** 39) - 5], 1),
             ([7, 2 ** 38, 2 ** 41 + 3], 1)],
}


def _traced(monkeypatch, run):
    """The tracer after one call of run() with every hook installed."""
    tracing = _tracing(monkeypatch)
    tracer = tracing.Tracer(enabled=True)
    installed = tracing.Installed(tracer)
    try:
        assert installed.absent == []
        run()
    finally:
        installed.remove()
    return tracer


@pytest.mark.parametrize("points", sorted(P2_POINTS))
def test_jet_layer_is_traced(monkeypatch, points):
    # the jet matrix is an object array: the hooks must count its rows, and
    # the rank profile's bit counter (int.bit_length) needs Python ints.
    # h0_with_vanishing takes the global route, which every df sample
    # that its limit points do not certify still takes
    cycle = normalize_cycle(Ambient.projective(2), P2_POINTS[points])
    spec = FatPointSpec(cycle, 4, 1)
    tracer = _traced(monkeypatch, lambda: h0_with_vanishing(spec))
    rows = jet_vanishing_matrix(spec).tolist()
    bits = max(abs(x).bit_length() for row in rows for x in row)
    assert (bits > 62) == (points == "wide")
    assert tracer.counters["hilbert.jet_rows.rows"] == spec.expected_rows
    assert tracer.counters["exactcore.rank_profile.max_bits_in"] == bits


def test_certified_single_point_sample_builds_no_jet_rows(monkeypatch):
    # degree 4 is above the small cycle's regularity bound r M - 1 = 3,
    # and each limit point is reached by one support point, so the sample
    # is the closed form: no jet rows and no rank profile
    cycle = normalize_cycle(Ambient.projective(2), P2_POINTS["small"])
    alpha = DiagonalOnePS((1, 0, -1))
    tracer = _traced(monkeypatch, lambda: testconfig._central_summary(
        cycle, alpha, 4, 1))
    assert tracer.stats["testconfig.central_summary"].calls == 1
    assert tracer.stats["hilbert.jet_rows"].calls == 0
    assert tracer.stats["exactcore.rank_profile"].calls == 0

"""The benchmark's trace points resolve and see the population searches.

``perfbench/tracing.py`` wraps library functions where their callers look
them up: module globals and class attributes.  A call site that moves out of
a wrapped module still passes every other test, while the benchmark layer it
fed silently reads zero.  This test reads ``TRACE_POINTS`` from that file
without changing it, wraps every entry with a call counter the way the
tracer's ``_patch`` does, and runs a tiny NSGA-II search over load-aware CWM
pricing and a tiny co-design search.

``search.niche`` is not asserted: its trace points name
``repro.codesign.engine``, while the niching now runs in
``repro.search.nsga3``.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import pytest

from repro.codesign import CodesignParameters, CodesignSearch, LoadAwareCwmContext
from repro.core.mapping import Mapping
from repro.graphs.convert import cdcg_to_cwg
from repro.noc.platform import Platform
from repro.noc.topology import Mesh
from repro.search.nsga2 import NSGA2Search, Nsga2Parameters
from repro.workloads.embedded import image_encoder

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

#: Layers both population workloads of the benchmark must reach.
SEARCH_LAYERS = ("search", "search.sort", "search.variation", "eval.context.batch")

GENERATIONS = 2


def _load_trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACE_POINTS


TRACE_POINTS = _load_trace_points()


def _owner(module_name: str, path: str):
    """The object holding the traced attribute, and the attribute's name."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


@pytest.mark.parametrize("module_name, path, span", TRACE_POINTS)
def test_trace_point_resolves(module_name, path, span):
    owner, attribute = _owner(module_name, path)
    original = inspect.getattr_static(owner, attribute)
    assert inspect.isfunction(original) or isinstance(original, classmethod)


@pytest.fixture
def calls(monkeypatch):
    """Calls per span name and per attribute path, every trace point wrapped."""
    counts: Counter = Counter()

    def counting(span, path, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[span] += 1
            counts[path] += 1
            return fn(*args, **kwargs)

        return counted

    for module_name, path, span in TRACE_POINTS:
        owner, attribute = _owner(module_name, path)
        original = inspect.getattr_static(owner, attribute)
        if isinstance(original, classmethod):
            wrapped = classmethod(counting(span, path, original.__func__))
        else:
            wrapped = counting(span, path, original)
        monkeypatch.setattr(owner, attribute, wrapped)
    return counts


@pytest.fixture(scope="module")
def encoder():
    cdcg = image_encoder()
    platform = Platform(mesh=Mesh(3, 3))
    initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=7)
    return cdcg, platform, initial


def _assert_reached(calls, layers):
    missing = [layer for layer in layers if not calls[layer]]
    assert not missing, f"no traced call reached {missing}"
    # Both sorts of every generation go through a traced global.
    assert calls["fast_non_dominated_sort"] >= 2 * GENERATIONS


def test_nsga2_over_load_aware_cwm_reaches_its_layers(encoder, calls):
    cdcg, platform, initial = encoder
    context = LoadAwareCwmContext(cdcg_to_cwg(cdcg), platform)
    engine = NSGA2Search(
        Nsga2Parameters(population_size=8, generations=GENERATIONS),
        keys=("dynamic_energy", "max_link_load"),
    )
    calls.clear()
    engine.search(context, initial, rng=11)
    _assert_reached(calls, SEARCH_LAYERS)


def test_codesign_reaches_its_layers(encoder, calls):
    cdcg, platform, initial = encoder
    engine = CodesignSearch(
        cdcg, platform, CodesignParameters(population_size=8, generations=GENERATIONS)
    )
    calls.clear()
    engine.search(initial=initial, rng=11)
    _assert_reached(
        calls, SEARCH_LAYERS + ("codesign.certify", "noc.deadlock.validate")
    )

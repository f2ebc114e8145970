"""Self-tests of the benchmark: the tracer rebinds every binding site, a
traced run prints exactly what an untraced run prints, and per-layer counts
repeat exactly between two traced runs at the same seed.

Run from the repository root (about two minutes; each workload runs once
untraced and twice traced):

    python3 -m pytest perfbench -q
"""

import functools
import shutil
import sys
import tempfile
import time
from pathlib import Path

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

COUNT_SUFFIXES = (".calls", ".madds", ".max_dim", ".models")


def _bindings():
    """(owner, name, value) for every attribute of every relcomp module and
    of every class those modules define."""
    for module in tracer.relcomp_modules():
        for key, value in vars(module).items():
            yield module, key, value
            if isinstance(value, type) and value.__module__.startswith("relcomp"):
                for attr, member in vars(value).items():
                    yield value, attr, member


def test_install_rebinds_every_site_and_uninstall_restores_them():
    import relcomp.cli
    import relcomp.engine

    before = {(id(owner), key): value for owner, key, value in _bindings()}
    t = tracer.Tracer()
    t.install()
    try:
        installed = list(_bindings())
        engine_rref = relcomp.engine.rref
    finally:
        t.uninstall()
    after = {(id(owner), key): value for owner, key, value in _bindings()}

    originals = list(t.originals.values())
    assert len(originals) == len(tracer.TARGETS)
    stale = [(getattr(owner, "__name__", owner), key)
             for owner, key, value in installed
             if any(value is f for f in originals)]
    assert stale == []
    # engine's own "from .gfp import rref" copy is a binding site too
    assert engine_rref.__wrapped__ is t.originals["gfp.rref"]
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_spans_nest_and_self_time_excludes_children():
    import relcomp.gfp as gfp

    t = tracer.Tracer()
    t.install()
    try:
        gfp.kernel_basis(gfp.PrimeMatrix([[1, 2, 3], [2, 4, 7]], 7))
    finally:
        t.uninstall()
    m = tracer.layer_metrics(t.spans)
    assert m["gfp.kernel_basis.calls"] == 1 and m["gfp.rref.calls"] == 1
    assert m["gfp.rref.max_dim"] == 3 and m["gfp.rref.madds"] == 2 * 2 * 3
    kb = m["gfp.kernel_basis.total_s"]
    assert m["gfp.kernel_basis.self_s"] == pytest.approx(kb - m["gfp.rref.total_s"])


@pytest.mark.parametrize("rows,cols,rank", [(1, 1, 1), (5, 3, 3), (4, 9, 4), (7, 7, 2)])
def test_rank_madds_closed_form(rows, cols, rank):
    want = sum((rows - 1 - k) * (cols - k) for k in range(rank))
    assert tracer._rank_madds(rows, cols, rank) == want


@functools.lru_cache(maxsize=None)
def _runs(name):
    """One untraced and two traced runs of a workload at the default seed."""
    (run.ROOT / run.RUN_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="test-", dir=run.ROOT / run.RUN_DIR))
    try:
        runner = run.Runner(run.ROOT, work, run.child_env(run.ROOT),
                            time.monotonic() + 600)
        return [runner.rep(name, workloads.DEFAULT_SEED, trace) for trace in (0, 1, 1)]
    finally:
        shutil.rmtree(work, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_changes_nothing(name):
    plain, traced, again = _runs(name)
    assert [r["problems"] for r in (plain, traced, again)] == [[], [], []]
    assert plain["digest"] == traced["digest"] == again["digest"]
    assert plain["digest"] == workloads.PINNED_SHA256[name]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(name):
    _, first, second = _runs(name)

    def counts(r):
        return {k: v for k, v in r["layers"].items() if k.endswith(COUNT_SUFFIXES)}

    assert counts(first) == counts(second)
    assert counts(first)["engine.QuotientBasis.models"] > 0

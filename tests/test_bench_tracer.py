"""The benchmark's span tracer (`perfbench/spans.py`) wraps library
functions by name; a renamed or deleted one would stop every traced run
with a KeyError.  The benchmark's self-check (`perfbench/selfcheck.py`)
runs a smoke pass of each workload and checks that its gate bites."""

import pathlib
import subprocess
import sys

import pytest

from bdspace import cli
from bdspace.certificates import Ledger

BENCH = pathlib.Path(__file__).parent.parent / "perfbench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    return spans


def test_tracer_installs_and_uninstalls_every_wrapper(spans):
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr, *_ in spans.WRAPS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr), fn in originals.items())
        assert cli.forge_odd_chain is not originals[
            (spans.spaces, "forge_odd_chain")]
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn
               for (owner, attr), fn in originals.items())
    assert cli.forge_odd_chain is originals[(spans.spaces, "forge_odd_chain")]


def test_traced_treelike_counts_every_forged_head(spans):
    """Each forged pair of the treelike suite forges an even target and
    an odd head, then two even targets; the two links are interned."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin()
        cli.suite_treelike(Ledger(), stage=3, forged_pairs=2)
        tracer.end()
    finally:
        tracer.uninstall()
    assert tracer.counts["spaces.elements_forged"] == 2 * 4


def test_traced_hiprobe_mtnorm_still_reports_its_layers(spans, tmp_path):
    """The probe reads point values through `Engine.numerators` and adds
    solved sums; a traced smoke pass still times `sup_norm_interval` and
    the analysis layer and counts the `evaluate` calls."""
    import worker
    import workloads
    inputs, units_fn = workloads.WORKLOADS["hiprobe-mtnorm"]
    units = units_fn(inputs(workloads.DEFAULT_SEED, smoke=True))
    tally = worker.Tally(units, workloads.DEFAULT_SEED, None)
    layer = worker.traced_pass(units, tally, str(tmp_path / "trace.jsonl"))
    assert tally.attempted > 0 and tally.failed == 0, tally.problems
    for name in ("norms.sup_norm_s", "engine.evaluate_calls",
                 "analysis.self_s"):
        assert layer[name][0] > 0, name


def test_benchmark_selfcheck_exits_0():
    """The smoke pass of both workloads checks clean, and wrong digests,
    a `violated` certificate and a wrong `mt_norm` value each count as
    failed."""
    run = subprocess.run([sys.executable, str(BENCH / "selfcheck.py")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr

"""The benchmark's span tracer (bench/spans.py) replaces package names
where their callers look them up. A renamed or bypassed name must fail
here, not only in a traced benchmark run."""

import io
import os

import pytest

from dppls import experiments
from dppls.experiments import ExperimentConfig

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans
    return spans.Tracer()


def test_tracer_sees_pooled_replicates_and_restores_names(tracer):
    """The unconditioned schemes draw by block; the conditioned scheme
    still draws each design through experiments.draw_design."""
    config = ExperimentConfig(basis_family="legendre",
                              schemes=("volume", "repeated-dpp-cond"),
                              m_values=(3,), n_values=(6,), replicates=8,
                              workers=2)
    try:
        tracer.install()
        patches = list(tracer._patches)
        experiments.error_table(config, out=io.StringIO())
    finally:
        tracer.uninstall()
    assert patches
    assert all(getattr(owner, attr) is old for owner, attr, old in patches)
    # worker spans reach the parent only when the traced _run_chunk is the
    # function handed to the pool
    names = {span[2] for span in tracer.spans}
    assert {"experiments._run_chunk", "samplers.replicate_stream",
            "samplers.draw_design", "lsq.weighted_lsq_fit",
            "cli.write_csv"} <= names
    assert tracer.counts[("warm", "experiments.pools_started")] == 1


def test_tracer_sees_every_conjecture_design(tracer):
    """The stacked tail-comparison jobs still draw each design through
    experiments.draw_design, where the traced run captures it: two per
    replicate, from pooled workers too."""
    try:
        tracer.install()
        experiments.conjecture_check(4, (2.0,), 1000, 5, workers=2,
                                     out=io.StringIO())
    finally:
        tracer.uninstall()
    names = [span[2] for span in tracer.spans]
    assert names.count("samplers.draw_design") == 2 * 1000

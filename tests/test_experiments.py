"""Experiment drivers: stability maps, error tables and histograms, the
spectral-tail comparison, design dumps, and their CSV output."""

import csv
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import ks_2samp

from dppls import experiments, samplers
from dppls.bases import LegendreBasis, make_basis
from dppls.errors import (SamplerFailureError, UnderdeterminedDesignError,
                          ValidationError)
from dppls.experiments import (BLOWUP_CAP, ExperimentConfig, conjecture_check,
                               dump_design, error_histogram, error_table,
                               format_point, minimal_stable_n, stability_map,
                               write_csv)
from dppls.lsq import empirical_gram
from dppls.samplers import draw_design, replicate_stream


def _parse(path_or_text):
    if os.path.exists(str(path_or_text)):
        with open(path_or_text, newline="") as fh:
            rows = list(csv.reader(fh))
    else:
        rows = list(csv.reader(io.StringIO(path_or_text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# configuration

def test_config_defaults():
    c = ExperimentConfig()
    assert c.m_values == (10, 20, 30, 40, 50)
    assert c.n_for(4) == (8, 20, 40)


def test_config_n_values_used_verbatim():
    c = ExperimentConfig(m_values=(3,), n_values=(7, 9))
    assert c.n_for(3) == (7, 9)


def test_config_multipliers_round():
    c = ExperimentConfig(m_values=(3,), n_multipliers=(1.5,))
    assert c.n_for(3) == (4,)


def test_config_rejects_n_below_m():
    c = ExperimentConfig(m_values=(5,), n_values=(4,))
    with pytest.raises(ValidationError):
        c.n_for(5)


def test_config_canonicalizes_scheme_alias():
    c = ExperimentConfig(schemes=("volume-rescaled",))
    assert c.schemes == ("volume",)


@pytest.mark.parametrize("kwargs", [
    dict(basis_family="fourier"),
    dict(schemes=("bogus",)),
    dict(schemes=()),
    dict(m_values=()),
    dict(m_values=(0,)),
    dict(n_values=(20,), n_multipliers=(2,)),
    dict(replicates=0),
    dict(alpha=0.0),
    dict(alpha=1.5),
    dict(delta=0.0),
    dict(delta=1.0),
    dict(target_id="bogus"),
    dict(workers=0),
])
def test_config_validation(kwargs):
    with pytest.raises(ValidationError):
        ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# replicate runner

def _shifted_draws(shift, gen):
    return shift + gen.random(), int(gen.integers(1 << 30))


def _shifted_block(shift, gens):
    """Per stream its draws, and the size of the block it came in."""
    return [(*_shifted_draws(shift, gen), len(gens)) for gen in gens]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_replicate_runner_matches_plain_loop(monkeypatch, workers):
    """Per job, the runner returns one record per replicate in order, each
    made from its own stream. 23 replicates split into uneven chunks and
    blocks of at most BLOCK = 4 streams, and the chunks of two jobs must
    be regrouped without crossing."""
    monkeypatch.setattr(experiments, "BLOCK", 4)
    jobs = [(_shifted_block, (0.0,), (4, 8, 1)), (_shifted_block, (10.0,), (5,))]
    want = [[_shifted_draws(*args, replicate_stream(17, r, *key))
             for r in range(23)] for (_, args, key) in jobs]
    with experiments._worker_pool(workers) as pool:
        got = experiments._run_replicates(jobs, 23, 17, workers, pool)
    assert [[rec[:2] for rec in recs] for recs in got] == want
    sizes = [rec[2] for recs in got for rec in recs]
    assert max(sizes) == 4 and min(sizes) >= 1


def _per_design_lambda_mins(family, m, seed, size):
    basis = make_basis(family, m)
    out = []
    for r in range(size):
        gen = replicate_stream(seed, r)
        out.append(tuple(
            empirical_gram(draw_design(s, basis, m, gen), basis).lambda_min
            for s in ("repeated-dpp", "iid-christoffel")))
    return out


@pytest.mark.parametrize("family, m, size", [
    ("legendre", 5, 1), ("legendre", 5, 7), ("legendre", 5, 256),
    ("hermite", 12, 7), ("pwc", 4, 7)])
def test_block_lambda_min_is_empirical_gram_bit_for_bit(family, m, size):
    """One stacked eigvalsh over a block's Grams gives each design's
    lambda_min exactly as `empirical_gram` does on its own."""
    config = ExperimentConfig(basis_family=family, m_values=(m,),
                              n_values=(m,), replicates=size)
    streams = [replicate_stream(19, r) for r in range(size)]
    got = experiments._conjecture_block(config, m, streams)
    assert got == _per_design_lambda_mins(family, m, 19, size)


def _stability_want(scheme, seed, total):
    """Per stream the threshold test lambda_min >= 0.2 on its own design
    (Legendre m = 4, n = 8)."""
    basis = make_basis("legendre", 4)
    return [("ok", float(empirical_gram(
                draw_design(scheme, basis, 8, replicate_stream(seed, r)),
                basis).lambda_min >= 0.2)) for r in range(total)]


def _stability_config(scheme, replicates):
    return ExperimentConfig(basis_family="legendre", schemes=(scheme,),
                            m_values=(4,), n_values=(8,), delta=0.8,
                            replicates=replicates)


@pytest.mark.parametrize("scheme", experiments.STABILITY_SCHEMES)
def test_stability_block_hits_follow_empirical_gram(monkeypatch, scheme):
    """Legendre m = 4, n = 8, delta chosen so the block mixes hits and
    misses; each record is the threshold test on its own design, and
    every fifth draw fails without disturbing the others. The failures
    are injected where the block draws a stream's numbers."""
    config = _stability_config(scheme, 40)
    want = [("failed", 0.0) if r % 5 == 2 else rec
            for r, rec in enumerate(_stability_want(scheme, 21, 40))]
    assert set(want) == {("failed", 0.0), ("ok", 0.0), ("ok", 1.0)}

    numbers = samplers._Layout.numbers

    def failing_every_fifth(*args, **kwargs):
        failing_every_fifth.calls += 1
        if failing_every_fifth.calls % 5 == 3:
            raise SamplerFailureError("injected")
        return numbers(*args, **kwargs)

    failing_every_fifth.calls = 0
    monkeypatch.setattr(samplers._Layout, "numbers", failing_every_fifth)
    got = experiments._stability_block(
        config, 4, 8, scheme, [replicate_stream(21, r) for r in range(40)])
    assert got == want


@pytest.mark.parametrize("scheme", experiments.STABILITY_SCHEMES)
def test_stability_block_records_do_not_depend_on_element_budget(
        monkeypatch, scheme):
    """A block drawn one stream at a time, or three at a time with a
    remainder, gives the records of one stacked draw; a stream whose
    features are not finite fails alone."""
    config = _stability_config(scheme, 10)
    want = _stability_want(scheme, 22, 10)
    want[4] = ("failed", 0.0)
    streams = {}
    draw_designs = experiments.draw_designs

    def non_finite_fifth(*args, **kwargs):
        points, weights, phi = draw_designs(*args, **kwargs)
        for i, gen in enumerate(args[3]):
            if streams[id(gen)] == 4:
                phi[i, 3, 1] = np.inf
        return points, weights, phi

    monkeypatch.setattr(experiments, "draw_designs", non_finite_fifth)
    for budget in (1, 3 * 8 * 4, experiments.BLOCK_ELEMENTS):
        monkeypatch.setattr(experiments, "BLOCK_ELEMENTS", budget)
        gens = [replicate_stream(22, r) for r in range(10)]
        streams.update((id(gen), r) for r, gen in enumerate(gens))
        got = experiments._stability_block(config, 4, 8, scheme, gens)
        assert got == want, budget


class _SeqLegendre(LegendreBasis):
    """Legendre features under another type: the sequential DPP sampler."""


ERROR_BLOCK_SCHEMES = [("iid-mu", 1.0), ("iid-christoffel", 1.0),
                       ("volume", 1.0), ("volume", 0.5), ("repeated-dpp", 1.0),
                       ("repeated-dpp-cond", 1.0)]


def _error_config(family, scheme, alpha=1.0):
    """m = 4, n = 9: repeated designs cut their last draw short."""
    return ExperimentConfig(basis_family=family, schemes=(scheme,),
                            m_values=(4,), n_values=(9,), alpha=alpha,
                            replicates=10)


def _lstsq_records(config, scheme, seed, total, failing=()):
    """Per stream, the record of its own design fitted by np.linalg.lstsq,
    an independent route to the stacked QR of `_error_block`; streams in
    `failing` read as failed draws."""
    basis = experiments._get_basis(config.basis_family, 4)
    ev = experiments._get_evaluator(config.basis_family, 4, config.target_id)
    records = []
    for r in range(total):
        if r in failing:
            records.append(("failed", math.nan))
            continue
        d = draw_design(scheme, basis, 9, replicate_stream(seed, r),
                        alpha=config.alpha, delta=config.delta,
                        max_attempts=experiments.MAX_ATTEMPTS)
        scale = 1.0 / np.sqrt(9 * d.weights)
        coef, _, _, sigma = np.linalg.lstsq(
            d.features * scale[:, None], ev.f_values(d.points) * scale,
            rcond=None)
        if sigma[-1] ** 2 <= 1e-12:
            records.append(("capped", BLOWUP_CAP))
            continue
        dist = ev.best_coefficients - coef
        records.append(
            ("ok", math.sqrt(ev.best_error ** 2 + dist @ dist) / ev.f_norm))
    return records


def _assert_records_match_lstsq(got, want):
    """The same status per stream, and relative errors within 1e-12."""
    assert [status for status, _ in got] == [status for status, _ in want]
    for (status, err), (_, ref) in zip(got, want):
        if status == "failed":
            assert math.isnan(err)
        else:
            assert abs(err - ref) <= 1e-12 * ref, (err, ref)


def _blocks(config, scheme, seed, total, size):
    """`_error_block` over streams 0..total-1 in blocks of `size`."""
    gens = [replicate_stream(seed, r) for r in range(total)]
    return [rec for a in range(0, total, size) for rec in
            experiments._error_block(config, 4, 9, scheme, gens[a:a + size])]


@pytest.mark.parametrize("family", ["hermite", "legendre", "pwc", "sequential"])
@pytest.mark.parametrize("scheme, alpha", ERROR_BLOCK_SCHEMES)
def test_error_block_records_are_per_stream_replicates(monkeypatch, family,
                                                       scheme, alpha):
    """Blocks of 1, 7 and 256 streams give the same records bit for bit,
    and each stream's record is its own design's least-squares fit;
    "sequential" is a LegendreBasis subclass, drawn by the sequential DPP
    sampler."""
    if family == "sequential":
        family = "legendre"
        monkeypatch.setattr(experiments, "_basis_cache",
                            {("legendre", 4): _SeqLegendre(4)})
        monkeypatch.setattr(experiments, "_evaluator_cache", {})
    config = _error_config(family, scheme, alpha)
    got = _blocks(config, scheme, 24, 256, 256)
    assert {status for status, _ in got} <= {"ok", "capped"}
    _assert_records_match_lstsq(got, _lstsq_records(config, scheme, 24, 256))
    for size in (1, 7):
        assert _blocks(config, scheme, 24, 256, size) == got, size


@pytest.mark.parametrize("scheme, alpha", ERROR_BLOCK_SCHEMES)
def test_error_block_records_do_not_depend_on_element_budget(
        monkeypatch, scheme, alpha):
    """A block drawn one stream at a time, or three at a time with a
    remainder, gives the records of one stacked draw bit for bit."""
    config = _error_config("legendre", scheme, alpha)
    records = []
    for budget in (1, 3 * 9 * 4, experiments.BLOCK_ELEMENTS):
        monkeypatch.setattr(experiments, "BLOCK_ELEMENTS", budget)
        records.append(_blocks(config, scheme, 25, 10, 10))
    assert records[0] == records[1] == records[2]
    _assert_records_match_lstsq(records[0],
                                _lstsq_records(config, scheme, 25, 10))


@pytest.mark.parametrize("scheme, alpha", ERROR_BLOCK_SCHEMES)
def test_error_block_failing_streams_leave_the_others(monkeypatch, scheme,
                                                      alpha):
    """Every fifth stream's draw fails where the sampler takes its numbers:
    its NaN rows read "failed", and its neighbours keep their records bit
    for bit."""
    config = _error_config("legendre", scheme, alpha)
    intact = _blocks(config, scheme, 26, 40, 40)
    failing = {r for r in range(40) if r % 5 == 2}
    want = _lstsq_records(config, scheme, 26, 40, failing)
    gens = [replicate_stream(26, r) for r in range(40)]
    streams = {id(gen): r for r, gen in enumerate(gens)}
    numbers = samplers._Layout.numbers

    def failing_every_fifth(self, basis, gen):
        if streams[id(gen)] in failing:
            raise SamplerFailureError("injected")
        return numbers(self, basis, gen)

    monkeypatch.setattr(samplers._Layout, "numbers", failing_every_fifth)
    got = experiments._error_block(config, 4, 9, scheme, gens)
    assert got == [("failed", math.nan) if r in failing else rec
                   for r, rec in enumerate(intact)]
    _assert_records_match_lstsq(got, want)


def test_error_block_caps_pwc_designs_with_an_empty_cell():
    """Unweighted pwc draws at n = m leave a cell empty in most designs:
    exactly those fits are singular and read ("capped", 1e15)."""
    config = ExperimentConfig(basis_family="pwc", schemes=("iid-mu",),
                              m_values=(4,), n_values=(4,), replicates=10)
    basis = make_basis("pwc", 4)
    got = experiments._error_block(
        config, 4, 4, "iid-mu", [replicate_stream(27, r) for r in range(30)])
    empty = [len(set(basis.cell_index(draw_design(
                 "iid-mu", basis, 4, replicate_stream(27, r)).points))) < 4
             for r in range(30)]
    assert 0 < sum(empty) < 30
    assert [status for status, _ in got] == ["capped" if hole else "ok"
                                             for hole in empty]
    assert all(err == BLOWUP_CAP for status, err in got if status == "capped")


# ---------------------------------------------------------------------------
# stability map

def test_stability_map_pwc_repeated_dpp_always_stable(tmp_path):
    out = tmp_path / "map.csv"
    config = ExperimentConfig(basis_family="pwc", schemes=("repeated-dpp",),
                              m_values=(4,), n_values=(8,), replicates=50)
    stability_map(config, out=out)
    header, rows = _parse(out)
    assert header == ["m", "n", "scheme", "p_hat", "replicates", "seed",
                      "failures"]
    assert rows == [["4", "8", "repeated-dpp", "1.0", "50", "0", "0"]]


def test_stability_map_rejects_conditioned_scheme():
    config = ExperimentConfig(schemes=("repeated-dpp-cond",), m_values=(4,),
                              n_values=(8,), replicates=5, basis_family="pwc")
    with pytest.raises(ValidationError):
        stability_map(config, out=io.StringIO())


def test_stability_map_unweighted_gaussian_unstable_at_n_equal_m():
    config = ExperimentConfig(basis_family="hermite", schemes=("iid-mu",),
                              m_values=(12,), n_values=(12,), replicates=100)
    _, rows = stability_map(config, out=io.StringIO())
    assert float(rows[0][3]) <= 0.02


def test_stability_map_worker_count_invariant():
    kwargs = dict(basis_family="legendre", schemes=("iid-christoffel", "volume"),
                  m_values=(3,), n_values=(6, 9), replicates=40, seed=5)
    solo = stability_map(ExperimentConfig(workers=1, **kwargs), io.StringIO())
    pooled = stability_map(ExperimentConfig(workers=3, **kwargs), io.StringIO())
    assert solo == pooled


def test_stability_map_stdout_default(capsys):
    config = ExperimentConfig(basis_family="pwc", schemes=("repeated-dpp",),
                              m_values=(2,), n_values=(2,), replicates=3)
    stability_map(config)
    assert capsys.readouterr().out.startswith("m,n,scheme,p_hat")


# ---------------------------------------------------------------------------
# error table and histogram

def test_error_table_layout_and_determinism(tmp_path):
    out = tmp_path / "table.csv"
    config = ExperimentConfig(basis_family="legendre", m_values=(3,),
                              n_values=(6,), replicates=30, workers=2)
    header, rows = error_table(config, out=out)
    assert header[:3] == ["m", "n", "best"]
    for s in config.schemes:
        for suffix in ("rms", "q95", "capped", "failures"):
            assert f"{s}_{suffix}" in header
    assert header[-2:] == ["replicates", "seed"]
    again_header, again_rows = error_table(config, out=io.StringIO())
    assert (header, rows) == (again_header, again_rows)
    file_header, file_rows = _parse(out)
    assert file_header == header
    assert len(file_rows) == 1


def test_error_table_worker_count_invariant():
    kwargs = dict(basis_family="legendre", m_values=(3,), n_values=(7,),
                  schemes=("volume", "repeated-dpp"), replicates=25, seed=3)
    solo = error_table(ExperimentConfig(workers=1, **kwargs), io.StringIO())
    pooled = error_table(ExperimentConfig(workers=3, **kwargs), io.StringIO())
    assert solo == pooled


def test_error_table_best_column_ignores_seed():
    kwargs = dict(basis_family="legendre", m_values=(4,), n_values=(8,),
                  schemes=("volume",), replicates=5)
    a = error_table(ExperimentConfig(seed=0, **kwargs), io.StringIO())[1]
    b = error_table(ExperimentConfig(seed=99, **kwargs), io.StringIO())[1]
    assert a[0][2] == b[0][2] > 0.0


def test_capped_replicates_agree_between_table_and_histogram():
    """Unweighted uniform draws on the piecewise basis at n = m are
    singular whenever a cell stays empty; the table's capped count, RMS
    and q95 must match a recomputation from the per-replicate rows."""
    kwargs = dict(basis_family="pwc", m_values=(4,), n_values=(4,),
                  schemes=("iid-mu",), replicates=100, workers=2)
    _, trows = error_table(ExperimentConfig(**kwargs), io.StringIO())
    _, hrows = error_histogram(ExperimentConfig(**kwargs), io.StringIO())
    assert len(hrows) == 100
    capped = [r for r in hrows if r[4] == "capped"]
    assert 50 < len(capped) < 100
    assert all(r[5] == BLOWUP_CAP for r in capped)
    assert int(trows[0][5]) == len(capped)
    errs = np.array([r[5] for r in hrows if r[4] in ("ok", "capped")])
    assert trows[0][3] == pytest.approx(
        math.sqrt(float(np.mean(errs ** 2))), rel=1e-12)
    assert trows[0][4] == pytest.approx(
        float(np.quantile(errs, 0.95, method="linear")), rel=1e-12)


def test_quantile95_is_numpy_linear_quantile_bit_for_bit():
    """The error table's q95 equals np.quantile(..., method="linear") to
    the bit: n = 1 and 2, ties, BLOWUP_CAP entries, and random arrays."""
    rng = np.random.default_rng(95)
    cases = [[0.3], [0.2, 0.1], [0.1, BLOWUP_CAP], [BLOWUP_CAP] * 3,
             [2.0] * 20, [0.5, 0.5, 0.25, 0.5], [1e-300, 1e300]]
    for _ in range(2000):
        x = rng.lognormal(0.0, 3.0, int(rng.integers(1, 120)))
        x[rng.random(x.size) < 0.2] = BLOWUP_CAP
        cases += [x, np.round(x, 1)]
    for x in cases:
        q = np.quantile(np.asarray(x, dtype=float), 0.95, method="linear")
        assert np.float64(experiments._quantile95(list(x))).tobytes() \
            == q.tobytes(), x


def test_unreachable_conditioning_reported_as_failures(monkeypatch):
    monkeypatch.setattr(experiments, "MAX_ATTEMPTS", 2)
    config = ExperimentConfig(basis_family="legendre", m_values=(3,),
                              n_values=(3,), schemes=("repeated-dpp-cond",),
                              replicates=10, delta=0.001)
    _, trows = error_table(config, out=io.StringIO())
    assert int(trows[0][6]) == 10
    assert math.isnan(trows[0][3]) and math.isnan(trows[0][4])
    _, hrows = error_histogram(config, out=io.StringIO())
    assert all(r[4] == "failed" and r[5] == "" and r[6] == "" for r in hrows)


def test_error_histogram_rows_and_log_column(tmp_path):
    out = tmp_path / "hist.csv"
    config = ExperimentConfig(basis_family="legendre", m_values=(3,),
                              n_values=(6,), schemes=("volume",),
                              replicates=20)
    error_histogram(config, out=out)
    header, rows = _parse(out)
    assert header == ["m", "n", "scheme", "replicate", "status",
                      "rel_error", "log_rel_error"]
    assert [r[3] for r in rows] == [str(i) for i in range(20)]
    for r in rows:
        assert r[4] == "ok"
        assert float(r[6]) == pytest.approx(math.log(float(r[5])), abs=1e-12)


@pytest.fixture(scope="module")
def gaussian_histogram_rows():
    """Per-replicate errors for the Gaussian target at n = 2m and n = 10m,
    shared by the distribution-shape tests. The quadrature cap is lifted
    for the worker evaluators, which need order ~2000 to certify."""
    os.environ["DPPLS_MAX_QUAD_ORDER"] = "2048"
    try:
        config = ExperimentConfig(
            basis_family="hermite", m_values=(10,), n_values=(20, 100),
            schemes=("iid-christoffel", "volume", "repeated-dpp"),
            replicates=1000, seed=11, workers=8)
        _, rows = error_histogram(config, out=io.StringIO())
    finally:
        del os.environ["DPPLS_MAX_QUAD_ORDER"]
    return rows


def _log_errors(rows, n, scheme):
    picked = [r[6] for r in rows if r[1] == n and r[2] == scheme and r[4] == "ok"]
    assert len(picked) == 1000
    return np.array(picked, dtype=float)


def test_histograms_overlap_at_generous_sample_size(gaussian_histogram_rows):
    """At n = 10m the weighted schemes produce nearly the same log-error
    distribution."""
    iid = _log_errors(gaussian_histogram_rows, 100, "iid-christoffel")
    dpp = _log_errors(gaussian_histogram_rows, 100, "repeated-dpp")
    assert ks_2samp(iid, dpp).statistic < 0.15


def test_projection_blocks_beat_volume_at_tight_sample_size(gaussian_histogram_rows):
    dpp = _log_errors(gaussian_histogram_rows, 20, "repeated-dpp")
    vol = _log_errors(gaussian_histogram_rows, 20, "volume")
    assert np.median(dpp) < np.median(vol)


# ---------------------------------------------------------------------------
# spectral-tail comparison

def test_conjecture_check_validations():
    with pytest.raises(ValidationError):
        conjecture_check(13, (2.0,), 1000, 0)
    with pytest.raises(ValidationError):
        conjecture_check(4, (2.0,), 999, 0)
    with pytest.raises(ValidationError):
        conjecture_check(4, (), 1000, 0)
    with pytest.raises(ValidationError):
        conjecture_check(4, (2.0, -1.0), 1000, 0)


def test_conjecture_check_worker_count_invariant():
    """1000 replicates: one chunk of four blocks at one worker, three
    chunks that each end in a partial block at three."""
    rows = [conjecture_check(5, (1.25, 2.0, 4.0), 1000, 23, workers=w,
                             out=io.StringIO())[1] for w in (1, 3)]
    assert rows[0] == rows[1]


def test_conjecture_check_pwc_trivially_consistent(tmp_path):
    out = tmp_path / "tails.csv"
    header, rows = conjecture_check(4, (1.25, 2.0, 4.0), 1000, 0,
                                    basis_family="pwc", workers=4, out=out)
    assert header == ["m", "t", "dpp_tail", "dpp_half_width", "iid_tail",
                      "iid_half_width", "verdict", "replicates", "seed"]
    assert len(rows) == 3
    for r in rows:
        assert r[6] == "CONSISTENT"
        assert r[2] == 0.0  # every projection draw hits all cells exactly


# ---------------------------------------------------------------------------
# design dumps

def test_dump_design_pwc_covers_cells(tmp_path):
    out = tmp_path / "design.csv"
    header, rows = dump_design("repeated-dpp", "pwc", 4, 4, seed=7, out=out)
    assert header == ["index", "x", "w"]
    assert [r[0] for r in rows] == [0, 1, 2, 3]
    cells = sorted(int(4.0 * float(r[1])) for r in rows)
    assert cells == [0, 1, 2, 3]
    assert all(float(r[2]) == 1.0 for r in rows)


def test_dump_design_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    dump_design("volume", "legendre", 3, 7, seed=12, out=a)
    dump_design("volume", "legendre", 3, 7, seed=12, out=b)
    assert a.read_bytes() == b.read_bytes()
    other = io.StringIO()
    dump_design("volume", "legendre", 3, 7, seed=13, out=other)
    assert other.getvalue().encode() != a.read_bytes()


def test_dump_design_round_trips_float64():
    from dppls.bases import make_basis
    from dppls.samplers import draw_design
    _, rows = dump_design("iid-christoffel", "legendre", 3, 5, seed=4,
                          out=io.StringIO())
    design = draw_design("iid-christoffel", make_basis("legendre", 3), 5, 4)
    for row, x, w in zip(rows, design.points, design.weights):
        assert float(row[1]) == x
        assert float(row[2]) == w


def test_format_point_is_17_significant_digits():
    x = 1.0 / 3.0
    assert format_point(x) == format(x, ".17g")
    assert float(format_point(x)) == x


def test_dump_design_underdetermined_volume():
    with pytest.raises(UnderdeterminedDesignError):
        dump_design("volume", "legendre", 5, 3, seed=0, out=io.StringIO())


# ---------------------------------------------------------------------------
# minimal stable n

def test_minimal_stable_n_pwc_projection_blocks():
    got = minimal_stable_n("pwc", "repeated-dpp", 4, 0.75, replicates=30,
                           seed=0, n_max=10)
    assert got == 4


def test_minimal_stable_n_exhausts_to_none():
    got = minimal_stable_n("hermite", "iid-mu", 8, 0.75, replicates=50,
                           seed=0, n_max=8)
    assert got is None


def test_minimal_stable_n_takes_the_volume_alias():
    """'volume-rescaled' walks the same cells as 'volume'."""
    args = ("legendre", 3, 0.75, 10, 0, 12)
    got = minimal_stable_n(args[0], "volume-rescaled", *args[1:])
    assert got is not None
    assert got == minimal_stable_n(args[0], "volume", *args[1:])


def test_minimal_stable_n_rejects_conditioned_scheme():
    """A conditioned design meets the event by construction, so, as in
    stability_map, the scheme has no stable n to search for."""
    with pytest.raises(ValidationError):
        minimal_stable_n("legendre", "repeated-dpp-cond", 3, 0.75, 10, 0, 12)


def test_minimal_stable_n_worker_count_invariant():
    got = [minimal_stable_n("legendre", "iid-christoffel", 3, 0.75,
                            replicates=30, seed=0, n_max=30, workers=w)
           for w in (1, 2, 3)]
    assert got[0] is not None and got[0] > 3
    assert got == [got[0]] * 3


def test_minimal_stable_n_opens_one_capped_pool(monkeypatch):
    sizes, maps = [], []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

        def map(self, fn, tasks, **kwargs):
            tasks = list(tasks)
            maps.append(len(tasks))
            return super().map(fn, tasks, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    # n* = 5 lies in the first window, n = 3..10: one round trip, one
    # task per chunk range
    got = minimal_stable_n("legendre", "iid-christoffel", 3, 0.75,
                           replicates=30, seed=0, n_max=30, workers=8)
    assert got == 5
    assert sizes == [min(8, len(os.sched_getaffinity(0)))]
    assert maps == [len(experiments._chunk_ranges(30, 8))]


def _reference_walk(family, scheme, m, delta, replicates, seed, n_max):
    """n* from a plain walk over stability_map's p_hat at n = m..n_max."""
    config = ExperimentConfig(basis_family=family, schemes=(scheme,),
                              m_values=(m,), n_values=range(m, n_max + 1),
                              replicates=replicates, seed=seed, delta=delta)
    _, rows = stability_map(config, out=io.StringIO())
    return next((n for (_, n, _, p_hat, *_) in rows if p_hat >= 0.5), None)


@pytest.mark.parametrize("delta, seed, n_max, position", [
    (0.75, 0, 20, 0),                      # n* = 11 opens the second window
    (0.75, 1, 20, 4),                      # n* = 7, with a later hit at 9
    (0.5, 2, 30, experiments.WINDOW - 1),  # n* = 18 closes the second window
    (0.5, 0, 19, None),                    # n* = 20: the last window clipped
])
@pytest.mark.parametrize("workers", [1, 2])
def test_minimal_stable_n_matches_reference_walk(delta, seed, n_max,
                                                 position, workers):
    """The windowed walk returns the first n whose stability_map p_hat
    reaches 1/2, wherever it falls in its window (its offset from m
    modulo WINDOW is `position`), and None past n_max."""
    args = ("hermite", "iid-mu", 3, delta, 20, seed, n_max)
    want = _reference_walk(*args)
    if position is None:
        assert want is None and (n_max - 3 + 1) % experiments.WINDOW != 0
    else:
        assert (want - 3) % experiments.WINDOW == position
    assert minimal_stable_n(*args, workers=workers) == want


_FORK_PROBE = """
import sys
import dppls
from dppls import experiments
assert "numpy.random" not in sys.modules

def loaded():
    return "numpy.random" in sys.modules

with experiments._worker_pool(2) as pool:
    assert pool.submit(loaded).result(timeout=60)
"""


def test_pool_workers_fork_with_numpy_random():
    """A pool's workers inherit numpy.random from the parent, which
    imports it only when it opens the pool."""
    proc = subprocess.run([sys.executable, "-c", _FORK_PROBE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# CSV writer

def test_write_csv_to_stream_and_stdout(capsys):
    buf = io.StringIO()
    payload = write_csv(buf, ["a", "b"], [[1, 0.5]])
    assert buf.getvalue() == "a,b\n1,0.5\n" == payload
    write_csv(None, ["a"], [[2]])
    assert capsys.readouterr().out == "a\n2\n"

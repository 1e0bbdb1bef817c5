"""Command line interface: subcommands, flags, exit codes, CSV output."""

import csv
import os
import subprocess
import sys

import pytest

from dppls import cli


def run(argv):
    return cli.main(argv)


def rows_of(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# happy paths

def test_stability_map_subcommand(tmp_path):
    out = tmp_path / "map.csv"
    code = run(["stability-map", "--basis", "pwc", "--scheme", "repeated-dpp",
                "--m", "4", "--n", "8", "--replicates", "20",
                "--out", str(out)])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["m", "n", "scheme", "p_hat", "replicates", "seed",
                      "failures"]
    assert rows[0][3] == "1.0"


def test_error_table_subcommand(tmp_path):
    out = tmp_path / "table.csv"
    code = run(["error-table", "--basis", "legendre", "--scheme", "volume",
                "--m", "3", "--n", "6", "--replicates", "20",
                "--out", str(out)])
    assert code == 0
    header, rows = rows_of(out)
    assert header[:3] == ["m", "n", "best"]
    assert "volume_rms" in header and "volume_q95" in header
    assert len(rows) == 1


def test_error_hist_subcommand(tmp_path):
    out = tmp_path / "hist.csv"
    code = run(["error-hist", "--basis", "legendre", "--scheme",
                "repeated-dpp", "--m", "3", "--n", "6",
                "--replicates", "15", "--out", str(out)])
    assert code == 0
    header, rows = rows_of(out)
    assert header[0] == "m" and header[5] == "rel_error"
    assert len(rows) == 15


def test_conjecture_check_subcommand(tmp_path):
    out = tmp_path / "tails.csv"
    code = run(["conjecture-check", "--basis", "pwc", "--m", "4",
                "--t", "2", "4", "--replicates", "1000", "--workers", "4",
                "--out", str(out)])
    assert code == 0
    _, rows = rows_of(out)
    assert [r[6] for r in rows] == ["CONSISTENT", "CONSISTENT"]


def test_dump_design_subcommand(tmp_path):
    out = tmp_path / "design.csv"
    code = run(["dump-design", "--scheme", "volume", "--basis", "legendre",
                "--m", "3", "--n", "7", "--seed", "3", "--out", str(out)])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["index", "x", "w"]
    assert len(rows) == 7


@pytest.mark.parametrize("alpha", ["0", "1.5"])
def test_dump_design_volume_rejects_alpha_outside_unit_interval(alpha, capsys):
    code = run(["dump-design", "--scheme", "volume", "--basis", "legendre",
                "--m", "3", "--n", "7", "--alpha", alpha])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_bounds_subcommand(tmp_path):
    out = tmp_path / "bounds.csv"
    code = run(["bounds", "--m", "20", "--out", str(out)])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["quantity", "value", "note"]
    table = {r[0]: (r[1], r[2]) for r in rows}
    assert table["iid_sample_size"] == ("183", "")
    assert table["volume_sample_size"] == ("203", "")
    assert table["repeated_dpp_sample_size"] == ("183", "conjecture-dependent")


def test_bounds_failure_rows_and_k(tmp_path):
    out = tmp_path / "bounds.csv"
    code = run(["bounds", "--m", "4", "--n", "8", "--delta", "0.75",
                "--xi-m", "1.0", "--r", "2", "--basis", "legendre",
                "--out", str(out)])
    assert code == 0
    _, rows = rows_of(out)
    table = {r[0]: (r[1], r[2]) for r in rows}
    assert float(table["iid_failure_bound"][0]) > 0.0
    assert table["repeated-dpp_failure_bound"][1] == "conjecture-dependent"
    assert float(table["beta"][0]) == 1.0
    assert float(table["mixed_design_threshold"][0]) == pytest.approx(0.25)
    assert table["mixed_design_failure_bound"][1] == "conjecture-dependent"
    assert float(table["k_grid_lower_bound"][0]) == pytest.approx(4.0, abs=1e-9)


def test_stdout_when_out_omitted(capsys):
    code = run(["dump-design", "--scheme", "repeated-dpp", "--basis", "pwc",
                "--m", "2", "--n", "2"])
    assert code == 0
    assert capsys.readouterr().out.startswith("index,x,w\n")


def test_volume_rescaled_alias(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["dump-design", "--scheme", "volume", "--basis", "legendre",
                "--m", "3", "--n", "6", "--seed", "9", "--out", str(a)]) == 0
    assert run(["dump-design", "--scheme", "volume-rescaled", "--basis",
                "legendre", "--m", "3", "--n", "6", "--seed", "9",
                "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_worker_flag_does_not_change_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["stability-map", "--basis", "legendre", "--scheme", "volume",
            "--m", "3", "--n", "6", "--replicates", "30", "--seed", "2"]
    assert run(base + ["--workers", "1", "--out", str(a)]) == 0
    assert run(base + ["--workers", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "dppls.cli", "bounds",
                           "--m", "5"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("quantity,value,note")


_SCIPY_PROBE = """
import io, sys
import dppls
# numpy.random costs 6 MB of RSS; it loads on the first draw, not on import
assert "numpy.random" not in sys.modules
from dppls import cli
from dppls.bases import HermiteBasis, PiecewiseConstantBasis
from dppls.experiments import TARGETS
from dppls.lsq import ErrorEvaluator

def loaded(name):
    return sorted(k for k in sys.modules
                  if k == name or k.startswith(name + "."))

assert not loaded("scipy"), loaded("scipy")
for scheme in ("repeated-dpp", "iid-christoffel"):
    sys.stdout = io.StringIO()
    code = cli.main(["dump-design", "--basis", "legendre", "--m", "5",
                     "--n", "5", "--scheme", scheme])
    sys.stdout = sys.__stdout__
    assert code == 0, scheme
    assert not loaded("scipy"), (scheme, loaded("scipy"))
# numpy.ma costs 10-15 ms of import; np.unique loads it on first use
assert "numpy.ma" not in sys.modules
# numpy.polynomial loads six modules; the grid rule is written out instead
assert not loaded("numpy.polynomial"), loaded("numpy.polynomial")
dppls.StandardGaussian().trapezoid_rule(0.5)
dppls.UniformInterval().gauss_quadrature(64)
assert not loaded("scipy"), loaded("scipy")
for m in (10, 20, 30, 40, 50):
    ErrorEvaluator(TARGETS["inv-quad"].evaluator, HermiteBasis(m))
assert not loaded("scipy"), loaded("scipy")
# the pwc evaluator takes its per-cell rule from the package's own
# Gauss-Legendre, not numpy.polynomial's
ErrorEvaluator(TARGETS["inv-quad"].evaluator, PiecewiseConstantBasis(8))
assert not loaded("numpy.polynomial"), loaded("numpy.polynomial")
# the error table's quantile is np.quantile's without its numpy.ma import
sys.stdout = io.StringIO()
code = cli.main(["error-table", "--basis", "hermite", "--m", "10", "--n", "20",
                 "--scheme", "iid-mu", "--replicates", "20", "--workers", "1"])
sys.stdout = sys.__stdout__
assert code == 0
assert "numpy.ma" not in sys.modules
assert not loaded("scipy"), loaded("scipy")
"""


def test_import_does_not_load_scipy():
    """The samplers run on numpy alone, without numpy.ma or
    numpy.polynomial; the quadrature rules and the error evaluators load no
    scipy or numpy.polynomial, and an error-table cell no numpy.ma."""
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE],
                          capture_output=True, text=True,
                          env=dict(os.environ, DPPLS_MAX_QUAD_ORDER="2048"))
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# exit codes

def test_n_and_n_mult_are_mutually_exclusive():
    with pytest.raises(SystemExit) as info:
        run(["stability-map", "--m", "4", "--n", "8", "--n-mult", "2"])
    assert info.value.code == 2


def test_stability_map_rejects_conditioned_scheme_flag():
    with pytest.raises(SystemExit) as info:
        run(["stability-map", "--scheme", "repeated-dpp-cond", "--m", "4"])
    assert info.value.code == 2


def test_underdetermined_dump_exits_2(capsys):
    code = run(["dump-design", "--scheme", "volume", "--basis", "legendre",
                "--m", "5", "--n", "3"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_n_below_m_exits_2(capsys):
    code = run(["error-table", "--basis", "legendre", "--scheme", "volume",
                "--m", "3", "--n", "2", "--replicates", "5"])
    assert code == 2


def test_bad_delta_exits_2(capsys):
    assert run(["bounds", "--m", "5", "--delta", "1.5"]) == 2


def test_conjecture_check_domain_exits_2(capsys):
    assert run(["conjecture-check", "--m", "13"]) == 2
    assert run(["conjecture-check", "--m", "4", "--replicates", "999"]) == 2


def test_gaussian_quadrature_cap_counts_failures(tmp_path, monkeypatch):
    """Below the order that certifies the Hermite evaluator, every
    replicate of the cell fails and best is NaN, but the table is written;
    the default cap certifies it."""
    monkeypatch.setenv("DPPLS_MAX_QUAD_ORDER", "512")
    out = tmp_path / "t.csv"
    schemes = ["iid-mu", "volume"]
    argv = ["error-table", "--basis", "hermite", "--scheme", *schemes,
            "--m", "10", "--n", "20", "--replicates", "2", "--out", str(out)]
    assert run(argv) == 0
    header, rows = rows_of(out)
    row = dict(zip(header, rows[0]))
    assert row["best"] == "nan"
    assert [row[f"{s}_failures"] for s in schemes] == ["2", "2"]
    monkeypatch.delenv("DPPLS_MAX_QUAD_ORDER")
    assert run(argv) == 0
    header, rows = rows_of(out)
    row = dict(zip(header, rows[0]))
    assert float(row["best"]) > 0.0
    assert [row[f"{s}_failures"] for s in schemes] == ["0", "0"]

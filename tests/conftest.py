"""Shared fixtures and the acceptance-criteria summary hook."""

import pytest

# Populated by tests/test_acceptance.py; one entry per criterion.
_criterion_lines = []


def record_criterion(number, passed, detail):
    _criterion_lines.append((number, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for number, passed, detail in sorted(_criterion_lines):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {status} - {detail}")


@pytest.fixture
def quad_cap_2048(monkeypatch):
    """Pin the adaptive-quadrature order cap at 2048.

    The Gaussian-measure error paths certify convergence by halving a
    trapezoid rule's step until successive values agree to 1e-10; for the
    shipped target that certification lands at 577-775 nodes (m = 10-50),
    above 512 and below the default cap of 2048. Tests exercising those
    paths pin the cap so that a DPPLS_MAX_QUAD_ORDER set in the
    environment cannot change them.
    """
    monkeypatch.setenv("DPPLS_MAX_QUAD_ORDER", "2048")

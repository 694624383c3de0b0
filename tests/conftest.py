import pytest

import acceptance_report
from demo_data import DEMO_M, DEMO_W


def pytest_terminal_summary(terminalreporter):
    if acceptance_report.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report.LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def demo():
    """Copies of the demo data matrix and dictionary."""
    return DEMO_M.copy(), DEMO_W.copy()


@pytest.fixture
def demo_gram():
    """Shared Gram data for the demo dictionary."""
    from shamans.densela import gram

    P = gram(DEMO_W)
    L = DEMO_W.T @ DEMO_M
    return P, L


@pytest.fixture
def tiny_pivots(monkeypatch):
    """A list to which each densela.carry_inverse call of nnls_gram appends
    whether it found an update unsound, so that the solver barred an atom;
    clear it before the solve it watches."""
    from shamans import nnls

    seen = []
    carry_inverse = nnls.carry_inverse

    def spy(P, G, atoms, enter, index):
        G, atoms, sound = carry_inverse(P, G, atoms, enter, index)
        seen.append(not sound.all())
        return G, atoms, sound

    monkeypatch.setattr(nnls, "carry_inverse", spy)
    return seen

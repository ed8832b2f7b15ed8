import pytest

_CRITERIA_LINES = []


@pytest.fixture(scope="session")
def criteria_log():
    return _CRITERIA_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERIA_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERIA_LINES:
            terminalreporter.write_line(line)


class _TrigCounter:
    """numpy as one module sees it, with cos and sin counting the elements
    they evaluate (those selected by `where=`, when given)."""

    def __init__(self, np):
        self._np = np
        self.points = 0

    def __getattr__(self, name):
        return getattr(self._np, name)

    def _count(self, fn, a, kw):
        where = kw.get("where", True)
        self.points += int(self._np.count_nonzero(self._np.broadcast_to(where, self._np.shape(a))))
        return fn(a, **kw)

    def cos(self, a, **kw):
        return self._count(self._np.cos, a, kw)

    def sin(self, a, **kw):
        return self._count(self._np.sin, a, kw)


@pytest.fixture
def count_trig(monkeypatch):
    """count_trig(module) gives `module` a numpy whose cos and sin count the
    elements they evaluate, and returns it; its `points` is the count."""

    def install(module):
        counter = _TrigCounter(module.np)
        monkeypatch.setattr(module, "np", counter)
        return counter

    return install

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=50,
                          derandomize=True)
settings.load_profile("suite")


def dense_D(field):
    """The tests' reference (N, N+1) derivative field D[i, j], built from
    the field's resolvent: R[j, i] sigma_i kick_i above the diagonal, the
    seed on it, zero below."""
    D = np.triu(field.R.T * (field.sigma * field.kick)[:, None], 1)
    np.fill_diagonal(D, field.seed)
    return D


# acceptance-criterion results, printed as one line each at the end
_CRITERIA = {}


@pytest.fixture
def record_criterion():
    """Record a numbered acceptance result, then assert it."""

    def _record(num: int, passed: bool, detail: str = ""):
        _CRITERIA[num] = (bool(passed), str(detail))
        assert passed, "criterion %d: %s" % (num, detail)

    return _record


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        passed, detail = _CRITERIA[num]
        line = "criterion %d: %s" % (num, "PASS" if passed else "FAIL")
        if detail:
            line += " (%s)" % detail
        terminalreporter.write_line(line)

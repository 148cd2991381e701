import numpy as np
import pytest


@pytest.fixture
def eig_calls(monkeypatch):
    """Live counts of the calls to ``np.linalg.eigh`` and ``eigvalsh``."""
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts

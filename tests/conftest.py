import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from releff import _batch, ranks

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def sorts(monkeypatch):
    """The sorts of pooled data made while a test runs, in order: "label" for a
    `tie_runs` call, under either name it is called by (`ranks` and `_batch`),
    and "keys" for a key sort (`_batch._moments_from_keys`)."""
    calls = []

    def spy(name, f):
        def counted(*args):
            calls.append(name)
            return f(*args)
        return counted

    label = spy("label", _batch.tie_runs)
    monkeypatch.setattr(_batch, "tie_runs", label)
    monkeypatch.setattr(ranks, "tie_runs", label)
    monkeypatch.setattr(_batch, "_moments_from_keys", spy("keys", _batch._moments_from_keys))
    return calls

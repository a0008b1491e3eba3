"""``test_miner_pool_fastpath.py`` and ``test_kg_fastpath.py`` once more,
under the Python engine (``NXR_NO_CC=1``): collected in their own modules
they run under the native kernel wherever it builds."""

import pytest

from test_kg_fastpath import *  # noqa: F401,F403
from test_miner_pool_fastpath import *  # noqa: F401,F403


@pytest.fixture(autouse=True, params=["python"])
def engine(request, monkeypatch):
    monkeypatch.setenv("NXR_NO_CC", "1")
    return request.param

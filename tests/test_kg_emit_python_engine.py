"""``test_kg_emit_vectorized.py`` once more under the Python engines
(``NXR_NO_CC=1``: the Python scan and derive, and ``hash_array`` for the
string hash): collected in its own module it runs under the native kernels
wherever they build."""

import pytest

from test_kg_emit_vectorized import *  # noqa: F401,F403


@pytest.fixture(autouse=True, params=["python"])
def engine(request, monkeypatch):
    monkeypatch.setenv("NXR_NO_CC", "1")
    return request.param

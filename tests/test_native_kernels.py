"""The native kernels must build wherever a compiler is present.

The kernels' parity tests skip when a kernel is unavailable, and every
caller falls back to its Python engine, so a C source that stops compiling
would otherwise leave the suite green.  Here it fails, with gcc's error."""

import os
import shutil

import pytest

from nativeextractor_ray.functions import hashing
from nativeextractor_ray.miners import dfacc, globcc, stdcc
from nativeextractor_ray.miners.cc import Kernel
from nativeextractor_ray.sources import transcripts

KERNELS = {"dfacc": dfacc._KERNEL, "globcc": globcc._KERNEL, "stdcc": stdcc._KERNEL,
           "derive": transcripts._KERNEL, "siphash": hashing._KERNEL}

needs_gcc = pytest.mark.skipif(
    shutil.which("gcc") is None or bool(os.environ.get("NXR_NO_CC")),
    reason="no gcc on PATH, or NXR_NO_CC set: the Python engines run")


@needs_gcc
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_builds_where_gcc_is(name):
    kernel = KERNELS[name]
    assert kernel.available(), f"{name} kernel did not load:\n{kernel.error}"


@needs_gcc
def test_no_cc_is_read_at_call_time(monkeypatch):
    assert all(k.available() for k in KERNELS.values())
    monkeypatch.setenv("NXR_NO_CC", "1")
    assert not any(k.available() for k in KERNELS.values())
    monkeypatch.delenv("NXR_NO_CC")
    assert all(k.available() for k in KERNELS.values())


@needs_gcc
def test_failed_build_keeps_the_compiler_error():
    k = Kernel("broken_for_test", "int f( {", {})
    assert not k.available()
    assert "error" in k.error, k.error

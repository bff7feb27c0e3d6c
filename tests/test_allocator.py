"""The allocator setting the package makes when it is imported."""
import pytest

import fedrec


class RecordingLibc:
    """A stand-in C library whose mallopt records its calls."""

    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def test_sets_mmap_threshold_then_top_pad():
    libc, opened = RecordingLibc(), []
    fedrec._hold_heap(lambda name: opened.append(name) or libc)
    assert opened == [None]  # the symbols of the running process
    assert libc.calls == [(fedrec.M_MMAP_THRESHOLD, 32 << 20), (fedrec.M_TOP_PAD, 64 << 20)]
    assert (fedrec.M_TOP_PAD, fedrec.M_MMAP_THRESHOLD) == (-2, -3)  # glibc's malloc.h


@pytest.mark.parametrize("error", [None, OSError, TypeError])
def test_without_mallopt_nothing_happens(error):
    # a C library without mallopt, or none to load at all
    def load(name):
        if error is not None:
            raise error("no C library")
        return object()

    assert fedrec._hold_heap(load) is None

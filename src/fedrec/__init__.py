"""Desk-scale simulator of federated adaptation for a pretrained two-tower
recommender: low-rank personalized adapters, adaptive gate fusion, selective
aggregation, Laplace-noised uploads and knowledge distillation."""
import ctypes

__version__ = "0.1.0"

M_TOP_PAD, M_MMAP_THRESHOLD = -2, -3  # glibc's mallopt parameters


def _hold_heap(cdll=ctypes.CDLL):
    """Serve allocations below 32 MiB from the heap and keep 64 MiB spare at
    its top, so that a cohort step does not give back the pages the next one
    faults in again. Does nothing without glibc's mallopt."""
    try:
        mallopt = cdll(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library, or one without mallopt
        return
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TOP_PAD, 64 << 20)


_hold_heap()

"""Process heap policy for long numeric runs.

A replication allocates and frees the same multi-MB numpy temporaries over
and over: the B×n resampling counts, the B×J×J second moments, the batch QP's
work arrays. glibc serves a block above its mmap threshold (128 KiB at start)
with its own mapping and unmaps it on free, and it returns free memory at the
top of the heap to the kernel once it exceeds the trim threshold. Either way
the next replication faults the same pages in again: 945 minor faults per
replication on the J=4, n=250, B=1000 sweep and ~359 on the J=10 one.

`retain_freed_buffers` sets both thresholds, so freed buffers stay in the heap
and are reused. Both are needed: setting either one turns off glibc's dynamic
threshold (which raises the mmap threshold to the largest block freed so far
and the trim threshold to twice that), so the other stays at its 128 KiB
start. On J=4, n=250, B=1000 replications the trim threshold alone gave 1,469
faults per replication and the mmap threshold alone 1,495, against 944 with
neither and 0 with both. The mmap threshold is 32 MiB, glibc's maximum on
64-bit platforms; it covers a J=40 design's 12.8 MB B×J×J arrays. Larger
blocks, such as the 40 MB counts of a 10000-draw bootstrap at n=500, are
still mapped and unmapped.

The policy holds for the whole process, so it is set where cmselect owns a
long run (`harness._run_phase`, `cli.main`), never on import. Off glibc it
does nothing. See mallopt(3).
"""

from __future__ import annotations

import ctypes
import functools

# Parameter numbers of mallopt(3), from glibc's <malloc.h>.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 64 * 1024 * 1024


def _glibc():
    """The C library of this process if it is glibc, else None."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return None
    if not hasattr(libc, "gnu_get_libc_version"):
        return None
    return libc


@functools.cache
def retain_freed_buffers() -> bool:
    """Keep freed buffers below 32 MiB in the heap for the rest of the
    process; returns whether glibc accepted both thresholds. Only the first
    call in a process acts; off glibc it does nothing and returns False."""
    libc = _glibc()
    if libc is None:
        return False
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    trim_set = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    return mmap_set and trim_set

"""The process's heap policy: freed array memory stays mapped.

With glibc's adaptive defaults, the heap top an LTN or NLM call frees
goes back to the kernel, and the next call faults it back in one page
at a time, inside whichever kernel first writes a fresh output.
Importing :mod:`repro.tensor` sets the two thresholds once, to the
ceilings that policy reaches on 64-bit (glibc refuses a larger mmap
threshold).  No value, counter or event changes.
"""

import ctypes

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_freed_memory_mapped() -> bool:
    """Set glibc's mmap (32 MiB) and trim (64 MiB) thresholds; False
    where ``mallopt`` is missing or refuses a value."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: Windows
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)
                and mallopt(_M_TRIM_THRESHOLD, 64 << 20))

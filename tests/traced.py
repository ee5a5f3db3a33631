"""The bytes a call allocates, as ``tracemalloc`` counts them."""

import tracemalloc


def traced(fn, *args, **kwargs):
    """``(result, kept, peak)`` of ``fn(*args, **kwargs)`` run under ``tracemalloc``.

    ``kept`` is what the call left allocated and ``peak`` the most it held
    at once, both in bytes above the level where it started.  Only
    allocations made during the call are counted, so freeing an older array
    lowers neither.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before, peak - before

"""Run the suite under the allocator policy the command line sets, and
measure every memory bound one way."""

import gc
import tracemalloc

import pytest

from collapsim.cli import _keep_freed_arrays_resident

_keep_freed_arrays_resident()


@pytest.fixture
def traced_peak():
    """``traced_peak(call)``: the peak bytes ``call()`` allocates, as
    ``tracemalloc`` sees them, above what is allocated before it."""

    def measure(call):
        gc.collect()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    return measure

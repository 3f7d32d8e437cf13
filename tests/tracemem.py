"""One call's memory, as tracemalloc sees it, for the tests' memory bounds."""

import tracemalloc
from typing import Any, NamedTuple


class Traced(NamedTuple):
    result: Any  # what the call returned
    peak: int  # the most bytes traced during the call, above those traced at its start
    held: int  # bytes still traced at its return, above the start: what the result keeps


def traced(fn, *args, **kwargs) -> Traced:
    """Call fn(*args, **kwargs) with tracemalloc running, and stop it again."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return Traced(result, peak - start, held - start)

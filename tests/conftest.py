import gc

import pytest

import corpus


@pytest.fixture(autouse=True, scope="module")
def _drop_schedule_graphs():
    """Drop the schedule graphs that :func:`corpus.full_graph` kept after
    each test module, and let the cyclic collector see what it froze.
    Kept for the whole session, they raised its peak memory by about
    150 MB."""
    yield
    corpus._GRAPHS.clear()
    gc.unfreeze()

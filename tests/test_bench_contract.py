"""The names the benchmark patches by lookup must stay in place.

``bench/launcher.py --traced`` and ``bench/probe.py`` replace these module
attributes with counting wrappers through ``getattr``/``setattr``.  A refactor
that drops one makes every traced benchmark run fail, so it is caught here.
"""

import pytest

from noma_aloha import cli, model, optimize, simulate

PATCHED = [
    (cli, "coordinate_ascent"),
    (cli, "run_simulation"),
    (cli, "success_probability"),
    (cli, "average_throughput"),
    (optimize, "average_throughput"),
    (optimize, "coordinate_ascent"),
    (model, "average_throughput"),
    (model, "success_probability"),
    (simulate, "sic_decode"),
    # not patched, but the probe times the per-slot trace through it
    (simulate, "run_simulation"),
]


@pytest.mark.parametrize(
    "module, name", PATCHED, ids=[f"{m.__name__}.{n}" for m, n in PATCHED]
)
def test_patched_function_exists(module, name):
    assert callable(getattr(module, name))


def test_chunk_size_is_an_int():
    assert type(simulate._CHUNK_SLOTS) is int and simulate._CHUNK_SLOTS > 0

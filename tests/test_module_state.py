"""Tripwire for state that lemscript keeps between calls.

Every functools.lru_cache wrapper in the package is listed here with its
maxsize. A memo keeps results from one call for the next, so a benchmark
that repeats one unit of work can measure the memo's reuse of the
previous unit instead of the program. A new memo therefore has to be
added to CACHES, with a note in CHANGES.md on why it cannot carry one
fuzz_roundtrip unit's results into the next.
"""

from __future__ import annotations

import importlib
import pkgutil

import lemscript

CACHES = {
    "lemscript.casing.char_class": None,  # one entry per distinct character
    "lemscript.schemes.ixapipes.parse_label": 128,
    "lemscript.schemes.morpheus.parse_label": 128,
    "lemscript.schemes.udpipe.parse_label": 128,
}


def _lru_caches() -> dict[str, int | None]:
    found = {}
    for info in pkgutil.walk_packages(lemscript.__path__, "lemscript."):
        module = importlib.import_module(info.name)
        for owner in [module, *(v for v in vars(module).values() if isinstance(v, type))]:
            for value in vars(owner).values():
                value = getattr(value, "__func__", value)  # static and class methods
                if hasattr(value, "cache_parameters") and value.__module__ == info.name:
                    name = f"{info.name}.{value.__qualname__}"
                    found[name] = value.cache_parameters()["maxsize"]
    return found


def test_every_lru_cache_is_listed_with_its_size():
    assert _lru_caches() == CACHES

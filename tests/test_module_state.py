"""Tripwire for state that lemscript keeps between calls.

Every functools.lru_cache wrapper in the package is listed here with its
maxsize, and every module-level dict, list or set that grows while
lemscript works; lemscript rebinds no module-level name. A memo keeps
results from one call for the next, so a benchmark that repeats one unit
of work can measure the memo's reuse of the previous unit instead of the
program. A new memo therefore has to be added to CACHES, GROWING or
REBOUND, with a note in CHANGES.md on why it cannot carry one
fuzz_roundtrip unit's results into the next.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys

import pytest

import lemscript

CACHES = {
    "lemscript.schemes.ixapipes.parse_label": 128,
    "lemscript.schemes.morpheus.parse_label": 128,
    "lemscript.schemes.udpipe.parse_label": 128,
}

# str.translate tables, one entry per distinct character folded
GROWING = {"lemscript.casing._LOWER_TABLE", "lemscript.casing._UPPER_TABLE"}

# a label carries the plan its decode applies, so no module name is rebound
REBOUND: set[str] = set()

# Latin, Cyrillic and Turkish letters in both cases, as in the benchmark's fuzz mix
ALPHABET = "abdekmnorstvzабвгдежзиклмноçğışöüİıABDEKÇĞŞÖÜБВГ"


def _modules():
    for info in pkgutil.walk_packages(lemscript.__path__, "lemscript."):
        yield info.name, importlib.import_module(info.name)


def _lru_caches() -> dict[str, int | None]:
    found = {}
    for name, module in _modules():
        for owner in [module, *(v for v in vars(module).values() if isinstance(v, type))]:
            for value in vars(owner).values():
                value = getattr(value, "__func__", value)  # static and class methods
                if hasattr(value, "cache_parameters") and value.__module__ == name:
                    found[f"{name}.{value.__qualname__}"] = value.cache_parameters()["maxsize"]
    return found


def test_every_lru_cache_is_listed_with_its_size():
    assert _lru_caches() == CACHES


def state_changes(work: str) -> dict[str, list[str]]:
    """The module-level containers of lemscript that grow ("grown") and the
    module-level names it binds to another object ("rebound") during one
    roundtrip unit of non-ASCII pairs under every scheme and one in-process
    compare run in the directory work."""
    from lemscript import schemes
    from lemscript.cli import main
    from lemscript.corpus_io import write_conllu
    from lemscript.model import Scheme
    from synth import synthetic_corpus

    names = {f"{module}.{name}": value for module, m in _modules()
             for name, value in vars(m).items() if not name.startswith("__")}
    containers = {name: value for name, value in names.items()
                  if isinstance(value, (dict, list, set))}
    before = {name: len(value) for name, value in containers.items()}
    rng = random.Random(1)
    for _ in range(500):
        stem = "".join(rng.choices(ALPHABET, k=rng.randint(1, 8)))
        form = stem + "".join(rng.choices(ALPHABET, k=rng.randint(0, 4)))
        lemma = stem + "".join(rng.choices(ALPHABET, k=rng.randint(0, 4)))
        for scheme in Scheme:
            assert schemes.decode(form, schemes.encode(scheme, form, lemma)) == lemma
    data = os.path.join(work, "data.conllu")
    with open(data, "w", encoding="utf-8") as fp:
        write_conllu(synthetic_corpus(300, seed=1), fp)
    assert main(["compare", data, data, "--out", os.path.join(work, "report.json")]) == 0
    now = {f"{module}.{name}": value for module, m in _modules() for name, value in vars(m).items()}
    return {
        "grown": sorted(name for name, value in containers.items() if len(value) > before[name]),
        "rebound": sorted(name for name, value in names.items() if now.get(name) is not value),
    }


@pytest.fixture(scope="module")
def changes(tmp_path_factory):
    # a fresh interpreter, so that no earlier test has filled a container
    work = str(tmp_path_factory.mktemp("state"))
    code = ("import json, test_module_state as t\n"
            f"print(json.dumps(t.state_changes({work!r})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_every_growing_module_container_is_listed(changes):
    assert set(changes["grown"]) == GROWING


def test_every_rebound_module_name_is_listed(changes):
    assert set(changes["rebound"]) == REBOUND

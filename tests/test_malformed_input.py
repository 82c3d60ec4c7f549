"""Seeded property test: run inputs with one value replaced.

Each instance writes the three inputs of one ``lowrankopt run``: a
problem document (the skeleton of one of ``PROBLEM_TYPES``), a JSON x0
matrix document and a run config. One value or container of one of them,
chosen at random, the document itself included, is replaced by an item of
``MENU``. Whatever the replacement, ``cli.main`` must raise nothing, warn
nothing and return a documented exit code. An exit of 1 must print one
stderr line that starts with ``error:`` or ``config error:``, and a
``null`` given for a key whose value was a number or a string must name
that key. ``MENU`` holds no size that numpy could allocate (``10**30``
entries is past any address space), so no run asks for much memory.
"""

import copy
import json

import numpy as np
import pytest

from lowrankopt import cli
from lowrankopt.problems import PROBLEM_TYPES, problem_skeleton
from lowrankopt.serialize import matrix_to_json

EXIT_CODES = {0, 1, 2, 3, 5}
MENU = [None, True, -1, 0, 1.5, "x", [], {}, [[1]], 10**30]
INSTANCES = 300

CONFIG = {
    "problem": "problem.json", "x0": "x0.json", "out": "results", "algorithm": "p2gdr",
    "rank_bound": 2, "delta": 0.1, "alpha_lo": 1e-8, "alpha_hi": 1.0, "beta": 0.5, "c": 1e-4,
    "max_backtracks": 30, "stop_tol": 1e-8, "max_iters": 30,
}


def locations(value, path=()):
    """``(path, value)`` for ``value`` and for every value and container inside it."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from locations(item, (*path, key))


def replaced(doc, path, new):
    """A copy of ``doc`` with the value at ``path`` replaced by ``new``."""
    if not path:
        return new
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


def inputs(kind):
    """The three documents of a run on the skeleton problem of type ``kind``."""
    return {
        "problem.json": problem_skeleton(kind),
        "x0.json": matrix_to_json(np.diag([2.0, 1.0, 0.0])),
        "config.json": dict(CONFIG),
    }


def run(case, docs, capsys):
    """Exit code and stderr of ``lowrankopt run`` on ``docs``, written into ``case``."""
    case.mkdir()
    for file, doc in docs.items():
        (case / file).write_text(json.dumps(doc))
    code = cli.main(["run", str(case / "config.json")])
    return code, capsys.readouterr().err


def is_scalar_key(path, old) -> bool:
    """Whether ``path`` ends at an object key whose value ``old`` was a number or a string."""
    return bool(path) and isinstance(path[-1], str) and isinstance(old, (int, float, str))


@pytest.mark.parametrize("name, seed", [("problem.json", 11), ("x0.json", 12), ("config.json", 13)])
def test_one_replaced_value_ends_in_a_documented_exit(tmp_path, capsys, name, seed):
    rng = np.random.default_rng(seed)
    codes = set()
    for i in range(INSTANCES):
        docs = inputs(str(rng.choice(list(PROBLEM_TYPES))))
        places = list(locations(docs[name]))
        path, old = places[rng.integers(len(places))]
        new = MENU[rng.integers(len(MENU))]
        docs[name] = replaced(docs[name], path, new)
        code, err = run(tmp_path / str(i), docs, capsys)
        where = (name, path, new)
        assert code in EXIT_CODES, where
        codes.add(code)
        if code == 1:
            assert err.startswith(("error: ", "config error: ")), where
            assert err.endswith("\n") and err.count("\n") == 1, where
            if new is None and is_scalar_key(path, old):
                assert repr(path[-1]) in err, (where, err)
    assert {0, 1} <= codes


@pytest.mark.parametrize("kind", PROBLEM_TYPES)
def test_null_at_a_scalar_key_is_named(tmp_path, capsys, kind):
    """Every key of the three documents whose value is a number or a string,
    in turn: given ``null``, the run ends with exit 1 naming it, or (a
    numeric config key) keeps its default."""
    docs = inputs(kind)
    cases = [(name, path) for name, doc in docs.items() for path, old in locations(doc)
             if is_scalar_key(path, old)]
    for i, (name, path) in enumerate(cases):
        changed = dict(docs)
        changed[name] = replaced(docs[name], path, None)
        code, err = run(tmp_path / str(i), changed, capsys)
        if code != 1 and name == "config.json" and path[0] not in ("rank_bound", "delta"):
            assert code in EXIT_CODES and isinstance(CONFIG[path[0]], (int, float)), path
        else:
            assert code == 1, (name, path)
            assert err.startswith(("error: ", "config error: ")) and repr(path[-1]) in err, err

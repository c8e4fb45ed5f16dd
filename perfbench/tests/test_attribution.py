"""Grouping of profiled functions into layers."""

import cProfile
import os
import pstats

import pytest

from attribution import UNATTRIBUTED, layer_of, layer_self_times

REPRO = os.path.join(os.sep, "co", "src", "repro")
BENCH = os.path.join(os.sep, "co", "perfbench")


@pytest.mark.parametrize("filename, layer", [
    (os.path.join(REPRO, "sim", "core.py"), "sim"),
    (os.path.join(REPRO, "metastore", "locks.py"), "metastore"),
    (os.path.join(REPRO, "_util.py"), "util"),
    (os.path.join(REPRO, "__init__.py"), "repro"),
    (os.path.join(BENCH, "round.py"), "perfbench"),
    (os.path.join(os.sep, "usr", "lib", "python3", "random.py"), None),
    ("~", None),
    ("<string>", None),
    # A sibling directory that merely shares the prefix is not the package.
    (os.path.join(os.sep, "co", "src", "repro_old", "x.py"), None),
])
def test_layer_of(filename, layer):
    assert layer_of(filename, REPRO, BENCH) == layer


def _key(filename, name):
    return (filename, 1, name)


def test_builtins_are_charged_to_callers_by_edge_time():
    sim = _key(os.path.join(REPRO, "sim", "core.py"), "step")
    core = _key(os.path.join(REPRO, "core", "client.py"), "execute")
    builtin = _key("~", "<built-in method heapq.heappush>")
    stats = {
        sim: (1, 1, 2.0, 3.5, {}),
        core: (1, 1, 1.0, 2.5, {}),
        # 1.5 s inside the builtin: 1.2 s reached from sim, 0.3 s from core.
        builtin: (5, 5, 1.5, 1.5, {sim: (4, 4, 1.2, 1.2), core: (1, 1, 0.3, 0.3)}),
    }
    totals = layer_self_times(stats, REPRO, BENCH)
    assert totals["sim"] == pytest.approx(3.2)
    assert totals["core"] == pytest.approx(1.3)
    assert UNATTRIBUTED not in totals


def test_chains_of_unowned_functions_reach_the_first_layer():
    ns = _key(os.path.join(REPRO, "namespace", "cache.py"), "get")
    stdlib = _key("/usr/lib/python3/collections/__init__.py", "move_to_end")
    builtin = _key("~", "<method 'pop' of 'dict' objects>")
    stats = {
        ns: (1, 1, 0.5, 1.0, {}),
        stdlib: (1, 1, 0.25, 0.5, {ns: (1, 1, 0.25, 0.5)}),
        builtin: (1, 1, 0.25, 0.25, {stdlib: (1, 1, 0.25, 0.25)}),
    }
    assert layer_self_times(stats, REPRO, BENCH) == {"namespace": pytest.approx(1.0)}


def test_orphans_are_unattributed():
    orphan = _key("~", "<built-in method builtins.exec>")
    stats = {orphan: (1, 1, 0.125, 0.125, {})}
    assert layer_self_times(stats, REPRO, BENCH) == {UNATTRIBUTED: 0.125}


def test_real_profile_charges_hashing_to_util():
    import repro
    from repro._util import stable_hash

    repro_dir = os.path.dirname(os.path.abspath(repro.__file__))
    profiler = cProfile.Profile()
    profiler.enable()
    for index in range(2_000):
        stable_hash(("dirent", index, "f"))
    profiler.disable()
    totals = layer_self_times(pstats.Stats(profiler).stats, repro_dir, BENCH)
    # Only the loop itself (this test file) is left over.
    assert totals["util"] > 0.5 * sum(totals.values())
    assert set(totals) <= {"util", UNATTRIBUTED}

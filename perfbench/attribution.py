"""Split a cProfile of the timed phase across the repo's packages.

Every profiled function is charged to a *layer*: functions defined in
``src/repro/<package>/`` belong to that package, the ones in
``src/repro/_util.py`` to ``util``, and the benchmark's own files to
``perfbench``.  A function defined anywhere else (a C builtin, the
standard library, a generated ``__init__``) has no layer of its own:
its self time is charged to the layers that called it, in proportion
to the time each caller edge spent in it, recursively through chains
of such functions.  Time that cannot be traced back to any layer is
reported as unattributed.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

# (filename, line, function name) -> (primitive calls, total calls,
# self time, cumulative time, callers), as in ``pstats.Stats.stats``;
# callers map a caller key to the same four numbers for that edge.
FuncKey = Tuple[str, int, str]

UNATTRIBUTED = "unattributed"


def layer_of(filename: str, repro_dir: str, bench_dir: str) -> Optional[str]:
    """The layer a source file belongs to, or None if it has none.

    ``repro_dir`` is the ``src/repro`` package directory and
    ``bench_dir`` the benchmark's own directory.
    """
    path = os.path.abspath(filename)
    for root, own in ((repro_dir, None), (bench_dir, "perfbench")):
        root = os.path.abspath(root) + os.sep
        if not path.startswith(root):
            continue
        if own is not None:
            return own
        head = path[len(root):].split(os.sep, 1)[0]
        if head == "_util.py":
            return "util"
        if head.endswith(".py"):
            return "repro"  # package root: __init__, cli
        return head
    return None


def layer_self_times(
    stats: Dict, repro_dir: str, bench_dir: str
) -> Dict[str, float]:
    """Self seconds per layer, plus :data:`UNATTRIBUTED`."""
    memo: Dict[FuncKey, Dict[str, float]] = {}
    layers: Dict[str, Optional[str]] = {}
    in_progress = set()

    def shares(key: FuncKey) -> Dict[str, float]:
        """Fractions of ``key``'s self time owed by each layer."""
        cached = memo.get(key)
        if cached is not None:
            return cached
        layer = layers.get(key[0])
        if layer is None and key[0] not in layers:
            layer = layers[key[0]] = layer_of(key[0], repro_dir, bench_dir)
        if layer is not None:
            result = {layer: 1.0}
        elif key in in_progress or key not in stats:
            return {UNATTRIBUTED: 1.0}
        else:
            in_progress.add(key)
            callers = stats[key][4]
            weights = {
                caller: edge[2] if edge[2] > 0 else 0.0
                for caller, edge in callers.items()
            }
            total = sum(weights.values())
            if total <= 0:
                # No measurable edge time: split by call count instead.
                weights = {caller: float(edge[1]) for caller, edge in callers.items()}
                total = sum(weights.values())
            result = {}
            if total <= 0:
                result[UNATTRIBUTED] = 1.0
            else:
                for caller, weight in weights.items():
                    for owner, share in shares(caller).items():
                        result[owner] = result.get(owner, 0.0) + share * weight / total
            in_progress.discard(key)
        memo[key] = result
        return result

    totals: Dict[str, float] = {}
    for key, (_, _, self_time, _, _) in stats.items():
        for owner, share in shares(key).items():
            totals[owner] = totals.get(owner, 0.0) + self_time * share
    return totals

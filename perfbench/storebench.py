"""Outside-in microbenchmark of the generic ``itpda.store`` operations.

The stores are shaped like those of the accept-long tree walks: label
elements carrying ``F^k`` height flags, ``k`` up to the tree level, with
up to four pending siblings per ancestor.  ``push``/``pop`` run at depth
1 (tree expansion) and depth 2 (height guess and count-down), and
``Store.__eq__`` compares stores that are equal but share no nodes.
"""

from __future__ import annotations

import statistics
import time

from itpda import store

LEVEL = 8            # the poly7 ball word of accept-long is level 8
CALLS = 40_000       # calls per repetition of one operation
REPEATS = 3
PUSH1_WORD = ("B", "W", "W")   # a Fibonacci rule, as step/enumerate push


def _flag(k: int):
    return store.from_pairs(1, [("F", store.empty(0))] * k)


def walk_store(depth: int):
    """The store of a tree walk standing at ``depth`` below the root,
    built from fresh nodes on every call."""
    pairs = []
    for d in range(depth, -1, -1):
        siblings = 1 + (d % 4) if d < depth else 1
        pairs += [("W" if i % 2 else "B", _flag(LEVEL - d))
                  for i in range(siblings)]
    return store.from_pairs(2, pairs)


def _rate(op, items) -> float:
    batch = (items * (CALLS // len(items) + 1))[:CALLS]
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for s in batch:
            op(s)
        times.append(time.perf_counter() - t0)
    return CALLS / statistics.median(times)


def run() -> tuple[dict, list[str]]:
    """Ops/s per operation and a list of wrong results (empty when all
    operations returned what the store laws require)."""
    stores = [walk_store(d) for d in range(LEVEL + 1)]
    flagged = [s for s in stores if s.flag.size > 0]
    twins = [(s, walk_store(d)) for d, s in enumerate(stores)]
    problems = []
    for s, twin in twins:
        if s is twin or s != twin:
            problems.append(f"store.eq: fresh copy of {store.render(s)} unequal")
        if store.pop(1, s) is not s.rest:
            problems.append(f"store.pop1 on {store.render(s)}")
        node = store.push(1, PUSH1_WORD, s)
        for symbol in PUSH1_WORD:
            if node.symbol != symbol or node.flag is not s.flag:
                break
            node = node.rest
        if node is not s.rest:
            problems.append(f"store.push1 on {store.render(s)}")
    for s in flagged:
        if store.pop(2, store.push(2, ("F",), s)) != s:
            problems.append(f"store.push2/pop2 round trip on {store.render(s)}")
    rates = {
        "push1": _rate(lambda s: store.push(1, PUSH1_WORD, s), stores),
        "pop1": _rate(lambda s: store.pop(1, s), stores),
        "push2": _rate(lambda s: store.push(2, ("F",), s), stores),
        "pop2": _rate(lambda s: store.pop(2, s), flagged),
        "eq": _rate(lambda pair: pair[0] == pair[1], twins),
    }
    return rates, problems

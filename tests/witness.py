"""What the search tests share: the witness check ``assert_witness``,
the yield-table sums ``yields``, which reads each flag's table through
``flag_table``, and ``CountingStore``, which counts the store nodes a
search builds."""

from itpda import machine as mc
from itpda import store as st


class CountingStore(st.Store):
    """A store node that counts its constructions in ``built``; patch it
    over ``itpda.machine.Store`` to count the nodes a search builds."""

    built = 0
    __slots__ = ()

    def __init__(self, *args):
        CountingStore.built += 1
        super().__init__(*args)


def assert_witness(automaton, word, trace, start, goal=None):
    """``trace`` runs from ``start`` to ``goal``, or, with no goal, to
    acceptance (the input read and the store empty), and each entry steps
    to the next under :func:`itpda.machine.step`.  The word is encoded
    once, so the check takes time linear in the trace."""
    coded = mc._Coded(mc._encode(automaton, word))
    assert trace[0][0] == start
    last, tid = trace[-1]
    assert tid is None
    if goal is None:
        assert last.position == len(coded) and last.store.size == 0
    else:
        assert last == goal
    for (cfg, tid), (nxt, _) in zip(trace, trace[1:]):
        assert (nxt, tid) in mc.step(automaton, cfg, coded)


def flag_table(tables, flag):
    """The table id of ``flag``: its symbols folded through
    ``tables.child``, bottom first, from the empty flag's table 0.  A
    loop, so flags deeper than the recursion limit are fine."""
    tid = 0
    for sym, _ in reversed(list(flag.entries())):
        tid = tables.child(sym, tid)
    return tid


def yields(automaton, state, store):
    """The tables' bounds (least, most) on the letters any run from
    ``state`` reads to empty ``store``: the top element from ``state``,
    the others from any state, each into any state.  Both are capped at
    ``1 << 62``, so least is ``1 << 62`` when no run can, and most is
    ``1 << 62`` when unbounded and -1 when no run can."""
    tables = automaton._yield_tables(mc._YIELD_CAP - 1)
    nq = len(automaton.states)
    least = most = 0
    for i, (sym, flag) in enumerate(store.entries()):
        L, H = tables.tables[flag_table(tables, flag)]
        starts = [state] if i == 0 else automaton.states
        at = [tables.row[q, sym] * nq + j for q in starts for j in range(nq)]
        least += min(L[j] for j in at)
        high = max(H[j] for j in at)
        most = -1 if most < 0 or high < 0 else most + high
    return min(least, tables.cap), min(most, tables.cap)

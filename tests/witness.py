"""What the search tests share: the witness check ``assert_witness``,
the yield-table sums ``yields``, which reads each flag's table through
``flag_table``, the count of solved tables ``solved``, the
symbol-by-symbol chain ``symbol_chain``, the step-by-step acceptance
search ``walk`` with its guess-loop cut ``guess_cut``, and
``CountingStore``, which counts the store nodes a search builds."""

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


def solved(tables):
    """How many tables ``tables``, a ``_YieldTables``, has solved: all
    but ``_UNFIT``."""
    return len(tables.tables) - 1


def yields(automaton, state, store):
    """The tables' bounds (least, most) on the letters any run from
    ``state`` reads to empty ``store``: the top element from ``state``,
    the others from any state, each into any state.  Both are capped at
    ``1 << 62``, so least is ``1 << 62`` when no run can, and most is
    ``1 << 62`` when unbounded and -1 when no run can."""
    tables = automaton._yield_tables()
    nq = len(automaton.states)
    least = most = 0
    for i, (sym, flag) in enumerate(store.entries()):
        L, H = tables.tables[flag_table(tables, flag)]
        starts = [state] if i == 0 else automaton.states
        at = [tables.row[q, sym] * nq + j for q in starts for j in range(nq)]
        least += min(L[j] for j in at)
        high = max(H[j] for j in at)
        most = -1 if most < 0 or high < 0 else most + high
    return min(least, mc._YIELD_CAP), min(most, mc._YIELD_CAP)


def symbol_chain(tables, L, H, state, word):
    """What ``tables._chain`` gives for the push word ``word`` (symbol
    ids), from ``state``, folded one symbol at a time: the fewest and the
    most letters by exit state, and the rows read, as a list with a row
    for each symbol and each state its elements can be left in before."""
    nq, nsym, cap = tables._nq, tables._nsym, mc._YIELD_CAP
    low = [0 if q == state else cap for q in range(nq)]
    high = [0 if q == state else mc._NEVER for q in range(nq)]
    rows = []
    for s in word:
        lo, hi = [cap] * nq, [mc._NEVER] * nq
        for p in range(nq):
            if high[p] < 0:
                continue
            row = p * nsym + s
            rows.append(row)
            for q in range(nq):
                lo[q] = min(lo[q], low[p] + L[row * nq + q])
                if H[row * nq + q] >= 0:
                    hi[q] = max(hi[q], min(high[p] + H[row * nq + q], cap))
        low, high = lo, hi
    return low, high, rows


def guess_cut(automaton, tables, t, store, nstore, left):
    """Does the search's guess-loop cut drop the push 2 ``t`` from
    ``store`` to ``nstore`` with ``left`` letters unread?  Read from
    ``automaton.transitions``: ``t`` is an epsilon push 2 of a nonempty
    word w from a state q into q; every other transition at its loop key,
    q on the top chain (top symbol, w[0]), is a pop 1 or a depth-1 push,
    or this same push 2; the L table of the grown flag is entrywise at
    least that of the old one; and each of those exits reads more than
    ``left`` letters: its own letter and the least yield of its new
    elements on the grown flag."""
    act = t.action
    if not act.word or t.letter is not None or t.target != t.state:
        return False
    key = (t.pattern[0], act.word[0])
    exits = []
    for i, u in enumerate(automaton.transitions):
        if (u.state, u.pattern) != (t.state, key):
            continue
        if u.action.level == 1:
            exits.append((i, u.letter is not None))
        elif (u.letter, u.target, u.action) != (None, t.state, act):
            return False
    before = tables.tables[flag_table(tables, store.flag)][0]
    grown = flag_table(tables, nstore.flag)
    if any(a < b for a, b in zip(tables.tables[grown][0], before)):
        return False
    return all(cost + tables.lows[grown][i] > left for i, cost in exits)


def walk(automaton, word, bounds, trace=False):
    """The memo-free acceptance search, one step at a time: a depth-first
    walk over ``itpda.machine._moves`` with the search's rules, and no
    segment jump.  Successors come in declaration order and are
    stacked in reverse.  On 1- and 2-level automata a depth-1 push is cut
    when its new elements' least yield exceeds the letters left and, at a
    branch point on a store of one element, when their most yield falls
    short of them, and a push 2 when ``guess_cut`` says so.  A store past
    the bound is cut, a configuration that has read the word and emptied
    its store accepts when generated, and a count past the budget stops
    the walk as Inconclusive.  Returns a ``Verdict``, with the walked path
    as its witness if ``trace``, and the store nodes the search builds
    when it steps through every move as this walk does: those of the pops
    and pushes at depths 1 and 2 it does not cut, those of the depth-1
    pushes the store bound cuts, which the search builds before it
    compares their size with the bound, and the flag nodes of the push 2s
    the guess-loop cut drops, whose table ids it reads."""
    coded = mc._encode(automaton, word)
    n = len(coded)
    max_store, max_configs = mc._limits(bounds)
    tables = automaton._yield_tables()
    verdict = mc.Verdict(mc.REJECTED, configurations=1)
    nodes = 0
    # (configuration, path): the path as links (previous link, (step, tid)).
    stack = [(mc.Configuration(automaton.initial_state, 0,
                               automaton.initial_store()), None)]
    while stack:
        cfg, path = stack.pop()
        state, pos, store = cfg.state, cfg.position, cfg.store
        branches = automaton._index.get((state, store._topsym), (True,))[0]
        successors = []
        for tid, code, target, nstore in mc._moves(automaton, state, store):
            if code is not None and (pos == n or coded[pos] != code):
                continue
            npos = pos + (code is not None)
            t = automaton.transitions[tid]
            action = t.action
            push = isinstance(action, mc.Push)
            if tables is not None and push and action.level == 1:
                table = flag_table(tables, store.flag)
                if tables.lows[table][tid] > n - npos or (
                        branches and store.rest.size == 0
                        and tables.highs[table][tid] < n - npos):
                    verdict.yield_cut = True
                    continue
            if action.level == 1 and push:
                nodes += len(action.word)
            elif action.level == 2 and not push:
                nodes += 1
            if nstore.size > max_store:
                verdict.store_cut = True
                continue
            if push and action.level == 2:
                nodes += len(action.word)
                if tables is not None and guess_cut(automaton, tables, t, store,
                                                    nstore, n - npos):
                    verdict.yield_cut = True
                    continue
                nodes += 1
            verdict.configurations += 1
            nxt = mc.Configuration(target, npos, nstore)
            link = (path, (cfg, tid))
            if npos == n and nstore.size == 0:
                verdict.status = mc.ACCEPTED
                if trace:
                    verdict.trace = [(nxt, None)]
                    while link is not None:
                        link, step = link
                        verdict.trace.append(step)
                    verdict.trace.reverse()
                return verdict, nodes
            if verdict.configurations > max_configs:
                verdict.status = mc.INCONCLUSIVE
                return verdict, nodes
            successors.append((nxt, link))
        stack.extend(reversed(successors))
    return verdict, nodes

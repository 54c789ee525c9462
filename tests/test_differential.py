"""Differential testing of the acceptance search against a reference BFS.

The reference is deliberately naive: breadth-first, one visited set over
the whole search, no yield bound, and the public ``store.push``/
``store.pop`` in place of the kernel's inlined opcodes.  Hypothesis draws
small 1-, 2- and 3-level automata and short words; the default
``accepts`` must agree with it and, on rejections, do at most a few times
its work; ``memoize=False`` must agree or give up; ``enumerate_language``
must list the words it accepts, also through the builders' guess loop,
which it may end by the guess-loop cut.  The upper yield bound is checked against
the reference on its own, and every configuration of a run that empties
its store within a few letters, whichever they are, must have between
the least and the most yield of its store left to read, and the yield
tables must equal those of a reference that folds every push 1 rule in
every round, on drawn automata and on the builders', and on push words
made of runs each chain must equal one taken symbol by symbol, and a
builder's tree label must read the letters of its count law at every
guessed height.  Drawn automata
must survive a render/parse round trip and keep every acceptance under a
larger store bound.  With their letters renamed to nested and odd names,
they must read a word alike as a tuple, as ``format_word``'s text and as
a text with mixed whitespace, name its first undeclared token, and
enumerate words of their own letters.  Names drawn from the characters
the text format gives a meaning to must be rejected by ``Automaton`` or
survive the round trip too.  On the tree walks of random substitution systems, the search
must give the same verdict, count and witness when it refuses every jump
over a repeated segment, and a memo-free search of a second word the
same as on a fresh automaton, with no more store nodes, though it jumps
segments the first word walked.  A memo-free search through guess loops must
give the status, count, cut flags and witness of ``walk``, a search that
steps through every move, on drawn automata and on the builders', also
when the budget runs out inside a loop, and build no more store nodes
than stepping.
"""

import dataclasses
import itertools
from collections import deque
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as hst

from itpda import grammar as gr
from itpda import machine as mc
from itpda import store as st
from itpda.builders import (Variant, ball_automaton, sector_automaton,
                            suggested_store_bound)
from itpda.cli import CHECKED_FAMILIES
from itpda.contour import ContourSpec, contour_word, mutate
from itpda.grammar import SubstitutionSystem, format_word
from itpda.machine import (ACCEPTED, INCONCLUSIVE, REJECTED, Automaton,
                           Pop, Push, SearchBounds, Transition)
from witness import (CountingStore, assert_witness, flag_table, symbol_chain,
                     walk, yields)

STATES = ("q0", "q1", "q2")
LETTERS = ("a", "b")
SYMBOLS = ("Z", "A", "B")
MAX_STORE = 6


def reference_steps(automaton, state, store, max_store):
    """(letter, target, store) for every transition that fires in
    ``state`` on ``store`` and leaves at most ``max_store`` symbols."""
    for t in automaton.transitions:
        if t.state != state or t.pattern != st.topsym(store):
            continue
        if isinstance(t.action, Push):
            nstore = st.push(t.action.level, t.action.word, store)
        else:
            nstore = st.pop(t.action.level, store)
        if nstore is not None and nstore.size <= max_store:
            yield t.letter, t.target, nstore


def reference_accepts(automaton, word, max_store):
    """(ACCEPTED, None) iff some run reads ``word`` and empties the store
    while every store on the way holds at most ``max_store`` symbols;
    otherwise (REJECTED, the number of configurations visited)."""
    start = (automaton.initial_state, 0, automaton.initial_store())
    visited = {start}
    queue = deque([start])
    while queue:
        state, pos, store = queue.popleft()
        if pos == len(word) and store.size == 0:
            return ACCEPTED, None
        for letter, target, nstore in reference_steps(automaton, state, store,
                                                      max_store):
            if letter is None:
                npos = pos
            elif pos < len(word) and word[pos] == letter:
                npos = pos + 1
            else:
                continue
            ncfg = (target, npos, nstore)
            if ncfg not in visited:
                visited.add(ncfg)
                queue.append(ncfg)
    return REJECTED, len(visited)


def reference_runs(automaton, starts, max_letters, max_store):
    """Every configuration (state, letters read, store) of a run from one
    of ``starts``, (state, store) pairs, that reads at most
    ``max_letters`` letters, whichever they are, and empties the store
    within ``max_store`` symbols, with the letters that run reads in all.
    From the initial configuration, these totals are the lengths of the
    accepted words."""
    parents = {(state, 0, store): set() for state, store in starts}
    queue = deque(parents)
    ends = []
    while queue:
        cfg = queue.popleft()
        state, read, store = cfg
        if store.size == 0:
            ends.append(cfg)
        for letter, target, nstore in reference_steps(automaton, state, store,
                                                      max_store):
            ncfg = (target, read + (letter is not None), nstore)
            if ncfg[1] <= max_letters:
                if ncfg not in parents:
                    parents[ncfg] = set()
                    queue.append(ncfg)
                parents[ncfg].add(cfg)
    for end in ends:
        seen, todo = {end}, [end]
        while todo:
            cfg = todo.pop()
            yield cfg, end[1]
            todo.extend(parents[cfg] - seen)
            seen |= parents[cfg]


# The recognizers' shape: guess a height on Z's flag, then commit to an
# element that carries it, in another state.
GUESS_LOOP = (
    Transition("q0", None, ("Z",), "q0", Push(2, ("A",))),
    Transition("q0", None, ("Z", "A"), "q0", Push(2, ("A",))),
    Transition("q0", None, ("Z",), "q1", Push(1, ("B",))),
    Transition("q0", None, ("Z", "A"), "q1", Push(1, ("B",))),
)


@hst.composite
def automata(draw, max_levels=3, guess=False, runs=False):
    """Random automata; with ``guess``, 2-level ones that start with
    ``GUESS_LOOP`` and whose other transitions walk A and B from q1 and q2;
    with ``runs``, push words of up to three runs of one symbol each."""
    levels = 2 if guess else draw(hst.integers(1, max_levels))
    states = STATES if guess else STATES[:draw(hst.integers(1, len(STATES)))]
    walk = STATES[1:] if guess else states
    symbol = hst.sampled_from(SYMBOLS[1:] if guess else SYMBOLS)

    def action():
        level = draw(hst.integers(1, levels))
        if draw(hst.booleans()):
            return Pop(level)
        if runs:
            return Push(level, tuple(
                s for s, k in draw(hst.lists(
                    hst.tuples(symbol, hst.integers(1, 4)), max_size=3))
                for _ in range(k)))
        return Push(level, tuple(draw(hst.lists(symbol, max_size=2))))

    transitions = (GUESS_LOOP if guess else ()) + tuple(
        Transition(draw(hst.sampled_from(walk)),
                   draw(hst.sampled_from((None,) + LETTERS)),
                   tuple(draw(hst.lists(symbol, min_size=1, max_size=levels))),
                   draw(hst.sampled_from(walk)),
                   action())
        for _ in range(draw(hst.integers(*((4, 10) if guess else (1, 8))))))
    return Automaton(levels=levels, states=states, initial_state="q0",
                     input_alphabet=LETTERS, store_alphabet=SYMBOLS,
                     initial_symbol="Z", transitions=transitions)


@settings(deadline=None, max_examples=300)
@given(automata(), hst.lists(hst.sampled_from(LETTERS), max_size=4))
def test_accepts_agrees_with_reference_bfs(automaton, word):
    bounds = SearchBounds(MAX_STORE, 10 ** 5)
    verdict = mc.accepts(automaton, word, bounds, trace=True)
    status, visited = reference_accepts(automaton, word, MAX_STORE)
    assert verdict.status == status
    if status == REJECTED:
        # Both searches explored everything; the kernel may walk a path
        # again up to a remembered configuration, but never multiply work.
        assert verdict.configurations <= 4 * visited
    if verdict.status == ACCEPTED:
        assert_witness(automaton, word, verdict.trace,
                       automaton.initial_configuration())


@settings(deadline=None, max_examples=200)
@given(automata(), hst.lists(hst.sampled_from(LETTERS), max_size=4))
def test_unmemoized_accepts_agrees_or_gives_up(automaton, word):
    bounds = SearchBounds(MAX_STORE, 10 ** 4)
    verdict = mc.accepts(automaton, word, bounds, trace=True, memoize=False)
    status, _ = reference_accepts(automaton, word, MAX_STORE)
    assert verdict.status in (status, INCONCLUSIVE)
    if verdict.status == ACCEPTED:
        # A memo-free search passes branch points in its own order.
        assert_witness(automaton, word, verdict.trace,
                       automaton.initial_configuration())


@settings(deadline=None, max_examples=100)
@given(hst.one_of(automata(), automata(guess=True)))
def test_enumeration_lists_the_accepted_words(automaton):
    words = [w for n in range(4) for w in itertools.product(LETTERS, repeat=n)]
    expected = {w for w in words
                if reference_accepts(automaton, w, MAX_STORE)[0] == ACCEPTED}
    bounds = SearchBounds(MAX_STORE, 10 ** 5)
    assert mc.enumerate_language(automaton, 3, bounds) == expected


# Letter names, nested in one another or odd, for renamed automata; the
# letters' codes include "\x01" whenever it is not itself a letter.
LETTER_NAMES = ("a", "b", "ab", "ba", "aab", "\x01")
SPACES = (" ", "\t", "\n", "  ", " \n\t ", "\r\n")


@hst.composite
def renamed(draw):
    """(automaton, the same automaton with letters renamed injectively
    from ``LETTER_NAMES``, the renaming)."""
    automaton = draw(automata())
    names = dict(zip(LETTERS, draw(hst.permutations(LETTER_NAMES))))
    return automaton, dataclasses.replace(
        automaton, input_alphabet=tuple(names[x] for x in LETTERS),
        transitions=tuple(dataclasses.replace(t, letter=names.get(t.letter))
                          for t in automaton.transitions)), names


def spaced_out(draw, word):
    """``word`` with a run of whitespace drawn around every token."""
    seps = draw(hst.lists(hst.sampled_from(SPACES), min_size=len(word) + 1,
                          max_size=len(word) + 1))
    return seps[0] + "".join(tok + sep for tok, sep in zip(word, seps[1:]))


@settings(deadline=None, max_examples=300)
@given(renamed(), hst.lists(hst.sampled_from(LETTERS), max_size=4), hst.data())
def test_renamed_letters_read_alike_in_every_form(case, letters, data):
    # The token tuple, format_word's text and a text with mixed whitespace
    # give the verdict of the automaton before renaming, trace and all.
    automaton, named, names = case
    word = tuple(names[x] for x in letters)
    bounds = SearchBounds(MAX_STORE, 10 ** 5)
    want = mc.accepts(automaton, letters, bounds, trace=True)
    for given_word in (word, format_word(word), spaced_out(data.draw, word)):
        got = mc.accepts(named, given_word, bounds, trace=True)
        assert ((got.status, got.configurations, got.store_cut, got.yield_cut,
                 got.trace)
                == (want.status, want.configurations, want.store_cut,
                    want.yield_cut, want.trace)), given_word


@settings(deadline=None, max_examples=200)
@given(renamed(), hst.lists(hst.sampled_from(LETTERS), max_size=3), hst.data())
def test_first_undeclared_token_is_named(case, letters, data):
    # Undeclared: the other names, and the codes of the longer letters.
    _, named, names = case
    codes = named._codes.code
    bad = data.draw(hst.sampled_from(sorted(
        {*LETTER_NAMES, *codes.values()} - set(named.input_alphabet))))
    word = [names[x] for x in letters]
    word.insert(data.draw(hst.integers(0, len(word))), bad)
    word += data.draw(hst.lists(hst.sampled_from(LETTER_NAMES), max_size=2))
    forms = [tuple(word), iter(word)]
    if len(word) > 1:  # a one-part text may be a run of one-character letters
        forms += [" ".join(word), spaced_out(data.draw, word)]
    for given_word in forms:
        with pytest.raises(mc.UndeclaredLetterError) as err:
            mc.accepts(named, given_word)
        assert f"input letter {bad!r} not in alphabet" in str(err.value)


@settings(deadline=None, max_examples=100)
@given(renamed())
def test_enumeration_lists_renamed_letters(case):
    automaton, named, names = case
    bounds = SearchBounds(MAX_STORE, 10 ** 5)
    words = mc.enumerate_language(named, 3, bounds)
    assert words == {tuple(names[x] for x in w)
                     for w in mc.enumerate_language(automaton, 3, bounds)}
    assert all(tok in named.input_alphabet for w in words for tok in w)


@settings(deadline=None, max_examples=300)
@given(hst.one_of(automata(max_levels=2), automata(guess=True)),
       hst.integers(0, 6).flatmap(lambda k: hst.lists(
           hst.sampled_from(LETTERS), min_size=k, max_size=k)))
def test_upper_yield_cut_agrees_with_reference_bfs(automaton, word):
    # The same search with the most-yield test switched off tells whether
    # the upper bound cut anything; it may only save work.  The test is
    # switched off on a fresh copy of the automaton, whose tables are
    # solved with every high at the cap.
    bounds = SearchBounds(MAX_STORE, 10 ** 5)
    verdict = mc.accepts(automaton, word, bounds)
    add = mc._YieldTables._add

    def add_at_cap(tables, top, rest_id):
        tid = add(tables, top, rest_id)
        tables.highs[tid] = (mc._YIELD_CAP,) * len(tables.highs[tid])
        return tid

    with mock.patch.object(mc._YieldTables, "_add", add_at_cap):
        lower_only = mc.accepts(dataclasses.replace(automaton), word, bounds)
    status, _ = reference_accepts(automaton, word, MAX_STORE)
    assert verdict.status == lower_only.status == status
    if status == REJECTED:
        assert verdict.configurations <= lower_only.configurations
    shape = ("guess loop" if automaton.transitions[:4] == GUESS_LOOP
             else f"{automaton.levels}-level")
    cut = verdict.configurations < lower_only.configurations
    event(f"{shape}: upper cut {'fired' if cut else 'saved nothing'}")


# A leaves in q1 or q2, and B, read next, leaves in q2 after one letter
# from q1 or none from q2: the least yield of Z takes the cheaper path.
TWO_PATHS = Automaton(
    levels=1, states=STATES, initial_state="q0", input_alphabet=LETTERS,
    store_alphabet=SYMBOLS, initial_symbol="Z",
    transitions=(Transition("q0", None, ("Z",), "q1", Push(1, ("A", "B"))),
                 Transition("q1", None, ("A",), "q1", Pop(1)),
                 Transition("q1", None, ("A",), "q2", Pop(1)),
                 Transition("q1", "a", ("B",), "q2", Pop(1)),
                 Transition("q2", None, ("B",), "q2", Pop(1))))

# A and B push each other, and only B reads unboundedly many letters: A's
# push never completes (C has no transition), so A's most yield is 1.
A_BESIDE_B = mc.parse_automaton(
    "levels: 1\nstates: p q\ninitial: p\ninput: a b\nstore: Z A B C\n"
    "start_symbol: Z\n"
    + "".join(f"t: {t}\n" for t in (
        "p eps Z -> p push 1 A", "p eps Z -> p push 1 B",
        "p a A -> p pop 1", "p b A -> p push 1 A B C",
        "p b B -> p push 1 B A A", "p eps B -> p pop 1")))


@settings(deadline=None, max_examples=200)
@given(hst.one_of(automata(max_levels=2), automata(guess=True)))
@example(TWO_PATHS)
@example(A_BESIDE_B)
def test_runs_read_within_the_yield_bounds(automaton):
    # The tables count letters, not which letters they are.  Every
    # configuration of a run that empties the store has between the least
    # and the most yield of its store left to read.  The runs start from
    # the initial configuration, so every accepted word of up to 4 letters
    # has a length between the two, and from every one-element store whose
    # flag holds at most one symbol.
    flags = [()] + [(s,) for s in SYMBOLS] if automaton.levels == 2 else [()]
    starts = [(state, st.single(sym, automaton.levels, flag))
              for state in automaton.states for sym in SYMBOLS
              for flag in flags]
    checked = 0
    for (state, read, store), total in reference_runs(automaton, starts, 4,
                                                       MAX_STORE):
        low, high = yields(automaton, state, store)
        assert low <= total - read <= high, (state, read, store, total)
        checked += 1
    event("no run empties a store" if not checked else
          f"{'under' if checked < 100 else 'at least'} 100 configurations checked")


class PlainRoundTables:
    """Reference yield tables: the inequalities of ``_YieldTables``, solved
    in rounds that fold every push 1 rule, each chain computed afresh, with
    the same cap on an H that still rises once the rounds outnumber the
    live entries (H >= 0).  Entries are keyed (q, s, q'), ``keys`` in the
    order of ``_YieldTables``'s tuples; a table equal to an earlier one
    gets its id, and id ``_UNFIT`` holds None.  ``cap`` is
    ``_YIELD_CAP`` unless a smaller one is given."""

    def __init__(self, automaton, cap=mc._YIELD_CAP):
        self.automaton, self.cap = automaton, cap
        states = automaton.states
        self.keys = [(q, s, p) for q in states
                     for s in automaton.store_alphabet for p in states]
        self.tables, self.lows, self.highs, self.children = [], [], [], {}
        self.add(None, None)
        self.tables.append(None)
        self.lows.append(None)
        self.highs.append(None)

    def table_id(self, flag):
        if flag.symbol is None:
            return 0
        key = (flag.symbol, self.table_id(flag.rest))
        if key not in self.children:
            self.children[key] = self.add(*key)
        return self.children[key]

    def chain(self, L, H, state, word):
        """The fewest and the most letters the elements of ``word`` read,
        the first on top in ``state``, by the state the last leaves in."""
        states, cap = self.automaton.states, self.cap
        low = {q: 0 if q == state else cap for q in states}
        high = {q: 0 if q == state else -1 for q in states}
        for s in word:
            low, high = (
                {q: min([cap] + [low[p] + L[p, s, q] for p in states])
                 for q in states},
                {q: min(cap, max([-1] + [high[p] + H[p, s, q] for p in states
                                         if high[p] >= 0 and H[p, s, q] >= 0]))
                 for q in states})
        return low, high

    def add(self, top, rest_id):
        states, cap = self.automaton.states, self.cap
        L = dict.fromkeys(self.keys, cap)
        H = dict.fromkeys(self.keys, -1)
        pushes = []
        for t in self.automaton.transitions:
            if (t.pattern[1] if len(t.pattern) == 2 else None) != top:
                continue
            q, s, target, act = t.state, t.pattern[0], t.target, t.action
            cost = int(t.letter is not None)
            if act in (Pop(1), Push(1, ())):
                L[q, s, target] = min(L[q, s, target], cost)
                H[q, s, target] = max(H[q, s, target], cost)
            elif act == Pop(2):
                if top is None:
                    continue  # pop 2 of an empty flag is undefined
                rest_low, rest_high = self.tables[rest_id]
                for p in states:
                    L[q, s, p] = min(L[q, s, p], cost + rest_low[target, s, p],
                                     cap)
                    if rest_high[target, s, p] >= 0:
                        H[q, s, p] = max(H[q, s, p],
                                         min(cost + rest_high[target, s, p], cap))
            elif act.level == 2:
                for p in states:
                    L[q, s, p] = min(L[q, s, p], cost)
                    H[q, s, p] = cap
            else:
                pushes.append((q, s, cost, target, act.word))
        for rounds in itertools.count(1):
            live = sum(h >= 0 for h in H.values())
            changed = False
            for q, s, cost, target, word in pushes:
                low, high = self.chain(L, H, target, word)
                for p in states:
                    if cost + low[p] < L[q, s, p]:
                        L[q, s, p] = cost + low[p]
                        changed = True
                    y = min(cost + high[p], cap)
                    if high[p] >= 0 and y > H[q, s, p]:
                        H[q, s, p] = y if rounds <= live else cap
                        changed = True
            if not changed:
                break
        if (L, H) in self.tables:
            return self.tables.index((L, H))
        lows, highs = [], []
        for t in self.automaton.transitions:
            low = high = 0
            act = t.action
            if isinstance(act, Push) and act.level == 1 and act.word:
                chain = self.chain(L, H, t.target, act.word)
                low, high = min(chain[0].values()), max(chain[1].values())
            lows.append(low)
            highs.append(high)
        self.tables.append((L, H))
        self.lows.append(tuple(lows))
        self.highs.append(tuple(highs))
        return len(self.tables) - 1


def assert_tables_match_plain_rounds(automaton, flags):
    """``_YieldTables`` and ``PlainRoundTables``, asked for the tables of
    ``flags`` in turn, give the same ids, and the same tables, lows, highs
    and children but those of ``_UNFIT``."""
    tables = mc._YieldTables(automaton)
    plain = PlainRoundTables(automaton)
    for flag in flags:
        assert flag_table(tables, flag) == plain.table_id(flag)
    def but_unfit(rows):
        return [row for tid, row in enumerate(rows) if tid != mc._UNFIT]

    keys = plain.keys
    assert ([(list(L), list(H)) for L, H in but_unfit(tables.tables)]
            == [([L[k] for k in keys], [H[k] for k in keys])
                for L, H in but_unfit(plain.tables)])
    assert but_unfit(tables.lows) == but_unfit(plain.lows)
    assert but_unfit(tables.highs) == but_unfit(plain.highs)
    assert ({key: tid for key, tid in tables._children.items()
             if key[1] != mc._UNFIT} == plain.children)


def assert_clamped_tables_match_plain_rounds(automaton, cap, flags):
    """Every table, low and high of ``_YieldTables``, clamped at ``cap``,
    equals that of ``PlainRoundTables`` solved at ``cap``, flag by flag:
    no cut needs a per-input cap, since clamping the exact tables gives
    what rounds solved at the cap give."""
    tables = mc._YieldTables(automaton)
    plain = PlainRoundTables(automaton, cap)
    keys = plain.keys

    def clamped(row):
        return [min(y, cap) for y in row]

    for flag in flags:
        tid, pid = flag_table(tables, flag), plain.table_id(flag)
        L, H = tables.tables[tid]
        plain_L, plain_H = plain.tables[pid]
        assert clamped(L) == [plain_L[k] for k in keys], flag
        assert clamped(H) == [plain_H[k] for k in keys], flag
        assert clamped(tables.lows[tid]) == list(plain.lows[pid]), flag
        assert clamped(tables.highs[tid]) == list(plain.highs[pid]), flag


# Z's chain reads the row of A, which no round changes after the first,
# and then that of B, which changes in the first round after Z's rule was
# folded: Z's rule must be folded again in the second round.
LATE_SECOND_ROW = mc.parse_automaton(
    "levels: 1\nstates: p\ninitial: p\ninput: a\nstore: Z A B C\n"
    "start_symbol: Z\n"
    + "".join(f"t: {t}\n" for t in (
        "p eps Z -> p push 1 A B", "p eps A -> p pop 1",
        "p eps B -> p push 1 C", "p a C -> p pop 1")))


def short_flags(automaton):
    """Every flag of up to three symbols, shortest first (the empty flag
    alone on a 1-level automaton)."""
    if automaton.levels == 1:
        return [st.empty(0)]
    return [st.from_pairs(1, [(s, st.empty(0)) for s in seq])
            for n in range(4) for seq in itertools.product(SYMBOLS, repeat=n)]


@settings(deadline=None, max_examples=200)
@given(hst.one_of(automata(max_levels=2), automata(guess=True)))
@example(TWO_PATHS)
@example(A_BESIDE_B)
@example(LATE_SECOND_ROW)
def test_yield_tables_equal_plain_rounds(automaton):
    assert_tables_match_plain_rounds(automaton, short_flags(automaton))


def checked_chains(folded):
    """A patch of ``_YieldTables._chain`` that checks each chain against
    ``symbol_chain``: the same lows, highs and set of rows read.  It adds
    to ``folded``, per chain, whether a run was folded into one step (the
    chain read fewer rows than one per symbol and live state)."""
    chain = mc._YieldTables._chain

    def checked(tables, L, H, state, word):
        low, high, rows = chain(tables, L, H, state, word)
        first, runs = word
        symbols = [first] + [s for s, k in runs for _ in range(k)]
        want_low, want_high, want_rows = symbol_chain(tables, L, H, state,
                                                      symbols)
        assert ((list(low), list(high), set(rows))
                == (want_low, want_high, set(want_rows)))
        folded.append(len(rows) < len(want_rows))
        return low, high, rows

    return mock.patch.object(mc._YieldTables, "_chain", checked)


@settings(deadline=None, max_examples=200)
@given(hst.one_of(automata(max_levels=2, runs=True),
                  automata(guess=True, runs=True)))
def test_yield_tables_of_run_words_equal_plain_rounds(automaton):
    # The check of test_yield_tables_equal_plain_rounds on push words made
    # of runs, which _chain folds into one step where their rows allow.
    folded = []
    with checked_chains(folded):
        assert_tables_match_plain_rounds(automaton, short_flags(automaton))
    event("a run folded" if any(folded) else "no run folded")


# Push words with a run of A, each with whether _chain folds a run: the
# rows of A leave only into the state they are entered in, and A's high
# from p is unbounded; a row of A has two exits (and no other word has a
# run); the run is entered with two states live.
RUN_CASES = {
    "diagonal": (True, ("p eps Z -> p push 1 A A A B", "p a A -> p pop 1",
                        "p eps A -> p push 1 A A", "p eps B -> q pop 1")),
    "two exits": (False, ("p eps Z -> p push 1 A A A", "p a A -> p pop 1",
                          "p eps A -> q pop 1", "q a A -> q pop 1",
                          "q eps A -> q push 1 A B", "q a B -> q pop 1")),
    "two live": (True, ("p eps Z -> p push 1 B A A A", "p eps B -> p pop 1",
                        "p a B -> q pop 1", "p a A -> p pop 1",
                        "q eps A -> q pop 1", "q a A -> q push 1 A A")),
}


@pytest.mark.parametrize("case", RUN_CASES)
@pytest.mark.parametrize("cap", (64, 1 << 21))
def test_runs_fold_into_one_step_as_symbol_steps(case, cap):
    # The folded tables equal plain rounds, and clamped at ``cap`` they
    # equal plain rounds solved at ``cap``.
    folds, transitions = RUN_CASES[case]
    automaton = mc.parse_automaton(
        "levels: 1\nstates: p q\ninitial: p\ninput: a\nstore: Z A B\n"
        "start_symbol: Z\n" + "".join(f"t: {t}\n" for t in transitions))
    folded = []
    with checked_chains(folded):
        assert_tables_match_plain_rounds(automaton, short_flags(automaton))
        assert_clamped_tables_match_plain_rounds(automaton, cap,
                                                 short_flags(automaton))
    assert any(folded) == folds


# The builder automata that scripts/check_recognizers.py checks.
CHECKED_AUTOMATA = [family[:4] for family in CHECKED_FAMILIES]


def checked_automaton(kind, system, root, sigma):
    """The system, the automaton and the guess loop's flag symbol of a
    ``CHECKED_AUTOMATA`` entry."""
    system = system()
    automaton = (ball_automaton(system, root, sigma) if kind == "ball"
                 else sector_automaton(system, root))
    marker, = {s for t in automaton.transitions if t.action.level == 2
               and isinstance(t.action, Push) for s in t.action.word}
    return system, automaton, marker


@pytest.mark.parametrize("kind,system,root,sigma", CHECKED_AUTOMATA)
def test_builder_yield_tables_equal_plain_rounds(kind, system, root, sigma):
    _, automaton, marker = checked_automaton(kind, system, root, sigma)
    # The flags of the guess loop's heights, lowest first.
    flags = [st.from_pairs(1, [(marker, st.empty(0))] * h) for h in range(13)]
    assert_tables_match_plain_rounds(automaton, flags)


@pytest.mark.parametrize("kind,system,root,sigma", CHECKED_AUTOMATA)
def test_tree_labels_yield_their_count_law(kind, system, root, sigma):
    # Criterion 6's count law, read off the tables and checked against
    # grammar.total_count alone: a tree label X on top of the flag F^h,
    # entered and left in q0, reads exactly the letters of its level word
    # at height h, so its L and its H both equal total_count(X, h), capped.
    # Heights run until the tables settle: once F^h has the table of
    # F^(h-1), so does every taller flag.  They settle by height 46, once
    # every count reaches the cap, save the fib sectors', whose side
    # counters read one letter per height, so their tables differ at
    # every height below 2^62; there the law is checked up to height 65.
    system, automaton, marker = checked_automaton(kind, system, root, sigma)
    tables = automaton._yield_tables()
    nq, q0 = len(automaton.states), automaton.states.index("q0")
    tid, below = 0, None
    for h in range(66):
        L, H = tables.tables[tid]
        for label in system.labels:
            j = tables.row["q0", label] * nq + q0
            count = min(gr.total_count(system, label, h), mc._YIELD_CAP)
            assert L[j] == H[j] == count, (label, h)
        if tid == below:
            break
        below, tid = tid, tables.child(marker, tid)
    if kind == "sector" and system.name == "fibonacci":
        assert h == 65
    else:
        assert tid == below and h <= 46


def built(automaton, word, bounds, memoize, trace=False):
    """The verdict of ``word`` on ``automaton`` and the store nodes its
    search built."""
    CountingStore.built = 0
    with mock.patch.object(mc, "Store", CountingStore):
        v = mc.accepts(automaton, word, bounds, trace=trace, memoize=memoize)
    return v, CountingStore.built


def assert_steps_alike(automaton, word, store, budget, trace=False):
    """The memo-free search of ``word`` on ``automaton`` gives the status,
    count, cut flags and, with ``trace``, witness of ``walk``: under
    ``budget`` and under budgets that run out inside the search, one
    below its count, at half and at a third of it.  Returns its verdict
    under ``budget``, the store nodes it built there, and those it builds
    stepping through every move, as ``walk`` counts them."""
    budgets = [budget]
    while budgets:
        bounds = SearchBounds(store, budgets.pop())
        v, nodes = built(automaton, word, bounds, False, trace)
        w, stepped = walk(automaton, word, bounds, trace)
        fields = [(x.status, x.configurations, x.store_cut, x.yield_cut,
                   x.trace) for x in (v, w)]
        assert fields[0] == fields[1], bounds
        if bounds.max_configurations == budget:
            result = v, nodes, stepped
            count = w.configurations
            budgets = sorted({b for b in (count - 1, count // 2, count // 3)
                              if 0 < b < budget})
    return result


def _guessing(levels, *transitions):
    """An automaton of ``transitions`` that starts in q on Z."""
    return mc.parse_automaton(
        f"levels: {levels}\nstates: s p q r\ninitial: q\ninput: a b\n"
        "store: Z A B Y\nstart_symbol: Z\n"
        + "".join(f"t: {t}\n" for t in transitions))


def _entered_above(*transitions):
    """An automaton whose guess loop on [Z A] is entered at Z[A A], which
    its push 2 never built from Z[A]: the flag has settled at once, since
    no table reads the flag below A.  B[A...] reads what ``transitions``
    say it reads, and no more."""
    return dataclasses.replace(
        _guessing(2, "s eps Z -> q push 2 A A", *transitions),
        initial_state="s")


# The loop's push 2, an epsilon commit to B, and a move that removes B
# after one letter (without it nothing removes B).
GROW = "q eps [Z A] -> q push 2 A"
COMMIT = "q eps [Z A] -> r push 1 B"
READ_ONE = "r a [B A] -> r pop 1"


@settings(deadline=None, max_examples=300)
@given(hst.one_of(automata(guess=True), automata(max_levels=2)),
       hst.lists(hst.sampled_from(LETTERS), max_size=5), hst.integers(0, 12))
# A commit whose letter is not the next one is neither taken nor cut: the
# loop is stepped from Z[A A] up to the store bound.
@example(_entered_above(GROW, "q a [Z A] -> r push 1 B"), "b", 10)
# A commit that reads a letter leaves one fewer for B, which reads one.
@example(_entered_above(GROW, "q a [Z A] -> r push 1 B", READ_ONE), "aa", 10)
# A second way in, above Y: the most yield cuts only on a store of one
# element.
@example(_entered_above("s eps Z -> p push 1 Z Y", "p eps Z -> q push 2 A A",
                        GROW, COMMIT, READ_ONE,
                        "r eps Y -> r pop 1"), "aa", 12)
# No loop: the push 2 leads to another state, or the key has a pop 2
# that fires.  One that reads a letter other than the next never fires.
@example(_entered_above("q eps [Z A] -> p push 2 A", COMMIT,
                        "p eps [Z A] -> p pop 2"), "", 10)
@example(_entered_above(GROW, COMMIT, "q b [Z A] -> q pop 2"), "b", 10)
@example(_entered_above(GROW, COMMIT, "q b [Z A] -> q pop 2"), "", 10)
@example(_entered_above(GROW, COMMIT, "q b [Z A] -> q pop 2"), "a", 10)
# Not a guess step: the push 2 reads a letter, or leads from Z to another
# top chain, Z A, whose table equals the empty flag's; a push 1 of Z Z
# keeps the top chain, but the commit the most yield cuts on Z fires on
# Z Z.
@example(_entered_above("q a [Z A] -> q push 2 A", COMMIT), "aaa", 10)
@example(_guessing(2, "q eps Z -> q push 2 A", "q a Z -> q pop 1",
                   "q eps [Z A] -> q push 2 A", "q eps [Z A] -> q pop 1"),
         "", 10)
@example(_guessing(1, "q eps Z -> q push 1 Z Z", "q a Z -> p pop 1",
                   "p eps Z -> p pop 1", "q eps Z -> r push 1 B",
                   "r eps B -> r pop 1"), "b", 10)
# A push 2 of the empty word keeps the store: stepping runs to the budget.
@example(_guessing(2, "q a Z -> q push 1", "q eps Z -> q push 2"), "", 10)
def test_memo_free_guess_loops_count_as_stepping(automaton, word, store):
    v, fast, stepped = assert_steps_alike(automaton, word, store, 2000,
                                         trace=True)
    assert fast <= stepped
    shape = ("guess loop" if automaton.transitions[:4] == GUESS_LOOP
             else f"{automaton.levels}-level")
    event(f"{shape}: {'jumped' if fast < stepped else 'stepped'}"
          f"{', exact' if v.exact else ''}")


def test_a_budget_spent_at_a_guess_loop_counts_as_stepping():
    # The budget runs out at the loop's first branch point, on the push 2,
    # before the commit after it: no cut yet.  B reads one letter, as many
    # as are left, so the guess-loop cut keeps the push 2.
    entered = _entered_above(GROW, COMMIT, READ_ONE)
    assert_steps_alike(entered, "a", 10, 2)
    v = mc.accepts(entered, "a", SearchBounds(10, 2), memoize=False)
    assert (v.status, v.configurations, v.store_cut, v.yield_cut) \
        == (INCONCLUSIVE, 3, False, False)


def test_a_guess_loop_whose_pop_2_cannot_fire_is_stepped_to_the_store_bound():
    # The key's pop 2 reads b, so on "" and on "a" the loop's step from
    # Z[A A] to Z[A A A] is its only move and keeps the flag's table.
    # Stepping to the store bound of 40 builds 77 store nodes, and the
    # memo-free search steps as ``walk`` does.
    entered = _entered_above(GROW, COMMIT, "q b [Z A] -> q pop 2")
    for word in ("", "a"):
        assert assert_steps_alike(entered, word, 40, 2000)[1:] == (77, 77)
        v = mc.accepts(entered, word, SearchBounds(40, 2000), memoize=False)
        assert (v.status, v.configurations, v.store_cut, v.yield_cut) \
            == (REJECTED, 39, True, True)


# A guess loop whose exit reads fewer letters as the flag grows: B[A]
# reads an a, B[A A] nothing, so the empty word is accepted at height 2.
CHEAPER_EXIT = _guessing(2, "q eps Z -> q push 2 A", GROW,
                         "q eps Z -> r push 1 B", COMMIT,
                         "r eps [B A] -> s pop 2", "s eps [B A] -> p pop 1",
                         "s a B -> p pop 1")


@settings(deadline=None, max_examples=300)
@given(hst.one_of(automata(guess=True), automata(guess=True, runs=True),
                  automata(max_levels=2)),
       hst.lists(hst.sampled_from(LETTERS), max_size=4))
@example(CHEAPER_EXIT, "")
@example(CHEAPER_EXIT, "a")
# No loop: the push 2 leads to another state, or its key has a pop 2.
# Either way the empty word is accepted at height 1.
@example(_guessing(2, "q eps Z -> p push 2 A", "p eps Z -> p pop 1",
                   "p eps [Z A] -> p pop 1"), "")
@example(_guessing(2, "q eps Z -> q push 2 A", GROW,
                   "q eps [Z A] -> p pop 2", "p eps Z -> p pop 1"), "")
def test_guess_loop_cut_agrees_with_reference_bfs(automaton, word):
    # The memo-free search cuts guess loops whose exits need more letters
    # than are left; it must decide as the reference and the memoized
    # search do, unless it spins to its budget, and a rejection the store
    # bound cut nothing from must hold under a larger bound too.
    fast = mc.accepts(automaton, word, SearchBounds(MAX_STORE, 10 ** 4),
                      memoize=False)
    if fast.status == INCONCLUSIVE:
        event("inconclusive")
        return
    memo = mc.accepts(automaton, word, SearchBounds(MAX_STORE, 10 ** 5))
    status, _ = reference_accepts(automaton, word, MAX_STORE)
    assert fast.status == status == memo.status
    if fast.status == REJECTED and fast.exact:
        assert reference_accepts(automaton, word, MAX_STORE + 3)[0] == REJECTED
    event(f"{fast.status}{', exact' if fast.exact else ''}"
          f"{' where the memo is not' if fast.exact and not memo.exact else ''}")


@pytest.mark.parametrize("kind,system,root,sigma,levels", [
    pytest.param(kind, make, root, sigma, levels[:3],
                 id=f"{kind}-{make.__name__}-{root}-{sigma}")
    for kind, make, root, sigma, levels in CHECKED_FAMILIES
    + (("ball as-printed", gr.fibonacci, "W", 5, range(0, 3)),)])
def test_builder_guess_loops_count_as_stepping(kind, system, root, sigma,
                                               levels):
    # Positives and mutants of the first three levels of each family
    # scripts/check_recognizers.py checks.  The as-printed fib ball's
    # guess loop pushes F F, so its steps grow the store by 2.  Every loop
    # ends at the guess-loop cut, before the store bound: each verdict is
    # exact.
    system = system()
    kind, _, variant = kind.partition(" ")
    automaton = (sector_automaton(system, root) if kind == "sector"
                 else ball_automaton(system, root, sigma,
                                     Variant(variant or "corrected")))
    spec = ContourSpec(system, root, sigma=sigma, kind=kind)
    for level in levels:
        word = contour_word(spec, level)
        store = mc.default_bounds(len(word)).max_store_symbols
        for w in [word, *mutate(word, 7 + level, 5,
                                alphabet=automaton.input_alphabet)]:
            v, fast, stepped = assert_steps_alike(automaton, w, store, 10 ** 7)
            assert v.exact and fast <= stepped


@settings(deadline=None, max_examples=200)
@given(automata())
def test_render_parse_round_trip(automaton):
    text = mc.render_automaton(automaton)
    assert mc.parse_automaton(text) == automaton


# Plain names, reserved ones, and strings of the characters the text
# format gives a meaning to.
NAMES = hst.one_of(hst.sampled_from(("q", "Z", "a", "A1", "e", "eps", "-", ">")),
                   hst.text("qZ->#.[]: \n", max_size=3))


@hst.composite
def named_fields(draw):
    """Keyword arguments of a small ``Automaton`` whose names come from
    ``NAMES``; they need not make a well-formed one."""
    levels = draw(hst.integers(1, 2))
    states = draw(hst.lists(NAMES, min_size=1, max_size=2))
    letters = draw(hst.lists(NAMES, max_size=2))
    symbols = draw(hst.lists(NAMES, min_size=1, max_size=3))
    symbol, level = hst.sampled_from(symbols), hst.integers(1, levels)
    action = hst.builds(Pop, level) | hst.builds(
        Push, level, hst.lists(symbol, max_size=2).map(tuple))
    transitions = hst.lists(hst.builds(
        Transition, hst.sampled_from(states), hst.sampled_from([None, *letters]),
        hst.lists(symbol, min_size=1, max_size=levels).map(tuple),
        hst.sampled_from(states), action), max_size=4)
    return dict(levels=levels, states=tuple(states), initial_state=states[0],
                input_alphabet=tuple(letters), store_alphabet=tuple(symbols),
                initial_symbol=symbols[0], transitions=tuple(draw(transitions)),
                name=draw(hst.text("ab #\n", max_size=4)))


@settings(deadline=None, max_examples=200)
@given(named_fields())
@example(dict(levels=2, states=("q",), initial_state="q", input_alphabet=(),
              store_alphabet=("-", ">"), initial_symbol="-",
              transitions=(Transition("q", None, ("-", ">"), "q", Pop(1)),),
              name="two\nlines"))
def test_names_are_rejected_or_survive_render_parse(fields):
    try:
        automaton = Automaton(**fields)
    except mc.MachineError as exc:
        event(f"rejected at {exc.where!r}")
        return
    event("built")
    assert mc.parse_automaton(mc.render_automaton(automaton)) == automaton


@settings(deadline=None, max_examples=200)
@given(automata(), hst.lists(hst.sampled_from(LETTERS), max_size=4),
       hst.integers(0, MAX_STORE), hst.integers(1, 4))
def test_raising_the_store_bound_keeps_acceptance(automaton, word, small,
                                                   extra):
    budget = 10 ** 5
    low = mc.accepts(automaton, word, SearchBounds(small, budget))
    high = mc.accepts(automaton, word, SearchBounds(small + extra, budget))
    if low.status == ACCEPTED:
        assert high.status != REJECTED


@hst.composite
def trees(draw, warm=False):
    """The ball recognizer of a random substitution system over the labels
    A, B and C, and a pair of a contour word of it, as is or with one
    edit, and bounds: a store bound up to the one the builders suggest,
    and a budget.  With ``warm``, a first pair comes before it: a contour
    word of level 1 to 4, as is three times in four, under the suggested
    store bound and a budget of 10^4, so that its search most often walks
    the whole tree.  The second word then has level 1 to 4 too, and its
    edit is a substitution: a level-0 word has no subtree to jump, and an
    edit that changes the length is rejected at the commit by the yield
    cut, before the walk reaches a subtree."""
    labels = ("A", "B", "C")
    label = hst.sampled_from(labels)
    root, sigma = draw(label), draw(hst.integers(1, 3))
    first = draw(hst.integers(1, 4)) if warm else None
    level = draw(hst.integers(1 if warm else 0, 4))
    system = SubstitutionSystem(
        "drawn", labels,
        {x: tuple(draw(hst.lists(label, min_size=1, max_size=3)))
         for x in labels},
        {x: draw(hst.sampled_from(LETTERS)) for x in labels}, (sigma,))
    spec = ContourSpec(system, root, sigma=sigma)
    cases = []
    if warm:
        word = contour_word(spec, first)
        if draw(hst.integers(0, 3)) == 0:
            word = mutate(word, draw(hst.integers(0, 99)), 1, LETTERS)[0]
        cases.append((word, SearchBounds(
            suggested_store_bound(system, sigma, first), 10 ** 4)))
    word = contour_word(spec, level)
    if draw(hst.booleans()):
        if warm:
            i = draw(hst.integers(0, len(word) - 1))
            swap = {"a": "b", "b": "a"}[word[i]]
            word = word[:i] + (swap,) + word[i + 1:]
        else:
            word = mutate(word, draw(hst.integers(0, 99)), 1, LETTERS)[0]
    # Store bounds up to the suggested one, and small budgets, put the
    # bounds inside jumped copies as well as between them.
    suggested = suggested_store_bound(system, sigma, level)
    store = draw(hst.one_of(hst.just(suggested),
                            hst.integers(0, suggested)))
    budget = draw(hst.one_of(hst.just(10 ** 4),
                             hst.integers(1, 3 * len(word) + 9)))
    cases.append((word, SearchBounds(store, budget)))
    return (ball_automaton(system, root, sigma), *cases)


class _Word(tuple):
    """An input word that counts the comparisons of its slices, by which
    the search matches a copy of a segment against a summary's letters
    (a slice of the word it was made on); with ``match=False`` no
    comparison succeeds, so every copy is walked step by step."""

    def __new__(cls, letters, match=True):
        word = super().__new__(cls, letters)
        word.match, word.compared = match, 0
        return word

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Slice(self, super().__getitem__(i))
        return super().__getitem__(i)


class _Slice(tuple):
    """A slice of a ``_Word``, which counts its comparisons there."""

    def __new__(cls, word, letters):
        piece = super().__new__(cls, letters)
        piece.word = word
        return piece

    def __eq__(self, other):
        self.word.compared += 1
        return self.word.match and super().__eq__(other)

    __hash__ = tuple.__hash__


@settings(deadline=None, max_examples=300)
@given(trees(), hst.booleans())
def test_segment_jumps_change_nothing(case, memoize):
    # A jump over a copy of a segment must leave the verdict, its flags,
    # the configuration count and the witness as walking the copy would.
    # Under the memo this holds on tree walks, where no two paths meet: a
    # path that met a jumped copy would be pruned at its end, not inside.
    automaton, (word, bounds) = case
    start = (automaton.initial_state, 0, automaton.initial_store())
    jumping = _Word(word)
    jumped, walked = (
        mc._search(automaton, w, start, None, bounds, True, memoize)
        for w in (jumping, _Word(word, match=False)))
    assert ((jumped.status, jumped.configurations, jumped.store_cut,
             jumped.yield_cut, jumped.trace)
            == (walked.status, walked.configurations, walked.store_cut,
                walked.yield_cut, walked.trace))
    event(f"memoize={memoize}: "
          f"{'a copy was compared' if jumping.compared else 'no copy'}")


@settings(deadline=None, max_examples=200)
@given(trees(warm=True))
def test_a_warm_automaton_searches_as_a_fresh_one(case):
    # Memo-free searches share their segment summaries through the
    # automaton, so the second word may jump copies of subtrees the first
    # one walked, under other bounds.  It must give the verdict, flags,
    # count and witness it gives on a fresh automaton, and build no more
    # store nodes.  An edit may write a letter the automaton lacks, so the
    # words are searched as they are, as test_segment_jumps_change_nothing
    # searches them.
    automaton, (first, first_bounds), (word, bounds) = case
    start = (automaton.initial_state, 0, automaton.initial_store())
    fresh = dataclasses.replace(automaton)
    mc._search(automaton, first, start, None, first_bounds, False, False)
    fields, nodes = [], []
    for a in (automaton, fresh):
        CountingStore.built = 0
        with mock.patch.object(mc, "Store", CountingStore):
            v = mc._search(a, word, start, None, bounds, True, False)
        fields.append((v.status, v.configurations, v.store_cut, v.yield_cut,
                       v.trace))
        nodes.append(CountingStore.built)
    assert fields[0] == fields[1]
    assert nodes[0] <= nodes[1]
    event("fewer nodes warm" if nodes[0] < nodes[1] else "as many nodes")


@settings(deadline=None, max_examples=200)
@given(hst.one_of(
    hst.tuples(automata(guess=True),
               hst.lists(hst.sampled_from(LETTERS), max_size=6).map(tuple),
               hst.integers(0, 2 * MAX_STORE).map(
                   lambda store: SearchBounds(store, 10 ** 5))),
    trees().map(lambda case: (case[0], *case[1]))))
def test_the_unfit_table_changes_no_memoized_search(case):
    # A memoized search gives a guess loop's grown flag table _UNFIT where
    # a memo-free one cuts the guess step, and solves no table above it.
    # A fresh copy whose floor never fires solves the table of every
    # height it reaches, and must give the same verdict, flags, count,
    # witness and store nodes.
    automaton, word, bounds = case
    start = (automaton.initial_state, 0, automaton.initial_store())

    def search(a):
        CountingStore.built = 0
        with mock.patch.object(mc, "Store", CountingStore):
            v = mc._search(a, word, start, None, bounds, True, True)
        return (v.status, v.configurations, v.store_cut, v.yield_cut,
                v.trace, CountingStore.built)

    fresh = dataclasses.replace(automaton)
    marked = search(automaton)
    with mock.patch.object(mc._YieldTables, "floor", return_value=-1):
        assert search(fresh) == marked
    event("fewer tables solved" if len(automaton._yields.tables)
          < len(fresh._yields.tables) else "as many tables solved")


def _recorded_divergence():
    """The ball recognizer (sigma 3, root B) of A -> B, B -> A, C -> A
    with letters b, a, a, and its system: under the memo, jumps change
    the count of the word b b a."""
    labels = ("A", "B", "C")
    system = SubstitutionSystem(
        "drawn", labels, {"A": ("B",), "B": ("A",), "C": ("A",)},
        {"A": "b", "B": "a", "C": "a"}, (3,))
    return system, ball_automaton(system, "B", 3)


def _jumped_and_walked(automaton, store, memoize):
    """(status, count, cut flags, witness) of b b a, searched jumping and
    then refusing every jump, under ``store``."""
    start = (automaton.initial_state, 0, automaton.initial_store())
    bounds = SearchBounds(store, 10 ** 4)
    return [(v.status, v.configurations, v.store_cut, v.yield_cut, v.trace)
            for v in (mc._search(automaton, w, start, None, bounds, True,
                                 memoize)
                      for w in (_Word("bba"), _Word("bba", match=False)))]


@pytest.mark.parametrize("store,count", [(40, 365), (12, 48)])
def test_memo_free_jumps_change_nothing_where_memoized_ones_do(store, count):
    # On a fresh automaton, and on one whose summaries the family's
    # contour words at levels 0-4 left (read as tuples, as _Word is).
    for warm in (False, True):
        system, automaton = _recorded_divergence()
        if warm:
            spec = ContourSpec(system, "B", sigma=3)
            start = (automaton.initial_state, 0, automaton.initial_store())
            for level in range(5):
                mc._search(automaton, _Word(contour_word(spec, level)), start,
                           None, SearchBounds(store, 10 ** 4), False, False)
            assert automaton._summaries
        jumped, walked = _jumped_and_walked(automaton, store, False)
        assert jumped == walked
        assert jumped[:4] == (REJECTED, count, True, False)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the memo prunes a path that meets a jumped copy at "
                   "the copy's end or later: 325 configurations against 323 "
                   "walked at store bound 40, 48 against 46 at 12")
@pytest.mark.parametrize("store", [40, 12])
def test_memoized_jumps_change_nothing_on_the_recorded_case(store):
    jumped, walked = _jumped_and_walked(_recorded_divergence()[1], store, True)
    assert jumped == walked


def test_epsilon_cycle_decided_at_once():
    # The push 1 Z step rewrites Z as Z: a store-preserving epsilon-cycle.
    automaton = mc.parse_automaton(
        "levels: 1\nstates: q0\ninitial: q0\ninput: a\nstore: Z\n"
        "start_symbol: Z\n"
        "t: q0 eps Z -> q0 push 1 Z\n"
        "t: q0 a Z -> q0 pop 1\n")
    for word, status in (("", REJECTED), ("a", ACCEPTED), ("aa", REJECTED)):
        verdict = mc.accepts(automaton, word)
        assert verdict.status == status, word
        assert verdict.configurations <= 2, word


def test_epsilon_cycle_without_branch_point_is_closed():
    # p -> q -> r -> p keeps the store: each state has one epsilon-step.
    # No run empties the store, so accepts would drop the first push by
    # the yield bound; reachable searches without it.
    cycle = _unary("s eps Z -> p push 1 Z", "p eps Z -> q push 1 Z",
                   "q eps Z -> r push 1 Z", "r eps Z -> p push 1 Z",
                   states="s p q r")
    verdict = mc.reachable(cycle, cycle.initial_configuration(),
                           mc.Configuration("p", 0, st.empty(1)), "")
    assert verdict.status == REJECTED
    assert verdict.configurations <= 2 * 4


def _jumping_cycle(prefix, k=2):
    # ``prefix`` states, s0 reading a and the others epsilon, push 1 Z
    # their way to p, on the epsilon-cycle p Z -> q A.Z -> r1 B.Z -> ...
    # -> r(k-1) B.Z -> p Z.  Each round removes A in a segment of k
    # configurations, and later rounds jump it.  At 3 levels there are no
    # yield tables, so no yield cut ends the cycle: only the memo can.
    states = ["s0", *(f"c{i}" for i in range(1, prefix)), "p"]
    copy = ["q", *(f"r{i}" for i in range(1, k))]
    return mc.parse_automaton(
        f"levels: 3\nstates: {' '.join(states + copy)}\ninitial: s0\n"
        "input: a\nstore: Z A B\nstart_symbol: Z\n"
        + "".join(f"t: {q} {'eps' if i else 'a'} Z -> {nxt} push 1 Z\n"
                  for i, (q, nxt) in enumerate(zip(states, states[1:])))
        + "t: p eps Z -> q push 1 A Z\n"
        + "".join(f"t: {q} eps {'B' if i else 'A'} -> {nxt} push 1 B\n"
                  for i, (q, nxt) in enumerate(zip(copy, copy[1:])))
        + f"t: {copy[-1]} eps B -> p pop 1\n")


def test_the_memo_closes_a_cycle_whose_rounds_jump_a_segment():
    # A jumped copy is one generated configuration.  The configurations a
    # chain walk generates repeat with the cycle, and the memo remembers
    # their 1st, 2nd, 4th, ..., so a later round meets one.  With 10
    # prefix states the copy jumped from the 15th configuration walks
    # through the 16th; with 17, the one jumped from the 31st the 32nd.
    bounds = SearchBounds(100, 10 ** 5)
    for prefix, count in ((4, 10), (10, 19), (13, 41), (17, 39)):
        cycle = _jumping_cycle(prefix)
        verdict = mc.accepts(cycle, "a", bounds)
        assert (verdict.status, verdict.configurations) == (REJECTED, count)
        spun = mc.accepts(cycle, "a", bounds, memoize=False)
        assert spun.status == INCONCLUSIVE


def test_the_memo_closes_cycles_that_jump_longer_segments():
    # The cycle above with copies of k configurations behind every prefix
    # of up to 24 states, so jumps start at every count the memo's powers
    # of two leave between them.  A jump is one generated configuration;
    # counting it as k moves the remembered ones off the cycle's period,
    # and some of these cycles spin until the budget runs out.
    bounds = SearchBounds(100, 10 ** 5)
    for k in (2, 6, 14):
        for prefix in range(1, 25):
            verdict = mc.accepts(_jumping_cycle(prefix, k), "a", bounds)
            assert verdict.status == REJECTED, (k, prefix)


def test_path_meeting_another_is_pruned_at_its_next_remembered_step():
    # From the branch point s, path a reaches (m, 0, Z) in 3 steps and path
    # b in 2, then both would read the same a^n.  Path a remembers its 1st,
    # 2nd, 4th, ... configuration; b meets a at a's 3rd and is pruned at
    # a's 4th, (m, 1, Z), one configuration more than a full memo table.
    # Only b empties the store, so the yield bound drops just the push
    # after the last letter: n + 4 configurations with a full memo table.
    meet = _unary("s eps Z -> a1 push 1 Z", "s eps Z -> b1 push 1 Z",
                  "a1 eps Z -> a2 push 1 Z", "a2 eps Z -> m push 1 Z",
                  "b1 eps Z -> m push 1 Z", "m a Z -> m push 1 Z",
                  "m b Z -> m pop 1", states="s a1 a2 b1 m")
    for n in (10, 100):
        verdict = mc.accepts(meet, "a" * n)
        assert verdict.status == REJECTED
        assert verdict.configurations == (n + 4) + 1


def _unary(*transitions, levels=1, states="p q"):
    return mc.parse_automaton(
        f"levels: {levels}\nstates: {states}\ninitial: {states.split()[0]}\n"
        "input: a b\nstore: Z F\nstart_symbol: Z\n"
        + "".join(f"t: {t}\n" for t in transitions))


def test_converging_paths_are_explored_once():
    # Counts are those of a search that remembers every configuration.
    # Each automaton can empty its store only by reading b, which the
    # input a^n lacks, so the yield bound cuts just the last steps.
    # Two states reading a into either one: 2 configurations per letter,
    # but q needs 2 letters more and p 1.
    both = _unary("p a Z -> p push 1 Z", "p a Z -> q push 1 Z",
                  "q a Z -> p push 1 Z", "q a Z -> q push 1 Z",
                  "p b Z -> p pop 1")
    for n, count in ((16, 30), (24, 46)):
        verdict = mc.accepts(both, "a" * n)
        assert (verdict.status, verdict.configurations) == (REJECTED, count)
    # Two branches that meet again two epsilon-steps after each letter;
    # after the last letter both need one more.
    diamond = _unary("b a Z -> x1 push 1 Z", "b a Z -> y1 push 1 Z",
                     "x1 eps Z -> x2 push 1 Z", "x2 eps Z -> b push 1 Z",
                     "y1 eps Z -> y2 push 1 Z", "y2 eps Z -> b push 1 Z",
                     "b b Z -> b pop 1", states="b x1 x2 y1 y2")
    for n, count in ((8, 36), (16, 76)):
        verdict = mc.accepts(diamond, "a" * n)
        assert (verdict.status, verdict.configurations) == (REJECTED, count)
    # Epsilon-pops into either state: 2 configurations per popped Z.
    pops = _unary("p eps Z -> p pop 1", "p eps Z -> q pop 1",
                  "q eps Z -> p pop 1", "q eps Z -> q pop 1")
    for k in (8, 16):
        zs = st.from_pairs(1, [("Z", st.empty(0))] * k)
        more = st.from_pairs(1, [("Z", st.empty(0))] * (k + 1))
        verdict = mc.reachable(pops, mc.Configuration("p", 0, zs),
                               mc.Configuration("p", 0, more), "")
        assert (verdict.status, verdict.configurations) == (REJECTED, 2 * k + 1)
    # After one letter, guess a height, count it down with epsilon-steps
    # and read on: every guess meets the one before at its first step.
    guesses = _unary("s a Z -> g push 1 Z",
                     "g eps Z -> g push 2 F", "g eps Z -> c push 1 Z",
                     "g eps [Z F] -> g push 2 F", "g eps [Z F] -> c push 1 Z",
                     "c eps [Z F] -> c pop 2", "c a Z -> c push 1 Z",
                     "c b Z -> c pop 1", levels=2, states="s g c")
    for n, count in ((100, 931), (400, 3631)):
        verdict = mc.accepts(guesses, "a" * n)
        assert (verdict.status, verdict.configurations) == (REJECTED, count)

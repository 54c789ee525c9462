"""k-iterated pushdown automata and their bounded acceptance search.

An automaton reads input letters while rewriting a k-level iterated store
(see :mod:`itpda.store`).  A transition fires when its state matches, its
input item is epsilon or the next unread letter, and its topsym pattern
equals the store's visible symbol chain exactly (a pattern shorter than k
therefore requires the corresponding inner stores to be empty).  A word is
accepted when some computation reaches input exhausted + store empty, in
any state.

The search reads its input as one str of letter codes, one character per
letter: a one-character letter is its own code, and a longer one gets a
character that no letter contains (see ``_Codes``).  :func:`accepts`,
:func:`reachable` and :func:`step` encode the word they are given, a
sequence of letters or a text as :func:`itpda.grammar.format_word` writes
it, and check its letters while they do.  Reading a letter is then one
character comparison, and matching a repeated segment of the input one
comparison of two str slices.

Because epsilon push loops make the raw configuration graph infinite, the
search is bounded.  ``max_store_symbols`` prunes configurations whose
store grows past the bound; a search that exhausts the pruned graph
without finding acceptance reports Rejected.  ``max_configurations`` is a
hard effort budget: exceeding it reports Inconclusive, since unexplored
configurations might still accept.  Enlarging the store bound can only
move verdicts toward the true language, never flip Accepted to Rejected
or vice versa on words whose accepting runs fit the bound.

On 1- and 2-level automata the acceptance search also drops every
depth-1 push whose new elements must read more letters than the input
has left, and, at a branch point on a store of one element, every one
whose new elements cannot read as many letters as are left.  Both
bounds are read from one table per flag, which holds the fewest and the
most letters an element reads (see ``_YieldTables``).  No accepting run
breaks either bound, so the prunes change no verdict.  The builders'
one branch point is the guess loop on its start symbol, alone on the
store, so together they cut the tree walk of a guessed height at its
commit, whether the height is too tall or too short for the word, and so
every height of a word whose length no height yields.  A memo-free
search also ends a guess loop at the first height from which no exit of
the loop can read as few letters as are left, at that height or any
taller one, so its rejections need no store bound (``Verdict.exact``);
:func:`enumerate_language` ends guess loops the same way.  A memoized
search walks on there, but solves no table for the taller heights.

The search is depth-first and expands transitions in declaration order,
so verdicts and witness traces are deterministic.  Every configuration
it generates is looked up among those it remembers, but it remembers
only the ones at which it can branch and a few on each path between
them (see ``_search``).  No work is multiplied, every cycle is closed,
and tree walks search in memory proportional to their depth, not to
the configurations visited.  Between branch points the search follows
the one successor in place, without the DFS stack, and it builds the
store nodes of pops and pushes at depths 1 and 2 itself.  :func:`step`,
the witness replay and :func:`enumerate_language` step through one
function, ``_moves``.

The acceptance search walks each repeated subtree once.  The run that
removes a top element s[f] depends only on the state, s, f and the
letters it reads, so the search keeps a summary of each such run it
completes between branch points, and matches a later copy of the same
element against the input in one comparison instead of walking it
(see ``_search``).  In a contour word every (label, height) pair's
level word recurs, and all its copies share one flag, so a tree walk
builds store nodes for the first copy of each pair only, with or
without the memo, which takes a jumped copy as one step.  Memo-free
searches keep their summaries on the automaton, so the words searched
on it share them: a later word jumps the subtrees an earlier one
walked, as the positive and the mutants of a family do.  A memoized
search keeps its own for the one search.  Counts, verdicts and
witnesses are those of walking every copy (but see ``Verdict``): a
witness is the walked path, replayed from the choices made at branch
points.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from . import store as st
from .grammar import parse_word
from .store import Store

ACCEPTED = "accepted"
REJECTED = "rejected"
INCONCLUSIVE = "inconclusive"

Word = tuple[str, ...]


class MachineError(ValueError):
    """Ill-formed automaton, or a search asked for something it cannot do.

    ``where`` locates a fault in an automaton: the header key of the text
    format that declares the faulty part (``"levels"``, ``"states"``,
    ``"initial"``, ``"input"``, ``"store"`` or ``"start_symbol"``), or the
    index of the faulty transition.  It is None for any other error.
    """

    def __init__(self, message: str, where: Union[str, int, None] = None):
        super().__init__(message)
        self.where = where


class UndeclaredLetterError(MachineError):
    """Input contains a letter outside the automaton's alphabet."""


class SearchLimitError(RuntimeError):
    """An enumeration exceeded its configuration budget."""


class AutomatonFormatError(MachineError):
    """Malformed automaton file; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Pop:
    level: int

    def __str__(self):
        return f"pop {self.level}"


@dataclass(frozen=True)
class Push:
    level: int
    word: Word

    def __str__(self):
        return " ".join([f"push {self.level}", *self.word]).rstrip()


Action = Union[Pop, Push]


@dataclass(frozen=True)
class Transition:
    state: str
    letter: Optional[str]  # None = epsilon
    pattern: Word
    target: str
    action: Action


@dataclass(frozen=True, slots=True)
class Configuration:
    state: str
    position: int
    store: Store


@dataclass(frozen=True)
class SearchBounds:
    """None means unlimited.  At least one bound should stay finite for
    automata with epsilon push cycles (not statically checkable).  A
    negative store bound or a budget below one configuration raises
    :class:`MachineError`: either would decide every word without a
    search."""

    max_store_symbols: Optional[int] = None
    max_configurations: Optional[int] = None

    def __post_init__(self):
        if self.max_store_symbols is not None and self.max_store_symbols < 0:
            raise MachineError(
                f"store bound must be >= 0, got {self.max_store_symbols}")
        if self.max_configurations is not None and self.max_configurations < 1:
            raise MachineError(
                f"configuration budget must be >= 1, got {self.max_configurations}")


def _limits(bounds: SearchBounds) -> tuple:
    """The store bound and the budget of ``bounds``, each unlimited one as
    infinity, which no store size or count reaches."""
    store, budget = bounds.max_store_symbols, bounds.max_configurations
    return (math.inf if store is None else store,
            math.inf if budget is None else budget)


def default_bounds(input_length: int) -> SearchBounds:
    return SearchBounds(max_store_symbols=4 * (input_length + 4),
                        max_configurations=10 ** 7)


@dataclass
class Verdict:
    """``trace``: on acceptance, when asked for, the path the search
    walked from its start, replayed from the transitions it chose at
    branch points: each configuration with the id of the transition it
    takes (None for the last).  The path may pass a configuration more
    than once; each entry steps to the next under :func:`step`.
    ``configurations``: the configurations the search generated.  A
    copy of a segment that the search jumped (see ``_search``) counts as
    the configurations walking it generates, so budgets, counts and the
    count ``itpda run`` prints mean what they mean for a search that walks
    every copy, save that under the memo a path meeting a jumped copy is
    pruned at the copy's end or later, and counts what it walks of it.
    ``store_cut``: the store bound pruned a configuration.
    ``yield_cut``: a yield bound pruned one: a push whose new elements
    need more letters than are left, or one at a branch point on a store
    of one element whose new elements cannot read that many (see
    ``_YieldTables``), or a guess step of a loop no exit of which reads
    as few letters as are left (see ``_search``).  ``exact``: the status
    holds under any bounds: the search accepted, or it rejected and the
    store bound pruned nothing, so no run of any store size accepts;
    yield cuts drop no accepting run."""

    status: str
    trace: Optional[list[tuple[Configuration, Optional[int]]]] = None
    configurations: int = 0
    store_cut: bool = False
    yield_cut: bool = False

    def __bool__(self):
        return self.status == ACCEPTED

    @property
    def exact(self) -> bool:
        """Accepted, or rejected with no store cut (see above)."""
        return self.status == ACCEPTED or (self.status == REJECTED
                                           and not self.store_cut)


@dataclass(frozen=True)
class Automaton:
    """States, alphabets, iteration level and transition table.

    Construction is the one check that an automaton is well formed; it
    raises :class:`MachineError`, with ``where`` set, at the first fault:
    an undeclared or doubly declared name, a level or pattern length out
    of range, or a name the text format cannot carry (empty, with
    whitespace, ``#`` or ``->``, the letter ``eps``, or a symbol that
    :func:`itpda.store.check_symbol` rejects).
    """

    levels: int
    states: Word
    initial_state: str
    input_alphabet: Word
    store_alphabet: Word
    initial_symbol: str
    transitions: tuple[Transition, ...]
    name: str = field(default="", compare=False)
    _index: dict = field(init=False, repr=False, compare=False)
    _codes: "_Codes" = field(init=False, repr=False, compare=False)
    _yields: Optional["_YieldTables"] = field(default=None, init=False,
                                              repr=False, compare=False)
    _start: Store = field(init=False, repr=False, compare=False)
    _summaries: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.levels < 1:
            raise MachineError("iteration level must be >= 1", "levels")
        for key, kind, names in (("states", "state", self.states),
                                 ("input", "input letter", self.input_alphabet),
                                 ("store", "store symbol", self.store_alphabet)):
            declared = set()
            for name in names:
                if (not name or "#" in name or "->" in name
                        or any(c.isspace() for c in name)):
                    raise MachineError(
                        f"{kind} {name!r} is empty or holds whitespace, "
                        "'#' or '->'", key)
                if name in declared:
                    raise MachineError(f"{kind} {name!r} declared twice", key)
                declared.add(name)
        if "eps" in self.input_alphabet:
            raise MachineError("input letter 'eps' is reserved for epsilon moves",
                               "input")
        for sym in self.store_alphabet:
            try:
                st.check_symbol(sym)
            except st.StoreError as exc:
                raise MachineError(str(exc), "store") from None
        states = set(self.states)
        letters = set(self.input_alphabet)
        symbols = set(self.store_alphabet)
        if self.initial_state not in states:
            raise MachineError(
                f"initial state {self.initial_state!r} undeclared", "initial")
        if self.initial_symbol not in symbols:
            raise MachineError(
                f"start symbol {self.initial_symbol!r} undeclared", "start_symbol")
        for i, t in enumerate(self.transitions):
            label = f"transition {i}"
            word = t.action.word if isinstance(t.action, Push) else ()
            for kind, names, declared in (
                    ("state", (t.state, t.target), states),
                    ("input letter", () if t.letter is None else (t.letter,), letters),
                    ("pattern symbol", t.pattern, symbols),
                    ("push-word symbol", word, symbols)):
                for name in names:
                    if name not in declared:
                        raise MachineError(f"{label}: undeclared {kind} {name!r}", i)
            if not t.pattern or len(t.pattern) > self.levels:
                raise MachineError(
                    f"{label}: pattern length must be 1..{self.levels}", i)
            if not 1 <= t.action.level <= self.levels:
                raise MachineError(
                    f"{label}: action level {t.action.level} outside "
                    f"1..{self.levels}", i)
        codes = _Codes(self.input_alphabet)
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_start", st.node(
            self.initial_symbol, st.empty(self.levels - 1),
            st.empty(self.levels)))
        # The segment summaries memo-free acceptance searches share (see
        # ``_search``).
        object.__setattr__(self, "_summaries", {})
        # (state, pattern) -> (whether the search can branch there, ordered
        # applicable transitions), duplicates merged.  Entries carry the
        # code of their letter (None for epsilon), and an opcode so the
        # search loop can build the nodes of the store operations at
        # depths 1 and 2 itself:
        #   0 pop at depth 1, 1 pop at depth 2, 2 push at depth 1,
        #   3 push at depth 2, 4 pop or push deeper (left to ``store``).
        # A push's payload is its word reversed, ready for top-down
        # construction; the last field is the push word (None for a pop).
        index: dict = {}
        seen = set()
        for tid, t in enumerate(self.transitions):
            key = (t.state, t.letter, t.pattern, t.target, t.action)
            if key in seen:
                continue
            seen.add(key)
            level = t.action.level
            code = None if t.letter is None else codes.code[t.letter]
            if isinstance(t.action, Push):
                op = 2 if level == 1 else 3 if level == 2 else 4
                entry = (tid, code, t.target, op, level,
                         tuple(reversed(t.action.word)), t.action.word)
            else:
                op = 0 if level == 1 else 1 if level == 2 else 4
                entry = (tid, code, t.target, op, level, None, None)
            index.setdefault((t.state, t.pattern), []).append(entry)
        for key, entries in index.items():
            index[key] = (_can_branch(entries), tuple(entries))
        object.__setattr__(self, "_index", index)

    def initial_store(self) -> Store:
        """The start symbol over the empty flag, on the empty store.  It
        is built once, with the automaton, and shared by every search and
        enumeration: stores are immutable, and a search writes ``_tid``
        only on the flag nodes it makes."""
        return self._start

    def initial_configuration(self) -> Configuration:
        return Configuration(self.initial_state, 0, self.initial_store())

    def _yield_tables(self) -> Optional["_YieldTables"]:
        """The automaton's yield tables, built on first use, each table
        solved once (see ``_YieldTables``); None above 2 levels."""
        if self.levels > 2:
            return None
        if self._yields is None:
            object.__setattr__(self, "_yields", _YieldTables(self))
        return self._yields


# The cap of every yield table entry: more letters than any input has.
_YIELD_CAP = 1 << 62

# A most-yield entry for a way no run can remove an element.
_NEVER = -1

# The table id of a flag above a guess loop's floor (see ``_YieldTables``).
_UNFIT = 1


class _YieldTables:
    """Least- and most-yield tables of a 1- or 2-level automaton.

    For a flag f, the table of f holds two tuples about the element s[f],
    from the moment it is on top in state q until it is removed in state
    q': L_f[q, s, q'] is the fewest letters any run reads meanwhile, or
    the cap when no run removes it that way, and H_f[q, s, q'] is the
    most, or ``_NEVER``.  Both are indexed by ``row[q, s] * len(states) +
    q'``.  Each is the least fixpoint, L in min-plus and H in max-plus, of
    one inequality per matching transition: pop 1 (and push 1 of the empty
    word) gives its letter into its target, pop 2 adds the rest's table at
    the target, and push 1 w adds the chain over the new elements, the
    first from the target into some p1, the next from p1 into p2, and so
    on.  Push 2 grows a flag whose table is not known: it gives L its letter
    alone for every exit (the grown element still reads at least 0), which
    keeps every L a lower bound, and makes H unbounded.  Indexing by exit
    state keeps tree walks finite: a tree node is expanded from one state
    into children that are entered and left in another, so its entry
    depends only on theirs from that state.  A per-symbol maximum over
    states would feed the node's own entry back into it, and every tree
    element would come out unbounded.

    The push 1 inequalities are solved in plain rounds, as in Knuth's
    grammar problem ("A generalization of Dijkstra's algorithm", IPL 1977).
    A rule's value is its letter plus the chain over its word, and the
    chain depends only on the rows (q, s) it read (see ``_chain``), so a
    round skips a rule when none of those rows had an entry changed in the
    round before: the rule would give what it gave.  The chain takes a run
    of one symbol in one step where every element of it is left in the
    state it is entered in, as in a tree walk, and reads the same rows as
    symbol by symbol.  A repeated entry on a path of a derivation either
    reads no letter between its two places, and is cut out at no loss, or
    reads one, and its entry is unbounded.  So every L and every finite H
    is reached by a derivation that repeats no entry, and is final after
    one round per live entry (H >= 0).  Entries
    turn live in the order of their shallowest derivations, so once no
    more are live than rounds have passed, all are, and an H that still
    rises is unbounded and set to the cap at once.

    Every entry is capped at ``_YIELD_CAP``, which exceeds every input
    length, so an L at the cap always prunes, an H at the cap never does,
    and the others are exact.  An element left in place is never read
    past, so emptying a store reads at least the sum of the Ls and at most
    the sum of the Hs of its elements.

    Each table is solved once and kept for the life of the automaton.
    ``tables[tid]`` is the pair (L, H); the empty flag has table 0, and a
    table equal to an earlier one gets its id.  ``lows[tid][i]`` and
    ``highs[tid][i]`` are the fewest and the most letters the new elements
    of transition i, a depth-1 push, read when they carry a flag with table
    ``tid``, whatever state they leave in (0 for other transitions).

    Table ``_UNFIT`` is no flag's solved table: its every entry, lows and
    highs included, is ``_YIELD_CAP``, and ``child`` keeps it for every
    flag above it.  A memoized search gives it to a guess loop's grown
    flag once ``floor`` exceeds the letters left, where a memo-free search
    cuts the guess step.  The position stays within the loop, so each
    exit that fires there is cut on the solved table too, and on every
    taller one; the search walks the loop on without solving its tables.
    """

    def __init__(self, automaton: Automaton):
        states, symbols = automaton.states, automaton.store_alphabet
        nq = self._nq = len(states)
        nsym = self._nsym = len(symbols)
        state_id = {q: i for i, q in enumerate(states)}
        sym_id = {s: i for i, s in enumerate(symbols)}
        self.row = {(q, s): state_id[q] * nsym + sym_id[s]
                    for q in states for s in symbols}
        self._size = nq * nsym * nq
        self._ntrans = len(automaton.transitions)
        # Per flag top (None: the flag is empty): ends (row, exit, letter),
        # pops (row, letter, row in the rest's table), grows (row, letter)
        # and push 1 rules (row, letter, target, word).  _pushes: the
        # depth-1 pushes of a nonempty word (transition id, target, word),
        # whatever their pattern, since a table is shared by every flag
        # with its entries.  A word is kept as its first symbol and the
        # runs (symbol, count) of the rest, as ``_chain`` reads it.
        rules = self._rules = {}
        self._pushes = []
        for i, t in enumerate(automaton.transitions):
            top = t.pattern[1] if len(t.pattern) == 2 else None
            act = t.action
            ends, pops, grows, pushes = rules.setdefault(top, ([], [], [], []))
            at = self.row[t.state, t.pattern[0]]
            cost = int(t.letter is not None)
            target = state_id[t.target]
            if isinstance(act, Pop):
                if act.level == 1:
                    ends.append((at, target, cost))
                elif top is not None:  # pop 2 of an empty flag is undefined
                    pops.append((at, cost, self.row[t.target, t.pattern[0]]))
            elif act.level == 2:
                grows.append((at, cost))
            elif act.word:
                word = (sym_id[act.word[0]], tuple(
                    (sym_id[s], len(list(group)))
                    for s, group in itertools.groupby(act.word[1:])))
                self._pushes.append((i, target, word))
                pushes.append((at, cost, target, word))
            else:
                ends.append((at, target, cost))
        # _loops: push 2 id -> exits, for each epsilon push 2 of a
        # nonempty word w from state q into q whose loop key (q, (X,
        # w[0])) has only pops 1, depth-1 pushes and this push 2 itself;
        # exits: (transition id, letter cost) of its depth-1 moves.
        self._loops = {}
        for i, t in enumerate(automaton.transitions):
            act = t.action
            if (isinstance(act, Push) and act.level == 2 and act.word
                    and t.letter is None and t.target == t.state):
                key = (t.pattern[0], act.word[0])
                moves = [(j, u) for j, u in enumerate(automaton.transitions)
                         if (u.state, u.pattern) == (t.state, key)]
                if all(u.action.level == 1 or (u.letter, u.target, u.action)
                       == (None, t.state, act) for _, u in moves):
                    self._loops[i] = [(j, int(u.letter is not None))
                                      for j, u in moves if u.action.level == 1]
        # tables: table id -> (L, H); lows, highs: table id -> low, high
        # per transition; _ids: (L, H) -> table id; _children: (top, rest
        # table id) -> table id; _floors: (push 2 id, table id) -> floor.
        self.tables, self.lows, self.highs, self._ids = [], [], [], {}
        self._add(None, None)
        unfit = (_YIELD_CAP,) * self._size
        self.tables.append((unfit, unfit))
        self.lows.append((_YIELD_CAP,) * self._ntrans)
        self.highs.append(self.lows[_UNFIT])
        self._children = {(s, _UNFIT): _UNFIT for s in symbols}
        self._floors = {}

    def child(self, top: str, rest_id: int) -> int:
        """Table id of a flag with top ``top`` over a flag with table
        ``rest_id``, solved on first use.  It is the one way to a table
        id: a flag's id is this fold of its symbols, bottom first, from
        the empty flag's table 0, save that ``_search`` may write
        ``_UNFIT`` over the id of a guess loop's grown flag."""
        key = (top, rest_id)
        tid = self._children.get(key)
        if tid is None:
            tid = self._children[key] = self._add(top, rest_id)
        return tid

    def floor(self, tid: int, rest_id: int, grown_id: int) -> int:
        """The fewest letters a run reads after guess step ``tid``, a
        push 2, grew a flag with table ``rest_id`` into one with table
        ``grown_id``: the least, over the exits of its loop key, of the
        exit's letter and the least yield of its new elements on the grown
        flag; -1 unless ``tid`` has a loop key (see ``_loops``) and the
        grown L table is entrywise at least the old one.  Then no later
        step of the loop lowers the L table, so no exit at any height
        reads fewer letters.  When the floor exceeds the letters left, op
        3 of a memo-free ``_search`` and ``enumerate_language``, with the
        letters left to its length, drop the guess step, and op 3 of a
        memoized ``_search`` gives the grown flag table ``_UNFIT``."""
        key = (tid, rest_id)
        low = self._floors.get(key)
        if low is None:
            exits = self._loops.get(tid)
            low = -1
            if exits is not None and all(
                    a >= b for a, b in zip(self.tables[grown_id][0],
                                           self.tables[rest_id][0])):
                lows = self.lows[grown_id]
                low = min([cost + lows[i] for i, cost in exits],
                          default=_YIELD_CAP)
            self._floors[key] = low
        return low

    def _chain(self, L, H, state, word):
        """The fewest and the most letters the elements of ``word`` read,
        the first on top in ``state``: two lists by the state the last one
        leaves in, and the rows it read.  ``word`` is its first symbol and
        the runs of the rest, pairs (s, k) of k copies of symbol s.  H is
        ``_NEVER`` only where L is the cap, so a state that no run leaves
        in is skipped for both, and the rows read are (``state``, first
        symbol) and, for each later symbol s, (p, s) for every state p the
        elements before it can leave in.  The chain depends on those rows
        alone: the states it skips follow from the rows before.

        A run of k copies of s is one step when every such row (p, s)
        leaves only into p, as in a tree walk, which enters and leaves
        every element in one state: then each copy adds L[p, s, p] to the
        low of p and H[p, s, p] to its high, the same states stay live and
        the same rows are read as in k steps, and the cap on the high
        commutes with the sum.  Any other run steps symbol by symbol."""
        nq, nsym, cap = self._nq, self._nsym, _YIELD_CAP
        first, runs = word
        row = state * nsym + first
        rows = [row]
        at = row * nq
        low, high = L[at:at + nq], H[at:at + nq]
        for s, k in runs:
            if k > 1:
                lo, hi = list(low), list(high)
                for p, y in enumerate(high):
                    if y < 0:
                        continue
                    row = p * nsym + s
                    rows.append(row)
                    at = row * nq
                    if H[at + p] < 0 or H[at:at + nq].count(_NEVER) < nq - 1:
                        break
                    lo[p] = min(low[p] + k * L[at + p], cap)
                    hi[p] = min(y + k * H[at + p], cap)
                else:
                    low, high = lo, hi
                    continue
            while k:
                k -= 1
                lo, hi = [cap] * nq, [_NEVER] * nq
                for p, y in enumerate(high):
                    if y < 0:
                        continue
                    x = low[p]
                    row = p * nsym + s
                    rows.append(row)
                    at = row * nq
                    for q2 in range(nq):
                        if x + L[at + q2] < lo[q2]:
                            lo[q2] = x + L[at + q2]
                        v = H[at + q2]
                        if v >= 0 and y + v > hi[q2]:
                            hi[q2] = y + v
                low, high = lo, [v if v < cap else cap for v in hi]
        return low, high, rows

    def _add(self, top, rest_id) -> int:
        """Table id of a flag with top ``top`` over a flag with table
        ``rest_id`` (both None: the empty flag), solved at ``_YIELD_CAP``
        unless an equal table has an id already."""
        nq, cap, size = self._nq, _YIELD_CAP, self._size
        L = [cap] * size
        H = [_NEVER] * size
        ends, pops, grows, pushes = self._rules.get(top, ((), (), (), ()))
        for at, exit_, cost in ends:
            j = at * nq + exit_
            L[j] = min(L[j], cost)
            H[j] = max(H[j], cost)
        if pops:
            rest_low, rest_high = self.tables[rest_id]
        for at, cost, src in pops:
            for q2 in range(nq):
                j, y = at * nq + q2, rest_high[src * nq + q2]
                L[j] = min(L[j], cost + rest_low[src * nq + q2], cap)
                if y >= 0:
                    H[j] = max(H[j], min(cost + y, cap))
        for at, cost in grows:
            for j in range(at * nq, (at + 1) * nq):
                L[j] = min(L[j], cost)
                H[j] = cap
        # Rounds until one changes nothing (see above); an H rising once
        # no more entries are live than rounds have passed goes to the cap.
        # chains: (target, word) -> (round made, chain), final at the end;
        # changed: the rows with an entry changed in this round.
        chains: dict = {}
        changed: set = set()
        for rounds in itertools.count(1):
            dirty, changed = changed, set()
            live = size - H.count(_NEVER)
            for at, cost, target, word in pushes:
                made, chain = chains.get((target, word), (0, None))
                if made < rounds:
                    if chain is not None and dirty.isdisjoint(chain[2]):
                        continue
                    chain = self._chain(L, H, target, word)
                    chains[target, word] = rounds, chain
                j = at * nq
                for x, y in zip(chain[0], chain[1]):
                    if cost + x < L[j]:
                        L[j] = cost + x
                        changed.add(at)
                    if y >= 0 and min(cost + y, cap) > H[j]:
                        H[j] = min(cost + y, cap) if rounds <= live else cap
                        changed.add(at)
                    j += 1
            if not changed:
                break
        table = (tuple(L), tuple(H))
        tid = self._ids.get(table)
        if tid is None:
            tid = self._ids[table] = len(self.tables)
            self.tables.append(table)
            lows = [0] * self._ntrans
            highs = [0] * self._ntrans
            for i, target, word in self._pushes:
                chain = (chains.get((target, word), (0, None))[1]
                         or self._chain(L, H, target, word))
                lows[i], highs[i] = min(chain[0]), max(chain[1])
            self.lows.append(tuple(lows))
            self.highs.append(tuple(highs))
        return tid


def _can_branch(entries) -> bool:
    """Can two of these index entries fire on the same input?"""
    letters = [e[1] for e in entries]
    return len(letters) > 1 and (None in letters
                                 or len(set(letters)) < len(letters))


class _Codes:
    """The one-character codes of an automaton's input letters.

    A one-character letter is its own code.  A longer letter gets the
    first character from U+0001 up that no letter contains and that is
    not whitespace, so the coded word of ASCII letters is one byte per
    letter.  ``code`` maps each letter to its code and ``letter`` each
    code back; ``long`` lists the longer letters with their codes,
    longest first; ``singles`` and ``table`` are :meth:`str.translate`
    tables that delete the one-character letters and all codes."""

    def __init__(self, letters: Word):
        taken = set("".join(letters))
        free = (c for c in map(chr, itertools.count(1))
                if c not in taken and not c.isspace())
        self.code = {x: x if len(x) == 1 else next(free) for x in letters}
        self.letter = {c: x for x, c in self.code.items()}
        self.long = tuple((x, self.code[x]) for x in
                          sorted(self.code, key=len, reverse=True)
                          if len(x) > 1)
        self.singles = dict.fromkeys(ord(x) for x in letters if len(x) == 1)
        self.table = dict.fromkeys(map(ord, self.letter))

    def spaced(self, text: str, n: int) -> Optional[str]:
        """The coded word of ``text``, ``n`` tokens joined by single
        spaces, or None if a token is not a letter.  Each longer letter
        becomes its code, longest first; then every token is one
        character, at the even places, exactly when the text is ``2n - 1``
        characters long and those are codes."""
        for letter, code in self.long:
            if code in text:
                return None  # a literal code is no letter
            text = text.replace(letter, code)
        if len(text) != 2 * n - 1:
            return None
        coded = text[::2]
        return None if coded.translate(self.table) else coded


def _encode(automaton: Automaton, word) -> str:
    """``word`` as one str of letter codes.

    ``word`` is a sequence of letters, or a text in the form
    :func:`itpda.grammar.format_word` writes, read as
    :func:`itpda.grammar.parse_word` reads it, except that a text of one
    part that is not a run of one-character letters but is itself a
    letter is read as that letter, and a sequence as its letters joined
    by spaces.  A :class:`_Coded` word is returned as it is.  Raises
    :class:`UndeclaredLetterError` naming the first token that is not a
    letter of ``automaton``."""
    if type(word) is _Coded:
        return word
    codes = automaton._codes
    if isinstance(word, str):
        text = word.strip()
        if " " not in text:
            # One part, unless other whitespace splits it.
            if not text.translate(codes.singles):
                return text
            code = codes.code.get(text)
            if code is not None:
                return code
        else:
            coded = codes.spaced(text, text.count(" ") + 1)
            if coded is not None:
                return coded
        # Other whitespace, a literal code or a token that is no letter.
        word = parse_word(word)
    elif not isinstance(word, (tuple, list)):
        word = tuple(word)
    if not word:
        return ""
    # Join the tokens as format_word does, and check what was joined.  A
    # token that holds a space fails the check too: with it the text holds
    # more than the n - 1 spaces that join the tokens, but ``spaced`` asks
    # for 2n - 1 characters whose n even places are codes, none a space.
    try:
        coded = codes.spaced(" ".join(word), len(word))
    except TypeError:  # a token that is not a str
        coded = None
    if coded is not None:
        return coded
    # The tuple, not the dict: a token that is no str may be unhashable.
    tok = next(tok for tok in word if tok not in automaton.input_alphabet)
    raise UndeclaredLetterError(
        f"input letter {tok!r} not in alphabet of {automaton.name or 'automaton'}")


class _Coded(str):
    """A word :func:`_encode` has read, and returns as it is, so that
    :func:`accepts`, :func:`reachable` and :func:`step` take it as it is."""

    __slots__ = ()


def _check_configurations(automaton: Automaton, word: str, *configs):
    """Raise :class:`MachineError` unless each of ``configs`` has a
    declared state, a store of the automaton's level that holds declared
    symbols alone, at every depth, and a position in 0..len(``word``)."""
    symbols = set(automaton.store_alphabet)
    for cfg in configs:
        if cfg.state not in automaton.states:
            raise MachineError(f"state {cfg.state!r} undeclared")
        if cfg.store.level != automaton.levels:
            raise MachineError(
                f"store level {cfg.store.level} does not fit a "
                f"{automaton.levels}-level automaton")
        if not 0 <= cfg.position <= len(word):
            raise MachineError(
                f"position {cfg.position} outside 0..{len(word)}")
        chains = [cfg.store]
        for node in chains:  # a flag shared with the element above once
            flag = None
            while node.symbol is not None:
                if node.symbol not in symbols:
                    raise MachineError(f"store symbol {node.symbol!r} undeclared")
                if node.flag is not flag:
                    flag = node.flag
                    chains.append(flag)
                node = node.rest


def step(automaton: Automaton, config: Configuration,
         word) -> set[tuple[Configuration, int]]:
    """All one-step successors of ``config`` on ``word``, with the id of
    the transition applied.  Raises :class:`UndeclaredLetterError` if a
    token of ``word`` is not a letter of ``automaton``, and
    :class:`MachineError` if ``config`` has an undeclared state or store
    symbol, a store of another level or a position outside the word.
    ``word`` is read as :func:`accepts` reads it: a :class:`_Coded` word
    as it is, so that checking a trace step by step encodes it once."""
    word = _encode(automaton, word)
    _check_configurations(automaton, word, config)
    pos = config.position
    nxt = word[pos] if pos < len(word) else None
    return {(Configuration(target, pos + (code is not None), nstore), tid)
            for tid, code, target, nstore
            in _moves(automaton, config.state, config.store)
            if code is None or code == nxt}


def _moves(automaton: Automaton, state: str, store: Store) -> list[tuple]:
    """(transition id, letter code or None, target, new store) of every
    transition that fires on ``store`` in ``state``, whatever the input,
    in declaration order: outside ``_search``, the one reader of the
    transition index and caller of ``store.pop`` and ``store.push``."""
    _, entries = automaton._index.get((state, store._topsym), (None, ()))
    moves = []
    for tid, code, target, _op, level, _payload, push_word in entries:
        nstore = (st.pop(level, store) if push_word is None
                  else st.push(level, push_word, store))
        if nstore is not None:
            moves.append((tid, code, target, nstore))
    return moves


# A tree walk keeps a few open segments per tree level.  A chain walk
# that keeps opening more, on a cycle that never returns to the store it
# began on, stops opening them here, so its memory stays bounded.
_MAX_OPEN_SEGMENTS = 1 << 16


def _search(automaton: Automaton, word: str, start: tuple,
            goal: Optional[tuple], bounds: SearchBounds,
            want_trace: bool, memoize: bool = True) -> Verdict:
    """Depth-first bounded reachability over the configuration graph.

    ``word`` is the coded input (see ``_Codes``).  The search reads it
    only by ``word[pos] == code`` and by comparing two of its slices, so
    a tuple of one-character letters reads the same.  ``goal`` is None
    for acceptance (input exhausted, store empty) or an exact (state,
    position, store) target.  Returns a Verdict.  With ``want_trace``
    each successor of a branch point carries the choices that reached it,
    as links (previous link, transition id), and ``finish`` replays the
    witness from the start with them; off branch points one move fires.

    With ``memoize``, every generated configuration is looked up in
    ``seen`` and pruned if it is there, but only some are added to it:
    those whose index key can branch (two transitions may fire) or has no
    transitions, and, between two such branch points, the 1st, 2nd, 4th,
    8th, ... configuration generated after the last one; a jumped copy
    (below) generates one, its last.  Between branch points each
    configuration has at most one successor, so the search walks a single
    path there, and these few entries keep memory near the DFS depth on
    tree walks.  A path that meets the configuration another path
    generated j steps after its branch point is pruned within j more
    steps, on the next remembered configuration of that path.  A cycle
    reads no letter, so it passes a branch point or lies on such a path,
    and what it generates, jumps included, repeats: it is closed too.

    Only a branch point's successors go on the stack.  Anywhere else the
    loop walks on to the one successor in place (a chain walk): the
    stack height stays as it was, so the bookkeeping above, the cuts,
    the budget and the accept check see exactly what they would see had
    the successor been pushed and popped straight back.  Index entries
    carry an opcode, and the loop builds the nodes of pops and pushes at
    depths 1 and 2 itself (see ``Automaton.__post_init__``), one ``Store``
    call per node: a call into ``store.pop`` or ``store.push`` per
    configuration costs tree walks a measurable share of their time.

    In accept mode on 1- and 2-level automata each flag carries its
    table id (see ``_YieldTables``) in its ``_tid`` slot, written when
    its node is made: a depth-2 push within the store bound asks
    ``_YieldTables.child`` for the id of each flag node it builds, bottom
    first, and the start store's one flag is the empty flag, table 0.
    Pops, depth-1 pushes and jumps expose only these flags, so a depth-1
    push reads its flag's id in one attribute lookup.  Jumps and ``seen``
    compare flags by content, never by table id.

    In accept mode a chain walk also summarises segments, after the
    summary edges of interprocedural reachability.  A segment runs from a
    configuration whose top element is s[f] over ``rest``, in state q, to
    the first configuration whose store is that same ``rest`` object.  It
    sees nothing below s[f], so it depends only on q, s, f and the letters
    it reads.  A segment completed without passing a branch point is kept
    under (q, s, f), f compared by content (its cached hash and
    structural equality), with its exit state, its letters (a slice of
    the word) and their number, the configurations k it generated and its
    store high-water mark above ``rest``.  Where the walk exposes an
    element with a summary, it jumps to (exit state, position + length,
    rest) and counts k configurations if the input there repeats the
    letters, the high-water mark fits the store bound on this ``rest``
    and k fits the budget.  Otherwise it walks the copy step by step, and
    the copy's own elements may jump.  A matched copy meets no cut: its
    new elements are removed within its letters, so no least yield
    exceeds what is left, and it has no branch point for the most yield
    to cut.

    So a summary holds only what walking the copy gives, whatever word
    and bounds it was made under, and a memo-free search reads
    and writes the automaton's table, ``Automaton._summaries``: a later
    search jumps copies that earlier ones walked, and gives the verdict,
    count and witness it gives on a fresh automaton.  A memoized search
    keeps a table of its own for the one search, since under the memo
    which copies jump changes what it prunes (below).

    With ``memoize`` a jump is one step: its endpoint is looked up,
    counted and remembered like a walked successor.  A copy jumps only
    from a position past every configuration remembered before this
    chain walk began (those remembered since are its ancestors, which a
    completed copy cannot return to), so no jump passes a remembered
    configuration to explore its suffix again.  A path meeting a jumped
    copy is pruned at its end or later, counting at most the copy more.
    A jump adds no link: the copy has no branch point; the replay walks it.

    A memo-free accept-mode search on a 2-level automaton cuts a
    guess loop by its exits, in the spirit of saturation for higher-order
    pushdown systems (Hague and Ong, LMCS 2008).  Say an epsilon push 2
    of a nonempty word w takes X[f] in state q to X[w.f] in q, and every
    other move at the loop key K1 = (q, (X, w[0])) is a pop 1 or a
    depth-1 push, its exits: no pop 2 and no push 2 but this one.  From
    X[w.f] a run repeats the push 2, which keeps its position and key, or
    leaves by an exit, which reads at least its letter and the least yield
    of its new elements on the flag they carry.  A flag's L table is a
    monotone min-plus function of its rest's, so if w.f's L table is
    entrywise at least f's, each further step keeps it from falling, and
    each exit's least yield with it.  When every exit at X[w.f] already
    needs more letters than are left, none fits at any height, and a run
    that never exits never empties the store: the search drops X[w.f]
    after it builds the flag nodes whose table it reads, and sets
    ``yield_cut`` (see ``_YieldTables.floor``).  No store bound is needed, so a search that
    such cuts end rejects exactly.  A guess loop whose exits stay cheap
    enough is stepped up to the store bound.  A memoized search does not
    cut guess loops yet: it walks them up to the store bound.  Where the
    memo-free search would cut, it gives w.f the table id ``_UNFIT``
    instead (see ``_YieldTables``), which cuts the same exits and solves
    no table for the taller flags of the loop, so the walk keeps its
    configurations, count and cut flags.
    """
    index = automaton._index
    n = len(word)
    max_store, max_configs = _limits(bounds)

    def is_goal(cfg):
        if goal is None:
            return cfg[1] == n and cfg[2].size == 0
        return cfg == goal

    count = 1
    store_cut = yield_cut = False

    def finish(status, path=None):
        trace = None
        if status == ACCEPTED and want_trace:
            # Replay: the recorded choice at each branch point, the one move
            # that fires elsewhere.  Only the last configuration has none,
            # and none is a branch point once the choices are used up.
            choices = []
            while path is not None:
                path, tid = path
                choices.append(tid)
            trace = []
            cfg = start
            while not is_goal(cfg):
                state, pos, cur = cfg
                branches = choices and automaton._index[state, cur._topsym][0]
                choice = choices.pop() if branches else None
                for tid, code, target, nstore in _moves(automaton, state, cur):
                    if (tid == choice if branches
                            else code is None or pos < n and word[pos] == code):
                        break
                trace.append((Configuration(state, pos, cur), tid))
                cfg = (target, pos + (code is not None), nstore)
            trace.append((Configuration(*cfg), None))
        return Verdict(status, trace, count, store_cut, yield_cut)

    if is_goal(start):
        return finish(ACCEPTED)

    accept_mode = goal is None
    # A depth-1 push whose new elements must read more letters than are
    # left cannot lead to acceptance; it is dropped before it is built.
    # So is one at a branch point on a store of one element, where the
    # search commits to a guess, whose new elements cannot read as many
    # letters as are left.  Both bounds are read from the table of the
    # element's flag.
    yields = automaton._yield_tables() if accept_mode else None
    if yields is not None:
        lows_of, highs_of = yields.lows, yields.highs
        child, floor = yields.child, yields.floor

    Store_ = Store
    dead = (True, ())  # dead ends are remembered like branch points
    seen = {start} if memoize else None
    # A depth-2 push adds elements of this level, with empty flags, to the
    # top element's flag.
    flag_level = automaton.levels - 1
    eflag = st.empty(max(flag_level - 1, 0))
    # Segment summaries, accept mode only: (state, symbol, flag) -> (exit
    # state, letters, their number, configurations, store high-water mark
    # above the rest), the automaton's table without the memo (see above).
    # segs: the open segments of this chain walk, innermost last, each as
    # (key, rest of the enclosing segment, position, count, high-water
    # mark of the enclosing segment).  seg_rest and hw: the innermost
    # one's rest and store high-water mark.  A copy jumps only from a
    # position above hi; seen_hi is the furthest position remembered in
    # ``seen``.
    summaries: Optional[dict] = (None if not accept_mode else {} if memoize
                                 else automaton._summaries)
    segs: list = []
    seg_rest = None
    hw = hi = 0
    seen_hi = start[1]
    # path: the branch-point choices that reached this chain walk, as
    # links (previous link, transition id); None unless ``want_trace``.
    stack = [(*start, index.get((start[0], start[2]._topsym), dead), None)]
    while stack:
        state, pos, cur, (branches, entries), path = stack.pop()
        if segs:
            segs.clear()
            seg_rest = None
        hi = seen_hi if memoize else -1
        # t: the t-th configuration this chain walk generated, a jump one;
        # the walk begins at the start or at a successor of a branch point.
        t = 0
        while True:  # one turn per configuration of a chain walk
            while cur is seg_rest:
                # The innermost open segment is complete: summarise it.
                key, seg_rest, first, before, outer = segs.pop()
                summaries[key] = (state, word[first:pos], pos - first,
                                  count - before, hw - cur.size)
                if outer > hw:
                    hw = outer
            if memoize:
                t += 1
                # Successors of a branch point start a new count at 1; the
                # others are remembered when their count t + 1 is a power
                # of 2.
                keep_all = branches or not t & (t + 1)
            if branches:
                successors = []
            elif summaries is not None:
                key = (state, cur.symbol, cur.flag)
                summary = summaries.get(key)
                if summary is not None:
                    target, letters, length, k, peak = summary
                    rest = cur.rest
                    if (rest.size + peak <= max_store
                            and count + k <= max_configs
                            and pos > hi
                            and word[pos:pos + length] == letters):
                        # Jump over the copy to its last configuration.
                        npos = pos + length
                        nnode = index.get((target, rest._topsym), dead)
                        ncfg = (target, npos, rest)
                        if memoize:
                            if ncfg in seen:
                                count += k - 1
                                break
                            if keep_all or nnode[0]:
                                seen.add(ncfg)
                                if npos > seen_hi:
                                    seen_hi = npos
                        count += k
                        if npos == n and rest.size == 0:
                            return finish(ACCEPTED, path)
                        if rest.size + peak > hw:
                            hw = rest.size + peak
                        state, pos, cur = ncfg
                        branches, entries = nnode
                        continue
                # Open a segment at this configuration.
                size = cur.size
                if len(segs) < _MAX_OPEN_SEGMENTS:
                    segs.append((key, seg_rest, pos, count,
                                 hw if hw > size else size))
                    seg_rest = cur.rest
                    hw = size
                elif size > hw:
                    hw = size
            for tid, letter, target, op, level, payload, push_word in entries:
                if letter is None:
                    npos = pos
                elif pos < n and word[pos] == letter:
                    npos = pos + 1
                else:
                    continue
                # cur is nonempty here: a pattern matched its topsym.
                if op == 0:
                    nstore = cur.rest
                elif op == 2:
                    flag = cur.flag
                    if yields is not None:
                        ftable = flag._tid
                        if lows_of[ftable][tid] > n - npos or (
                                branches and cur.rest.size == 0
                                and highs_of[ftable][tid] < n - npos):
                            yield_cut = True
                            continue
                    nstore = cur.rest
                    for sym in payload:
                        nstore = Store_(cur.level, sym, flag, nstore)
                elif op == 4:
                    nstore = (st.pop(level, cur) if push_word is None
                              else st.push(level, push_word, cur))
                    if nstore is None:
                        continue
                else:
                    # Depth 2: a new top element over a new flag.
                    inner = cur.flag
                    if op == 1:
                        inner = inner.rest
                        if inner is None:
                            continue  # the flag was empty
                    elif cur.size + len(payload) > max_store:
                        # Cut before it builds a node or asks for a table.
                        store_cut = True
                        continue
                    else:
                        for sym in payload:
                            node = Store_(flag_level, sym, eflag, inner)
                            if yields is not None:
                                node._tid = child(sym, inner._tid)
                            inner = node
                        if (yields is not None and inner._tid != _UNFIT
                                and floor(tid, cur.flag._tid, inner._tid)
                                > n - npos):
                            # No exit of this guess loop fits (see above).
                            if not memoize:
                                yield_cut = True
                                continue
                            inner._tid = _UNFIT
                    nstore = Store_(cur.level, cur.symbol, inner, cur.rest)
                if nstore.size > max_store:
                    store_cut = True
                    continue
                nnode = index.get((target, nstore._topsym), dead)
                if memoize:
                    ncfg = (target, npos, nstore)
                    if ncfg in seen:
                        continue
                    if keep_all or nnode[0]:
                        seen.add(ncfg)
                        if npos > seen_hi:
                            seen_hi = npos
                count += 1
                if (npos == n and nstore.size == 0 if accept_mode
                        else (target, npos, nstore) == goal):
                    return finish(ACCEPTED, (path, tid) if branches else path)
                if count > max_configs:
                    return finish(INCONCLUSIVE)
                if branches:
                    successors.append((target, npos, nstore, nnode,
                                       (path, tid) if want_trace else None))
                    continue
                # The one successor: walk on with it.
                state, pos, cur = target, npos, nstore
                branches, entries = nnode
                break
            else:
                if branches:
                    stack.extend(reversed(successors))
                break
    return finish(REJECTED)


def accepts(automaton: Automaton, word, bounds: Optional[SearchBounds] = None,
            trace: bool = False, memoize: bool = True) -> Verdict:
    """Bounded acceptance verdict for ``word``.

    ``word`` is a sequence of letters, or a text in the form
    :func:`itpda.grammar.format_word` writes: a run of one-character
    letters, or letters separated by whitespace.  A text of one part that
    is not a run of one-character letters but is itself a letter is read
    as that letter.  The search reads the word as one str of letter codes,
    one character per letter, so trace positions count letters.  A token
    that is not a letter raises :class:`UndeclaredLetterError` naming the
    first one.

    ``bounds=None`` uses :func:`default_bounds` for the word's length.
    Pass ``trace=True`` to get a replayable witness on acceptance.

    ``memoize=False`` gives up cycle detection: on an epsilon-cycle that
    keeps the store within its bound the search spins until the
    configuration budget runs out and reports Inconclusive.  It also
    explores paths that meet once per path, which can take exponentially
    longer.  It saves one set lookup per configuration.  A memo-free
    search on a 2-level automaton also drops a guess step once no exit of
    its loop, at this height or a taller one, reads as few letters as are
    left, so its rejections need no store bound and are exact
    (``Verdict.exact``); the memoized search walks guess loops up to the
    store bound, but solves no table above the height where the memo-free
    search drops them.  A memo-free search leaves the summaries of the
    segments it walks on the automaton (see ``_search``), so a later word
    jumps the repeated subtrees an earlier one walked, with the verdict,
    count and witness it gives on a fresh automaton; the memoized search
    keeps its summaries to itself.

    On 1- and 2-level automata either search skips the depth-1 pushes
    whose least yield exceeds the unread input, and, at the branch points
    on a store of one element, those whose most yield falls short of it.
    Both are read from the yield table of the rewritten element's flag.
    The automaton keeps its tables; a search solves the table of each flag
    it builds, unless the automaton has it already.  It sets
    ``Verdict.yield_cut`` when it did; ``Verdict.store_cut`` still tells
    whether the store bound cut a configuration.
    """
    word = _encode(automaton, word)
    if bounds is None:
        bounds = default_bounds(len(word))
    start = (automaton.initial_state, 0, automaton.initial_store())
    return _search(automaton, word, start, None, bounds, trace, memoize)


def reachable(automaton: Automaton, start: Configuration, goal: Configuration,
              word, bounds: Optional[SearchBounds] = None,
              trace: bool = False) -> Verdict:
    """Is ``goal`` reachable from ``start`` while reading ``word``?

    This is the executable form of the derivation relation: positions
    index the shared input word.  Both states and every store symbol must
    be declared, both stores must have the automaton's level and both
    positions must lie in 0..len(``word``), or :class:`MachineError` is
    raised.  ``word`` is read as :func:`accepts` reads it.
    """
    word = _encode(automaton, word)
    _check_configurations(automaton, word, start, goal)
    if bounds is None:
        bounds = default_bounds(len(word))
    return _search(automaton, word,
                   (start.state, start.position, start.store),
                   (goal.state, goal.position, goal.store),
                   bounds, trace)


def enumerate_language(automaton: Automaton, max_len: int,
                       bounds: Optional[SearchBounds] = None) -> set[Word]:
    """All accepted words of length <= ``max_len``.

    Explores the configuration graph through ``_moves``, with the
    emitted prefix as part of the search key, so only prefixes the
    automaton can actually read are ever visited, and, like
    :func:`accepts`, skips the depth-1 pushes that need more letters than
    ``max_len`` leaves.  As in the search, a flag carries its yield table
    id in its ``_tid`` slot, written by ``_YieldTables.child``, here on
    the new flag nodes of each push 2 that reaches a configuration not
    seen before: it starts from the initial store, so every flag it reads
    is the empty flag or one of those.  With those ids it ends guess loops
    as a memo-free :func:`accepts` does (see ``_search``), with the
    letters left to ``max_len``: a guess step is dropped once no exit of
    its loop, at this height or a taller one, reads as few letters as are
    left (``_YieldTables.floor``).  So on a 2-level automaton whose guess
    loops all end that way, such as the builders' recognizers, the result
    does not depend on the store bound.  Raises :class:`SearchLimitError`
    if the configuration budget is exceeded (the result would be
    incomplete), and :class:`MachineError` if ``max_len`` is negative.
    """
    return _enumerate_language(automaton, max_len, bounds)[0]


def _enumerate_language(automaton: Automaton, max_len: int,
                        bounds: Optional[SearchBounds]
                        ) -> tuple[set[Word], bool]:
    """:func:`enumerate_language`'s words, and whether the store bound
    cut a configuration (if not, no run of any store size accepts
    another word of length <= ``max_len``)."""
    if max_len < 0:
        raise MachineError("max_len must be >= 0")
    if bounds is None:
        bounds = default_bounds(max_len)
    max_store, max_configs = _limits(bounds)
    yields = automaton._yield_tables()
    if yields is not None:
        # grown: the length of each push 2's word.
        grown = [len(t.action.word) if isinstance(t.action, Push)
                 and t.action.level == 2 else 0 for t in automaton.transitions]
    accepted: set[str] = set()  # coded words
    store_cut = False
    start = (automaton.initial_state, "", automaton.initial_store())
    seen = {start}
    stack = [start]
    count = 1
    while stack:
        state, emitted, cur = stack.pop()
        if cur.size == 0:
            accepted.add(emitted)
            continue
        if yields is not None:
            lows = yields.lows[cur.flag._tid]
        for tid, letter, target, nstore in _moves(automaton, state, cur):
            if letter is None:
                nemit = emitted
            elif len(emitted) < max_len:
                nemit = emitted + letter
            else:
                continue
            if yields is not None and lows[tid] > max_len - len(nemit):
                continue
            if nstore.size > max_store:
                store_cut = True
                continue
            ncfg = (target, nemit, nstore)
            if ncfg in seen:
                continue
            if yields is not None and grown[tid]:
                # Table ids of the new flag nodes, bottom first, as op 3.
                nodes = [nstore.flag]
                for _ in range(grown[tid] - 1):
                    nodes.append(nodes[-1].rest)
                ftable = nodes[-1].rest._tid
                for node in reversed(nodes):
                    node._tid = ftable = yields.child(node.symbol, ftable)
                if yields.floor(tid, cur.flag._tid,
                                ftable) > max_len - len(nemit):
                    continue  # no exit of this guess loop fits
            seen.add(ncfg)
            count += 1
            if count > max_configs:
                raise SearchLimitError(
                    "language enumeration exceeded the configuration budget")
            stack.append(ncfg)
    letters = automaton._codes.letter
    return ({tuple(map(letters.__getitem__, word)) for word in accepted},
            store_cut)


# ---------------------------------------------------------------------------
# Textual automaton format


def _format_pattern(pattern: Word, multichar: bool) -> str:
    bare = "".join(pattern)
    if multichar or "->" in bare:  # a bare "->" would end the left side
        return "[" + " ".join(pattern) + "]"
    return bare


def render_automaton(automaton: Automaton) -> str:
    """Canonical line-oriented text form; inverse of :func:`parse_automaton`."""
    multichar = any(len(s) > 1 for s in automaton.store_alphabet)
    lines = [f"# {line}" for line in automaton.name.splitlines()]
    lines.append(f"levels: {automaton.levels}")
    lines.append("states: " + " ".join(automaton.states))
    lines.append(f"initial: {automaton.initial_state}")
    lines.append("input: " + " ".join(automaton.input_alphabet))
    lines.append("store: " + " ".join(automaton.store_alphabet))
    lines.append(f"start_symbol: {automaton.initial_symbol}")
    for t in automaton.transitions:
        letter = "eps" if t.letter is None else t.letter
        pattern = _format_pattern(t.pattern, multichar)
        lines.append(f"t: {t.state} {letter} {pattern} -> {t.target} {t.action}")
    return "\n".join(lines) + "\n"


_HEADER_KEYS = ("levels", "states", "initial", "input", "store", "start_symbol")


def _parse_pattern(text: str, symbols: set[str], lineno: int) -> Word:
    # Bracketed: symbols split at whitespace.  Bare: one declared symbol,
    # or else one symbol per character.
    if text.startswith("["):
        if not text.endswith("]"):
            raise AutomatonFormatError(lineno, f"unterminated pattern {text!r}")
        return tuple(text[1:-1].split())
    return (text,) if text in symbols else tuple(text)


_INT = re.compile(r"-?[0-9]+")


def _parse_int(text: str, lineno: int, what: str) -> int:
    # ASCII digits only: int() would also take "0_1" and non-ASCII digits.
    if not _INT.fullmatch(text):
        raise AutomatonFormatError(lineno, f"{what} must be an integer")
    return int(text)


def parse_automaton(text: str) -> Automaton:
    """Parse the automaton file format (README, "Automaton files").

    The parser reads syntax only: ``key: value`` lines, comments, the
    fields of each ``t:`` line and the split of bare patterns into
    symbols.  Whether the automaton is well formed -- declared names,
    levels, pattern lengths, names the format can carry -- is checked by
    :class:`Automaton` alone.  Every error is raised as an
    :class:`AutomatonFormatError` that carries the 1-based line of its
    header key or transition.
    """
    header: dict[str, list[str]] = {}
    lines: dict[Union[str, int], int] = {}  # header key or transition -> line
    bodies: list[str] = []  # of the transitions
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise AutomatonFormatError(lineno, f"expected 'key: value', got {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if key == "t":
            lines[len(bodies)] = lineno
            bodies.append(value.strip())
        elif key in _HEADER_KEYS:
            if key in header:
                raise AutomatonFormatError(lineno, f"duplicate {key!r} line")
            header[key] = value.split()
            lines[key] = lineno
        else:
            raise AutomatonFormatError(lineno, f"unknown key {key!r}")
    for key in _HEADER_KEYS:
        if key not in header:
            raise AutomatonFormatError(len(text.splitlines()) or 1,
                                       f"missing {key!r} line")
    for key in ("levels", "initial", "start_symbol"):
        if len(header[key]) != 1:
            raise AutomatonFormatError(
                lines[key], f"{key!r} takes one value, got {len(header[key])}")
    levels = _parse_int(header["levels"][0], lines["levels"], "levels")
    symbols = set(header["store"])

    transitions = []
    for i, body in enumerate(bodies):
        lineno = lines[i]
        if "->" not in body:
            raise AutomatonFormatError(lineno, "transition lacks '->'")
        lhs, rhs = body.split("->", 1)
        left = lhs.split(None, 2)
        if len(left) != 3:
            raise AutomatonFormatError(
                lineno, "expected 'STATE LETTER PATTERN' before '->'")
        state, letter, pattern_text = left
        right = rhs.split()
        if len(right) < 3 or right[1] not in ("pop", "push"):
            raise AutomatonFormatError(
                lineno, "expected 'STATE pop J' or 'STATE push J SYM...' after '->'")
        level = _parse_int(right[2], lineno, "action level")
        if right[1] == "pop":
            if len(right) != 3:
                raise AutomatonFormatError(lineno, "pop takes no symbols")
            action: Action = Pop(level)
        else:
            action = Push(level, tuple(right[3:]))
        transitions.append(Transition(
            state=state,
            letter=None if letter == "eps" else letter,
            pattern=_parse_pattern(pattern_text.strip(), symbols, lineno),
            target=right[0],
            action=action,
        ))
    try:
        return Automaton(
            levels=levels,
            states=tuple(header["states"]),
            initial_state=header["initial"][0],
            input_alphabet=tuple(header["input"]),
            store_alphabet=tuple(header["store"]),
            initial_symbol=header["start_symbol"][0],
            transitions=tuple(transitions),
        )
    except MachineError as exc:
        raise AutomatonFormatError(lines[exc.where], str(exc)) from exc

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
has left, and, where the search can branch, every one after which the
whole store cannot read as many letters as are left.  Both bounds are
read from one table per flag, which holds the fewest and the most
letters an element reads (see ``_YieldTables``).  No accepting run
breaks either bound, so the prunes change no verdict.  Together they cut
the tree walk of a guessed height at its commit, whether the height is
too tall or too short for the word, and so every height of a word whose
length no height yields.  Guess loops that grow a flag still run until
the store bound stops them.

The search is depth-first and expands transitions in declaration order,
so verdicts and witness traces are deterministic.  Every configuration
it generates is looked up among those it remembers, but it remembers
only the ones at which it can branch and a few on each path between
them (see ``_search``).  No work is multiplied, every cycle is closed,
and tree walks search in memory proportional to their depth, not to
the configurations visited.  Between branch points the search follows
the one successor in place, without the DFS stack, and it builds the
store nodes of pops and pushes at depths 1 and 2 itself; deeper
operations go through :func:`itpda.store.pop` and :func:`itpda.store.push`.

The acceptance search walks each repeated subtree once.  The run that
removes a top element s[f] depends only on the state, s, f and the
letters it reads, so the search keeps a summary of each such run it
completes between branch points, and matches a later copy of the same
element against the input in one comparison instead of walking it
(see ``_search``).  In a contour word every (label, height) pair's
level word recurs, and all its copies share one flag, so a tree walk
builds store nodes for the first copy of each pair only.  Counts,
verdicts and witnesses are those of walking every copy.
"""

from __future__ import annotations

import itertools
import re
from array import array
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


@dataclass(frozen=True)
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


def default_bounds(input_length: int) -> SearchBounds:
    return SearchBounds(max_store_symbols=4 * (input_length + 4),
                        max_configurations=10 ** 7)


@dataclass
class Verdict:
    """``configurations``: the configurations the search generated.  A
    copy of a segment that the search jumped (see ``_search``) counts as
    the configurations walking it generates, so budgets, counts and the
    count ``itpda run`` prints mean what they mean for a search that walks
    every copy.
    ``store_cut``: the store bound pruned a configuration.
    ``yield_cut``: a yield bound pruned one: a push whose new elements
    need more letters than are left, or one at a branch point after which
    the store cannot read that many (see ``_YieldTables``)."""

    status: str
    trace: Optional[list[tuple[Configuration, Optional[int]]]] = None
    configurations: int = 0
    store_cut: bool = False
    yield_cut: bool = False

    def __bool__(self):
        return self.status == ACCEPTED


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
        return st.node(self.initial_symbol, st.empty(self.levels - 1),
                       st.empty(self.levels))

    def initial_configuration(self) -> Configuration:
        return Configuration(self.initial_state, 0, self.initial_store())

    def _yield_tables(self, need: int) -> Optional["_YieldTables"]:
        """Yield tables exact up to ``need`` letters, built on first use
        and rebuilt with a larger cap for a longer input; None above 2
        levels."""
        if self.levels > 2:
            return None
        if self._yields is None or self._yields.cap <= need:
            cap = min(1 << max(need, 63).bit_length(), _YIELD_CAP)
            object.__setattr__(self, "_yields", _YieldTables(self, cap))
        return self._yields


# The largest cap: more letters than any input has.
_YIELD_CAP = 1 << 62

# A most-yield entry for a way no run can remove an element.
_NEVER = -1


class _YieldTables:
    """Least- and most-yield tables of a 1- or 2-level automaton.

    For a flag f, the table of f holds two arrays about the element s[f],
    from the moment it is on top in state q until it is removed in state
    q': L_f[q, s, q'] is the fewest letters any run reads meanwhile, or
    ``cap`` when no run removes it that way, and H_f[q, s, q'] is the
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

    The push 1 inequalities are solved one strongly connected group of
    symbols at a time, dependencies first.  A rule's value is its letter plus
    the entries it reads, so an entry's best derivation repeats no entry,
    and a group settles within one round per entry, as in Knuth's grammar
    problem ("A generalization of Dijkstra's algorithm", IPL 1977).  L always
    settles so.  An H still rising after those rounds has a cycle that reads
    a letter, and its entries are set to the cap at once instead of climbing
    there.

    Every entry is capped at ``cap``, which exceeds the input lengths the
    tables are asked about, so an L at the cap still prunes, an H at the cap
    never does, and the others are exact.  An element left in place is never
    read past, so emptying a store reads at least the sum of the Ls and at
    most the sum of the Hs of its elements.  Tables are keyed by (top of f,
    table id of f.rest); the empty flag has table 0, and a table equal to an
    earlier one gets its id.  A guess loop therefore adds tables only until
    its yields reach the cap or repeat, not at every flag depth the store
    bound allows.  ``tables[tid]`` is the pair (L, H).  ``lows[tid][i]`` and
    ``highs[tid][i]`` are the fewest and the most letters the new elements
    of transition i, a depth-1 push, read when they carry a flag with table
    ``tid``, whatever state they leave in (0 for other transitions).
    """

    def __init__(self, automaton: Automaton, cap: int):
        self.cap = cap
        states, symbols = automaton.states, automaton.store_alphabet
        nq = self._nq = len(states)
        nsym = len(symbols)
        state_id = {q: i for i, q in enumerate(states)}
        sym_id = self._sym_id = {s: i for i, s in enumerate(symbols)}
        self.row = {(q, s): state_id[q] * nsym + sym_id[s]
                    for q in states for s in symbols}
        self._rows_of = [range(sym_id[s], nq * nsym, nsym) for s in symbols]
        self._size = nq * nsym * nq
        self._ntrans = len(automaton.transitions)
        # Per flag top (None: the flag is empty): ends (row, exit, letter),
        # pops (row, letter, row in the rest's table), grows (row, letter),
        # and push groups (push 1 rules (row, letter, target, word), rows,
        # rounds) in dependency order.  _pushes: the depth-1 pushes of a
        # nonempty word (transition id, target, word), whatever their
        # pattern, since a table is shared by every flag with its entries.
        rules: dict = {}
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
                word = tuple(sym_id[s] for s in act.word)
                self._pushes.append((i, target, word))
                pushes.append((at, cost, target, word))
            else:
                ends.append((at, target, cost))
        self._rules = {top: (ends, pops, grows, self._groups(pushes))
                       for top, (ends, pops, grows, pushes) in rules.items()}
        # Tables are kept for the life of the automaton, so each is a pair
        # of compact arrays, found again by its hash.
        self.tables: list[tuple] = []      # table id -> (L, H)
        self.lows: list[tuple] = []        # table id -> low per transition
        self.highs: list[tuple] = []       # table id -> high per transition
        self._sym_max: list[tuple] = []    # table id -> max of H per symbol
        self._children: dict = {}          # (top, rest table id) -> table id
        self._ids: dict = {}               # hash of a table -> table id
        self._add(None, None)

    def table_id(self, flag: Store, memo: dict) -> int:
        """Table id of ``flag``.  ``memo`` maps a flag's hash to (flag,
        table id) for flags seen before; the walk down the flag is a loop,
        so flags deeper than the recursion limit are fine."""
        chain = []
        while True:
            hit = memo.get(flag._hash)
            if hit is not None and hit[0] is flag:
                tid = hit[1]
                break
            if flag.symbol is None:
                tid = 0
                memo[flag._hash] = (flag, tid)
                break
            chain.append(flag)
            flag = flag.rest
        for flag in reversed(chain):
            key = (flag.symbol, tid)
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._add(flag.symbol, tid)
            tid = child
            memo[flag._hash] = (flag, tid)
        return tid

    def _groups(self, pushes):
        """Push 1 rules grouped by the strongly connected component of the
        symbol they rewrite, in the symbol graph s -> letters of w, with
        every group after the groups it reads; each with its rows and the
        rounds after which a group still rising is unbounded."""
        edges: dict = {}
        for at, _cost, _target, word in pushes:
            edges.setdefault(at % len(self._sym_id), set()).update(word)
        reach = {}
        for s in edges:
            seen, todo = {s}, [s]
            while todo:
                for u in edges.get(todo.pop(), ()):
                    if u not in seen:
                        seen.add(u)
                        todo.append(u)
            reach[s] = seen
        groups: dict = {}
        for rule in pushes:
            s = rule[0] % len(self._sym_id)
            scc = frozenset(u for u in reach[s] if s in reach.get(u, ()))
            groups.setdefault(scc, []).append(rule)
        out = []
        for scc in sorted(groups, key=lambda c: len(reach[next(iter(c))])):
            rows = [r for s in scc for r in self._rows_of[s]]
            out.append((groups[scc], rows, len(rows) * self._nq + 1))
        return out

    def _chain(self, L, H, state, word):
        """The fewest and the most letters the elements of ``word`` read,
        the first on top in ``state``: two lists by the state the last one
        leaves in.  H is ``_NEVER`` only where L is the cap, so a state
        that no run leaves in is skipped for both."""
        nq, nsym, cap = self._nq, len(self._sym_id), self.cap
        at = (state * nsym + word[0]) * nq
        low, high = L[at:at + nq], H[at:at + nq]
        for s in word[1:]:
            lo, hi = [cap] * nq, [_NEVER] * nq
            for p, y in enumerate(high):
                if y < 0:
                    continue
                x = low[p]
                at = (p * nsym + s) * nq
                for q2 in range(nq):
                    if x + L[at + q2] < lo[q2]:
                        lo[q2] = x + L[at + q2]
                    v = H[at + q2]
                    if v >= 0 and y + v > hi[q2]:
                        hi[q2] = y + v
            low, high = lo, [v if v < cap else cap for v in hi]
        return low, high

    def _add(self, top, rest_id) -> int:
        """Id of the table of a flag with top ``top`` over a flag with
        table ``rest_id`` (both None: the empty flag)."""
        nq, cap = self._nq, self.cap
        L = [cap] * self._size
        H = [_NEVER] * self._size
        ends, pops, grows, groups = self._rules.get(top, ((), (), (), ()))
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
        # The chains of the last round of each settled group, by (target,
        # word): that round changed nothing, and later groups change no
        # entry they read, so they serve the lows and highs below.
        settled: dict = {}
        for rules, rows, rounds in groups:
            for _ in range(rounds):
                changed = False
                chains: dict = {}
                for at, cost, target, word in rules:
                    chain = chains.get((target, word))
                    if chain is None:
                        chain = chains[target, word] = self._chain(
                            L, H, target, word)
                    j = at * nq
                    for x, y in zip(*chain):
                        if cost + x < L[j]:
                            L[j] = cost + x
                            changed = True
                        if y >= 0 and min(cost + y, cap) > H[j]:
                            H[j] = min(cost + y, cap)
                            changed = True
                        j += 1
                if not changed:
                    settled.update(chains)
                    break
            else:
                # H still rising: a cycle through the group reads a letter.
                for at in rows:
                    for j in range(at * nq, (at + 1) * nq):
                        if H[j] >= 0:
                            H[j] = cap
        L, H = array("q", L), array("q", H)
        key = hash(L.tobytes() + H.tobytes())
        tid = self._ids.get(key)
        if tid is not None and self.tables[tid] == (L, H):
            return tid
        lows = [0] * self._ntrans
        highs = [0] * self._ntrans
        for i, target, word in self._pushes:
            chain = settled.get((target, word)) or self._chain(
                L, H, target, word)
            lows[i], highs[i] = min(chain[0]), max(chain[1])
        self.tables.append((L, H))
        self.lows.append(tuple(lows))
        self.highs.append(tuple(highs))
        self._sym_max.append(tuple(
            max(H[at * nq + q2] for at in rows for q2 in range(nq))
            for rows in self._rows_of))
        self._ids.setdefault(key, len(self.tables) - 1)
        return len(self.tables) - 1

    def most(self, high: int, rest: Store, flags: dict, rests: dict) -> int:
        """The most letters a run reads to empty the store that a depth-1
        push leaves when its new elements read at most ``high`` over
        ``rest``: ``high`` plus each element of ``rest`` at its most from
        any state.  ``_NEVER`` when no run can.  ``flags`` is a flag memo
        for ``table_id``; ``rests`` maps a rest's hash to (rest, its most)
        for the rests seen before.  Both are kept for one search."""
        if high < 0 or rest.size == 0:
            return high
        chain = []
        while True:
            hit = rests.get(rest._hash)
            if hit is not None and hit[0] is rest:
                total = hit[1]
                break
            if rest.symbol is None:
                total = 0
                break
            chain.append(rest)
            rest = rest.rest
        for node in reversed(chain):
            most = self._sym_max[self.table_id(node.flag, flags)][
                self._sym_id[node.symbol]]
            if total >= 0:
                total = _NEVER if most < 0 else min(total + most, self.cap)
            rests[node._hash] = (node, total)
        return _NEVER if total < 0 else high + total


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
    tables that delete the one-character letters and all codes.
    ``stepped`` is the last word :func:`step` read, with its codes."""

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
        self.stepped: tuple = (None, "")

    def spaced(self, text: str, n: int) -> Optional[str]:
        """The coded word of ``text``, ``n`` tokens joined by single
        spaces (it holds ``n - 1`` spaces), or None if a token is not a
        letter.  Each longer letter becomes its code, longest first; then
        every token is one character, at the even places, exactly when
        the text is ``2n - 1`` characters long and those are codes."""
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
    letter is read as that letter.  Raises :class:`UndeclaredLetterError`
    naming the first token that is not a letter of ``automaton``."""
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
    if codes.long:
        try:
            return "".join(map(codes.code.__getitem__, word))
        except KeyError:
            pass
    elif not word:
        return ""
    else:
        # Every letter is one character: join, and check what was joined.
        try:
            text = " ".join(word)
        except TypeError:  # a token that is not a str
            text = None
        if text is not None and text.count(" ") == len(word) - 1:
            coded = codes.spaced(text, len(word))
            if coded is not None:
                return coded
    tok = next(tok for tok in word if tok not in codes.code)
    raise UndeclaredLetterError(
        f"input letter {tok!r} not in alphabet of {automaton.name or 'automaton'}")


class _Coded(str):
    """A word :func:`_encode` has read; :func:`accepts` takes it as it is."""

    __slots__ = ()


def step(automaton: Automaton, config: Configuration,
         word) -> set[tuple[Configuration, int]]:
    """All one-step successors of ``config`` on ``word``, with the id of
    the transition applied.  Raises :class:`UndeclaredLetterError` if a
    token of ``word`` is not a letter of ``automaton``.  The automaton
    keeps the last tuple or str it stepped on with its codes, so that a
    trace replays in time linear in the word."""
    last, coded = automaton._codes.stepped
    if word is not last:
        coded = _encode(automaton, word)
        if type(word) in (tuple, str):  # immutable: its codes stay valid
            automaton._codes.stepped = (word, coded)
    return _successors(automaton, config, coded)


def _successors(automaton: Automaton, config: Configuration,
                word: str) -> set[tuple[Configuration, int]]:
    """:func:`step` on a coded word."""
    out = set()
    _, entries = automaton._index.get((config.state, config.store._topsym),
                                      (None, ()))
    for tid, letter, target, _op, level, _payload, push_word in entries:
        if letter is None:
            npos = config.position
        elif config.position < len(word) and word[config.position] == letter:
            npos = config.position + 1
        else:
            continue
        nstore = (st.pop(level, config.store) if push_word is None
                  else st.push(level, push_word, config.store))
        if nstore is not None:
            out.add((Configuration(target, npos, nstore), tid))
    return out


def _replay(automaton: Automaton, cfg: tuple, word: str,
            k: int) -> list[tuple[Configuration, int]]:
    """The first ``k`` steps of the chain walk from ``cfg`` on the coded
    ``word``, as trace entries: each configuration with the transition
    it takes.  Off a branch point every configuration has exactly one
    successor."""
    config = Configuration(*cfg)
    steps = []
    for _ in range(k):
        (nxt, tid), = _successors(automaton, config, word)
        steps.append((config, tid))
        config = nxt
    return steps


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
    position, store) target.  Returns a Verdict; the trace is
    reconstructed only when ``want_trace``.

    With ``memoize``, every generated configuration is looked up in
    ``seen`` and pruned if it is there, but only some are added to it:
    those whose index key can branch (two transitions may fire) or has no
    transitions, and, between two such branch points, the 1st, 2nd, 4th,
    8th, ... configuration after the last one.  Between branch points each
    configuration has at most one successor, so the search walks a single
    path there, and these few entries keep memory near the DFS depth on
    tree walks.  A path that meets the configuration another path
    reached j steps after its branch point is pruned within j more
    steps, on the next remembered configuration of that path.  A cycle
    reads no letter, so it passes a branch point or lies on such a path,
    and it is closed the same way.

    Only a branch point's successors go on the stack.  Anywhere else the
    loop walks on to the one successor in place (a chain walk): the
    stack height stays as it was, so the bookkeeping above, the cuts,
    the budget and the accept check see exactly what they would see had
    the successor been pushed and popped straight back.  Index entries
    carry an opcode, and the loop builds the nodes of pops and pushes at
    depths 1 and 2 itself (see ``Automaton.__post_init__``).

    In accept mode a chain walk also summarises segments, after the
    summary edges of interprocedural reachability.  A segment runs from a
    configuration whose top element is s[f] over ``rest``, in state q, to
    the first configuration whose store is that same ``rest`` object.  It
    sees nothing below s[f], so it depends only on q, s, f and the letters
    it reads.  A segment completed without passing a branch point is kept
    under (q, s, f), f compared by identity, with its exit state, its
    letters as (first position, length), the configurations k it
    generated and its store high-water mark above ``rest``.  Where the
    walk exposes an element with a summary, it jumps to (exit state,
    position + length, rest) and counts k configurations if the input
    there repeats the letters, the high-water mark fits the store bound on
    this ``rest`` and k fits the budget.  Otherwise it walks the copy step
    by step, and the copy's own elements may jump.  A matched copy meets
    no cut: its new elements are removed within its letters, so no least
    yield exceeds what is left, and it has no branch point for the most
    yield to cut.

    Jumps also leave the memo and the witness as they were.  With
    ``memoize`` a copy jumps only if none of its inner configurations has
    a count that is a power of 2, so none would be remembered, and only
    from a position past every configuration remembered before this chain
    walk began, so none would be found: those remembered since are its
    ancestors, and a completed copy cannot return to one.  A configuration
    of the copy reached earlier by another path was either explored
    without accepting or still waits on the stack, where it would be the
    first parent in the witness.  Without ``memoize`` a trace therefore
    needs the copy to start past the waiting ones, which lie at most one
    letter past the position this chain walk began at.  A jump is kept in
    ``parents`` with its count negated as the transition id, and the trace
    replays its steps.
    """
    index = automaton._index
    n = len(word)
    max_store = bounds.max_store_symbols
    max_configs = bounds.max_configurations
    push = st.push
    pop = st.pop

    def is_goal(cfg):
        if goal is None:
            return cfg[1] == n and cfg[2].size == 0
        return cfg == goal

    parents: dict = {}
    count = 1
    store_cut = yield_cut = False

    def finish(status, final_cfg=None):
        trace = None
        if status == ACCEPTED and want_trace:
            trace = []
            cfg = final_cfg
            tid = None
            while True:
                trace.append((Configuration(cfg[0], cfg[1], cfg[2]), tid))
                if cfg == start:
                    break
                cfg, tid = parents[cfg]
                if tid < 0:
                    # A jump over -tid configurations: replay its steps.
                    steps = _replay(automaton, cfg, word, -tid)
                    trace.extend(reversed(steps[1:]))
                    tid = steps[0][1]
            trace.reverse()
        return Verdict(status, trace, count, store_cut, yield_cut)

    if is_goal(start):
        return finish(ACCEPTED, start)

    accept_mode = goal is None
    # A depth-1 push whose new elements must read more letters than are
    # left cannot lead to acceptance; it is dropped before it is built.
    # So is one at a branch point, where the search commits to a guess,
    # after which the whole store cannot read as many letters as are left.
    # Both bounds are read from the table of the element's flag.
    yields = automaton._yield_tables(n) if accept_mode else None
    if yields is not None:
        lows_of, highs_of, most = yields.lows, yields.highs, yields.most
    flag_tables: dict = {}  # flag hash -> (flag, table id)
    rest_most: dict = {}    # rest hash -> (rest, most it reads)
    Store_ = Store
    dead = (True, ())  # dead ends are remembered like branch points
    seen = {start}
    # A depth-2 push adds elements of this level, with empty flags, to the
    # top element's flag.
    flag_level = automaton.levels - 1
    eflag = st.empty(max(flag_level - 1, 0))
    ehash = eflag._hash
    # Segment summaries, accept mode only: (state, symbol, id of flag) ->
    # (exit state, first position, letters, configurations, store
    # high-water mark above the rest, flag); the flag is kept so that its
    # id is not reused.  segs: the open
    # segments of this chain walk, innermost last, each as (key, rest of
    # the enclosing segment, position, count, high-water mark of the
    # enclosing segment, flag).  seg_rest and hw: the innermost one's rest
    # and store high-water mark.  A copy jumps only from a position above
    # hi; seen_hi is the furthest position remembered in ``seen``.
    summaries: Optional[dict] = {} if accept_mode else None
    segs: list = []
    seg_rest = None
    hw = hi = 0
    seen_hi = start[1]
    stack = [(*start, index.get((start[0], start[2]._topsym), dead))]
    while stack:
        state, pos, cur, (branches, entries) = stack.pop()
        if segs:
            segs.clear()
            seg_rest = None
        hi = seen_hi if memoize else pos + 1 if want_trace else -1
        # t: the configuration of this turn is the t-th of the chain walk,
        # which begins at the start or at a successor of a branch point.
        t = 0
        while True:  # one turn per configuration of a chain walk
            while cur is seg_rest:
                # The innermost open segment is complete: summarise it.
                key, seg_rest, first, before, outer, flag = segs.pop()
                summaries[key] = (state, first, pos - first, count - before,
                                  hw - cur.size, flag)
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
                flag = cur.flag
                key = (state, cur.symbol, id(flag))
                summary = summaries.get(key)
                if summary is not None:
                    target, first, letters, k, peak, _ = summary
                    rest = cur.rest
                    if ((max_store is None or rest.size + peak <= max_store)
                            and (max_configs is None or count + k <= max_configs)
                            and pos > hi
                            and (not memoize or 1 << t.bit_length() >= t + k)
                            and word[pos:pos + letters]
                            == word[first:first + letters]):
                        # Jump over the copy to its last configuration.
                        npos = pos + letters
                        nnode = index.get((target, rest._topsym), dead)
                        ncfg = (target, npos, rest)
                        if memoize:
                            t += k - 1
                            if ncfg in seen:
                                count += k - 1
                                break
                            if nnode[0] or not (t + 1) & t:
                                seen.add(ncfg)
                                if npos > seen_hi:
                                    seen_hi = npos
                        if want_trace:
                            parents.setdefault(ncfg, ((state, pos, cur), -k))
                        count += k
                        if npos == n and rest.size == 0:
                            return finish(ACCEPTED, ncfg)
                        if rest.size + peak > hw:
                            hw = rest.size + peak
                        state, pos, cur = ncfg
                        branches, entries = nnode
                        continue
                # Open a segment at this configuration.
                size = cur.size
                if len(segs) < _MAX_OPEN_SEGMENTS:
                    segs.append((key, seg_rest, pos, count,
                                 hw if hw > size else size, flag))
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
                    fsize, fhash, ftop = flag.size, flag._hash, flag._topsym
                    if yields is not None:
                        hit = flag_tables.get(fhash)
                        ftable = (hit[1] if hit is not None and hit[0] is flag
                                  else yields.table_id(flag, flag_tables))
                        if lows_of[ftable][tid] > n - npos or (
                                branches and most(highs_of[ftable][tid],
                                                  cur.rest, flag_tables,
                                                  rest_most) < n - npos):
                            yield_cut = True
                            continue
                    nstore = cur.rest
                    for sym in payload:
                        nstore = Store_(cur.level, sym, flag, nstore,
                                        1 + fsize + nstore.size,
                                        hash((sym, fhash, nstore._hash)),
                                        (sym,) + ftop)
                elif op == 4:
                    nstore = (pop(level, cur) if push_word is None
                              else push(level, push_word, cur))
                    if nstore is None:
                        continue
                else:
                    # Depth 2: a new top element over a new flag.
                    inner = cur.flag
                    if op == 1:
                        inner = inner.rest
                        if inner is None:
                            continue  # the flag was empty
                    else:
                        for sym in payload:
                            inner = Store_(flag_level, sym, eflag, inner,
                                           1 + inner.size,
                                           hash((sym, ehash, inner._hash)),
                                           (sym,))
                    sym, rest = cur.symbol, cur.rest
                    nstore = Store_(cur.level, sym, inner, rest,
                                    1 + inner.size + rest.size,
                                    hash((sym, inner._hash, rest._hash)),
                                    (sym,) + inner._topsym)
                if max_store is not None and nstore.size > max_store:
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
                if want_trace:
                    # First write wins: a configuration can be generated
                    # more than once, and its first parent was generated
                    # before it, so the witness walks real edges back to
                    # the start.
                    parents.setdefault((target, npos, nstore),
                                       ((state, pos, cur), tid))
                count += 1
                if accept_mode:
                    if npos == n and nstore.size == 0:
                        return finish(ACCEPTED, (target, npos, nstore))
                elif (target, npos, nstore) == goal:
                    return finish(ACCEPTED, goal)
                if max_configs is not None and count > max_configs:
                    return finish(INCONCLUSIVE)
                if branches:
                    successors.append((target, npos, nstore, nnode))
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
    longer.  It saves one set lookup per configuration.

    On 1- and 2-level automata either search skips the depth-1 pushes
    whose least yield exceeds the unread input, and, at the branch points,
    those after which the store's most yield falls short of it.  Both are
    read from the yield table of the rewritten element's flag, which
    searches build when they first meet the flag and the automaton keeps.
    It sets ``Verdict.yield_cut`` when it did; ``Verdict.store_cut``
    still tells whether the store bound cut a configuration.
    """
    if type(word) is not _Coded:
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
    index the shared input word.  Both stores must have the automaton's
    level, or :class:`MachineError` is raised.  ``word`` is read as
    :func:`accepts` reads it.
    """
    word = _encode(automaton, word)
    for cfg in (start, goal):
        if cfg.store.level != automaton.levels:
            raise MachineError(
                f"store level {cfg.store.level} does not fit a "
                f"{automaton.levels}-level automaton")
    if bounds is None:
        bounds = default_bounds(len(word))
    return _search(automaton, word,
                   (start.state, start.position, start.store),
                   (goal.state, goal.position, goal.store),
                   bounds, trace)


def enumerate_language(automaton: Automaton, max_len: int,
                       bounds: Optional[SearchBounds] = None) -> set[Word]:
    """All accepted words of length <= ``max_len``.

    Explores the configuration graph with the emitted prefix as part of
    the search key, so only prefixes the automaton can actually read are
    ever visited, and, like :func:`accepts`, skips the depth-1 pushes
    that need more letters than ``max_len`` leaves.  Raises
    :class:`SearchLimitError` if the configuration budget is exceeded (the
    result would be incomplete), and :class:`MachineError` if ``max_len``
    is negative.
    """
    if max_len < 0:
        raise MachineError("max_len must be >= 0")
    if bounds is None:
        bounds = default_bounds(max_len)
    index = automaton._index
    max_store = bounds.max_store_symbols
    max_configs = bounds.max_configurations
    yields = automaton._yield_tables(max_len)
    flag_tables: dict = {}
    accepted: set[str] = set()  # coded words
    start = (automaton.initial_state, "", automaton.initial_store())
    seen = {start}
    stack = [start]
    count = 1
    while stack:
        state, emitted, cur = stack.pop()
        if cur.size == 0:
            accepted.add(emitted)
            continue
        node = index.get((state, cur._topsym))
        if node is None:
            continue
        for tid, letter, target, op, level, _payload, push_word in node[1]:
            if letter is None:
                nemit = emitted
            elif len(emitted) < max_len:
                nemit = emitted + letter
            else:
                continue
            if op == 2 and yields is not None:
                ftable = yields.table_id(cur.flag, flag_tables)
                if yields.lows[ftable][tid] > max_len - len(nemit):
                    continue
            nstore = (st.pop(level, cur) if push_word is None
                      else st.push(level, push_word, cur))
            if nstore is None:
                continue
            if max_store is not None and nstore.size > max_store:
                continue
            ncfg = (target, nemit, nstore)
            if ncfg in seen:
                continue
            seen.add(ncfg)
            count += 1
            if max_configs is not None and count > max_configs:
                raise SearchLimitError(
                    "language enumeration exceeded the configuration budget")
            stack.append(ncfg)
    letters = automaton._codes.letter
    return {tuple(map(letters.__getitem__, word)) for word in accepted}


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

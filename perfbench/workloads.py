"""The three workloads: their set-up, the verdict jobs of one pass, and the
oracle each verdict is checked against.

``setup()`` builds a workload's inputs and returns the jobs of one timed
pass and the untimed checks to run after the passes.

The oracle never asks the automata under test: positives are contour
words from ``itpda.contour``, unary answers are Fibonacci numbers computed
here, mutants must be rejected (unless a mutant happens to be another
contour word of its family), all-words answers come from the contour set,
and enumerations are compared with the oracle sets.

Every call into ``itpda`` goes through a module attribute
(``machine.accepts``, not a name imported from it), so that the traced
run catches it.
"""

from __future__ import annotations

import io
import itertools
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from itpda import builders, cli, contour, grammar, machine

MAX_CONFIGS = 10 ** 7        # run_check's and criterion 8's budget
ENUMERATED = "enumerated"
ERROR = "error"


@dataclass
class Outcome:
    """One checked verdict.  ``ok`` is False for a wrong verdict, an
    ``inconclusive`` one, or a raised error."""

    ok: bool
    status: str
    configurations: int = 0
    letters: int = 0
    store_cut: bool = False
    message: str = ""


@dataclass
class Job:
    ident: str
    call: Callable[[], object]           # the timed call into itpda
    check: Callable[[object], Outcome]   # untimed comparison with the oracle


def verdict_check(expect_accept: bool, letters: int):
    want = machine.ACCEPTED if expect_accept else machine.REJECTED

    def check(verdict) -> Outcome:
        ok = verdict.status == want
        return Outcome(ok, verdict.status, verdict.configurations, letters,
                       verdict.store_cut,
                       "" if ok else f"expected {want}, got {verdict.status}")
    return check


def fibonacci_numbers(limit: int) -> set[int]:
    """1, 1, 2, 3, 5, ... up to ``limit``: the lengths a^n the Fibonacci
    recognizer accepts."""
    out, a, b = set(), 1, 1
    while a <= limit:
        out.add(a)
        a, b = b, a + b
    return out


def contour_set(spec, first: int, max_len: int) -> set[tuple]:
    """The family's contour words of length at most ``max_len``."""
    words, level = set(), first
    while contour.contour_length(spec, level) <= max_len:
        words.add(contour.contour_word(spec, level))
        level += 1
    return words


class AcceptLong:
    """Two multi-million-letter positives: the cell120 sector word at
    level 3 through ``itpda run``, and the poly7 ball word (sigma 7,
    level 8) through ``machine.accepts(..., memoize=False)``.  Both use
    ``suggested_store_bound``, as criterion 8 does."""

    name = "accept-long"
    CELL_LEVEL = 3
    POLY_LEVEL = 8
    _CLI_LINE = re.compile(r"^(\w+) \((\d+) configurations\)$")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed          # the inputs are fixed; nothing to draw
        self.workdir = workdir
        self.cli_counts: list[int] = []

    def setup(self) -> tuple[list[Job], list[Job]]:
        cell = grammar.cell120()
        poly = grammar.polygonal(7)
        self.sector = builders.sector_automaton(cell, "9")
        self.ball = builders.ball_automaton(poly, "W", 7)
        cell_spec = contour.ContourSpec(cell, "9", kind="sector")
        self.cell_word = contour.contour_word(cell_spec, self.CELL_LEVEL)
        self.poly_word = contour.contour_word(
            contour.ContourSpec(poly, "W", sigma=7, kind="ball"), self.POLY_LEVEL)
        self.cell_bounds = machine.SearchBounds(
            builders.suggested_store_bound(cell, 1, self.CELL_LEVEL), MAX_CONFIGS)
        self.poly_bounds = machine.SearchBounds(
            builders.suggested_store_bound(poly, 7, self.POLY_LEVEL), MAX_CONFIGS)
        automaton_file = self.workdir / "cell120-sector.ipda"
        word_file = self.workdir / "cell120-sector-3.txt"
        automaton_file.write_text(machine.render_automaton(self.sector),
                                  encoding="utf-8")
        word_file.write_text(grammar.format_word(self.cell_word) + "\n",
                             encoding="utf-8")
        self.cli_argv = ["run", str(automaton_file), str(word_file),
                         "--max-store", str(self.cell_bounds.max_store_symbols)]
        return self._jobs(), self._post_jobs()

    def _run_cli(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(self.cli_argv)
        return code, out.getvalue(), err.getvalue()

    def _check_cli(self, result) -> Outcome:
        code, out, err = result
        lines = out.strip().splitlines()
        match = self._CLI_LINE.match(lines[-1]) if lines else None
        if code != 0 or match is None or match[1] != machine.ACCEPTED:
            return Outcome(False, match[1] if match else ERROR,
                           message=f"exit {code}, stdout {out.strip()!r}, "
                                   f"stderr {err.strip()!r}")
        configs = int(match[2])
        self.cli_counts.append(configs)
        return Outcome(True, machine.ACCEPTED, configs, len(self.cell_word))

    def _jobs(self) -> list[Job]:
        return [
            Job(f"itpda run cell120 sector root=9 level {self.CELL_LEVEL}",
                self._run_cli, self._check_cli),
            Job(f"accepts poly7 ball sigma=7 level {self.POLY_LEVEL}",
                lambda: machine.accepts(self.ball, self.poly_word,
                                        self.poly_bounds, memoize=False),
                verdict_check(True, len(self.poly_word))),
        ]

    def _post_jobs(self) -> list[Job]:
        """Untimed: the library's count on the word ``itpda run`` read,
        through the same ``accepts`` call as ``itpda run`` makes, must
        equal the count the CLI printed."""
        library = verdict_check(True, len(self.cell_word))

        def check(verdict) -> Outcome:
            outcome = library(verdict)
            if outcome.ok and set(self.cli_counts) != {verdict.configurations}:
                outcome.ok = False
                outcome.message = (f"itpda run printed {sorted(set(self.cli_counts))} "
                                   f"configurations, library counted "
                                   f"{verdict.configurations}")
            return outcome
        return [Job(f"accepts cell120 sector root=9 level {self.CELL_LEVEL} "
                    "(count check against itpda run)",
                    lambda: machine.accepts(self.sector, self.cell_word,
                                            self.cell_bounds),
                    check)]


# The job list of scripts/check_recognizers.py: kind, system, root, sigma,
# level range.  The ranges leave out the largest level of six families.
# Their mutants cost 17-320 ms each, and a mutant's rejection cost varies
# with where its edit falls (by up to half its mean on large levels), so
# with them in, the pass time depended on the seed by 5-10%; more mutants
# of the remaining levels keep that near 2%.  The systems are looked up
# when set-up runs, so that the traced run catches their construction.
CHECK_JOBS = [
    ("ball", lambda: grammar.fibonacci(), "W", 5, (0, 6)),
    ("ball", lambda: grammar.fibonacci(), "W", 7, (0, 6)),
    ("ball", lambda: grammar.polygonal(6), "W", 6, (0, 4)),
    ("ball", lambda: grammar.polygonal(7), "W", 7, (0, 4)),
    ("ball", lambda: grammar.dodecahedral(), "O", 8, (0, 3)),
    ("ball", lambda: grammar.cell120(), "9", 16, (0, 1)),
    ("sector", lambda: grammar.fibonacci(), "W", 1, (1, 6)),
    ("sector", lambda: grammar.fibonacci(), "B", 1, (1, 6)),
    ("sector", lambda: grammar.dodecahedral(), "O", 1, (1, 3)),
    ("sector", lambda: grammar.cell120(), "9", 1, (1, 1)),
]
MUTATIONS = 20


class CheckMutants:
    """What ``itpda check`` runs: per (family, level) one positive and its
    seeded single-edit mutants, with ``run_check``'s bounds, mutation
    seeds (``seed * 100003 + level``) and ``memoize=False``."""

    name = "check-mutants"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> tuple[list[Job], list[Job]]:
        jobs = []
        for kind, make_system, root, sigma, (lo, hi) in CHECK_JOBS:
            system = make_system()
            sigma = sigma if kind == "ball" else 1
            automaton = (builders.ball_automaton(system, root, sigma)
                         if kind == "ball"
                         else builders.sector_automaton(system, root))
            spec = contour.ContourSpec(system, root, sigma=sigma, kind=kind)
            words = {level: contour.contour_word(spec, level)
                     for level in range(lo, hi + 1)}
            family = set(words.values())
            title = f"{kind} {system.name} root={root} sigma={sigma}"
            for level, word in words.items():
                bounds = machine.SearchBounds(
                    builders.suggested_store_bound(system, sigma, level),
                    MAX_CONFIGS)
                jobs.append(self._job(f"{title} level {level} positive",
                                      automaton, word, bounds, True))
                mutants = contour.mutate(word, self.seed * 100003 + level,
                                         MUTATIONS,
                                         alphabet=automaton.input_alphabet)
                for i, mutant in enumerate(mutants):
                    jobs.append(self._job(
                        f"{title} level {level} mutant {i}", automaton,
                        mutant, bounds, mutant in family))
        return jobs, []

    @staticmethod
    def _job(ident, automaton, word, bounds, expect_accept) -> Job:
        return Job(ident,
                   lambda: machine.accepts(automaton, word, bounds,
                                           memoize=False),
                   verdict_check(expect_accept, len(word)))



UNARY_MAX = 144          # a^1 .. a^144, memoize=False, as criterion 1
ALL_WORDS_LEN = 10       # every {b,w} word up to this length, as criterion 5
ENUM_LEN = 200           # enumerate_language of the fib sector automata


class SweepShort:
    """Many short inputs: the Fibonacci unary sweep, every {b,w} word up
    to ``ALL_WORDS_LEN`` against the fib ball automaton (sigma 5) through
    default ``accepts`` (the memoized path), and ``enumerate_language`` of
    the fib W and B sector automata.  The seed shuffles the order of the
    jobs in a pass."""

    name = "sweep-short"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> tuple[list[Job], list[Job]]:
        fib = grammar.fibonacci()
        unary = builders.fibonacci_automaton()
        fibs = fibonacci_numbers(UNARY_MAX)
        jobs = [Job(f"unary a^{n}",
                    lambda w="a" * n: machine.accepts(unary, w, memoize=False),
                    verdict_check(n in fibs, n))
                for n in range(1, UNARY_MAX + 1)]
        ball = builders.ball_automaton(fib, "W", 5)
        ball_words = contour_set(
            contour.ContourSpec(fib, "W", sigma=5, kind="ball"), 0, ALL_WORDS_LEN)
        for length in range(ALL_WORDS_LEN + 1):
            for word in itertools.product("bw", repeat=length):
                jobs.append(Job(f"fib ball sigma=5 word {''.join(word)!r}",
                                lambda w=word: machine.accepts(ball, w),
                                verdict_check(word in ball_words, length)))
        for root in ("W", "B"):
            sector = builders.sector_automaton(fib, root)
            expected = contour_set(
                contour.ContourSpec(fib, root, kind="sector"), 1, ENUM_LEN)
            jobs.append(Job(f"enumerate fib sector root={root} up to {ENUM_LEN}",
                            lambda a=sector: machine.enumerate_language(a, ENUM_LEN),
                            _enumeration_check(expected)))
        random.Random(self.seed).shuffle(jobs)
        return jobs, []


def _enumeration_check(expected: set):
    def check(found) -> Outcome:
        ok = found == expected
        return Outcome(ok, ENUMERATED, message="" if ok else
                       f"missing {len(expected - found)}, extra {len(found - expected)}")
    return check


WORKLOADS = {w.name: w for w in (AcceptLong, CheckMutants, SweepShort)}

"""Command-line front end: generate contour words, build recognizer
automata, run them on inputs, and verify recognition wholesale.

Exit codes: 0 accepted / check passed, 1 rejected / check failed,
2 inconclusive (search budget exhausted), 3 and up for usage or domain
errors, unreadable or unwritable paths and bad bounds among them.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from . import builders, contour, grammar, machine, store
from .builders import Variant
from .contour import ContourSpec
from .grammar import GrammarError, SubstitutionSystem, format_word
from .machine import (ACCEPTED, INCONCLUSIVE, REJECTED, SearchBounds,
                      UndeclaredLetterError, default_bounds)

EXIT_ERROR = 3


class CliError(Exception):
    """User-facing error; message printed to stderr, exit 3."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage, which collides with the
    # "inconclusive" verdict code; usage problems are errors (>= 3).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


_SYSTEMS = {
    "fib": grammar.fibonacci,
    "fibonacci": grammar.fibonacci,
    "dodeca": grammar.dodecahedral,
    "dodecahedral": grammar.dodecahedral,
    "cell120": grammar.cell120,
}

# poly7, polygonal7, poly(7), polygonal(7)
_POLYGONAL = re.compile(r"poly(?:gonal)?(?:(\d+)|\((\d+)\))")


def get_system(name: str) -> SubstitutionSystem:
    key = name.strip().lower()
    if key in _SYSTEMS:
        return _SYSTEMS[key]()
    match = _POLYGONAL.fullmatch(key)
    if match:
        try:
            return grammar.polygonal(int(match[1] or match[2]))
        except GrammarError as exc:
            raise CliError(f"bad polygonal system {name!r}: {exc}") from exc
    raise CliError(
        f"unknown system {name!r} (try fib, poly6, poly7, dodeca, cell120)")


@contextmanager
def _output(path):
    """The file at ``path``, opened for writing and closed on exit, or
    stdout, left open, when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as out:
        yield out


def _write_word(out, tokens) -> None:
    out.write(format_word(tokens))
    out.write("\n")


# The options that only some kinds read, with their defaults, and the
# ones each kind reads.
_KIND_DEFAULTS = {"system": "fib", "root": "W", "sigma": 1}
_KIND_READS = {"fib": (), "ball": ("system", "root", "sigma"),
               "sector": ("system", "root"), "level": ("system", "root")}


def _kind_options(args) -> None:
    """Put in the default of each of these options that was not given;
    raise :class:`CliError` for one given that ``args.kind`` does not
    read."""
    for option, default in _KIND_DEFAULTS.items():
        if getattr(args, option) is None:
            setattr(args, option, default)
        elif option not in _KIND_READS[args.kind]:
            raise CliError(f"--kind {args.kind} does not read --{option}")


# ---------------------------------------------------------------------------
# word / count / build


def cmd_word(args) -> int:
    _kind_options(args)
    system = get_system(args.system)
    with _output(args.out) as out:
        if args.kind == "level":
            tokens = grammar.read_level_word(system, args.root, args.level)
        else:
            spec = ContourSpec(system, args.root, sigma=args.sigma, kind=args.kind)
            tokens = contour.contour_word(spec, args.level)
        _write_word(out, tokens)
    return 0


def cmd_count(args) -> int:
    system = get_system(args.system)
    counts = grammar.level_counts(system, args.root, args.level)
    for label in system.labels:
        print(f"{label}: {counts[label]}")
    print(f"total: {sum(counts.values())}")
    return 0


def build_automaton(kind: str, system: SubstitutionSystem | None, root, sigma,
                    variant) -> machine.Automaton:
    """The recognizer of ``kind`` for ``system`` (unused by kind ``fib``)."""
    variant = Variant(variant)
    if kind == "fib":
        return builders.fibonacci_automaton(variant)
    if kind == "ball":
        return builders.ball_automaton(system, root, sigma, variant)
    if kind == "sector":
        return builders.sector_automaton(system, root, variant)
    raise CliError(f"unknown automaton kind {kind!r}")


def cmd_build(args) -> int:
    _kind_options(args)
    system = None if args.kind == "fib" else get_system(args.system)
    automaton = build_automaton(args.kind, system, args.root, args.sigma,
                                args.variant)
    with _output(args.out) as out:
        out.write(machine.render_automaton(automaton))
    return 0


# ---------------------------------------------------------------------------
# run


def _read_word_arg(args) -> str:
    """The text of the input word: ``--word``, the word file or stdin."""
    if args.word is not None:
        if args.word_file:
            raise CliError("give the word either with --word or as a file, not both")
        return args.word
    if args.word_file:
        with open(args.word_file, encoding="utf-8") as f:
            return f.read()
    return sys.stdin.read()


def _bounds(default: SearchBounds, max_store, max_configs) -> SearchBounds:
    """``default`` with ``--max-store`` and ``--max-configs`` put in
    where they were given."""
    return SearchBounds(
        default.max_store_symbols if max_store is None else max_store,
        default.max_configurations if max_configs is None else max_configs)


def cmd_run(args) -> int:
    with open(args.automaton, encoding="utf-8") as f:
        automaton = machine.parse_automaton(f.read())
    # Encoded once, straight from the text; accepts takes a _Coded as it is.
    word = machine._Coded(machine._encode(automaton, _read_word_arg(args)))
    bounds = _bounds(default_bounds(len(word)), args.max_store, args.max_configs)
    verdict = machine.accepts(automaton, word, bounds, trace=args.trace)
    if args.trace and verdict.trace:
        for config, _tid in verdict.trace:
            print(f"({config.state}, {config.position} read, "
                  f"{store.render(config.store)})")
    print(f"{verdict.status} ({verdict.configurations} configurations)")
    return {ACCEPTED: 0, REJECTED: 1, INCONCLUSIVE: 2}[verdict.status]


# ---------------------------------------------------------------------------
# check


@dataclass
class CheckRow:
    level: int
    len: int
    positive: str
    mutations: int
    rejected: int
    inconclusive: int  # verdicts of the positive and the mutants
    exact: int  # of those, the ones no store bound decided (Verdict.exact)
    millis: int

    def ok(self) -> bool:
        return self.positive == ACCEPTED and self.rejected == self.mutations


@dataclass
class CheckReport:
    rows: list[CheckRow] = field(default_factory=list)
    exhaustive_len: int | None = None
    exhaustive_ok: bool | None = None

    @property
    def ok(self) -> bool:
        rows_ok = all(row.ok() for row in self.rows)
        return rows_ok and (self.exhaustive_len is None
                           or self.exhaustive_ok is True)

    def _code(self) -> int:
        """The exit code: 1 if a decided verdict is wrong (a rejected
        positive, an accepted mutant, a mismatched sweep), else 2 if one
        is inconclusive, else 0."""
        wrong = self.exhaustive_ok is False or any(
            row.positive == REJECTED
            or (row.rejected + row.inconclusive
                - (row.positive == INCONCLUSIVE) < row.mutations)
            for row in self.rows)
        return 1 if wrong else 0 if self.ok else 2

    def as_json(self) -> str:
        doc = {
            "rows": [vars(row) for row in self.rows],
            "pass": self.ok,
        }
        if self.exhaustive_len is not None:
            doc["exhaustive_len"] = self.exhaustive_len
            doc["exhaustive_ok"] = self.exhaustive_ok
        return json.dumps(doc, indent=2)

    def as_text(self) -> str:
        header = ("level", "len", "positive", "mutations", "rejected",
                  "inconclusive", "exact", "millis")
        table = [header] + [
            tuple(str(v) for v in (r.level, r.len, r.positive, r.mutations,
                                   r.rejected, r.inconclusive, r.exact,
                                   r.millis))
            for r in self.rows]
        widths = [max(len(row[i]) for row in table) for i in range(len(header))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in table]
        if self.exhaustive_len is not None:
            state = {True: "ok", False: "MISMATCH",
                     None: INCONCLUSIVE}[self.exhaustive_ok]
            lines.append(f"exhaustive sweep <= {self.exhaustive_len}: {state}")
        lines.append(("PASS", "FAIL", "INCONCLUSIVE")[self._code()])
        return "\n".join(lines)


def _parse_levels(text: str, kind: str) -> range:
    if text is None:
        return range(0, 7) if kind == "ball" else range(1, 7)
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise CliError(f"bad level range {text!r}; expected A..B") from None
    if hi < lo:
        raise CliError(f"empty level range {text!r}")
    return range(lo, hi + 1)


# The recognizer families that ``scripts/check_recognizers.py`` checks, as
# (kind, system factory, root, sigma, levels); its ``--quick`` run checks
# the first three levels of each.
CHECKED_FAMILIES = (
    ("ball", grammar.fibonacci, "W", 5, range(0, 7)),
    ("ball", grammar.fibonacci, "W", 7, range(0, 7)),
    ("ball", lambda: grammar.polygonal(6), "W", 6, range(0, 6)),
    ("ball", lambda: grammar.polygonal(7), "W", 7, range(0, 6)),
    ("ball", grammar.dodecahedral, "O", 8, range(0, 5)),
    ("ball", grammar.cell120, "9", 16, range(0, 3)),
    ("sector", grammar.fibonacci, "W", 1, range(1, 7)),
    ("sector", grammar.fibonacci, "B", 1, range(1, 7)),
    ("sector", grammar.dodecahedral, "O", 1, range(1, 5)),
    ("sector", grammar.cell120, "9", 1, range(1, 3)),
)


def run_check(kind: str, system: SubstitutionSystem, root: str, sigma: int,
              levels: range, mutations: int, seed: int,
              exhaustive_len: int | None = None,
              variant: str = "corrected",
              max_store: int | None = None,
              max_configs: int | None = None) -> CheckReport:
    """Verify one recognizer against its contour-word oracle.

    Positives for every level in ``levels``; ``mutations`` seeded
    single-edit variants per level, all of which must be rejected;
    optionally an exhaustive comparison of the recognized language against
    the oracle words up to ``exhaustive_len``.  A sweep over the
    configuration budget leaves ``exhaustive_ok`` None (inconclusive).
    """
    automaton = build_automaton(kind, system, root, sigma, variant)
    spec = ContourSpec(system, root, sigma=sigma if kind == "ball" else 1,
                       kind="ball" if kind == "ball" else "sector")
    report = CheckReport()
    for level in levels:
        start = time.perf_counter()
        word = contour.contour_word(spec, level)
        default = replace(default_bounds(len(word)),
                          max_store_symbols=builders.suggested_store_bound(
                              system, sigma if kind == "ball" else 1, level))
        bounds = _bounds(default, max_store, max_configs)
        positive = machine.accepts(automaton, word, bounds, memoize=False)
        rejected = 0
        inconclusive = int(positive.status == INCONCLUSIVE)
        exact = int(positive.exact)
        # Decorrelate the per-level streams while keeping the whole check
        # a pure function of the seed.
        variants = contour.mutate(word, seed * 100003 + level, mutations,
                                  alphabet=automaton.input_alphabet)
        for mutant in variants:
            verdict = machine.accepts(automaton, mutant, bounds, memoize=False)
            rejected += verdict.status == REJECTED
            inconclusive += verdict.status == INCONCLUSIVE
            exact += verdict.exact
        millis = int((time.perf_counter() - start) * 1000)
        report.rows.append(CheckRow(level, len(word), positive.status,
                                    len(variants), rejected, inconclusive,
                                    exact, millis))
    if exhaustive_len is not None:
        report.exhaustive_len = exhaustive_len
        bounds = _bounds(default_bounds(exhaustive_len), max_store, max_configs)
        try:
            recognized = machine.enumerate_language(automaton, exhaustive_len,
                                                    bounds)
        except machine.SearchLimitError:
            return report
        # Each level word is the rule image of the one before, so once one
        # repeats, so do the words from there on.  A ball's or an unsided
        # sector's contour is a function of its level word; a sided
        # sector's grows by its side markers, so its lengths end the loop.
        repeats = kind == "ball" or not system.sided
        expected, seen = set(), set()
        level = 0 if kind == "ball" else 1
        while contour.contour_length(spec, level) <= exhaustive_len:
            if repeats:
                labels = grammar.level_word(system, root, level)
                if labels in seen:
                    break
                seen.add(labels)
            expected.add(contour.contour_word(spec, level))
            level += 1
        report.exhaustive_ok = recognized == expected
    return report


def cmd_check(args) -> int:
    _kind_options(args)
    if args.mutations < 0:
        raise CliError(f"--mutations must be >= 0, got {args.mutations}")
    if args.exhaustive_len is not None and args.exhaustive_len < 0:
        raise CliError(f"--exhaustive-len must be >= 0, got {args.exhaustive_len}")
    system = get_system(args.system)
    levels = _parse_levels(args.levels, args.kind)
    report = run_check(args.kind, system, args.root, args.sigma, levels,
                       args.mutations, args.seed, args.exhaustive_len,
                       args.variant, args.max_store, args.max_configs)
    print(report.as_json() if args.json else report.as_text())
    return report._code()


# ---------------------------------------------------------------------------
# argument parsing


def _add_bounds(p):
    p.add_argument("--max-store", type=int, default=None,
                   help="store symbol budget (default: derived from input size)")
    p.add_argument("--max-configs", type=int, default=None,
                   help="configuration budget (default: 10^7)")


def make_parser() -> _Parser:
    parser = _Parser(prog="itpda",
                     description="iterated-pushdown recognizers for "
                                 "substitution-tree contour words")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("word", help="print a contour or level word")
    p.add_argument("--system", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--kind", choices=("ball", "sector", "level"), default="level")
    p.add_argument("--sigma", type=int,
                   help="sector multiplicity, kind ball only (default 1)")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_word)

    p = sub.add_parser("count", help="per-label node counts on a tree level")
    p.add_argument("--system", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("build", help="write a recognizer automaton file")
    p.add_argument("--kind", choices=("fib", "ball", "sector"), required=True)
    p.add_argument("--system", help="kinds ball and sector (default fib)")
    p.add_argument("--root", help="kinds ball and sector (default W)")
    p.add_argument("--sigma", type=int, help="kind ball only (default 1)")
    p.add_argument("--variant", choices=("corrected", "as-printed"),
                   default="corrected")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("run", help="run an automaton file on a word")
    p.add_argument("automaton", help="automaton file")
    p.add_argument("word_file", nargs="?", default=None,
                   help="word file (default: stdin)")
    p.add_argument("--word", default=None, help="inline input word")
    p.add_argument("--trace", action="store_true",
                   help="print the accepting derivation")
    _add_bounds(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check",
                       help="verify a recognizer against its word oracle")
    p.add_argument("--kind", choices=("ball", "sector"), required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--sigma", type=int, help="kind ball only (default 1)")
    p.add_argument("--levels", default=None,
                   help="inclusive A..B (default 0..6 for balls, 1..6 for sectors)")
    p.add_argument("--mutations", type=int, default=50,
                   help="seeded single-edit negatives per level (default 50)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive-len", type=int, default=None,
                   help="also compare the whole language up to this length")
    p.add_argument("--variant", choices=("corrected", "as-printed"),
                   default="corrected")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    _add_bounds(p)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code
    except BrokenPipeError:
        return 0
    except (CliError, GrammarError, store.StoreError, machine.MachineError,
            machine.SearchLimitError, UndeclaredLetterError,
            OSError, ValueError) as exc:
        print(f"itpda: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

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


def _open_out(path):
    return open(path, "w", encoding="utf-8") if path else sys.stdout


def _write_word(out, tokens) -> None:
    out.write(format_word(tokens))
    out.write("\n")


# ---------------------------------------------------------------------------
# word / count / build


def cmd_word(args) -> int:
    system = get_system(args.system)
    out = _open_out(args.out)
    try:
        if args.kind == "level":
            tokens = grammar.read_level_word(system, args.root, args.level)
        else:
            spec = ContourSpec(system, args.root, sigma=args.sigma, kind=args.kind)
            tokens = contour.contour_word(spec, args.level)
        _write_word(out, tokens)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_count(args) -> int:
    system = get_system(args.system)
    counts = grammar.level_counts(system, args.root, args.level)
    for label in system.labels:
        print(f"{label}: {counts[label]}")
    print(f"total: {sum(counts.values())}")
    return 0


def build_automaton(kind: str, system_name, root, sigma, variant) -> machine.Automaton:
    variant = Variant(variant)
    if kind == "fib":
        return builders.fibonacci_automaton(variant)
    system = get_system(system_name)
    if kind == "ball":
        return builders.ball_automaton(system, root, sigma, variant)
    if kind == "sector":
        return builders.sector_automaton(system, root, variant)
    raise CliError(f"unknown automaton kind {kind!r}")


def cmd_build(args) -> int:
    automaton = build_automaton(args.kind, args.system, args.root,
                                args.sigma, args.variant)
    out = _open_out(args.out)
    try:
        out.write(machine.render_automaton(automaton))
    finally:
        if out is not sys.stdout:
            out.close()
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
        return rows_ok and self.exhaustive_ok is not False

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
        header = ("level", "len", "positive", "mutations", "rejected", "millis")
        table = [header] + [
            tuple(str(v) for v in (r.level, r.len, r.positive,
                                   r.mutations, r.rejected, r.millis))
            for r in self.rows]
        widths = [max(len(row[i]) for row in table) for i in range(len(header))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in table]
        if self.exhaustive_len is not None:
            state = "ok" if self.exhaustive_ok else "MISMATCH"
            lines.append(f"exhaustive sweep <= {self.exhaustive_len}: {state}")
        lines.append("PASS" if self.ok else "FAIL")
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
    the oracle words up to ``exhaustive_len``.
    """
    automaton = build_automaton(kind, system.name, root, sigma, variant)
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
        # Decorrelate the per-level streams while keeping the whole check
        # a pure function of the seed.
        variants = contour.mutate(word, seed * 100003 + level, mutations,
                                  alphabet=automaton.input_alphabet)
        for mutant in variants:
            if machine.accepts(automaton, mutant, bounds,
                               memoize=False).status == REJECTED:
                rejected += 1
        millis = int((time.perf_counter() - start) * 1000)
        report.rows.append(CheckRow(level, len(word), positive.status,
                                    len(variants), rejected, millis))
    if exhaustive_len is not None:
        bounds = _bounds(default_bounds(exhaustive_len), max_store, max_configs)
        recognized = machine.enumerate_language(automaton, exhaustive_len, bounds)
        expected = set()
        level = 0 if kind == "ball" else 1
        while True:
            length = contour.contour_length(spec, level)
            if length > exhaustive_len:
                break
            expected.add(contour.contour_word(spec, level))
            level += 1
        report.exhaustive_len = exhaustive_len
        report.exhaustive_ok = recognized == expected
    return report


def cmd_check(args) -> int:
    if args.kind == "fib":
        raise CliError("check needs a contour kind: ball or sector")
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
    return 0 if report.ok else 1


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
    p.add_argument("--sigma", type=int, default=1,
                   help="sector multiplicity for ball words (default 1)")
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
    p.add_argument("--system", default="fib")
    p.add_argument("--root", default="W")
    p.add_argument("--sigma", type=int, default=1)
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
    p.add_argument("--sigma", type=int, default=1)
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

#!/usr/bin/env python3
"""Layered verdict benchmark for itpda.

    python3 perfbench/run.py --workload accept-long --seed 1 --seconds 25 --trace 0

One process per workload, one thread, closed loop: the next verdict call
starts when the previous one has returned.  Each call is timed from
outside and checked against an oracle that does not use the automata
(see ``workloads.py``).  The program comes from ``src/`` of the checkout
this file sits in; nothing is installed.

A run repeats whole passes over the workload's verdict jobs until
``--seconds`` have passed and (untraced) at least ``MIN_PASSES`` are
done, and sets the workload up again (and times a fresh interpreter
importing itpda) before every pass.  The speed of a
shared machine drifts by tens of percent over seconds and by up to 70%
between runs minutes apart, so a fixed pure-Python reference kernel runs
between chunks of verdicts and around every set-up, and the end-to-end
times are reported at reference speed: each measured time is scaled by
``REFERENCE_S`` over the reference's time around it.  A verdict's time is
then the fastest of its passes; the metrics are medians over verdicts and
over set-ups.  The times as measured are printed too, and kept in the
report.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  A full report (and, when traced, the
spans) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import SpanTree, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
FIRST_SETUPS = 3            # set-ups before the first pass; one more per pass
MIN_PASSES = 3              # untraced; a verdict's time is its fastest of these
CHUNK_S = 0.5               # verdict time between two reference measurements
REFERENCE_ROUNDS = 3
# A typical fastest reference round (14-22 ms were seen) on the 2-vCPU VM
# the benchmark was tuned on, Python 3.11.  A time "at reference speed" is
# a measured time times REFERENCE_S / (the reference's time around it).
REFERENCE_S = 0.020
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_itpda():
    """Import itpda from this checkout's ``src/`` or fail."""
    package = SRC / "itpda" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: {package} not found; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import itpda
    if Path(itpda.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported itpda from {itpda.__file__}, "
                         f"not from {SRC}")


def time_import() -> float:
    """Seconds for a fresh interpreter to start and import itpda.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import itpda.cli"], env=env,
                   cwd=ROOT, check=True)
    return time.perf_counter() - t0


def provenance() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "itpda").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like the search loop: nested tuples,
    hashing and dict updates."""
    counts, stack = {}, ()
    for i in range(4000):
        stack = (i & 7, stack) if i & 63 else ()
        key = (i & 1023, stack)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def reference_s() -> float:
    """The machine's speed now: the fastest of a few rounds of the
    reference kernel, in seconds, with the collector off so that the
    workload's heap does not enter it."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REFERENCE_ROUNDS):
            t0 = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        gc.enable()


class Pass:
    """Timings and checked outcomes of one pass over a workload's jobs.

    The reference kernel runs before the first job and after every
    ``CHUNK_S`` of verdict time; each verdict is also scaled to reference
    speed by the mean of the two reference times around its chunk."""

    def __init__(self, jobs, failures):
        from workloads import ERROR, Outcome  # importable after load_itpda()
        self.times, self.scaled, self.outcomes = [], [], []
        t_pass = time.perf_counter()
        before, chunk = reference_s(), []
        self.references = [before]
        for job in jobs:
            t0 = time.perf_counter()
            try:
                raw = job.call()
            except Exception as exc:  # a raised error is a failed verdict
                dt = time.perf_counter() - t0
                traceback.print_exc(file=sys.stderr)
                outcome = Outcome(False, ERROR,
                                  message=f"{type(exc).__name__}: {exc}")
            else:
                dt = time.perf_counter() - t0
                outcome = job.check(raw)
            if not outcome.ok:
                failures.append(f"{job.ident}: {outcome.message}")
            self.times.append(dt)
            self.outcomes.append(outcome)
            chunk.append(dt)
            if sum(chunk) >= CHUNK_S or len(self.times) == len(jobs):
                after = reference_s()
                self.references.append(after)
                scale = REFERENCE_S / ((before + after) / 2)
                self.scaled += [t * scale for t in chunk]
                before, chunk = after, []
        self.wall = time.perf_counter() - t_pass

    def counts(self) -> dict:
        """Exact configuration counts of the pass; these repeat exactly
        across runs with the same seed."""
        acc = [o for o in self.outcomes if o.status == "accepted"]
        rej = [o for o in self.outcomes if o.status == "rejected"]
        return {
            "machine.configs.accepted": sum(o.configurations for o in acc),
            "machine.configs.rejected": sum(o.configurations for o in rej),
            "machine.store_cut.share": (sum(o.store_cut for o in rej) / len(rej)
                                        if rej else 0.0),
        }


def fastest(passes, scaled=False) -> list[float]:
    """Each job's fastest time over the passes, in seconds, as measured or
    at reference speed."""
    return [min(times) for times in
            zip(*(p.scaled if scaled else p.times for p in passes))]


def tail(samples_ms):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value, samples beyond), or None."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = int(n * pct / 100)       # samples at or below the percentile
        if n - rank - 1 >= TAIL_MIN_BEYOND:
            return pct, ordered[rank], n - rank - 1
    return None


class Run:
    """Set-ups, untraced passes and (when tracing) traced passes."""

    def __init__(self, workload, trace, tracer):
        self.workload, self.trace, self.tracer = workload, trace, tracer
        self.setup_times, self.import_times, self.setup_scales = [], [], []
        self.plain, self.traced = [], []
        self.failures: list[str] = []

    def set_up(self):
        before = reference_s()
        self.import_times.append(time_import())
        gc.collect()
        t0 = time.perf_counter()
        self.jobs, self.post_jobs = self.workload.setup()
        self.setup_times.append(time.perf_counter() - t0)
        self.setup_scales.append(REFERENCE_S / ((before + reference_s()) / 2))

    def measure(self, seconds):
        for _ in range(FIRST_SETUPS):
            self.set_up()
        if self.trace:
            gc.collect()
            with self.tracer.span("bench.setup"):
                self.traced_call(self.workload.setup)
        start = time.perf_counter()
        min_plain = 1 if self.trace else MIN_PASSES
        while (time.perf_counter() - start < seconds
               or len(self.plain) < min_plain
               or (self.trace and not self.traced)):
            self.set_up()
            gc.collect()
            if self.trace and len(self.traced) < len(self.plain):
                with self.tracer.span("bench.pass"):
                    self.traced.append(self.traced_call(
                        lambda: Pass(self.jobs, self.failures)))
            else:
                self.plain.append(Pass(self.jobs, self.failures))
        self.post = Pass(self.post_jobs, self.failures)

    def traced_call(self, fn):
        import itpda
        from itpda import builders, cli, contour, grammar, machine, store
        layers = {"grammar": grammar, "contour": contour, "builders": builders,
                  "machine": machine, "cli": cli}
        self.tracer.install(layers, [itpda, store, *layers.values()])
        try:
            return fn()
        finally:
            self.tracer.uninstall()

    def end_to_end(self, scaled=True) -> dict:
        """At reference speed, or (``scaled=False``) as measured."""
        best = fastest(self.plain, scaled)
        setups = [(i + s) * (k if scaled else 1.0) for i, s, k in
                  zip(self.import_times, self.setup_times, self.setup_scales)]
        return {
            "verdicts_per_s": (len(best) / sum(best), "1/s"),
            "verdict_ms.p50": (statistics.median(best) * 1000, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }

    def machine_rates(self) -> dict:
        outcomes = self.plain[0].outcomes
        pairs = list(zip(outcomes, fastest(self.plain)))
        acc = [(o, t) for o, t in pairs if o.status == "accepted"]
        rej = [(o, t) for o, t in pairs if o.status == "rejected"]

        def per_s(subset):
            busy = sum(t for _o, t in subset)
            return sum(o.configurations for o, _t in subset) / busy if busy else 0.0
        letters = sum(o.letters for o, _t in acc)
        return {
            "machine.configs_per_s.accepted": (per_s(acc), "configs/s"),
            "machine.configs_per_s.rejected": (per_s(rej), "configs/s"),
            "machine.configs_per_letter.accepted": (
                sum(o.configurations for o, _t in acc) / letters
                if letters else 0.0, "configs/letter"),
        }

    def per_layer(self, store_rates) -> dict:
        tree = SpanTree(self.tracer.spans)
        setup = tree.summary(tree.roots("bench.setup")[0])
        passes = [tree.summary(r) for r in tree.roots("bench.pass")]

        def per_pass(get):
            return statistics.fmean(get(s) for s in passes)

        level_word_s = setup["total"]["grammar.level_word"]
        counts = self.plain[0].counts()
        metrics = {
            "grammar.level_word.s": (level_word_s, "s"),
            "grammar.level_word.labels_per_s": (
                setup["size"]["grammar.level_word"] / level_word_s
                if level_word_s else 0.0, "labels/s"),
            "contour.contour_word.s": (setup["total"]["contour.contour_word"], "s"),
            "contour.mutate.s": (setup["total"]["contour.mutate"], "s"),
            "builders.build.ms": (setup["outer"]["builders"] * 1000, "ms"),
        }
        for op, rate in store_rates.items():
            metrics[f"store.{op}.ops_per_s"] = (rate, "ops/s")
        metrics["machine.configs.accepted"] = (
            counts["machine.configs.accepted"], "count")
        metrics["machine.configs.rejected"] = (
            counts["machine.configs.rejected"], "count")
        metrics.update(self.machine_rates())
        metrics["machine.store_cut.share"] = (
            counts["machine.store_cut.share"], "ratio")
        metrics["machine.accepts.s"] = (
            per_pass(lambda s: s["total"]["machine.accepts"]), "s")
        metrics["machine.enumerate_language.s"] = (
            per_pass(lambda s: s["total"]["machine.enumerate_language"]), "s")
        metrics["cli.import_ms"] = (statistics.median(self.import_times) * 1000, "ms")
        metrics["cli.main.self_s"] = (per_pass(lambda s: s["cli_main_self"]), "s")
        # Self time per layer in one set-up plus one pass; "bench" is the
        # benchmark's own code between the calls into itpda.
        for layer in ("grammar", "contour", "builders", "machine", "cli", "bench"):
            metrics[f"layer.{layer}.self_s"] = (
                setup["self"][layer] + per_pass(lambda s: s["self"][layer]), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(p.wall for p in self.traced)
            - statistics.median(p.wall for p in self.plain), "s")
        return metrics

    def count_drift(self) -> list[str]:
        passes = self.plain + self.traced
        first = passes[0].counts()
        return [f"pass {i}: counts {p.counts()} differ from pass 0: {first}"
                for i, p in enumerate(passes[1:], start=1)
                if p.counts() != first]


def main(argv=None) -> int:
    args = parse_args(argv)
    load_itpda()
    import storebench
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r} "
                         f"(choose from {', '.join(WORKLOADS)})")
    info = provenance()
    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        run = Run(WORKLOADS[args.workload](args.seed, Path(workdir)),
                  args.trace, tracer)
        run.measure(args.seconds)
    problems = run.count_drift()
    checked = run.plain + run.traced + [run.post]
    attempted = sum(len(p.outcomes) for p in checked)
    failed = sum(not o.ok for p in checked for o in p.outcomes)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": info,
        "verdicts_per_pass": len(run.plain[0].times),
        "pass_walls_s": [p.wall for p in run.plain],
        "pass_references_s": [p.references for p in run.plain],
        "traced_pass_walls_s": [p.wall for p in run.traced],
        "setup_times_s": run.setup_times,
        "import_times_s": run.import_times,
        "pass_counts": run.plain[0].counts(),
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
    }
    if args.trace:
        store_rates, store_problems = storebench.run()
        problems += store_problems
        metrics = run.per_layer(store_rates)
    else:
        metrics = run.end_to_end()
        report["measured"] = {k: {"value": v, "unit": u} for k, (v, u)
                              in run.end_to_end(scaled=False).items()}
        best_ms = [t * 1000 for t in fastest(run.plain, scaled=True)]
        found = tail(best_ms)
        report["verdict_ms.tail"] = (
            {"percentile": found[0], "value": found[1], "beyond": found[2],
             "samples": len(best_ms)} if found else None)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["failures"] = run.failures
    report["problems"] = problems
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start_ns", "end_ns", "size"],
             "spans": tracer.spans}))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# passes={len(run.plain)} traced={len(run.traced)} "
          f"verdicts/pass={report['verdicts_per_pass']} "
          f"counts={report['pass_counts']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        for name, m in report["measured"].items():
            print(f"measured {name} = {m['value']:.6g} {m['unit']}")
        t = report["verdict_ms.tail"]
        print("verdict_ms.tail = " + (
            f"{t['value']:.6g} ms (p{t['percentile']:g}, {t['beyond']} of "
            f"{t['samples']} samples beyond)" if t else
            f"none (fewer than {TAIL_MIN_BEYOND + 1} samples)"))
    print(f"failed_share = {failed / attempted:.6g} ({failed} of {attempted} "
          "verdicts wrong, inconclusive or raising)")
    for line in run.failures + problems:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

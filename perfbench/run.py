"""Benchmark of the ugt engine: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload fixtures_cli --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up the workload's inputs several times (the median
is ``setup_s``), then repeats timed passes over the same inputs until
``--seconds`` have gone by (at least one pass).  Every call runs under a
per-call time limit enforced with ``signal.setitimer``.  After each pass,
outside the timed region, the outputs are checked against
``expected.json`` or against independent cross-checks.  Untraced times are
scaled by the machine speed measured while they ran (see ``speed.py``);
the raw pass times are in the report.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the run first makes untraced
passes for half the time, then traced passes, and reports the per-layer
metrics per traced pass, plus ``trace.overhead_share``.  Spans are written
to ``.perfbench_out/`` in the checkout.  The lines before the last one
give sample counts, tail percentiles, every failure with its cause, and
the refused inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

from speed import REFERENCE_S, SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 100, 1.0
CALL_LIMIT_S = 100.0
PROBE_MIN_SAMPLES = 20

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "call_p50_ms": "ms", "call_tail_ms": "ms",
    "game_p50_s": "s", "game_tail_s": "s",
    "efr_s": "s", "supergame_s": "s", "construct_s": "s",
}

PER_LAYER = (
    "cli.self_s",
    "gamedoc.parse_s", "gamedoc.parse_calls", "gamedoc.serialize_s",
    "core.validate_s", "core.validate_calls",
    "rationalizability.efr_s", "rationalizability.efr_calls",
    "rationalizability.rounds",
    "lp.solve_s", "lp.solves", "lp.infeasible", "lp.cells",
    "strategies.pure_strategies_s", "strategies.pure_strategies_calls",
    "strategies.play_out_calls", "strategies.reaches_calls",
    "strategies.kuhn_convert_s",
    "discovery.build_supergame_s", "discovery.discovered_version_s",
    "discovery.discovered_version_calls", "discovery.run_discovery_s",
    "discovery.supergame_states", "discovery.profiles_enumerated",
    "equilibrium.check_sce_pure_s", "equilibrium.check_sce_pure_calls",
    "equilibrium.check_sce_behavior_s", "equilibrium.check_sce_behavior_calls",
    "equilibrium.check_sce_efr_s", "equilibrium.check_sce_efr_calls",
    "equilibrium.construct_sce_efr_s", "equilibrium.construct_sce_efr_calls",
)
RATIOS = ("discovery.edges_per_profile", "trace.overhead_share")


class CallTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program under test swallows it."""


def _on_alarm(signum, frame):
    raise CallTimeout()


def commit_id() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def timed_pass(calls, probe=None):
    """Run one pass; returns [(call, seconds, result or None, error or None)].

    With a speed probe, each time is scaled by the machine speed measured
    during the call, or during the whole pass for calls too short to hold
    PROBE_MIN_SAMPLES samples; the probe's own time is not the call's."""
    out = []
    clock = time.perf_counter
    since = probe.mark() if probe else 0
    scaled = []
    for c in calls:
        signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
        probed = probe.spent if probe else 0.0
        first = probe.mark() if probe else 0
        t0 = clock()
        try:
            res, err = c.thunk(), None
        except CallTimeout:
            res, err = None, "over the %gs per-call limit" % CALL_LIMIT_S
        except Exception as e:  # an unexpected exception is a counted failure
            res, err = None, "%s: %s" % (type(e).__name__, e)
        finally:
            dt = clock() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        if probe:
            dt -= probe.spent - probed
            scaled.append(probe.mark() - first >= PROBE_MIN_SAMPLES
                          and probe.factor(first))
        out.append((c, dt, res, err))
    if probe:
        whole = probe.factor(since)
        out = [(c, dt * (f or whole), res, err)
               for (c, dt, res, err), f in zip(out, scaled)]
    return out


def summarize(passes) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced passes, and sample counts.

    A call is identified by its game and operation.  Its time is the median
    of its samples over all passes (and over repeats within a pass), which
    filters out the bursts a shared machine adds to single calls; pass,
    stage and game times are sums of these per-call medians.
    """
    from stats import median, tail
    samples_of: dict[tuple, list] = {}
    calls = {}
    for recs in passes:
        for c, dt in recs:
            samples_of.setdefault((c.game, c.op), []).append(dt)
            calls[(c.game, c.op)] = c
    per_call = {key: median(v) for key, v in samples_of.items()}
    per_game: dict[str, float] = {}
    per_stage = dict.fromkeys(("efr", "supergame", "construct"), 0.0)
    for key, dt in per_call.items():
        c = calls[key]
        per_game[c.game] = per_game.get(c.game, 0.0) + dt
        if c.stage in per_stage:
            per_stage[c.stage] += dt
    calls_ms = [dt * 1000 for dt in per_call.values()]
    games_s = list(per_game.values())
    call_tail, game_tail = tail(calls_ms), tail(games_s)
    metrics = {
        "wall_s": sum(per_call.values()),
        "call_p50_ms": median(calls_ms), "call_tail_ms": call_tail[1],
        "game_p50_s": median(games_s), "game_tail_s": game_tail[1],
        "efr_s": per_stage["efr"], "supergame_s": per_stage["supergame"],
        "construct_s": per_stage["construct"],
    }
    each = "each the median of %s samples" % "/".join(
        str(k) for k in sorted({len(v) for v in samples_of.values()}))
    samples = {"wall_s": "sum over %d calls, %s" % (len(per_call), each)}
    for stage in per_stage:
        k = sum(calls[key].stage == stage for key in per_call)
        samples[stage + "_s"] = "sum over %d %s calls, %s" % (k, stage, each)
    samples.update({
        "call_p50_ms": "median of %d calls, %s" % (len(calls_ms), each),
        "call_tail_ms": "%s of %d calls, %s" % (call_tail[0], len(calls_ms), each),
        "game_p50_s": "median of %d games" % len(games_s),
        "game_tail_s": "%s of %d games" % (game_tail[0], len(games_s)),
    })
    return metrics, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ugt", "__init__.py")):
        print("error: no ugt sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t_import = time.perf_counter()
    import workloads  # imports ugt
    import_s = time.perf_counter() - t_import
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    wl = workloads.WORKLOADS[args.workload](expected)
    signal.signal(signal.SIGALRM, _on_alarm)

    # untraced runs scale every time by the machine's measured speed
    probe = None if args.trace else SpeedProbe()
    if probe:
        probe.start()
    # at least SETUP_MIN set-ups, more while they stay cheap
    setups = []
    while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX
                                      and sum(setups) < SETUP_SECONDS):
        probed = probe.spent if probe else 0.0
        t0 = time.perf_counter()
        inputs = wl.setup(args.seed)
        setups.append(time.perf_counter() - t0
                      - (probe.spent - probed if probe else 0.0))
    setup_factor = probe.factor(0) if probe else 1.0

    failures: list[str] = []
    attempted = 0

    def run_and_check(tracer=None):
        """One timed pass, traced if a tracer is given, then its checks,
        which are never traced."""
        nonlocal attempted
        calls = wl.calls(inputs)
        # As timeit does, the cyclic collector is off inside the timed pass
        # and a full collection runs before it: left on, its pauses (tens of
        # ms here) land on whichever call happens to trigger them.
        gc.collect()
        gc.disable()
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            recs = timed_pass(calls, probe)
            wall = time.perf_counter() - t0
        finally:
            gc.enable()
            if tracer:
                tracer.uninstall()
        results = [res for _, _, res, _ in recs]
        verdicts = wl.check_pass(inputs, results)
        for (c, _, _, err), bad in zip(recs, verdicts):
            attempted += 1
            if err or bad:
                failures.append("%s %s: %s" % (c.game, c.op, err or bad))
        # keep timings only: retained results would grow the heap pass by pass
        return [(c, dt) for c, dt, _, _ in recs], wall

    start = time.perf_counter()
    half = args.seconds / 2 if args.trace else args.seconds
    plain = [run_and_check()]
    # peak memory through set-up and one pass: later passes add no inputs,
    # and their number varies with machine speed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while time.perf_counter() - start < half:
        plain.append(run_and_check())
    if probe:
        probe.stop()

    report = {"workload": args.workload, "seed": args.seed,
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "commit": commit_id(), "loop": "closed, 1 caller",
              "import_s": import_s, "passes": len(plain)}
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        traced = [run_and_check(tracer)]
        while time.perf_counter() - start < args.seconds:
            traced.append(run_and_check(tracer))
        layers = tracer.layer_metrics()
        metrics = {name: layers.get(name, 0) / len(traced) for name in PER_LAYER}
        metrics["discovery.edges_per_profile"] = \
            layers["discovery.edges_per_profile"]
        metrics["trace.overhead_share"] = (
            statistics.median(w for _, w in traced)
            / statistics.median(w for _, w in plain) - 1)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_file = os.path.join(out_dir, "%s-seed%d-spans.json"
                                  % (args.workload, args.seed))
        tracer.dump(spans_file)
        report.update(traced_passes=len(traced), spans=len(tracer.spans),
                      spans_file=os.path.relpath(spans_file, ROOT),
                      per="traced pass")
        units = {name: "ratio" if name in RATIOS else
                 "s" if name.endswith("_s") else "count" for name in metrics}
    else:
        metrics, samples = summarize([recs for recs, _ in plain])
        metrics["setup_s"] = statistics.median(setups) * setup_factor
        samples["setup_s"] = "median of %d set-ups" % len(setups)
        metrics["peak_rss_mb"] = peak_rss_mb
        samples["peak_rss_mb"] = "process peak through set-up and the first pass"
        units = END_TO_END_UNITS
        report.update(samples=samples, speed={
            "reference_kernel_s": REFERENCE_S,
            "kernel_samples": len(probe.samples),
            "setup_factor": setup_factor,
            "raw_pass_wall_s": [w for _, w in plain]})

    report.update(failures=failures, refused=getattr(wl, "refused", []),
                  checks_skipped=getattr(wl, "skipped", {}))
    print(json.dumps(report, sort_keys=True))
    for name in sorted(metrics):
        extra = report.get("samples", {}).get(name, "")
        print("  %-40s %14.6f %-6s %s" % (name, metrics[name], units[name], extra))
    print("  attempted %d, failed %d (failed_share %.4f)"
          % (attempted, len(failures), len(failures) / attempted))
    for line in failures:
        print("  FAILED " + line)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

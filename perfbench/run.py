"""Lifecycle benchmark: turnup, churn and read_mix over the repro program.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

or all three, each in its own process, with ``--workload all``.

``--trace 0`` sets a workload up at least three times (``setup_s`` is
the median), then runs its closed loop with one client for ``--seconds``
seconds of timed operations (to the end of a whole epoch, see
:func:`drive`) and reports the end-to-end metrics.  ``--trace 1`` runs a fixed
amount of work on fresh set-ups: a discarded warm-up, then untraced,
under the outside-in tracer (``tracer.py``) and untraced again, and
reports the per-layer metrics; the fixed amount makes its work counts
exact at one seed.
Every time it reports is at a reference speed: the shared host's speed
swings are measured by a fixed probe loop and taken out (:class:`SpeedProbe`).
Either mode runs the workload's correctness checks, and a failed check
fails the run.  The last line of standard output is one JSON object;
the lines before it name every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-ups per untraced run (``setup_s`` is their median): at least
#: ``SETUPS``, and more while they total under ``SETUP_MIN_S`` seconds,
#: so a set-up of a few milliseconds still yields a steady median.
SETUPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX = 200
#: Operations in each pass of a traced run.
TRACED_OPS = {"turnup": 15, "churn": 60, "read_mix": 6000}
#: What each workload exercises and how the metrics map onto it.
LAYER_MAP = json.loads((HERE / "layers.json").read_text())
#: What the generic end-to-end metrics are called on each workload,
#: printed beside them.
ALIASES = LAYER_MAP["end_to_end"]["aliases"]


#: Op seconds between two readings of the speed probe (about 3% overhead).
PROBE_EVERY_S = 0.05
#: An operation's time is scaled by the probe's mean over the probes
#: within this many op seconds of it, either side.
PROBE_WINDOW_S = 1.5
#: The probe's typical time on the reference machine (a 2-vCPU Intel
#: Xeon VM at 2.1 GHz, Python 3.11.7): scaled times are what that machine
#: would measure if it ran at that speed throughout.
NOMINAL_PROBE_S = 0.6e-3


def _probe() -> float:
    """Seconds one fixed piece of pure-Python work takes right now."""
    gc.disable()
    try:
        started = perf_counter()
        table = {}
        for i in range(1000):
            key = f"dev{i % 97}.{i}"
            table[key] = (i, key.upper())
        sorted(table.items(), key=lambda item: item[1][0] ^ 0x55)
        return perf_counter() - started
    finally:
        gc.enable()


class SpeedProbe:
    """Follows the machine's speed through a run.

    The benchmark runs on a share of a shared host whose speed moves by
    a third within seconds.  A fixed interpreter-bound loop, read between
    operations in proportion to their time, tracks it (over 3 s windows
    its mean correlated 0.9 with read_mix's speed; a memory-bound loop
    followed it far less), and :meth:`scaled` converts a timing into
    what the reference machine would measure at its steady speed.  The
    loop never calls the program, so the scale is the same for any
    version of it.
    """

    def __init__(self) -> None:
        self.op_seconds = 0.0
        self._owed = 0.0
        #: Op seconds elapsed at each probe, and prefix sums of the probes.
        self._at: list[float] = []
        self._sums = [0.0]

    def after_op(self, seconds: float) -> float:
        """Account an operation's time; returns its midpoint on the op clock."""
        midpoint = self.op_seconds + seconds / 2
        self.op_seconds += seconds
        self._owed += seconds / PROBE_EVERY_S
        while self._owed >= 1 or not self._at:
            self._owed = max(self._owed - 1, 0.0)
            self._at.append(self.op_seconds)
            # Only the second run is timed: the first refills the caches
            # the operation left cold (12-35% slower, by workload), so the
            # reading follows the machine and not the program's footprint.
            _probe()
            self._sums.append(self._sums[-1] + _probe())
        return midpoint

    def factor(self, around: float | None = None) -> float:
        """Reference speed over this machine's, near ``around`` or run-wide."""
        low, high = 0, len(self._at)
        if around is not None:
            low = bisect.bisect_left(self._at, around - PROBE_WINDOW_S)
            high = bisect.bisect_right(self._at, around + PROBE_WINDOW_S)
            if high == low:
                low, high = 0, len(self._at)
        mean = (self._sums[high] - self._sums[low]) / (high - low)
        return NOMINAL_PROBE_S / mean

    def scaled(self, seconds: float, around: float) -> float:
        return seconds * self.factor(around)


def percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending, non-empty list."""
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """This process's peak resident memory so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drive(
    workload, *, seconds: float | None = None, ops: int | None = None, tracer=None
):
    """The closed loop: one operation at a time until the budget is spent.

    A run starts a fresh set-up (untimed) every ``workload.epoch_ops``
    operations and checks the one it leaves, so state that grows with
    each operation stays bounded whatever the program's speed; a timed
    run ends on a whole epoch, so it repeats the same operations a whole
    number of times.  Peak memory is read when the first set-up's
    operations end, and ``wal_bytes`` sums what the operations of every
    set-up appended to its WAL.  Returns the run's figures, with
    ``scaled_wall`` and ``samples`` in reference-speed seconds (see
    :class:`SpeedProbe`); ``run["workload"]`` is the last set-up, still
    open for the caller to check and tear down.
    """
    from workloads import Segments, fresh

    probe = SpeedProbe()
    timed: list[tuple[float, float]] = []
    samples: list[float] = []
    wall = 0.0
    attempted = failed = units = in_epoch = steps = 0
    kinds: dict[str, int] = {}
    failures: list[str] = []
    skipped: list[tuple[str, str]] = []
    rss_mb = None
    wal_bytes = 0
    wal_base = workload.wal_bytes()
    while (
        (wall < seconds or (workload.epoch_ops and in_epoch % workload.epoch_ops))
        if ops is None
        else (attempted < ops)
    ):
        if in_epoch == workload.epoch_ops:
            if rss_mb is None:
                rss_mb = peak_rss_mb()
            failures += workload.check()
            skipped += getattr(workload, "skipped", [])
            wal_bytes += workload.wal_bytes() - wal_base
            workload.teardown()
            name, seed = workload.name, workload.seed
            workload = None
            gc.collect()
            workload = fresh(name, seed)
            wal_base = workload.wal_bytes()
            in_epoch = 0
        in_epoch += 1
        steps += 1
        segments = Segments(tracer)
        if tracer is not None:
            tracer.op_id = steps
        try:
            step = workload.step(segments)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            step = None
            attempted += 1
            failed += 1
        else:
            if step is None:
                break
        wall += segments.seconds
        midpoint = probe.after_op(segments.seconds)
        timed.append((segments.seconds, midpoint))
        if step is None:
            continue  # it raised
        kinds[step.kind] = kinds.get(step.kind, 0) + 1
        if tracer is not None:
            tracer.op_kinds[tracer.op_id] = step.kind
            tracer.op_seconds[tracer.op_id] = segments.seconds
        if step.kind == "skipped":
            continue  # recorded by the workload; neither a change nor a failure
        attempted += 1
        if not step.ok:
            failed += 1  # like a raise: no work units, no latency sample
            continue
        units += step.units
        if step.sample:
            samples.append(probe.scaled(segments.seconds, midpoint))
    return {
        "wall": wall,
        "scaled_wall": sum(probe.scaled(*op) for op in timed),
        "probe": probe,
        "attempted": attempted,
        "failed": failed,
        "units": units,
        "samples": sorted(samples),
        "kinds": kinds,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb() if rss_mb is None else rss_mb,
        "skipped": skipped + getattr(workload, "skipped", []),
        "wal_bytes": wal_bytes + workload.wal_bytes() - wal_base,
        "workload": workload,
    }


def untraced(name: str, seed: int, seconds: float) -> tuple[dict, list[str], list[str]]:
    from workloads import fresh

    setup_times = []
    setup_probe = SpeedProbe()
    scaled_setups = []
    workload = None
    while len(setup_times) < SETUPS or (
        sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX
    ):
        if workload is not None:
            workload.teardown()
            workload = None
            gc.collect()
        started = perf_counter()
        workload = fresh(name, seed)
        setup_times.append(perf_counter() - started)
        midpoint = setup_probe.after_op(setup_times[-1])
        scaled_setups.append(setup_probe.scaled(setup_times[-1], midpoint))
    try:
        run = drive(workload, seconds=seconds)
        workload = run["workload"]
        failures = run["failures"] + workload.check()
        extra = _extra_lines(workload, run["skipped"])
    finally:
        workload.teardown()
    samples = run["samples"]
    if not samples:
        failures.append("no operation completed")
        samples = [float("nan")]
    tail = workload.tail
    speed = run["probe"].factor()
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "ops_per_s": (run["units"] / run["scaled_wall"], "1/s"),
        "op_p50_ms": (percentile(samples, 0.5) * 1e3, "ms"),
        "op_tail_ms": (percentile(samples, tail) * 1e3, "ms"),
    }
    beyond = int(len(samples) * (1 - tail))
    lines = [
        f"workload {name} seed {seed}: {run['attempted']} operations in "
        f"{run['wall']:.2f} timed s, {run['units']} work units, kinds {run['kinds']}",
        f"  times below are at the reference speed: this run's machine took "
        f"{1 / speed:.3f}x its time ({run['units'] / run['wall']:.6g} raw ops/s)",
        f"  setup_s over {len(setup_times)} set-ups (raw s): "
        f"{[round(t, 4) for t in setup_times[:5]]}",
    ]
    for metric, (value, unit) in metrics.items():
        alias = ALIASES[name].get(metric)
        shown = f"{value:.6g} {unit}"
        if alias and alias.endswith("_us"):
            shown += f" = {value * 1e3:.6g} us"
        note = f"  [{alias}]" if alias else ""
        count = ""
        if metric.startswith("op_"):
            count = f"  n={len(samples)}"
            if metric == "op_tail_ms":
                count += f", p{round(tail * 100)}, {beyond} samples beyond"
        lines.append(f"  {metric:<12} {shown}{note}{count}")
    error_rate = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    lines.append(
        f"  error_rate   {error_rate:.6g}  ({run['failed']} failed / "
        f"{run['attempted']} attempted)"
    )
    lines.extend(extra)
    result = {
        "correct": not failures,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines, failures


def _extra_lines(workload, skipped: list) -> list[str]:
    lines = []
    writes = sorted(getattr(workload, "write_latencies", []))
    if writes:
        lines.append(
            f"  write_p50_us {percentile(writes, 0.5) * 1e6:.6g} us  n={len(writes)}"
        )
    if workload.name == "churn":
        lines.append(f"  executor-skipped ops: {len(skipped)} {skipped[:5]}")
    return lines


def traced(name: str, seed: int) -> tuple[dict, list[str], list[str]]:
    from tracer import Tracer
    from workloads import OUT_DIR, fresh

    ops = TRACED_OPS[name]

    def untraced_wall() -> float:
        run = drive(fresh(name, seed), ops=ops)
        run["workload"].teardown()
        gc.collect()
        return run["scaled_wall"]

    # A discarded first pass warms the process (lazy imports, module
    # caches); untraced passes before and after the traced one cancel
    # out a steady drift in the machine's speed.
    untraced_wall()
    plain_wall = untraced_wall()
    workload = fresh(name, seed)
    tracer = Tracer()
    tracer.install()
    try:
        cache_before = workload.cache_stats()
        run = drive(workload, ops=ops, tracer=tracer)
        workload = run["workload"]
        cache_after = workload.cache_stats()
    finally:
        tracer.uninstall()
    try:
        failures = run["failures"] + workload.check()
    finally:
        workload.teardown()
    plain_wall = (plain_wall + untraced_wall()) / 2
    trace_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    tracer.write_chrome_trace(trace_path)

    stressed = LAYER_MAP["workloads"][name]["stresses"]
    missing = [layer for layer in stressed if not tracer.calls[layer]]
    if missing:
        failures.append(f"expected spans never fired: {missing}")

    selfs, counts, calls = tracer.self_seconds, tracer.counts, tracer.calls

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def cache(key: str) -> float:
        return cache_after.get(key, 0.0) - cache_before.get(key, 0.0)

    hits, misses = cache("hits"), cache("misses")
    pushed, skipped = counts["deploy.devices_pushed"], counts["deploy.devices_skipped"]
    metrics = {
        "design.build_s": (selfs["design.build"], "s"),
        "design.ipam_s": (selfs["design.ipam"], "s"),
        "design.validate_s": (selfs["design.validate"], "s"),
        "store.read_s": (selfs["store.read"], "s"),
        "store.read_calls": (calls["store.read"], "count"),
        "store.rows_examined": (counts["store.rows_examined"], "count"),
        "store.rows_per_result": (
            ratio(counts["store.rows_examined"], counts["store.rows_returned"]),
            "ratio",
        ),
        "store.write_s": (selfs["store.write"], "s"),
        "changelog.match_evaluations": (counts["readset.matches"], "count"),
        "changelog.match_s": (selfs["changelog.match"], "s"),
        "changelog.match_hit_ratio": (
            ratio(counts["readset.matches.hits"], counts["readset.matches"]),
            "ratio",
        ),
        "configgen.derive_s": (selfs["configgen.derive"], "s"),
        "configgen.configs_generated": (calls["configgen.derive"], "count"),
        "configgen.render_s": (selfs["configgen.render"], "s"),
        "configgen.records_scanned": (counts["configgen.records_scanned"], "count"),
        "configgen.regen_useful_ratio": (
            ratio(counts["configgen.regen_changed"], counts["configgen.regenerated"]),
            "ratio",
        ),
        "deploy.push_s": (selfs["deploy.push"], "s"),
        "deploy.diff_s": (selfs["deploy.diff"], "s"),
        "deploy.devices_pushed": (pushed, "count"),
        "deploy.changed_lines": (counts["deploy.changed_lines"], "count"),
        "deploy.skip_ratio": (ratio(skipped, pushed + skipped), "ratio"),
        "devices.config_apply_s": (selfs["devices.config_apply"], "s"),
        "confmon.sweep_s": (selfs["confmon.sweep"], "s"),
        "confmon.devices_checked": (counts["confmon.collect"], "count"),
        "durability.wal_s": (selfs["durability.wal"], "s"),
        "durability.commits": (calls["durability.wal"], "count"),
        "durability.wal_bytes": (run["wal_bytes"], "bytes"),
        "replication.apply_s": (selfs["replication.apply"], "s"),
        "replication.records_applied": (calls["replication.apply"], "count"),
        "rpc.handle_s": (selfs["rpc.handle"], "s"),
        "rpc.marshal_s": (selfs["rpc.marshal"], "s"),
        "rpc.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "rpc.cache_invalidations": (int(cache("invalidations")), "count"),
        "rpc.cache_advance_s": (selfs["rpc.cache_advance"], "s"),
        "flight.record_s": (selfs["flight.record"], "s"),
        "flight.events": (counts["flight.events"], "count"),
        "parallel.run_tasks_s": (selfs["parallel.run_tasks"], "s"),
        "trace.overhead_ratio": (ratio(run["scaled_wall"], plain_wall), "ratio"),
        "trace.unattributed_s": (run["wall"] - tracer.covered_seconds, "s"),
    }
    lines = [
        f"workload {name} seed {seed} traced: {run['attempted']} operations, "
        f"at the reference speed untraced {plain_wall:.3f} s (mean of 2), "
        f"traced {run['scaled_wall']:.3f} s; "
        f"{len(tracer.spans)} spans in {trace_path.relative_to(HERE.parent)}"
        + (f" ({tracer.dropped_spans} dropped)" if tracer.dropped_spans else ""),
        "  self time by layer (s): "
        + ", ".join(
            f"{layer} {seconds:.4f}"
            for layer, seconds in sorted(selfs.items(), key=lambda kv: -kv[1])
        ),
    ]
    for kind, entry in sorted(tracer.by_op_kind().items()):
        top = sorted(entry["self"].items(), key=lambda kv: -kv[1])[:4]
        regen = entry["counts"]
        lines.append(
            f"  op {kind}: n={entry['ops']}, "
            f"mean {entry['seconds'] / entry['ops'] * 1e3:.4g} ms; "
            + ", ".join(
                f"{layer} {share / entry['seconds']:.0%}" for layer, share in top
            )
            + (
                f"; regenerated {regen['configgen.regenerated']}, "
                f"changed {regen['configgen.regen_changed']}"
                if regen["configgen.regenerated"]
                else ""
            )
        )
    lines += [f"  {k:<30} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    result = {
        "correct": not failures,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines, failures


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process; exit status 1 if any failed."""
    status = 0
    for name in LAYER_MAP["workloads"]:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ]
        completed = subprocess.run(command, check=False)
        status = status or (completed.returncode != 0)
    return int(status)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*LAYER_MAP["workloads"], "all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing: {SRC}/repro", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.trace:
        result, lines, failures = traced(args.workload, args.seed)
    else:
        result, lines, failures = untraced(args.workload, args.seed, args.seconds)
    for line in lines:
        print(line)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

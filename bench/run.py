#!/usr/bin/env python3
"""Benchmark for graphprod: end-to-end metrics per workload, or per-layer spans.

    python3 bench/run.py --workload analyze --seed 3 --seconds 20 --trace 0

Run it from the root of a checkout; graphprod is imported from ``src/``.
Workloads: analyze, certify, words, sweep (see ``workloads.py``).  Each runs
in one child process with one thread, as a closed loop with one caller that
issues the next op when the previous one returns.  The child runs whole
rounds of ops until ``--seconds`` of op time at reference speed (below) has
passed and at least 100 ops have run.  Each op runs and is timed once.

With ``--trace 0`` the result holds the end-to-end metrics:

* ``ops_per_s``: completed ops / wall time of the timed phase.  The timed
  phase is the ops themselves: the output checks and the input building the
  benchmark does between ops are not in it.
* ``latency_p50_ms``, ``latency_p90_ms``: percentiles of the op times.
* ``setup_s``: spawn of a workload process to its first timed op (interpreter
  start, ``import graphprod``, input generation, temp files); the median of
  seven processes, six of which stop after set-up.
* ``peak_rss_mb``: ``ru_maxrss`` of the measured process at exit.

With ``--trace 1`` the child runs each round twice, untraced and then with
span wrappers installed (``tracing.py``), until the untraced passes reach
half of ``--seconds``.  It reports per-layer calls, self times, failures and
work counts from the traced passes, plus ``trace.overhead_ratio`` (traced /
untraced op time - 1).

Every op's output goes through independent checks (``oracles.py``); at the
default seed (1) the hashes of the first eight rounds must also match
``pins.json``.  A wrong output
aborts the run, names the op and exits 1 with ``"correct": false``.  An op
that raises is counted in ``failed`` and in ``<layer>.failed`` of the layer
whose code raised it.

The last line of stdout is the result object; the line before it is the run
record (Python, CPUs, commit, seed, sample counts).  ``--write-pins``
regenerates ``pins.json`` from the current code, and ``selftest.py`` checks
the benchmark itself.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins.json"
PIN_SEED = 1
PIN_ROUNDS = 8        # rounds whose output hashes pins.json holds
SETUP_PROCESSES = 7
MIN_OPS = 100         # so at least 10 samples lie beyond the 90th percentile
PROBE_REF_S = 0.0005  # op times are reported for a host where the probe takes this
ROUND_CUTOFF_S = 90   # start no new round after this long
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

END_TO_END = {"ops_per_s": "ops/s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}


def clock() -> float:
    # system-wide monotonic clock, comparable between parent and child
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv):
    p = argparse.ArgumentParser(description="graphprod benchmark")
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=PIN_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the self-test")
    p.add_argument("--pins", default=str(PINS), help="pinned output hashes")
    p.add_argument("--write-pins", action="store_true",
                   help="run every op of the default seed once and write --pins")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.write_pins and args.workload is None:
        p.error("--workload is required")
    return args


# -- the workload process --------------------------------------------------------

def load_graphprod():
    sys.path.insert(0, str(SRC))
    import graphprod
    if Path(graphprod.__file__).resolve().parent != SRC / "graphprod":
        raise ImportError(f"graphprod imported from {graphprod.__file__}, "
                          f"not from {SRC}")
    names = ("graphs", "structure", "iso", "words", "classify", "verify", "cli")
    mods = {name: importlib.import_module(f"graphprod.{name}") for name in names}
    mods["graphprod"] = graphprod
    return mods


def cache_clearers(mods) -> list:
    """``cache_clear`` of every functools cache graphprod defines."""
    out = {}
    for mod in mods.values():
        for val in vars(mod).values():
            if callable(getattr(val, "cache_clear", None)) and \
                    getattr(val, "__module__", "").startswith("graphprod"):
                out[id(val)] = val.cache_clear
    return list(out.values())


def origin_layer(exc: BaseException) -> str:
    """Layer (module) of the innermost graphprod frame the exception came from."""
    layer = "bench"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        name = frame.f_globals.get("__name__", "")
        if name.startswith("graphprod."):
            layer = name.split(".")[1]
    return layer


class Abort(Exception):
    """A wrong output: the run stops and names the op."""


class Runner:
    """Runs rounds of ops; ``make_round(i)`` builds the inputs of round ``i``."""

    def __init__(self, make_round, clearers, pins, tracer=None, record=None,
                 probe=False):
        self.make_round = make_round
        self.clearers = clearers
        self.pins = pins          # op id -> pinned digest, or None
        self.tracer = tracer
        self.record = record      # op id -> digest, filled when writing pins
        self.probe = probe        # time the speed probe before every op
        self.probes: list[float] = []
        self.latencies: list[tuple[float, int]] = []  # (op time, its probe index)
        self.op_time = 0.0
        self.attempted = 0
        self.failed = 0
        self.failed_by_layer: dict[str, int] = {}
        self.kinds: dict[str, int] = {}
        self.bench_self = 0.0

    def run_round(self, r: int, ops=None) -> None:
        """Run round ``r`` on inputs drawn for it (``ops`` when given)."""
        if ops is None:
            ops = self.make_round(r)
        for clear in self.clearers:
            clear()
        ctx = {}
        for i, op in enumerate(ops):
            op_id = f"r{r}.{i}"
            self.attempted += 1
            self.kinds[op.kind] = self.kinds.get(op.kind, 0) + 1
            if self.probe:
                self.probes.append(speed_probe())
            if self.tracer is not None:
                self.tracer.begin_op()
            start = time.perf_counter()
            try:
                out = op.call(ctx)
            except Exception as exc:  # a failed op is counted, not fatal
                self._account(time.perf_counter() - start)
                self.failed += 1
                layer = origin_layer(exc)
                self.failed_by_layer[layer] = self.failed_by_layer.get(layer, 0) + 1
                if self.record is not None:
                    self.record[op_id] = f"raised:{type(exc).__name__}"
                if self.failed <= 3:
                    print(f"op {op_id} ({op.kind}) raised {type(exc).__name__}: "
                          f"{exc}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - start
            self._account(elapsed)
            self.latencies.append((elapsed, len(self.probes) - 1))
            self._verify(op_id, op, out, ctx)

    def _account(self, elapsed: float) -> None:
        self.op_time += elapsed
        if self.tracer is not None:
            self.bench_self += elapsed - self.tracer.end_op()

    def _verify(self, op_id, op, out, ctx) -> None:
        try:
            op.check(out, ctx)
        except CheckFailed as exc:
            raise Abort(f"op {op_id} ({op.kind}): {exc}") from exc
        if self.record is not None:
            self.record[op_id] = workloads.digest(op.summary(out))
        if self.pins is None or op_id not in self.pins:
            return
        pinned = self.pins[op_id]
        if pinned.startswith("raised:"):
            return  # succeeds where the pinned code failed; the checks passed
        got = workloads.digest(op.summary(out))
        if got != pinned:
            raise Abort(f"op {op_id} ({op.kind}): output hash {got} "
                        f"differs from pin {pinned}")


def speed_probe() -> float:
    """Wall time of a fixed piece of pure-Python work, about 0.5 ms.

    It never calls graphprod, so a change to graphprod cannot change it; only
    the speed of the host can.
    """
    start = time.perf_counter()
    d = {}
    s = 0
    for i in range(3000):
        s = (s * 31 + i) & 0xFFFFFFF
        d[s & 255] = i
    return time.perf_counter() - start


def at_reference_speed(runner: Runner) -> list[float]:
    """Each completed op's time scaled to a host on which the probe takes
    ``PROBE_REF_S``: op time * PROBE_REF_S / (median of the five probes
    around the op, two before it and two after)."""
    out = []
    for elapsed, i in runner.latencies:
        window = sorted(runner.probes[max(0, i - 2):i + 3])
        out.append(elapsed * PROBE_REF_S / window[len(window) // 2])
    return out


def child_main(args) -> int:
    mods = load_graphprod()
    # ops look module attributes up at call time, so they go through the
    # tracer's wrappers when those are installed
    gp = SimpleNamespace(**mods)
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        def make_round(r):
            return workloads.build_round(args.workload, gp, args.seed, args.scale,
                                         tmp, r)

        first = make_round(0)
        clearers = cache_clearers(mods)
        pins = None
        if args.seed == PIN_SEED:
            with open(args.pins) as fh:
                pins = json.load(fh)[args.scale][args.workload]
        ready = clock()
        setup_s = ready - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        try:
            if args.trace:
                result = traced_run(args, mods, make_round, first, clearers, pins,
                                    ready)
            else:
                result = timed_run(args, make_round, first, clearers, pins, ready)
        except Abort as exc:
            print(f"wrong output: {exc}", file=sys.stderr)
            print(json.dumps({"abort": str(exc)}))
            return 1
        result["setup_s"] = setup_s
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def timed_run(args, make_round, first, clearers, pins, started) -> dict:
    """Whole rounds until ``--seconds`` of op time at reference speed and
    ``MIN_OPS`` ops, so a slow phase of the host does not change how many
    rounds, and so which inputs, a run measures.  Twice ``--seconds`` of
    unscaled op time ends the run in any case."""
    runner = Runner(make_round, clearers, pins, probe=True)
    min_ops = MIN_OPS if args.scale == "full" else 1
    r = 0
    while True:
        runner.run_round(r, first if r == 0 else None)
        r += 1
        scaled = at_reference_speed(runner)
        if sum(scaled) >= args.seconds and runner.attempted >= min_ops:
            break
        if runner.op_time >= 2 * args.seconds or clock() - started > ROUND_CUTOFF_S:
            break
    raw = [elapsed for elapsed, _ in runner.latencies]
    p90 = percentile90(scaled)
    return {
        "rounds": r, "attempted": runner.attempted, "failed": runner.failed,
        "failed_by_layer": runner.failed_by_layer, "kinds": runner.kinds,
        "op_time_s": runner.op_time, "latency_samples": len(scaled),
        "beyond_p90": sum(1 for x in scaled if x > p90),
        "probe_median_ms": statistics.median(runner.probes) * 1000,
        # the same figures from unscaled wall time, for reference
        "wall_ops_per_s": len(raw) / runner.op_time,
        "wall_latency_p50_ms": statistics.median(raw) * 1000,
        "wall_latency_p90_ms": percentile90(raw) * 1000,
        "metrics": {
            "ops_per_s": len(scaled) / sum(scaled),
            "latency_p50_ms": statistics.median(scaled) * 1000,
            "latency_p90_ms": p90 * 1000,
        },
    }


def percentile90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def traced_run(args, mods, make_round, first, clearers, pins, started) -> dict:
    import tracing
    tracer = tracing.Tracer(mods)
    plain = Runner(make_round, clearers, pins)
    traced = Runner(make_round, clearers, pins, tracer)
    # each round runs untraced and then traced, on inputs built for each, so
    # drift in machine speed falls on both sides of the overhead ratio alike
    nrounds = 0
    while plain.op_time < args.seconds / 2 and clock() - started < ROUND_CUTOFF_S:
        plain.run_round(nrounds, first if nrounds == 0 else None)
        ops = make_round(nrounds)
        tracer.install()
        try:
            traced.run_round(nrounds, ops)
        finally:
            tracer.uninstall()
        nrounds += 1
    metrics = tracer.metrics()
    layers = tracer.layer_self()
    accounted = sum(layers.values()) + traced.bench_self
    if abs(accounted - traced.op_time) > 1e-6 * max(1, traced.attempted):
        raise RuntimeError(f"span accounting: layers + bench = {accounted:.6f} s, "
                           f"traced op time = {traced.op_time:.6f} s")
    for layer in tracing.LAYERS:
        metrics[f"{layer}.failed"] = traced.failed_by_layer.get(layer, 0)
    metrics["bench.self_s"] = traced.bench_self
    metrics["trace.overhead_ratio"] = traced.op_time / plain.op_time - 1
    shares = {name: secs / traced.op_time
              for name, secs in sorted(layers.items(), key=lambda kv: -kv[1])}
    shares["bench"] = traced.bench_self / traced.op_time
    print("self-time share of traced op time: " + ", ".join(
        f"{k} {v:.1%}" for k, v in shares.items()), file=sys.stderr)
    for item in tracer.unreachable():
        print(f"not traced (held in a container): {item}", file=sys.stderr)
    return {"rounds": nrounds, "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed, "kinds": traced.kinds,
            "op_time_s": traced.op_time, "untraced_op_time_s": plain.op_time,
            "self_share": shares, "metrics": metrics}


# -- the parent --------------------------------------------------------------------

def spawn(args, setup_only: bool) -> tuple[int, dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--pins", args.pins]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(clock())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def run_record(args, child: dict, setups: list[float]) -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "graphprod").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "cpu_model": model, "commit": git_head(), "source_sha256": src_hash.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "setup_samples": setups,
        **{k: v for k, v in child.items() if k != "metrics"},
    }


def git_head() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def parent_main(args) -> int:
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROCESSES - 1):
            code, res = spawn(args, setup_only=True)
            if code != 0:
                print(f"set-up process failed with exit code {code}", file=sys.stderr)
                return 2
            setups.append(res["setup_s"])
    code, res = spawn(args, setup_only=False)
    if code != 0 or "metrics" not in res:
        print(json.dumps({"correct": False, "attempted": res.get("attempted", 1),
                          "failed": res.get("failed", 0), "metrics": {}}))
        return 1
    setups.append(res["setup_s"])
    if args.trace:
        import tracing
        units = dict(tracing.metric_names())
        values = res["metrics"]
    else:
        units = END_TO_END
        values = dict(res["metrics"], setup_s=statistics.median(setups),
                      peak_rss_mb=res["peak_rss_mb"])
    print(json.dumps({"run_record": run_record(args, res, setups)}))
    print(json.dumps({
        "correct": True, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def write_pins(args) -> int:
    """Run every op of every round of the default seed once and record hashes."""
    mods = load_graphprod()
    clearers = cache_clearers(mods)
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    pins = {}
    try:
        for scale in ("full", "tiny"):
            pins[scale] = {}
            for name in workloads.WORKLOADS:
                table = pins[scale][name] = {}
                runner = Runner(
                    lambda r, name=name, scale=scale: workloads.build_round(
                        name, SimpleNamespace(**mods), PIN_SEED, scale, tmp, r),
                    clearers, None, record=table)
                for r in range(PIN_ROUNDS):
                    runner.run_round(r)
                print(f"pinned {scale} {name}: {len(table)} ops", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.pins, "w") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graphprod" / "__init__.py").is_file():
        print(f"no graphprod sources under {SRC}; run from a graphprod checkout",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.write_pins:
        return write_pins(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())

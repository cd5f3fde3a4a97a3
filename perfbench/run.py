"""coopdss benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are taken relative
to this file).  The program is imported from `src/` of the same checkout.

--trace 0 measures the end-to-end metrics: set-up time (median of three to
seven cold set-ups, each in a fresh process), then whole passes over the
workload's seed-ordered op list until at least --seconds have passed and every
op kind has at least 100 samples.  Times are taken at the host's reference
speed: each is rescaled by a fixed piece of reference work timed just before
and just after it (see `calibrate`).  An op's cost is the median of its rescaled times;
throughput, the geometric mean and the mean of the slowest tenth are taken
over those costs.  Every op's output is checked; Gabidulin verdicts are
cross-checked in the base field after the timed phase.

--trace 1 measures the per-layer metrics: it traces the set-up, runs a few
untraced passes to compare with, then one traced pass, and adds the field
multiply microbenchmark, the CLI subprocess timings and the
acceptance-criterion times.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 1 when any op failed, 2 when the
program cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_SAMPLES = 100
# cold set-ups per run: at least 3, more while they add up to under 3 s
SETUP_SAMPLES = (3, 7)
SETUP_BUDGET_S = 3.0
PROBE_TIMEOUT_S = 120
# the reference work runs before an op whenever this long has passed since it last ran
CALIBRATE_EVERY_S = 0.05
# fastest time of `calibrate` on an idle core of the 2-vCPU Xeon VM the
# benchmark was sized on; op costs are reported at this speed
REFERENCE_S = 1.39e-3

def _import_program() -> None:
    """Put this checkout's src/ first on the path and make sure the program
    comes from there, never from an installed copy."""
    if not (SRC / "coopdss" / "__init__.py").is_file():
        print(f"perfbench: no coopdss package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import coopdss

    if Path(coopdss.__file__).resolve().parent != (SRC / "coopdss").resolve():
        print(f"perfbench: coopdss imported from {coopdss.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class Measured:
    by_op: dict = field(default_factory=lambda: defaultdict(list))     # op index -> seconds
    by_op_calib: dict = field(default_factory=lambda: defaultdict(list))  # index in calib_s before each
    sub_samples: dict = field(default_factory=lambda: defaultdict(list))  # kind -> seconds
    runs: dict = field(default_factory=lambda: defaultdict(int))       # op index -> runs
    failed_runs: dict = field(default_factory=lambda: defaultdict(int))
    failures: list = field(default_factory=list)
    last: dict = field(default_factory=dict)                           # op index -> output
    pass_s: list = field(default_factory=list)
    calib_s: list = field(default_factory=list)                        # `calibrate` times
    elapsed: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def failed(self) -> int:
        return sum(self.failed_runs.values())

    def fail(self, idx: int, label: str, exc: Exception, all_runs: bool = False) -> None:
        self.failed_runs[idx] = self.runs[idx] if all_runs else self.failed_runs[idx] + 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")

    def op_bests(self) -> list[float]:
        """Each op's best latency over the passes of the run."""
        return [min(xs) for _, xs in sorted(self.by_op.items())]

    def op_costs(self) -> list[float]:
        """Each op's cost at the reference speed: the median over its repeats
        of its time rescaled by the mean of the reference times just before
        and just after it."""
        cal = self.calib_s

        def rescaled(t, i):
            return t * REFERENCE_S * 2 / (cal[i] + cal[min(i + 1, len(cal) - 1)])

        return [statistics.median(map(rescaled, xs, self.by_op_calib[idx]))
                for idx, xs in sorted(self.by_op.items())]


def measure(ops, seconds: float, min_samples: int, tracer=None) -> Measured:
    """Whole passes over `ops` until `seconds` have passed and every op kind
    has `min_samples` samples."""
    res = Measured()
    per_pass = Counter(op.kind for op in ops)
    min_passes = max(math.ceil(min_samples / count) for count in per_pass.values())
    gc.collect()
    started = time.perf_counter()
    calibrated = -math.inf
    while True:
        pass_started = time.perf_counter()
        for idx, op in enumerate(ops):
            if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                res.calib_s.append(calibrate())
                calibrated = time.perf_counter()
            if tracer is not None:
                tracer.op = idx
            op.sub_kinds.clear()
            res.runs[idx] += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises is a failed op
                res.by_op[idx].append(time.perf_counter() - t0)
                res.by_op_calib[idx].append(len(res.calib_s) - 1)
                res.fail(idx, op.label, exc)
                continue
            res.by_op[idx].append(time.perf_counter() - t0)
            res.by_op_calib[idx].append(len(res.calib_s) - 1)
            try:
                op.check(out)
            except Exception as exc:  # a wrong or malformed output is a failed op
                res.fail(idx, op.label, exc)
            else:
                res.last[idx] = out
            for kind, value in op.sub_kinds.items():
                res.sub_samples[kind].append(value)
        now = time.perf_counter()
        res.pass_s.append(now - pass_started)
        if now - started >= seconds and len(res.pass_s) >= min_passes:
            break
    res.elapsed = time.perf_counter() - started
    res.calib_s.append(calibrate())  # the reference after the last op
    if tracer is not None:
        tracer.op = None
    return res


# operands of the reference work: packed GF(31^30)-style elements, 26-bit digits
_REF_P, _REF_M, _REF_DB = 31, 30, 26
_REF_MASK = (1 << _REF_DB) - 1
_REF_LOW = (1 << (_REF_DB * _REF_M)) - 1
_REF_A = sum(((7 * i + 3) % _REF_P) << (_REF_DB * i) for i in range(_REF_M))
_REF_B = sum(((11 * i + 5) % _REF_P) << (_REF_DB * i) for i in range(_REF_M))
_REF_ROUNDS = 200


def calibrate() -> float:
    """Seconds for a fixed piece of work of the program's own kind: products
    of packed extension-field elements, folded and reduced digit by digit in
    pure Python.  It lives here, not in src/, so a change to the program
    leaves it alone.

    Its time tracks the host's current speed.  On the shared host, busy
    neighbours slow every core by up to about 1.7x, for fractions of a second
    or for a whole run.  Each op's time is rescaled by the reference times
    measured just before and just after it (at most CALIBRATE_EVERY_S apart,
    or one op apart when the op is longer), so the op's cost reads the same in
    a slow stretch as in a fast one."""
    started = time.perf_counter()
    a, b = _REF_A, _REF_B
    for _ in range(_REF_ROUNDS):
        v = a * b
        top = v >> (_REF_DB * _REF_M)
        v = (v & _REF_LOW) + (top << _REF_DB) + 3 * top
        out, shift = 0, 0
        while v:
            d = v & _REF_MASK
            if d >= _REF_P:
                d %= _REF_P
            if d:
                out |= d << shift
            v >>= _REF_DB
            shift += _REF_DB
        a, b = b, out or _REF_A
    return time.perf_counter() - started


def crosscheck(ops, res: Measured) -> None:
    """Base-field cross-check, once per op, outside the timed phase; a
    mismatch fails every run of that op."""
    for idx, op in enumerate(ops):
        if op.crosscheck is None or idx not in res.last:
            continue
        try:
            op.crosscheck(res.last[idx])
        except Exception as exc:  # mismatch or error in the oracle
            res.fail(idx, f"{op.label} (base-field cross-check)", exc, all_runs=True)


def _setup_probe(workload: str) -> float:
    """Cold set-up time in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _timed_setup(workloads, workload: str):
    """The instances and the set-up time at the reference speed: each
    instance's build time is rescaled by the reference times just before and
    just after it, as op times are."""
    def reference():
        return statistics.median(calibrate() for _ in range(3))

    instances, cost = [], 0.0
    calibrate()  # the first call in a fresh interpreter runs cold
    before = reference()
    for step in workloads.setup_steps(workload):
        started = time.perf_counter()
        instances.append(step())
        elapsed = time.perf_counter() - started
        after = reference()
        cost += elapsed * REFERENCE_S * 2 / (before + after)
        before = after
    return instances, cost


def kind_stats(ops, res: Measured) -> dict:
    """p50 and p90 over every sample of each op kind, with the sample count."""
    samples = defaultdict(list)
    for idx, xs in res.by_op.items():
        samples[ops[idx].kind].extend(xs)
    out = {}
    for source in (samples, res.sub_samples):
        for kind, xs in sorted(source.items()):
            out[kind] = {"n": len(xs), "p50_ms": percentile(xs, 0.5) * 1e3,
                         "p90_ms": percentile(xs, 0.9) * 1e3}
    return out


def gmean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def tail_mean(values) -> float:
    """Mean of the slowest tenth (at least one) of the values."""
    xs = sorted(values, reverse=True)
    return statistics.fmean(xs[:max(1, math.ceil(len(xs) / 10))])


def end_to_end(res: Measured, setup_samples) -> dict[str, float]:
    """Every op is a deterministic single-threaded computation, so the spread
    between its repeats is the shared host's speed, which `op_costs` takes
    out.  The op list spans four decades of cost, so a median or p90 over all
    samples falls between clusters of near-equal ops and jumps; the geometric
    mean and the slowest tenth of the per-op costs do not.  Throughput is one
    pass at those costs."""
    costs = res.op_costs()
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(costs) / sum(costs),
        "op_gmean_ms": gmean(costs) * 1e3,
        "op_tail_ms": tail_mean(costs) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def raw_end_to_end(res: Measured, n_ops: int) -> dict[str, float]:
    """The same summaries over each op's best time, without rescaling, and
    the fastest pass."""
    bests = res.op_bests()
    return {"ops_per_s_fastest_pass": n_ops / min(res.pass_s),
            "ops_per_s_unscaled": len(bests) / sum(bests),
            "op_gmean_ms_unscaled": gmean(bests) * 1e3,
            "op_tail_ms_unscaled": tail_mean(bests) * 1e3}


def _print_summary(args, res: Measured, stats: dict) -> None:
    print(f"{args.workload} seed={args.seed}: {len(res.pass_s)} passes, {res.attempted} ops "
          f"in {res.elapsed:.2f} s, fail_ratio={res.failed}/{res.attempted}, "
          f"reference work {min(res.calib_s) * 1e3:.3f} ms best, "
          f"{statistics.median(res.calib_s) * 1e3:.3f} ms median "
          f"over {len(res.calib_s)} (reference speed {REFERENCE_S * 1e3:.3f} ms)")
    for kind, s in stats.items():
        print(f"  {kind:12s} n={s['n']:5d}  p50={s['p50_ms']:10.3f} ms  "
              f"p90={s['p90_ms']:10.3f} ms")
    for line in res.failures:
        print(f"  FAILED {line}")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def _units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def untraced_run(args, workloads, probes) -> int:
    instances, own = _timed_setup(workloads, args.workload)
    setup_samples = [own]
    while len(setup_samples) < SETUP_SAMPLES[0] or (
            len(setup_samples) < SETUP_SAMPLES[1] and sum(setup_samples) < SETUP_BUDGET_S):
        setup_samples.append(_setup_probe(args.workload))
    ops = workloads.make_pass(args.workload, instances, args.seed)
    res = measure(ops, args.seconds, MIN_SAMPLES)
    crosscheck(ops, res)
    metrics = end_to_end(res, setup_samples)
    raw = raw_end_to_end(res, len(ops))
    stats = kind_stats(ops, res)
    facts = probes.machine_facts(ROOT, args.workload, args.seed, args.seconds)
    print("facts: " + json.dumps(facts))
    _print_summary(args, res, stats)
    print(f"  setup samples (s): {', '.join(f'{x:.4f}' for x in setup_samples)}")
    print("  unscaled: " + ", ".join(f"{k}={v:.4g}" for k, v in raw.items()))
    _write_report(args, {"facts": facts, "end_to_end": metrics, "unscaled": raw,
                         "kinds": stats, "by_op": res.by_op, "by_op_calib": res.by_op_calib,
                         "setup_samples_s": setup_samples, "pass_s": res.pass_s,
                         "calib_s": res.calib_s,
                         "failures": res.failures,
                         "fail_ratio": res.failed / res.attempted})
    _result_line(res.failed == 0, res.attempted, res.failed, metrics, _units("end_to_end"))
    return 0 if res.failed == 0 else 1


def traced_run(args, workloads, probes) -> int:
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        instances = workloads.setup(args.workload)
    finally:
        tracer.uninstall()
    ops = workloads.make_pass(args.workload, instances, args.seed)
    # untraced passes to compare the traced pass with; end-to-end metrics
    # come from --trace 0 runs, so a quarter of the time is enough here
    plain = measure(ops, args.seconds / 4, 0)
    tracer.install()
    try:
        traced = measure(ops, 0, 0, tracer)
    finally:
        tracer.uninstall()
    crosscheck(ops, plain)
    crosscheck(ops, traced)

    layers = tracer.layer_metrics()
    layers.update(probes.ext_mul_us(args.seed))
    cli, cli_attempted, cli_failures = probes.cli_timings(ROOT)
    layers.update(cli)
    accept, acceptance_notes = probes.acceptance_timings(ROOT, OUT)
    layers.update(accept)
    # the traced pass against the untraced ones, both at the reference speed
    plain_costs, traced_costs = plain.op_costs(), traced.op_costs()
    layers["trace.overhead_pct"] = (sum(traced_costs) / sum(plain_costs) - 1) * 100
    layers["trace.overhead_op_gmean_ms"] = (gmean(traced_costs) - gmean(plain_costs)) * 1e3

    facts = probes.machine_facts(ROOT, args.workload, args.seed, args.seconds)
    determinism = _determinism(args, facts, layers)
    print("facts: " + json.dumps(facts))
    stats = kind_stats(ops, plain)
    _print_summary(args, plain, stats)
    print(f"  traced pass: {sum(traced_costs):.3f} s vs untraced {sum(plain_costs):.3f} s "
          f"at the reference speed ({layers['trace.overhead_pct']:+.1f}%)")
    print(f"  determinism of counts: {determinism}")
    for name in sorted(layers):
        print(f"  {name:42s} {layers[name]:.6g}")
    extra_failures = list(cli_failures)
    if determinism.startswith("DIFFERENT"):
        extra_failures.append(determinism)
    for line in extra_failures:
        print(f"  FAILED {line}")
    for line in acceptance_notes:
        print(f"  WARNING {line}")

    checks = cli_attempted + 1  # + the determinism comparison
    attempted = plain.attempted + traced.attempted + checks
    failed = plain.failed + traced.failed + len(extra_failures)
    tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    _write_report(args, {"facts": facts, "layers": layers, "kinds": stats,
                         "traced_kinds": kind_stats(ops, traced), "determinism": determinism,
                         "calib_s": plain.calib_s + traced.calib_s,
                         "failures": plain.failures + traced.failures + extra_failures,
                         "acceptance_notes": acceptance_notes})
    _result_line(failed == 0, attempted, failed, layers, _units("per_layer"))
    return 0 if failed == 0 else 1


def _count_metrics(layers: dict) -> dict:
    return {k: v for k, v in layers.items()
            if k.endswith(("_calls", "_cells", "_rows", ".bytes", "_builds"))}


def _determinism(args, facts, layers) -> str:
    """Compare exact counts with an earlier traced run of the same workload,
    seed and source, when one exists."""
    path = OUT / f"{args.workload}-seed{args.seed}-trace1.json"
    if not path.exists():
        return "no earlier traced run to compare"
    earlier = json.loads(path.read_text())
    if earlier.get("facts", {}).get("source_digest") != facts["source_digest"]:
        return "earlier traced run is of other source; not compared"
    old, new = _count_metrics(earlier["layers"]), _count_metrics(layers)
    diff = sorted(k for k in new if old.get(k) != new[k])
    if diff:
        return "DIFFERENT counts from the earlier traced run: " + ", ".join(diff)
    return f"identical to the earlier traced run ({len(new)} counts)"


def _write_report(args, report: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "datapath", "lifetime"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_program()
    import probes
    import workloads

    if args.setup_probe:
        _, elapsed = _timed_setup(workloads, args.workload)
        print(json.dumps({"setup_s": elapsed}))
        return 0
    if args.trace:
        return traced_run(args, workloads, probes)
    return untraced_run(args, workloads, probes)


if __name__ == "__main__":
    sys.exit(main())

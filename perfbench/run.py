"""Benchmark of the poleplace command line, end to end and per layer.

    python3 perfbench/run.py --workload study-integer --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25          # all three

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is a closed loop in one process and one thread: the next
item is issued only after the previous one returns.  An item runs the
public CLI in-process through ``poleplace.cli.main(argv)`` with stdout
and stderr captured.  ``--seed`` sets the order in which each pass issues
its items and nothing else, so every seed yields the same outputs.

``--trace 0`` runs every item twice, back to back: once through the
program and once through ``reference/poleplace_ref``, a frozen copy of
poleplace 1.0.0.  The end-to-end metrics are the program's latency and
throughput relative to the reference's on the same items at the same
moments, which cancels the drift in machine speed between runs.
``--trace 1`` alternates untraced passes with passes under the wrappers
of ``tracer.py``, and prints the per-layer metrics, per pass, plus the
tracing overhead.  Either way every output is checked
after the timed region, and the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md for the metric definitions.
"""

import os

# One BLAS/OpenMP thread; must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
BASELINE = HERE / "baseline.json"

PROGRAM, REFERENCE_PACKAGE = "poleplace", "poleplace_ref"
SETUP_PROBES = 3      # fresh interpreters per package, before and again after the passes
# The reference's median setup time on the machine the benchmark was defined
# on (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
# setup_s is the program's setup time scaled to that machine speed.
REFERENCE_SETUP_S = 0.55
MIN_ITEMS = 100       # so that at least 10 items lie beyond the 90th percentile
CHILD_TIMEOUT = 170   # seconds, for any subprocess this script starts
LOAD = "single process, single thread, closed loop"

sys.path[:0] = [str(HERE), str(SRC), str(REFERENCE)]
import tracer as tracing  # noqa: E402
from workloads import (ALGORITHMS, WORKLOADS, item_digest,  # noqa: E402
                       pass_fingerprint, run_item)


def prepare(workload, package=PROGRAM):
    """Import the package's CLI, write the workload's system files, build
    its argv lists.  Returns (cli.main, work directory, items)."""
    cli = importlib.import_module(f"{package}.cli")
    workdir = tempfile.mkdtemp(prefix=f".work-{workload.name}-", dir=HERE)
    return cli.main, workdir, workload.prepare(workdir)


def probe(name, package):
    """Child side of a setup measurement: set up, then report the clock."""
    _, workdir, _ = prepare(WORKLOADS[name], package)
    ready = time.monotonic()
    shutil.rmtree(workdir)
    print(repr(ready))


def measure_setup(name):
    """Fresh interpreter start to ready for the first item, SETUP_PROBES
    times for the program and as often for the reference, alternating.

    CLOCK_MONOTONIC is system-wide, so the child's reading is comparable
    with the parent's launch time.
    """
    times = {PROGRAM: [], REFERENCE_PACKAGE: []}
    for _ in range(SETUP_PROBES):
        for package, samples in times.items():
            start = time.monotonic()
            done = subprocess.run(
                [sys.executable, __file__, "--probe", name, "--package", package],
                capture_output=True, text=True, check=True,
                timeout=CHILD_TIMEOUT, cwd=ROOT)
            samples.append(float(done.stdout.split()[-1]) - start)
    return times


@dataclass
class Pass:
    digests: dict   # item key -> digest of the program's outputs
    times: list     # wall time of each item under the program, s
    ref_times: list  # the same items under the reference, s
    wall: float = 0.0  # wall time of the whole pass, s


def _timed(main, item):
    t0 = time.perf_counter()
    outcomes = run_item(main, item)
    return outcomes, time.perf_counter() - t0


def run_passes(main, items, rng, seconds, outputs, min_items=0, ref_main=None):
    """Whole passes, each in a freshly shuffled order, until ``seconds`` of
    timed wall time and ``min_items`` items are done.

    With ``ref_main`` each item also runs through the reference, right
    before or right after the program as the rng picks, so that both see
    the same machine state.  ``outputs`` collects the program's outcomes
    first seen for each (key, digest).
    """
    passes = []
    wall = done = 0
    while not passes or wall < seconds or done < min_items:
        order = list(items)
        rng.shuffle(order)
        p = Pass({}, [], [])
        start = time.perf_counter()
        for item in order:
            ref_first = ref_main is not None and rng.random() < 0.5
            if ref_first:
                p.ref_times.append(_timed(ref_main, item)[1])
            outcomes, elapsed = _timed(main, item)
            p.times.append(elapsed)
            if ref_main is not None and not ref_first:
                p.ref_times.append(_timed(ref_main, item)[1])
            digest = item_digest(item.key, outcomes)
            p.digests[item.key] = digest
            outputs.setdefault((item.key, digest), outcomes)
        p.wall = time.perf_counter() - start
        passes.append(p)
        wall += p.wall
        done += len(p.times)
    return passes


def check_outputs(workload, items, warm, passes, outputs):
    """Failed timed items, fingerprints, and messages for everything wrong.

    Each distinct output is checked once; every timed item that produced
    it shares its verdict.
    """
    by_key = {item.key: item for item in items}
    verdict = {}
    for k, outcomes in outputs.items():
        try:
            verdict[k] = workload.check(by_key[k[0]], outcomes)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            verdict[k] = f"unreadable output: {exc!r}"
    failed = sum(1 for p in passes for k in p.digests.items() if verdict[k])
    problems = sorted({f"{k[0]}: {msg}" for k, msg in verdict.items() if msg})
    prints = {pass_fingerprint(p.digests) for p in warm + passes}
    if len(prints) != 1:
        problems.append(f"outputs differ between passes ({len(prints)} fingerprints)")
    return failed, prints, problems


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency(times):
    """Pooled latency percentiles and throughput from item wall times."""
    return {"item_ms_p50": statistics.median(times) * 1e3,
            "item_ms_p90": percentile(times, 90) * 1e3,
            "items_per_s": len(times) / sum(times)}


def relative(passes):
    """The program against the reference on the same items.

    The latency ratios are taken per pass, where both sides ran the same
    items side by side, and the median over passes is reported.
    """
    med = statistics.median
    p50 = med(med(p.times) / med(p.ref_times) for p in passes)
    p90 = med(percentile(p.times, 90) / percentile(p.ref_times, 90) for p in passes)
    rate = (sum(sum(p.ref_times) for p in passes)
            / sum(sum(p.times) for p in passes))
    return {"item_ms_p50_vs_ref": metric(p50, "ratio"),
            "item_ms_p90_vs_ref": metric(p90, "ratio"),
            "items_per_s_vs_ref": metric(rate, "ratio")}


def metric(value, unit):
    return {"value": value, "unit": unit}


def environment():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": 1, "load": LOAD}


def layer_metrics(tr, n_passes, wall, item_time):
    """Per-layer metrics of the traced passes, per pass."""
    acc, root = tr.totals()
    out = {}

    def stat(name, *stats):
        calls, busy, child = acc.get(name, (0, 0.0, 0.0))
        values = {"calls": (calls / n_passes, "count"),
                  "busy_s": (busy / n_passes, "s"),
                  "self_s": ((busy - child) / n_passes, "s"),
                  "share": (busy / wall, "ratio")}
        for s in stats:
            out[f"{name}.{s}"] = metric(*values[s])

    stat("linalg.eigenvalues", "calls", "busy_s", "share")
    stat("linalg.poly_from_roots", "calls", "busy_s", "share")
    for fn in ("svd_decompose", "qr_decompose", "solve_linear", "schur_decompose"):
        stat(f"linalg.{fn}", "calls", "busy_s")
    for algo in ALGORITHMS:
        stat(f"placement.{algo}", "calls", "busy_s")
    out["placement.typed_errors"] = metric(tr.typed_errors / n_passes, "count")
    for fn in ("build_anchor_chain", "gain_from_chain"):
        stat(f"placement.{fn}", "calls", "busy_s")
    stat("placement.feedback_eval", "calls", "busy_s", "share")
    stat("bench.evaluate_placement", "calls", "busy_s", "self_s")
    render = sum(acc.get(f"bench.{fn}", (0, 0.0))[1]
                 for fn in ("render_table", "render_csv"))
    out["bench.render.busy_s"] = metric(render / n_passes, "s")
    stat("exactring.place_exact", "calls", "busy_s", "share")
    for fn in ("mat_mul", "nullspace_row", "ratio"):
        stat(f"exactring.{fn}", "calls", "busy_s")
    out["exactring.gain_bits"] = metric(tr.gain_bits, "bits")
    for mode in ("gain", "chain"):
        stat(f"sim.rk4_step.{mode}", "calls", "busy_s")
    rk4 = sum(acc.get(f"sim.rk4_step.{m}", (0, 0.0))[1] for m in ("gain", "chain"))
    out["sim.rk4_step.share"] = metric(rk4 / wall, "ratio")
    stat("sim.simulate", "self_s")
    stat("sim.trace_diff", "busy_s")
    stat("sim.Trace.to_csv", "busy_s")
    out["cli.self_s"] = metric((item_time - root) / n_passes, "s")
    return out


def run_workload(name, seed, seconds, trace):
    """Measure one workload in this process; returns (result, record)."""
    workload = WORKLOADS[name]
    main, workdir, items = prepare(workload)
    outputs = {}
    record = {"workload": name, "seed": seed, "trace": int(trace)}
    try:
        rng = random.Random(seed)
        if trace:
            warm = run_passes(main, items, rng, 0.0, outputs)
            gc.collect()
            # Untraced and traced passes alternate, so both see the same drift.
            tr = tracing.Tracer()
            untraced, traced = [], []
            while sum(p.wall for p in untraced + traced) < seconds:
                untraced += run_passes(main, items, rng, 0.0, outputs)
                tr.install()
                try:
                    traced += run_passes(main, items, rng, 0.0, outputs)
                finally:
                    tr.restore()
            item_times = [t for p in traced for t in p.times]
            metrics = layer_metrics(tr, len(traced), sum(p.wall for p in traced),
                                    sum(item_times))
            untraced_rate = latency([t for p in untraced for t in p.times])["items_per_s"]
            traced_rate = latency(item_times)["items_per_s"]
            metrics["trace.untraced_items_per_s"] = metric(untraced_rate, "1/s")
            metrics["trace.traced_items_per_s"] = metric(traced_rate, "1/s")
            metrics["trace.speed_ratio"] = metric(traced_rate / untraced_rate, "ratio")
            record["traced_passes"] = len(traced)
            passes = untraced + traced
        else:
            ref_main = importlib.import_module(f"{REFERENCE_PACKAGE}.cli").main
            warm = run_passes(main, items, rng, 0.0, outputs, ref_main=ref_main)
            gc.collect()
            passes = run_passes(main, items, rng, seconds, outputs, MIN_ITEMS,
                                ref_main=ref_main)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            record["program"] = latency([t for p in passes for t in p.times])
            record["reference"] = latency([t for p in passes for t in p.ref_times])
            metrics = relative(passes)
            metrics["peak_rss_mb"] = metric(rss_mb, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed, prints, problems = check_outputs(workload, items, warm, passes, outputs)
    attempted = sum(len(p.times) for p in passes)
    typed = sum(workload.typed_errors(outputs[k]) for k in warm[0].digests.items())
    record.update({
        "passes": len(passes), "items": attempted,
        "timed_s": sum(p.wall for p in passes),
        "fingerprint": sorted(prints)[0] if len(prints) == 1 else sorted(prints),
        "typed_errors_per_pass": typed, "exactring.gain_bits": workload.gain_bits(),
        "fail_ratio": failed / attempted, "problems": problems,
        "env": environment(),
    })
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def baseline_note(record):
    try:
        base = json.loads(BASELINE.read_text(encoding="utf-8"))[record["workload"]]
    except (OSError, KeyError, ValueError):
        return "no baseline recorded"
    keys = ("fingerprint", "typed_errors_per_pass", "exactring.gain_bits")
    changed = [k for k in keys if base.get(k) != record[k]]
    if not changed:
        return "same as baseline.json"
    return ("CHANGED from baseline.json (" + ", ".join(changed)
            + "): a behaviour change that CHANGES.md must explain")


def report(result, record):
    """Human-readable lines; the JSON result line is printed by the caller."""
    env = record["env"]
    items = record["items"]
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"trace {record['trace']}  passes {record['passes']}  "
             f"items {items}  ({env['load']})"]
    if "program" in record:
        probes = record["setup_probes_s"]
        lines.append(f"  {'':<24}{'program':>12}{'reference':>12}{'ratio':>10}  samples")
        lines.append(f"  {'':<24}{'(pooled)':>12}{'(pooled)':>12}"
                     f"{'(metric)':>10}  ({record['passes']} passes)")
        for key, unit in (("item_ms_p50", "ms"), ("item_ms_p90", "ms"),
                          ("items_per_s", "1/s")):
            prog, ref = record["program"][key], record["reference"][key]
            ratio = result["metrics"][f"{key}_vs_ref"]["value"]
            lines.append(f"  {key + ' (' + unit + ')':<24}{prog:12.6g}{ref:12.6g}"
                         f"{ratio:10.4f}  {items} items, paired")
        prog, ref = (statistics.median(probes[p]) for p in (PROGRAM, REFERENCE_PACKAGE))
        lines.append(f"  {'setup (s)':<24}{prog:12.6g}{ref:12.6g}{prog / ref:10.4f}"
                     f"  median of {len(probes[PROGRAM])} fresh interpreters each")
        lines.append(f"  {'setup_s (s)':<24}{result['metrics']['setup_s']['value']:12.6g}"
                     f"{'':>22}  program, scaled to reference setup "
                     f"{REFERENCE_SETUP_S} s")
        lines.append(f"  {'peak_rss_mb (MB)':<24}"
                     f"{result['metrics']['peak_rss_mb']['value']:12.6g}"
                     f"{'':>22}  this process, reference loaded too")
    else:
        for key, m in result["metrics"].items():
            lines.append(f"  {key:<36}{m['value']:12.6g} {m['unit']}")
    lines.append(f"  {'fail_ratio':<24}{record['fail_ratio']:12.6g}"
                 f"{'':>22}  {result['failed']} of {result['attempted']} items")
    lines.append(f"  fingerprint {record['fingerprint']}  ({baseline_note(record)})")
    lines.append(f"  typed errors per pass {record['typed_errors_per_pass']}, "
                 f"exactring.gain_bits {record['exactring.gain_bits']}")
    lines.append("  env " + ", ".join(f"{k} {v}" for k, v in env.items() if k != "load"))
    lines.extend(f"  PROBLEM {p}" for p in record["problems"])
    return "\n".join(lines)


def run_all(args):
    """Run every workload in a child process of its own, then summarise."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"workload {name} exited {done.returncode}")
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    merged = {"correct": all(r["correct"] for r in results.values()),
              "attempted": sum(r["attempted"] for r in results.values()),
              "failed": sum(r["failed"] for r in results.values()),
              "metrics": {f"{w}.{k}": m for w, r in results.items()
                          for k, m in r["metrics"].items()}}
    print(json.dumps(merged))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    p.add_argument("--package", choices=(PROGRAM, REFERENCE_PACKAGE), default=PROGRAM,
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "poleplace" / "__init__.py").is_file():
        raise SystemExit(f"no poleplace package under {SRC}")
    if args.probe:
        probe(args.probe, args.package)
    elif args.workload == "all":
        run_all(args)
    elif args.workload:
        # Probes on both sides of the passes see more of the machine's drift.
        setup = {} if args.trace else measure_setup(args.workload)
        result, record = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
        if not args.trace:
            for package, samples in measure_setup(args.workload).items():
                setup[package] += samples
            prog, ref = (statistics.median(setup[p]) for p in (PROGRAM, REFERENCE_PACKAGE))
            result["metrics"]["setup_s"] = metric(prog / ref * REFERENCE_SETUP_S, "s")
            record["setup_probes_s"] = setup
        print(report(result, record))
        print("record " + json.dumps(record, sort_keys=True))
        print(json.dumps(result))
    else:
        p.error("give --workload")


if __name__ == "__main__":
    main()

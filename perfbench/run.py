"""Outside-in benchmark for coarsetd.

    python3 perfbench/run.py --workload forward-large --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all    # every workload, each in its own process

Run it from the root of a source checkout: it imports coarsetd from
./src and refuses any other copy. Set-up imports the package, builds the
seeded corpus (and, for pullback-cli, writes its input files under
.bench_build/) several times, and reports the median as setup_s. Then a
closed loop, one instance at a time in this single process, makes rounds
over the corpus until --seconds have passed. The first round times every
instance; later rounds time every instance due in them (the longest
instances run in fewer rounds, see workloads.py) and the run stops
before an instance whose last time would carry it past --seconds. Every
call gets fresh input objects, so no distance cache carries over between
calls.

Timings are per instance. Just before each timed call the benchmark
times a fixed reference loop (speed.py) and scales the call's time to
the loop's reference speed, which takes most of a shared machine's speed
drift out; each instance's time is the mean of its scaled samples, and
the unscaled figures are printed beside them. wall_s is the sum of those
times (the time to finish the corpus, without set-up and without the
benchmark's own checks); instance_p50_s is their median and
instance_tail_s the highest percentile with at least ten instances above
it. setup_s is scaled by the reference loop's median time before the
import and each build; peak_rss_mb is not scaled. With --trace 1,
untraced and traced rounds over the whole corpus alternate and the
output holds the per-layer metrics, unscaled, each per traced round,
plus trace.overhead_s: median traced minus median untraced round time,
both scaled.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed
from tracer import Tracer, metric_units

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("forward-large", "simwidth-desk", "pullback-cli")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
DEFAULT_SEED = 0
# sha256 over every instance's canonical outputs, for the default seed.
# A change that alters any emitted byte or report field shows up here.
EXPECTED_DIGESTS = {
    "forward-large": "cc1f93a2400cd7953521137603ccbdeb222a6cbb9a15ba030dad6da19072f6a8",
    "simwidth-desk": "4a7cfbe799cb29d59ac2150e85592c0301c9e59df00d854288613a576aa6d088",
    "pullback-cli": "566dfc92aa19ff0625101f517c704472061749da6af210844c8f112fdc388087",
}
END_TO_END_UNITS = {
    "wall_s": "s",
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def import_program():
    """Import coarsetd from this checkout's src/ and the workload table."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import coarsetd
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import coarsetd from {src}: {exc}")
    origin = Path(coarsetd.__file__).resolve().parent
    if origin != src / "coarsetd":
        raise SystemExit(f"perfbench: coarsetd imported from {origin}, expected {src}")
    import workloads

    return workloads.WORKLOADS


def set_up(workload, seed, workdir, tiny=False):
    """Build the corpus SETUP_REPEATS times; returns it with the median
    build time and the reference loop's time before each build."""
    times = []
    references = []
    for repeat in range(SETUP_REPEATS):
        references.append(speed.reference_time())
        start = perf_counter()
        corpus = workload.build(seed, workdir / f"setup-{repeat}", tiny=tiny)
        times.append(perf_counter() - start)
    return corpus, statistics.median(times), references


def run_instance(workload, i, inst, tracer, reference):
    """Time one call on instance i and check it; returns
    (seconds, problem or None, 6k misses)."""
    call = workload.prepare(inst)
    if tracer is not None:
        tracer.instance = i
        tracer.active = True
    start = perf_counter()
    try:
        result = call()
        problem = None
    except Exception as exc:  # any program error is a failed instance
        problem = f"raised {exc!r}"
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.active = False
    missed = 0
    if problem is None:
        try:
            problem, parts, missed = workload.check(inst, result)
        except Exception as exc:
            problem = f"output check raised {exc!r}"
    if problem is None:
        digest = hashlib.sha256("\0".join(parts).encode()).hexdigest()
        if reference[i] is None:
            reference[i] = digest
        elif reference[i] != digest:
            problem = "output differs from the first round"
    if problem is not None:
        reference[i] = reference[i] or "failed"
    return seconds, problem, missed


def per_instance(count, instances, times):
    """Mean time of each instance over its samples."""
    samples = [[] for _ in range(count)]
    for i, t in zip(instances, times):
        samples[i].append(t)
    return [statistics.fmean(s) for s in samples]


def tail(values):
    """(value, percentile, count beyond) of the highest percentile that
    leaves at least TAIL_BEYOND values above it; the maximum if too few."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), TAIL_BEYOND


def measure(workload, corpus, seconds, tracer=None):
    """Closed-loop rounds over the corpus until `seconds` have passed.

    The first round times every instance. Without a tracer, each later
    round times the instances due in it (see workloads.Instance), and the
    run stops before an instance whose last time would carry it past
    `seconds`. With a tracer, untraced and traced rounds over the whole
    corpus alternate, at least one of each, until the next would end
    after `seconds`; the odd rounds are traced.
    """
    calls = []  # (round, instance, start, seconds, reference seconds), in order
    last = [0.0] * len(corpus)
    reference = [None] * len(corpus)
    failures = []
    misses = None
    start = perf_counter()
    deadline = start + seconds
    rounds = 0
    done = False
    while not done:
        traced = tracer is not None and rounds % 2 == 1
        due = range(len(corpus))
        if tracer is None and rounds > 0:
            due = [i for i in due if rounds % corpus[i].stride == corpus[i].phase]
        if traced:
            tracer.install()
        round_misses = 0
        try:
            for i in due:
                if tracer is None and rounds > 0 and perf_counter() + last[i] > deadline:
                    done = True
                    break
                began = perf_counter()
                reference_s = speed.reference_time()
                t, problem, missed = run_instance(
                    workload, i, corpus[i], tracer if traced else None, reference
                )
                calls.append((rounds, i, began, t, reference_s))
                last[i] = t
                round_misses += missed
                if problem is not None:
                    failures.append((corpus[i].label, problem))
        finally:
            if traced:
                tracer.uninstall()
                tracer.fold()
        if misses is None:
            misses = round_misses
        rounds += 1
        elapsed = perf_counter() - start
        if tracer is not None:
            done = rounds >= 2 and elapsed * (rounds + 1) / rounds > seconds
        else:
            done = done or elapsed >= seconds
    digest = hashlib.sha256("".join(reference).encode()).hexdigest()
    return {
        "calls": calls,
        "rounds": rounds,
        "failures": failures,
        "misses": misses,
        "digest": digest,
        "elapsed": elapsed,
    }


def run_workload(name, seed, seconds, trace, tiny=False):
    """Set up and measure one workload.

    Returns the result object, the report lines and the output digest.
    """
    reference_s = speed.reference_time()
    start = perf_counter()
    workloads = import_program()
    import_s = perf_counter() - start

    workload = workloads[name]
    build_dir = ROOT / ".bench_build" / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=build_dir))
    try:
        corpus, build_s, references = set_up(workload, seed, workdir, tiny)
        # The corpus lives for the whole run; keep the collector from
        # rescanning it during every measured round.
        gc.collect()
        gc.freeze()
        tracer = Tracer() if trace else None
        got = measure(workload, corpus, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_unscaled = import_s + build_s
    setup_s = setup_unscaled * speed.scale([reference_s, *references])

    rounds, instances, starts, times, references = zip(*got["calls"])
    scaled = speed.scaled(starts, times, references)
    walls = [0.0] * got["rounds"]
    scaled_walls = [0.0] * got["rounds"]
    for r, t, t_scaled in zip(rounds, times, scaled):
        walls[r] += t
        scaled_walls[r] += t_scaled
    traced_rounds = len(walls) // 2 if tracer is not None else 0
    attempted = len(times)
    failed = len(got["failures"])
    lines = [
        f"workload {name} seed {seed}: {len(corpus)} instances, "
        f"{len(walls) - traced_rounds} untraced + {traced_rounds} traced rounds, "
        f"{got['elapsed']:.1f} s measured",
        "round times " + " ".join(f"{w:.3f}" for w in walls) + " s (unscaled)",
    ]
    correct = failed == 0
    expected = EXPECTED_DIGESTS.get(name) if seed == DEFAULT_SEED and not tiny else None
    verdict = ""
    if expected:
        verdict = " (matches the recorded digest)"
        if got["digest"] != expected:
            verdict = f" (MISMATCH: recorded {expected})"
            correct = False
    lines.append(f"digest {name} {got['digest']}{verdict}")
    for label, problem in got["failures"][:5]:
        lines.append(f"FAILED {label}: {problem}")
    lines.append(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted})")

    if tracer is None:
        lines.append(f"simwidth.bag_domination_6k_misses {got['misses']} count (per round)")
        unscaled = per_instance(len(corpus), instances, times)
        best = per_instance(len(corpus), instances, scaled)
        lines.append(
            f"unscaled wall_s {sum(unscaled):.6g} s, instance_p50_s {statistics.median(unscaled):.6g} s, "
            f"setup_s {setup_unscaled:.6g} s; reference loop median "
            f"{statistics.median(references) * 1e3:.4g} ms, scaled to {speed.REFERENCE_S * 1e3:g} ms"
        )
        tail_value, tail_pct, beyond = tail(best)
        values = {
            "wall_s": sum(best),
            "instance_p50_s": statistics.median(best),
            "instance_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS
        notes = {
            "instance_p50_s": f"median of {len(best)} instances, "
            f"{len(times)} samples",
            "instance_tail_s": f"p{tail_pct:.1f} of {len(best)} instances, {beyond} beyond",
        }
    else:
        units = metric_units()
        values = tracer.metrics(traced_rounds, traced_rounds * len(corpus))
        values["simwidth.bag_domination_6k_misses"] = got["misses"]
        values["trace.overhead_s"] = statistics.median(scaled_walls[1::2]) - statistics.median(
            scaled_walls[::2]
        )
        notes = {}
        lines.append(f"trace absent: {', '.join(tracer.absent) or 'none'}")
    for metric, unit in units.items():
        note = f" ({notes[metric]})" if metric in notes else ""
        lines.append(f"{metric} {values[metric]:.6g} {unit}{note}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    return result, lines, got["digest"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        code = 0
        for name in WORKLOAD_NAMES:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False,
            )
            code = max(code, child.returncode)
        return code
    result, lines, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

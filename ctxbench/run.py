"""Benchmark of `roictx` context mining: one workload per process.

    python3 ctxbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ctxbench/run.py --steadiness RUNS --seed N --seconds S

A run builds the workload's inputs from the seed, times its set-up
several times, then repeats whole rounds of the same operations until
`--seconds` have passed, and checks the last round against the
benchmark's own reference computations.  Set-up and round times are
divided by the time of the workload's fixed host-speed kernel run on
either side of them (`hostspeed.py`), so the shared host's changing
speed cancels.  The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and the metrics named in BENCHMARK.json
(end-to-end ones untraced, per-layer ones with `--trace 1`).

`--steadiness RUNS` runs every workload RUNS times in each of two sets,
each run in a fresh process, alternating which set goes first, and
prints per metric the medians, quartiles and whether the two sets agree
within the metric's bound.

The library is imported from `src/` next to this directory and nowhere
else; without it the benchmark exits with an error.  Mining uses one
thread, and numeric libraries are held to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / ".out"
SPEC_PATH = ROOT / "BENCHMARK.json"
CHILD_TIMEOUT_S = 180
MIN_ROUNDS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here, or a traced layer went missing."""


def import_roictx():
    src = ROOT / "src"
    if not (src / "roictx" / "__init__.py").is_file():
        raise BenchError(f"no roictx package under {src}")
    sys.path.insert(0, str(src))
    import roictx
    if Path(roictx.__file__).resolve().parent != (src / "roictx").resolve():
        raise BenchError(f"imported roictx from {roictx.__file__}, not {src}")
    return roictx


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-layer metrics --------------------------------------------------------

def layer_value(tracer, name, traced_rate):
    """Value of per-layer metric `prefix.stat` from the tracer's totals;
    a layer that never ran reads 0."""
    if name == "trace.rois_per_s":
        return traced_rate
    prefix, stat = name.rsplit(".", 1)
    st = tracer.stats.get(prefix)
    if st is None:
        return 0
    if stat == "calls":
        return st.calls
    if stat == "self_ms":
        return st.self_s * 1e3
    if stat == "alloc_mb":
        return st.counters.get("alloc_bytes", 0) / 2**20
    if stat == "unique_frac":
        rects = st.counters.get("rects", 0)
        return tracer.unique_rects() / rects if rects else 0
    if stat == "kept_frac":
        mine = tracer.stats.get("mining.ContextMiner.mine")
        kept = mine.counters.get("kept_align_maps", 0) if mine else 0
        return kept / st.calls if st.calls else 0
    if stat in st.counters:
        return st.counters[stat]
    raise BenchError(f"no per-layer metric {name!r}")


def write_trace(path, tracer):
    payload = {
        "stats": {name: {"calls": st.calls, "total_ms": st.total_s * 1e3,
                         "self_ms": st.self_s * 1e3, **st.counters}
                  for name, st in sorted(tracer.stats.items())},
        "spans": [[n, t0, t1, parent] for n, t0, t1, parent in tracer.spans],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


# -- one run ------------------------------------------------------------------

def run_workload(name, seed, seconds, trace):
    spec = load_spec()
    roictx = import_roictx()
    import hostspeed
    import selfcheck
    import tracing
    import workloads

    selfcheck.run_all()
    wl = workloads.WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"inputs-{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        inputs = wl.make_inputs(seed, workdir)
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracing.install(roictx, tracer)

        # Whole rounds while time is left, each after a fresh set-up, so
        # set-up and round samples both spread over the whole run.  The
        # workload's host-speed kernel runs before and after every set-up
        # and round, and each section is kept as its time over the mean
        # of its two neighbouring kernel times.  Only the first set-up and
        # round are traced, so traced counts repeat exactly from run to run.
        kernel = [hostspeed.sample(wl.kernel)]
        setup_ratios, round_ratios = [], []
        setup_wall, round_wall = [], []
        first = None
        start = time.perf_counter()
        while True:
            out = state = None
            t0 = time.perf_counter()
            state = wl.setup(inputs)
            t1 = time.perf_counter()
            kernel.append(hostspeed.sample(wl.kernel))
            t2 = time.perf_counter()
            out = wl.run_round(inputs, state)
            t3 = time.perf_counter()
            kernel.append(hostspeed.sample(wl.kernel))
            setup_wall.append(t1 - t0)
            round_wall.append(t3 - t2)
            setup_ratios.append((t1 - t0) / statistics.fmean(kernel[-3:-1]))
            round_ratios.append((t3 - t2) / statistics.fmean(kernel[-2:]))
            if first is None:
                first = wl.fingerprint(out)
                if tracer is not None:
                    tracer.active = False
            elif wl.fingerprint(out) != first:
                raise BenchError(f"round {len(round_wall)} differs from round 1")
            # Stop before a further set-up and round would overrun.
            t4 = time.perf_counter()
            if (t4 - start + (t4 - t0) > seconds
                    and len(round_wall) >= MIN_ROUNDS):
                break
        rss = peak_rss_mb()

        fails = wl.check(inputs, state, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in fails[:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    ref_s = hostspeed.REF_S[wl.kernel]
    rate = wl.ops_per_round / (statistics.median(round_ratios) * ref_s)
    print(f"{name}: {len(round_wall)} rounds; wall medians: set-up "
          f"{statistics.median(setup_wall):.6g} s, {wl.ops_per_round / statistics.median(round_wall):.6g} "
          f"RoIs/s; {wl.kernel} kernel median {statistics.median(kernel):.6g} s "
          f"(reference {ref_s} s)", file=sys.stderr)
    if tracer is None:
        values = {"setup_s": statistics.median(setup_ratios) * ref_s,
                  "rois_per_s": rate,
                  "peak_rss_mb": rss}
        metrics = spec["end_to_end"]
    else:
        missing = [s for s in wl.expected_spans
                   if s not in tracer.stats or tracer.stats[s].calls == 0]
        if missing:
            raise BenchError(f"{name}: expected spans recorded no calls: {missing}")
        write_trace(OUT_DIR / f"trace-{name}-seed{seed}.json", tracer)
        traced_rate = wl.ops_per_round / (round_ratios[0] * ref_s)
        values = {m["name"]: layer_value(tracer, m["name"], traced_rate)
                  for m in spec["per_layer"]}
        metrics = spec["per_layer"]
        untraced = round_ratios[1:] or round_ratios
        print(f"{name}: traced round {traced_rate:.6g} RoIs/s; untraced rounds "
              f"{wl.ops_per_round / (statistics.median(untraced) * ref_s):.6g} RoIs/s",
              file=sys.stderr)
    attempted = wl.ops_per_round * len(round_wall)
    result = {"correct": not fails, "attempted": attempted, "failed": 0,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in metrics}}
    line = json.dumps(result)
    with open(OUT_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json",
              "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if not fails else 1


# -- steadiness ---------------------------------------------------------------

def _child(workload, seed, seconds):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} seed {seed} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def steadiness(runs, seed, seconds):
    """Two sets of `runs` runs per workload with distinct seeds."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    results = {(s, w): [] for s in "AB" for w in names}
    for i in range(runs):
        order = "AB" if i % 2 == 0 else "BA"
        for s in order:
            run_seed = seed + i + (runs if s == "B" else 0)
            for w in names:
                res = _child(w, run_seed, seconds)
                results[(s, w)].append(res)
                print(f"run {i} set {s} {w} seed {run_seed}: "
                      + json.dumps(res["metrics"]), file=sys.stderr, flush=True)

    report = []
    all_agree = True
    header = (f"{'workload':18} {'metric':12} {'set':3} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    print(header)
    for w in names:
        shares = {s: {r["failed"] / r["attempted"] for r in results[(s, w)]}
                  for s in "AB"}
        same_failed = len(shares["A"] | shares["B"]) == 1
        for m in spec["end_to_end"]:
            bound = m["bound"]
            row = {"workload": w, "metric": m["name"], "bound": bound}
            for s in "AB":
                vals = [r["metrics"][m["name"]]["value"] for r in results[(s, w)]]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                row[s] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med}
            a, b = row["A"]["median"], row["B"]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            spreads_ok = m["name"] == "setup_s" or all(
                row[s]["spread"] <= bound for s in "AB")
            agree = spreads_ok and worse <= bound and same_failed
            row["b_worse_by"] = worse
            row["agree"] = agree
            all_agree &= agree
            report.append(row)
            for s in "AB":
                r = row[s]
                verdict = ("agree" if agree else "DISAGREE") if s == "B" else ""
                extra = f" (B worse by {worse:+.3f})" if s == "B" else ""
                print(f"{w:18} {m['name']:12} {s:3} {r['median']:12.6g} "
                      f"{r['q1']:12.6g} {r['q3']:12.6g} {r['spread']:7.3f} "
                      f"{bound:6.2f}  {verdict}{extra}")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "steadiness.json", "w", encoding="utf-8") as fh:
        json.dump({"runs": runs, "seed": seed, "seconds": seconds,
                   "rows": report}, fh, indent=1)
    print("all agree" if all_agree else "some metrics DISAGREE")
    return 0 if all_agree else 1


def main(argv=None):
    # Before numpy loads: one thread per numeric library.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="run length; BENCHMARK.json's run_seconds by default")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="RUNS",
                    help="compare two sets of RUNS runs of every workload")
    args = ap.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        if args.steadiness:
            return steadiness(args.steadiness, args.seed, args.seconds)
        if args.workload is None:
            ap.error("--workload is required")
        if args.workload not in {w["name"] for w in load_spec()["workloads"]}:
            ap.error(f"unknown workload {args.workload!r}")
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

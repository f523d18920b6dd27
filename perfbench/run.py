"""sdefl benchmark: the calibrate, track and reproduce workloads.

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One run measures one workload for a fixed number of rounds: ``--seconds``
over the workload's nominal round time.  The count does not depend on how
fast the host is, so a seed fixes every operation a run attempts and every
known failure it meets.  With ``--trace 0`` it reports the end-to-end metrics
of BENCHMARK.json; set-up time is the median over several fresh interpreters.
With ``--trace 1`` it runs half that many rounds untraced, then the same
rounds again with the tracer's wrappers in place, and reports the per-layer
metrics: counts from the first traced round (exact for a seed), times as means
per traced round.
``--workload all`` runs every workload both ways and prints every table.

Human-readable lines go first; the last line of standard output is the JSON
result.  Run records (and, when traced, the spans) are written to
``.perfbench-out/`` in the checkout.  The BLAS pools are pinned to one thread.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNTERS, LAYERS, ROOT as UNATTRIBUTED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("calibrate", "track", "reproduce", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.probe and args.workload is None:
        ap.error("--workload is required")
    return args


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values, unit):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values), "unit": unit}


def tail(values):
    """Highest listed percentile with at least ten rounds above it."""
    for pct in TAIL_PERCENTILES:
        if len(values) * (1.0 - pct / 100.0) >= 10:
            ordered = sorted(values)
            return pct, ordered[math.ceil(len(values) * pct / 100.0) - 1]
    return None


def probe_setup():
    """Seconds from spawning a fresh interpreter until it is ready to time
    its first round (import sdefl, scenario loading, warm-up calls)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, __file__, "--probe"], capture_output=True,
                          text=True, timeout=170, check=True)
    return float(proc.stdout.split()[-1]) - start


def round_count(workload, seconds):
    """Rounds that fill ``seconds`` at the workload's nominal round time."""
    return max(1, round(seconds / workload.nominal_round_s))


def measure(workload, seed_of, count):
    return [workload.run_round(seed_of(i), contextlib.nullcontext()) for i in range(count)]


def traced_rounds(workload, seed_of, count, tracer):
    tracer.install()
    try:
        return [workload.run_round(seed_of(i), tracer.round(i)) for i in range(count)]
    finally:
        tracer.uninstall()


def op_medians(rounds, ops):
    out = {}
    for op in ops:
        ms = [v for r in rounds for v in r.op_ms.get(op, ())]
        if ms:
            out[op + "_ms"] = summary(ms, "ms")
    return out


def per_layer(tracer, plain, traced, ops):
    n = len(traced)
    per_round = [tracer.times()[r] for r in range(n)]

    def mean_ms(get):
        return sum(get(r) for r in per_round) / n * 1e3

    first = tracer.counts[0]
    values = {key: first[key] for key in COUNTERS}
    for name in sorted(tracer.names):
        values[name + ".calls"] = first[name + ".calls"]
        values[name + ".ms"] = mean_ms(lambda r: r["spans"][name][1])
        values[name + ".self_ms"] = mean_ms(lambda r: r["spans"][name][2])
    values["kalman.gaussian_states"] = values["kalman.gaussian_states.calls"]
    nit = values["mle.optimizer.nit"]
    values["mle.nfev_per_nit"] = values["mle.optimizer.nfev"] / nit if nit else 0.0
    for layer in LAYERS + (UNATTRIBUTED,):
        values[f"layer.{layer}.self_ms"] = mean_ms(lambda r: r["layers"][layer])
    values["trace.round_ms"] = mean_ms(lambda r: r["round_s"])
    values["trace.overhead_s"] = (statistics.median(r.seconds for r in traced)
                                  - statistics.median(r.seconds for r in plain[:n]))
    fits = op_medians(plain, ops)
    for model in ("ou", "ou_jump"):
        mle, kal = fits.get(f"fit_{model}_mle_ms"), fits.get(f"fit_{model}_kalman_ms")
        values[f"paper.kalman_over_mle.{model}"] = kal["median"] / mle["median"] if mle and kal else 0.0
    return values, fits


def run_record(args, rounds, metrics):
    import numpy
    import scipy

    from sdefl import _kernels

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "backend": _kernels.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": sorted({e for r in rounds for e in r.errors}),
        "wrong": [w for r in rounds for w in r.wrong],
        "metrics": metrics,
    }


def print_table(record, gated, extra_lines):
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"rounds={record['rounds']} backend={record['backend']} nproc={record['nproc']} "
          f"python={record['python']} numpy={record['numpy']} scipy={record['scipy']}")
    for name, m in record["metrics"].items():
        mark = "*" if name in gated else " "
        if isinstance(m, dict) and "median" in m:
            print(f" {mark} {name:38s} median {m['median']:.6g} {m['unit']}  "
                  f"IQR {m['iqr']:.3g}  n={m['n']}")
        elif not isinstance(m, dict) and (m or name in gated):
            print(f" {mark} {name:38s} {m:.6g}")
    for line in extra_lines:
        print("   " + line)
    print(f"   error_rate {record['error_rate']:.4g} ({record['failed']} failed of "
          f"{record['attempted']} operations)")
    for err in record["errors"][:10]:
        print(f"   failed: {err}")
    for what in record["wrong"][:10]:
        print(f"   WRONG: {what}")


def traced_run(workload, seed_of, seconds, spec, tag):
    """Half a run's rounds untraced, then the same rounds traced."""
    plain = measure(workload, seed_of, round_count(workload, seconds / 2.0))
    tracer = Tracer()
    traced = traced_rounds(workload, seed_of, len(plain), tracer)
    for i, (a, b) in enumerate(zip(plain, traced)):
        b.check(a.fingerprint == b.fingerprint, f"round {i}: traced results differ from untraced")
    tracer.write_spans(OUT / f"{tag}-spans.csv")
    values, fits = per_layer(tracer, plain, traced, workload.ops)
    layers = sum(v for k, v in values.items() if k.startswith("layer."))
    extra = [f"layer self times sum to {layers:.6g} ms per traced round of "
             f"{values['trace.round_ms']:.6g} ms",
             f"mle.nfev_per_nit = {values['mle.optimizer.nfev']} / {values['mle.optimizer.nit']}"]
    for model in ("ou", "ou_jump"):
        if f"fit_{model}_mle_ms" in fits:
            extra.append(f"paper.kalman_over_mle.{model} = "
                         f"{fits[f'fit_{model}_kalman_ms']['median']:.4g} ms / "
                         f"{fits[f'fit_{model}_mle_ms']['median']:.4g} ms")
    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    return plain + traced, {**values, **fits}, result, extra


def plain_run(workload, seed_of, seconds, spec, probes):
    rounds = measure(workload, seed_of, round_count(workload, seconds))
    secs = [r.seconds for r in rounds]
    metrics = {
        "setup_s": summary(probes, "s"),
        "round_s": summary(secs, "s"),
        "peak_rss_mb": summary([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB"),
        **op_medians(rounds, workload.ops),
    }
    pct = tail(secs)
    if pct is None:
        extra = [f"round_tail_s absent: {len(rounds)} rounds, fewer than 20"]
    else:
        metrics["round_tail_s"] = {"percentile": pct[0], "value": pct[1], "unit": "s"}
        extra = [f"round_tail_s p{pct[0]:g} = {pct[1]:.6g} s over {len(rounds)} rounds"]
    result = {m["name"]: {"value": metrics[m["name"]]["median"], "unit": m["unit"]}
              for m in spec["end_to_end"]}
    return rounds, metrics, result, extra


def run_one(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    probes = [] if args.trace else [probe_setup() for _ in range(SETUP_PROBES)]

    # imported only now: numpy must load after main() has pinned the BLAS pools
    import sdefl
    import workloads

    if Path(sdefl.__file__).resolve().parent != SRC / "sdefl":
        raise RuntimeError(f"sdefl imported from {sdefl.__file__}, not from {SRC}")
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](workloads.setup(), OUT)
    rng, seeds = random.Random(args.seed), []

    def seed_of(i):
        while len(seeds) <= i:
            seeds.append(rng.getrandbits(32))
        return seeds[i]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        rounds, metrics, result, extra = traced_run(workload, seed_of, args.seconds, spec, tag)
    else:
        rounds, metrics, result, extra = plain_run(workload, seed_of, args.seconds, spec, probes)
    record = run_record(args, rounds, metrics)
    print_table(record, result, extra)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": not record["wrong"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": result}))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own interpreter."""
    status = 0
    for name in ("calibrate", "track", "reproduce"):
        for trace in ("0", "1"):
            proc = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", trace], timeout=600)
            status = status or proc.returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sdefl" / "__init__.py").is_file():
        print(f"error: no sdefl sources under {SRC}", file=sys.stderr)
        return 2
    # before numpy loads, so its BLAS pool starts with one thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.probe:
        import workloads

        workloads.setup()
        print(time.monotonic())
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

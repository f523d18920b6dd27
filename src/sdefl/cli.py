"""Command line front end for the scenario driver.

Subcommands map onto pipeline stages: simulate writes series artifacts,
filter adds state tracking, estimate runs the fit.  benchmark compares the
wall-clock of two estimation scenarios on one shared series, and reproduce
regenerates every packaged artifact.  Exit codes: 0 success, 1 bad input
or configuration, 2 numerical failure, an allocation that fails or an I/O
error.
"""

import argparse
import os
import sys

from .core import (
    DegenerateSystemError,
    DomainError,
    InitError,
    ScenarioError,
    ShapeError,
)
from .experiments import (
    benchmark,
    list_scenarios,
    load_scenario,
    reproduce,
    run_scenario,
)

_STAGES_BY_COMMAND = {
    "simulate": ("simulate",),
    "filter": ("simulate", "filter"),
    "estimate": ("simulate", "estimate"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdefl",
        description="simulation, filtering, and likelihood experiments for SDE models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("simulate", "sample a trajectory and write the series artifacts"),
        ("filter", "track the latent state and report the tracking RMSE"),
        ("estimate", "fit model parameters and report the estimate"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--scenario", required=True, help="packaged name or .scn path")
        cmd.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        cmd.add_argument("--out", default=None, help="artifact directory (default: $SDEFL_OUT or cwd)")

    bench = sub.add_parser("benchmark", help="time two estimation scenarios on one series")
    bench.add_argument(
        "--scenario",
        action="append",
        required=True,
        help="give exactly twice: the two scenarios to compare",
    )
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--out", default=None)
    bench.add_argument("--repetitions", type=int, default=5)

    rep = sub.add_parser("reproduce", help="regenerate every packaged artifact")
    rep.add_argument("--seed", type=int, default=None)
    rep.add_argument("--out", default=None)

    sub.add_parser("list-scenarios", help="print the packaged scenario names")
    return parser


def _out_dir(args) -> str:
    return args.out or os.environ.get("SDEFL_OUT") or os.getcwd()


def _print_report(rep, out) -> None:
    bits = [f"seed={rep.seed}"]
    if rep.rmse is not None:
        bits.append(f"rmse={rep.rmse:.6g}")
    if rep.log_lik is not None:
        bits.append(f"log_lik={rep.log_lik:.6g}")
    print(f"[{rep.scenario}] " + "  ".join(bits))
    if rep.estimation is not None:
        est = rep.estimation
        print(f"  estimate: {est.params}")
        print(f"  neg_log_lik={est.neg_log_lik:.6g}  iterations={est.iterations}  converged={est.converged}")
    for artifact in rep.artifacts:
        print(f"  wrote {os.path.relpath(artifact, out)}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-scenarios":
            for name in list_scenarios():
                print(name)
            return 0

        out = _out_dir(args)
        if args.command in _STAGES_BY_COMMAND:
            sc = load_scenario(args.scenario)
            rep = run_scenario(sc, out_dir=out, seed=args.seed, stages=_STAGES_BY_COMMAND[args.command])
            _print_report(rep, out)
            return 0

        if args.command == "benchmark":
            if len(args.scenario) != 2:
                raise ScenarioError("benchmark needs exactly two --scenario arguments")
            record = benchmark(
                load_scenario(args.scenario[0]),
                load_scenario(args.scenario[1]),
                out_dir=out,
                seed=args.seed,
                repetitions=args.repetitions,
            )
            print(
                f"{record['scenario_a']} median {record['median_s_a']:.4g}s | "
                f"{record['scenario_b']} median {record['median_s_b']:.4g}s | "
                f"ratio {record['ratio_a_over_b']:.4f}"
            )
            return 0

        reports = reproduce(out_dir=out, seed=args.seed)
        for rep in reports:
            _print_report(rep, out)
        print(f"artifacts in {out}")
        return 0
    except (ScenarioError, DomainError, ShapeError, InitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateSystemError, MemoryError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

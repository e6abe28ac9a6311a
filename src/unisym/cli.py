"""Command-line entry point: `unisym run <spec-file>` executes a
Monte-Carlo method comparison, `unisym bench <spec-file>` times the
iterative methods. Flags override the corresponding config keys. Exit
status: 0 on success, 1 when a `run` or `bench` finished with failed
trials, 2 on a bad config or an unreadable file.
"""

from __future__ import annotations

import argparse
import sys

from .harness import CONFIG_DEFAULTS, METHODS, bench, load_run_spec, run_experiment


def _add_common(p: argparse.ArgumentParser) -> None:
    # each override's dest is its config key
    p.add_argument("spec_file", help="YAML run spec (flat key-value)")
    p.add_argument("--out", dest="output_dir", metavar="DIR", help="output directory override")
    p.add_argument("--trials", type=int, metavar="N", help="trial count override")
    p.add_argument("--seed", dest="seed0", type=int, metavar="N", help="base seed override")
    p.add_argument("--methods", metavar="a,b,c",
                   help=f"comma-separated subset of {','.join(METHODS)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="unisym",
        description="Monte-Carlo harness for rate maximization over "
                    "unitary symmetric surface responses")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("run", help="run the method comparison"))
    _add_common(sub.add_parser("bench", help="time the iterative methods"))
    args = parser.parse_args(argv)

    try:
        overrides = {key: value for key, value in vars(args).items()
                     if key in CONFIG_DEFAULTS and value is not None}
        spec = load_run_spec(args.spec_file, overrides)
        if args.command == "run":
            result = run_experiment(spec)
            for method, cells in result.summary.items():
                for M, cell in cells.items():
                    if cell is None:
                        print(f"{method:10s} M={M:<4} no result")
                    else:
                        print(f"{method:10s} M={M:<4} "
                              f"mean {cell['mean_rate_bits']:.3f} bits "
                              f"(std {cell['std_rate_bits']:.3f}, "
                              f"iters {cell['mean_iters']:.1f})")
            print(f"results: {result.results_csv}")
            print(f"summary: {result.summary_json}")
            failed = sum(r.converged == "error" for r in result.rows)
            where = result.output_dir / "errors.csv"
        else:
            rows, path = bench(spec)
            for r in rows:
                print(f"{r.method:10s} M={r.M:<4d} "
                      f"median iter {r.median_iter_ms:.3f} ms core, "
                      f"{r.median_wall_ms:.3f} ms wall "
                      f"(total {r.total_ms:.0f} ms)")
            print(f"bench: {path}")
            failed = sum(r.failed for r in rows)
            where = f"the failed column of {path}"
        if failed:
            print(f"error: {failed} trial(s) failed with a numerical error; see {where}",
                  file=sys.stderr)
            return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry points.

    arelax run --config experiment.json [--data-dir DIR] [--output FILE]
    arelax gradcheck --config experiment.json

The config file is JSON; see README for the schema. The dataset root falls
back to the AR_DATA_DIR environment variable when --data-dir is absent.
"""

from __future__ import annotations

import argparse
import sys

from . import harness


def _print_summary(rows: list[dict]) -> None:
    print(f"{'seed':>4} {'epoch':>5} {'split':>5} {'loss':>12} {'accuracy':>8}")
    for r in rows:
        if r["batch"] == -1:
            print(f"{r['seed']:>4} {r['epoch']:>5} {r['split']:>5} {r['loss']:>12.6f} {r['accuracy']:>8.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="arelax", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a training experiment and write metrics CSV")
    gc_p = sub.add_parser("gradcheck", help="verify gradients on random graphs and the reduced model")
    for p in (run_p, gc_p):
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
    run_p.add_argument("--data-dir", default=None, help="dataset root (overrides config and AR_DATA_DIR)")
    run_p.add_argument("--output", default=None, help="metrics CSV path (overrides config)")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cfg = harness.config_from_file(args.config)
    if args.command == "run":
        if cfg.mode == "gradcheck":
            raise ValueError(f"{args.config} has mode 'gradcheck'; check it with the gradcheck command")
        if args.data_dir:
            cfg.data_dir = args.data_dir
        if args.output:
            cfg.output = args.output
        path = harness.run_experiment(cfg)
        rows = harness.read_metrics(path)
        _print_summary(rows)
        for seed in cfg.seeds:
            acc = harness.final_test_accuracy(rows, seed)
            print(f"seed {seed}: final test accuracy {acc:.4f}")
        print(f"metrics written to {path}")
        return 0

    report = harness.gradcheck(cfg)
    for line in report.lines():
        print(line)
    print("gradcheck PASSED" if report.ok else "gradcheck FAILED")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())

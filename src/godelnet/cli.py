"""Command line interface.

Subcommands:

  parse      compile a grammar and trace the machine on a sentence
  orbit      list all recodings of a word
  partition  build a pattern-class partition, optionally exporting CSV/SVG
  run        execute a configured experiment and write its artifacts
  check      run the self-verification suites

Exit codes: 0 success, 2 an expected invariance failed, 3 two computation
routes that must agree diverged, 4 bad configuration or usage.
"""

import argparse
import sys
from pathlib import Path

from .checks import DIVERGENCE_SUITES, run_checks, suite_names
from .config import load_config
from .errors import DivergenceError, GodelnetError, InternalConsistencyError
from .harness import report_text, run_experiment, write_report
from .patterns import interval_partition, orbit, square_partition, write_class_map
from .shift import compile_cfg_topdown, initial_state, load_grammar, trace_csv, vs_run

EXIT_OK = 0
EXIT_INVARIANCE = 2
EXIT_DIVERGENCE = 3
EXIT_CONFIG = 4


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped onto the config exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, "%s: error: %s\n" % (self.prog, message))


def _build_parser():
    parser = _Parser(prog="godelnet",
                     description="Godel encodings, shift machines, and their neural realizations.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("parse", help="compile a grammar and trace a sentence")
    p.add_argument("grammar", help="grammar file: one 'LHS -> RHS...' production per line")
    p.add_argument("sentence", nargs="+", help="sentence symbols")
    p.add_argument("--start", default=None, help="start symbol (default: first production head)")
    p.add_argument("--max-steps", type=int, default=100)
    p.add_argument("--csv", default=None, help="also write the trace as CSV")

    p = sub.add_parser("orbit", help="list all recodings of a word")
    p.add_argument("word", help="symbols as characters, e.g. aaabcabc (all-digit words are read as digits)")
    p.add_argument("--m", type=int, default=None, help="alphabet size (default: distinct symbols)")
    p.add_argument("--pinned", action="store_true", help="only permute non-blank symbols")
    p.add_argument("--universe", default=None, help="space-separated symbol universe")

    p = sub.add_parser("partition",
                       help="pattern-class partition of the interval or the square")
    p.add_argument("--m", type=int, required=True, help="base of the (x) axis")
    p.add_argument("--l", type=int, required=True, help="window length on the (x) axis")
    p.add_argument("--r", type=int, default=None, help="y-axis window length (select the square)")
    p.add_argument("--m-right", type=int, default=None, help="y-axis base (square only; default: --m)")
    p.add_argument("--mode", choices=("joint", "product"), default=None,
                   help="how the two sides are permuted (square only; default: joint)")
    p.add_argument("--pinned", action="store_true")
    p.add_argument("--csv", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(usage_error=p.error)

    p = sub.add_parser("run", help="run a configured experiment")
    p.add_argument("config", help="experiment configuration file")
    p.add_argument("--out", default=None,
                   help="artifact directory (default: <config dir>/out_<run id>)")

    p = sub.add_parser("check", help="run the self-verification suites")
    p.add_argument("--suites", default=None,
                   help="comma-separated subset of: %s" % ", ".join(suite_names()))
    p.add_argument("--seed", type=int, default=0)
    return parser


def cmd_parse(args):
    grammar = load_grammar(args.grammar)
    machine = compile_cfg_topdown(grammar)
    start = args.start if args.start is not None else grammar.start
    state = initial_state(machine, args.sentence, start)
    trace = vs_run(machine, state, max_steps=args.max_steps)
    for step in trace.steps:
        print("t=%-3d %s   [%s]" % (step.time, step.state, step.operation))
    print("verdict: %s" % trace.verdict)
    if args.csv:
        Path(args.csv).write_text(trace_csv(trace), encoding="utf-8")
        print("trace written to %s" % args.csv)
    return EXIT_OK


def cmd_orbit(args):
    word = tuple(args.word)
    if all(ch.isdigit() for ch in word):
        word = tuple(int(ch) for ch in word)
    m = args.m if args.m is not None else len(set(word))
    universe = tuple(args.universe.split()) if args.universe else None
    members = orbit(word, m, blank_pinned=args.pinned, universe=universe)
    for w in sorted(members, key=lambda t: tuple(map(str, t))):
        print("".join(map(str, w)))
    print("orbit size: %d" % len(members))
    return EXIT_OK


def cmd_partition(args):
    if args.r is None:
        for flag, value in (("--m-right", args.m_right), ("--mode", args.mode)):
            if value is not None:  # the interval partition has no y axis to apply it to
                args.usage_error("%s applies to the square partition only; give --r too" % flag)
        cmap = interval_partition(args.m, args.l, blank_pinned=args.pinned)
        print("interval partition: m=%d l=%d, %d cells, %d classes"
              % (args.m, args.l, cmap.x_cells, cmap.class_count))
    else:
        cmap = square_partition(args.m, args.l, args.r, mode=args.mode or "joint",
                                blank_pinned=args.pinned, m_right=args.m_right)
        print("square partition (%s): %d x %d cells, %d classes"
              % (cmap.mode, cmap.x_cells, cmap.y_cells, cmap.class_count))
    write_class_map(cmap, csv_path=args.csv, svg_path=args.svg)
    for path in (args.csv, args.svg):
        if path:
            print("written %s" % path)
    return EXIT_OK


def cmd_run(args):
    config = load_config(args.config)
    out_dir = Path(args.out) if args.out else Path(args.config).parent / ("out_%s" % config.run_id)
    report = run_experiment(config)
    written = write_report(report, out_dir)
    sys.stdout.write(report_text(report))
    print("%d artifacts in %s" % (len(written), out_dir))
    if not report.invariance_ok:
        return EXIT_INVARIANCE
    return EXIT_OK


def cmd_check(args):
    names = None
    if args.suites is not None:
        names = [s for s in (part.strip() for part in args.suites.split(",")) if s]
    results = run_checks(names, seed=args.seed)
    failed = [res for res in results if not res.ok]
    for res in results:
        mark = "ok  " if res.ok else "FAIL"
        print("%s %-12s %s" % (mark, res.name, res.detail))
        if not res.ok and res.counterexample is not None:
            print("     counterexample: %r" % (res.counterexample,))
    print("%d/%d suites passed" % (len(results) - len(failed), len(results)))
    if any(res.name in DIVERGENCE_SUITES for res in failed):
        return EXIT_DIVERGENCE
    if failed:
        return EXIT_INVARIANCE
    return EXIT_OK


_COMMANDS = {
    "parse": cmd_parse,
    "orbit": cmd_orbit,
    "partition": cmd_partition,
    "run": cmd_run,
    "check": cmd_check,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DivergenceError, InternalConsistencyError) as err:
        print("divergence: %s" % err, file=sys.stderr)
        return EXIT_DIVERGENCE
    except GodelnetError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: info (spectral data), bpa (one cell), verdict (full analysis),
batch (verdict over a directory). Exit codes: 0 ok, 1 usage/parse error or
a cell that failed on its input, 2 at least one budget-exceeded cell,
4 internal invariant violation; when several apply, the highest wins. Code 3
(once undecidable numerics) is retired and not reused.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .engine import Budgets
from .equivalence import (GENERAL, LETTERS, PLAIN, LengthSpec, RelationSpec,
                          letter_equiv_classes)
from .errors import BalpairError, InternalInvariantError
from .linalg import integer_form
from .report import render_dot, render_info_json, render_json
from .substitution import auto_prefixes, parse_substitution
from .verdict import AnalysisConfig, analyze

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 4


def _bool_flag(text):
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _at_least(low):
    """An argparse type: an integer of at least `low`."""
    def parse(text):
        if not text.strip().isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


class _Parser(argparse.ArgumentParser):
    """Bad flags and values exit with EXIT_USAGE; argparse's own 2 would
    read as EXIT_BUDGET. Subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="balpair",
        description="Balanced pair analysis of primitive substitutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", type=Path, default=None,
                       help="write the JSON report here")

    def add_run_flags(p):
        p.add_argument("--prefix", default=None,
                       help="explicit fixed-word prefix w")
        p.add_argument("--prefix-auto", type=_at_least(1), default=8,
                       metavar="MAXLEN",
                       help="collect admissible prefixes up to this length")
        p.add_argument("--require-return", type=_bool_flag, default=True,
                       metavar="BOOL",
                       help="keep only prefixes with u_{m+1} = u_0")
        p.add_argument("--length", action="append", default=None,
                       metavar="SPEC",
                       help="length vector: ones | lambda | a,b,c (repeatable)")
        p.add_argument("--mode", choices=(PLAIN, LETTERS, GENERAL),
                       default=None,
                       help="balance notion (default: general over --length, "
                            "or over lambda and ones)")
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--max-pairs", type=int, default=None)
        p.add_argument("--max-word-len", type=int, default=None)
        p.add_argument("--density-levels", type=_at_least(0), default=None,
                       metavar="L", help="also compute densities for 0..L")

    p_info = sub.add_parser("info", help="matrix, spectral and letter-class data")
    p_info.add_argument("input", type=Path)
    add_json(p_info)

    for name, help_text in (("bpa", "run a single (prefix, relation) cell"),
                            ("verdict", "full analysis and verdicts")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", type=Path)
        add_json(p)
        add_run_flags(p)
        p.add_argument("--dot", type=Path, default=None,
                       help="write the pair graph of the first terminated "
                            "cell as DOT")

    # batch writes only under --out-dir
    p_batch = sub.add_parser("batch", help="verdicts for every .sub in a directory")
    p_batch.add_argument("input", type=Path, help="directory of .sub files")
    p_batch.add_argument("--out-dir", type=Path, default=None,
                         help="write one JSON report per input file here")
    add_run_flags(p_batch)

    return parser


def _relation_specs(args):
    if args.mode in (PLAIN, LETTERS):
        if args.length is not None:
            raise ValueError(f"--mode {args.mode} takes no --length")
        return [RelationSpec(args.mode)]
    return [RelationSpec.general(LengthSpec.parse(text))
            for text in args.length or ["lambda", "ones"]]


def _budgets(args):
    flags = {"max_iterations": args.max_iter, "max_pairs": args.max_pairs,
             "max_word_length": args.max_word_len}
    return Budgets(**{k: v for k, v in flags.items() if v is not None})


def _config(args):
    """The settings the flags give, less an explicit --prefix; a bad value
    raises ValueError before any input is read."""
    return AnalysisConfig(
        auto_max_len=args.prefix_auto,
        require_return=args.require_return,
        relations=_relation_specs(args),
        budgets=_budgets(args),
        density_levels=args.density_levels,
    )


def _with_prefix(config, args, subst):
    """config with the explicit --prefix, a word over subst's alphabet."""
    if args.prefix is None:
        return config
    return replace(config,
                   prefixes=[subst.alphabet.word_from_text(args.prefix)])


def _load(path: Path):
    return parse_substitution(path.read_text(encoding="utf-8"))


def _cell_exit_code(cell):
    if cell.exception is None:
        return EXIT_OK if cell.outcome.terminated else EXIT_BUDGET
    if isinstance(cell.exception, InternalInvariantError):
        return EXIT_INTERNAL
    return EXIT_USAGE


def _exit_code_for(report):
    return max((_cell_exit_code(cell) for cell in report.cells),
               default=EXIT_OK)


def _print_cells(report, args, out):
    alphabet = report.subst.alphabet
    first = report.cells[0].prefix
    if args.prefix is None and len(first) > args.prefix_auto:
        print(f"  no returning prefix has at most {args.prefix_auto} letters; "
              f"using the shortest, {alphabet.render(first)} "
              f"({len(first)} letters)", file=out)
    for cell in report.cells:
        prefix = alphabet.render(cell.prefix)
        if cell.error:
            print(f"  w={prefix} {cell.spec.label()}: ERROR {cell.error}",
                  file=out)
            continue
        outcome = cell.outcome
        if outcome.terminated:
            status = (f"terminated: {len(outcome.vertices)} pairs by "
                      f"iteration {outcome.closure_iteration}")
        else:
            status = (f"budget exceeded ({outcome.which}) after "
                      f"{outcome.iterations_done} iterations, "
                      f"{len(outcome.vertices)} pairs")
        v = cell.verdict
        verdict_text = v.kind + (f" ({v.reason})" if v.reason else "")
        print(f"  w={prefix} {cell.spec.label()}: {status} -> {verdict_text}",
              file=out)


def _write_outputs(report, args, out):
    if args.json is not None:
        args.json.write_bytes(render_json(report))
        print(f"wrote {args.json}", file=out)
    dot_path = args.dot
    if dot_path is not None:
        graphs = [cell.outcome for cell in report.cells
                  if cell.outcome is not None and cell.outcome.terminated]
        if not graphs:
            print("no terminated cell; DOT graph not written", file=out)
        else:
            dot_path.write_text(render_dot(graphs[0], report.subst.alphabet),
                                encoding="utf-8")
            print(f"wrote {dot_path}", file=out)


def cmd_info(args, out):
    subst = _load(args.input)
    alphabet = subst.alphabet
    print(f"alphabet: {' '.join(alphabet.tokens)}", file=out)
    for i, image in enumerate(subst.rules):
        print(f"  {alphabet.tokens[i]} -> {alphabet.render(image)}", file=out)
    print("transition matrix (rows = letter counted):", file=out)
    for row in subst.transition_matrix():
        print("  " + " ".join(str(v) for v in row), file=out)
    print(f"char poly: {subst.char_poly()}", file=out)
    print(f"primitive: {subst.is_primitive()}", file=out)
    print(f"constant length: {subst.is_constant_length()}", file=out)
    classes = letter_equiv_classes(subst)
    rendered = ", ".join("{" + " ".join(alphabet.tokens[i] for i in cls) + "}"
                         for cls in classes)
    print(f"letter classes: {rendered}", file=out)
    if subst.is_primitive():
        _print_spectrum(subst.spectrum(), out)
    else:
        print("matrix is not primitive; spectral data skipped", file=out)
    if args.json is not None:
        args.json.write_bytes(render_info_json(subst, classes))
        print(f"wrote {args.json}", file=out)
    return EXIT_OK


def _print_spectrum(spectrum, out):
    nf = spectrum.perron
    eigen = spectrum.eigen
    for fac, mult in spectrum.factors:
        print(f"factor: ({fac})^{mult}", file=out)
    print(f"perron eigenvalue: root of {nf.min_poly} ~ {nf.approx_str()}",
          file=out)
    vec = spectrum.l_lambda
    approx = ", ".join(v.decimal(8) for v in vec)
    print(f"left PF eigenvector: ({approx})", file=out)
    ints = integer_form(vec)
    if ints:
        print(f"  integer form: {ints}", file=out)
    print(f"pisot type (literal): {eigen.pisot_type_literal}", file=out)
    print(f"pisot type (allowing zero eigenvalues): "
          f"{eigen.pisot_type_allowing_zero}", file=out)
    print(f"charpoly irreducible: {eigen.charpoly_irreducible}", file=out)
    print(f"dim large / small eigenspaces: {eigen.dim_large} / "
          f"{eigen.dim_small}", file=out)


def cmd_bpa(args, out):
    subst = _load(args.input)
    config = _with_prefix(_config(args), args, subst)
    # one cell: first prefix, first relation; analyze reports a
    # non-primitive input
    config.relations = config.relations[:1]
    if not config.prefixes and subst.is_primitive():
        config.prefixes = auto_prefixes(
            subst.fixed_point(), config.auto_max_len,
            config.require_return)[:1]
    report = analyze(subst, config)
    _print_cells(report, args, out)
    _write_outputs(report, args, out)
    return _exit_code_for(report)


def cmd_verdict(args, out):
    subst = _load(args.input)
    report = analyze(subst, _with_prefix(_config(args), args, subst))
    _print_cells(report, args, out)
    _write_outputs(report, args, out)
    return _exit_code_for(report)


def cmd_batch(args, out):
    config = _config(args)  # a bad flag is one usage error, not one per file
    directory = args.input
    if not directory.is_dir():
        print(f"not a directory: {directory}", file=sys.stderr)
        return EXIT_USAGE
    files = sorted(directory.glob("*.sub"))
    if not files:
        print(f"no .sub files in {directory}", file=sys.stderr)
        return EXIT_USAGE
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
    worst = EXIT_OK
    for path in files:
        print(f"== {path.name}", file=out)
        try:
            subst = _load(path)
            report = analyze(subst, _with_prefix(config, args, subst))
        except InternalInvariantError as exc:
            print(f"internal invariant violation: {exc}", file=sys.stderr)
            worst = max(worst, EXIT_INTERNAL)
            continue
        except (BalpairError, ValueError) as exc:
            print(f"  error: {exc}", file=out)
            worst = max(worst, EXIT_USAGE)
            continue
        _print_cells(report, args, out)
        if args.out_dir is not None:
            target = args.out_dir / (path.stem + ".json")
            target.write_bytes(render_json(report))
            print(f"  wrote {target}", file=out)
        worst = max(worst, _exit_code_for(report))
    return worst


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    handler = {"info": cmd_info, "bpa": cmd_bpa,
               "verdict": cmd_verdict, "batch": cmd_batch}[args.command]
    try:
        return handler(args, out)
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (BalpairError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

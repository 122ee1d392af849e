"""Command-line surface for the workbench.

``COMMANDS`` maps each subcommand to its help line, its arguments and its
handler.  A well-formed run, ``--flag value`` pairs of the command's own
flags, is read straight from that table; argparse is imported and a parser
built only for the help and the usage errors, so argparse alone renders
them.  Output is deterministic: fixed word order, rationals in lowest
terms.  ``--format structured`` emits one JSON object per result with the
fields {command, inputs, degrees, values}, rationals as strings.

``--cache-dir`` persists each degree's oriented Groebner rules, so the
subcommands that reach an oriented algebra take it.  check-associator,
extend-associator and check-yb work in the free algebra on A, B and in the
chord algebras, and do not.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import associator as assoc_mod
from . import invariants as inv_mod
from . import reps as reps_mod
from .quotient import PRESET_KINDS, atomic_write, build_graded_basis, hilbert_row, preset_by_name
from .sdseries import SemidirectSeries
from .series import SeriesError, TruncatedSeries, parse_series
from .words import GroupRingElement, parse_word


def _emit(args, command, inputs, degrees, values, text_lines):
    if args.format_ == "structured":
        obj = {"command": command, "inputs": inputs, "degrees": degrees, "values": values}
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _series_terms(series: TruncatedSeries) -> dict:
    return {
        series.alphabet.word_name(word) or "1": str(c) for word, c in series.terms()
    }


def _sd_values(image: SemidirectSeries) -> list:
    out = []
    for perm in sorted(image.terms):
        out.append({"perm": perm.one_line(), "terms": _series_terms(image.terms[perm])})
    return out


# First line of the files extend-associator writes, followed by their degree.
_DEGREE_HEADER = "# semi-associator to degree "


def _read_series(alphabet, cap, text=None, path=None) -> TruncatedSeries:
    """The series given as text or in a file, known to max(cap, its longest word).

    A file that starts with the degree header is known to the degree it names,
    and is never lifted above it: commands that need more fail.  Other ``#``
    lines are comments.
    """
    if text is None:
        if path is None:
            raise ValueError("need --series or --in")
        with open(path) as handle:
            lines = handle.read().splitlines()
        text = " ".join(
            line.strip() for line in lines if line.strip() and not line.lstrip().startswith("#")
        )
        if lines and lines[0].startswith(_DEGREE_HEADER):
            degree = lines[0][len(_DEGREE_HEADER):].strip()
            if not degree.isdecimal():
                raise SeriesError(f"{path}: bad degree header {lines[0]!r}")
            return parse_series(text, alphabet, int(degree))
    series = parse_series(text, alphabet)
    return series.lifted(max(cap, series.cap))


def cmd_dim(args):
    preset = preset_by_name(args.preset, args.n)
    dims = hilbert_row(preset, args.cap, args.cache_dir)
    _emit(
        args,
        "dim",
        {"preset": preset.key(), "n": args.n, "cap": args.cap},
        list(range(args.cap + 1)),
        [str(d) for d in dims],
        [f"{preset.key()} dimensions, degrees 0..{args.cap}: {dims}"],
    )


def cmd_normal_form(args):
    preset = preset_by_name(args.preset, args.n)
    basis = build_graded_basis(preset, args.cap, args.cache_dir)
    series = _read_series(preset.alphabet, args.cap, args.series, args.infile)
    nf = basis.normal_form(series)
    degrees = sorted(k for k in range(args.cap + 1) if nf.scaled[k][1])
    _emit(
        args,
        "normal-form",
        {"preset": preset.key(), "n": args.n, "cap": args.cap, "series": series.text()},
        degrees,
        _series_terms(nf),
        [nf.text()],
    )


def cmd_eval(args):
    w = parse_word(args.word, args.n)
    if args.family == "welded":
        image = reps_mod.eval_welded(w, args.cap, cache_dir=args.cache_dir)
    else:
        if args.assoc:
            assoc = _read_series(assoc_mod.AB, args.cap, path=args.assoc)
        else:
            assoc = assoc_mod.bootstrap_semi_associator(args.cap)
        family = reps_mod.eval_drinfeld if args.family == "drinfeld" else reps_mod.eval_rho3
        image = family(w, assoc, args.cap)
    degrees = sorted({k for t in image.terms.values() for k in range(args.cap + 1) if t.scaled[k][1]})
    _emit(
        args,
        "eval",
        {"family": args.family, "n": args.n, "cap": args.cap, "word": args.word},
        degrees,
        _sd_values(image),
        [image.text()],
    )


def cmd_check_associator(args):
    # A repeated name is checked and reported once, where it first appears.
    axioms = list(dict.fromkeys(ax.strip() for ax in args.axioms.split(",") if ax.strip()))
    if not axioms or not set(axioms) <= set(assoc_mod.AXIOMS):
        raise assoc_mod.AssociatorError(
            f"--axioms {args.axioms!r}: name one or more of {','.join(assoc_mod.AXIOMS)}"
        )
    phi = _read_series(assoc_mod.AB, args.cap, args.series, args.infile)
    values = {}
    lines = []
    for ax in axioms:
        result = assoc_mod.check_axiom(phi, ax, args.cap)
        values[ax] = {
            "passed": result.passed,
            "first_failure_degree": result.first_failure_degree,
            "residual": result.residual.text() if result.residual is not None else "0",
        }
        status = "pass" if result.passed else f"FAIL at degree {result.first_failure_degree}"
        lines.append(f"{ax}: {status}")
        if not result.passed:
            lines.append(f"  residual: {result.residual.text()}")
    _emit(
        args,
        "check-associator",
        {"cap": args.cap, "axioms": axioms, "series": phi.text()},
        list(range(args.cap + 1)),
        values,
        lines,
    )


def cmd_extend_associator(args):
    # The file is written last, after an extension that can take seconds.
    folder = os.path.dirname(args.out) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"--out {args.out}: {folder} is not a directory")
    if os.path.isdir(args.out):
        raise ValueError(f"--out {args.out} is a directory")
    phi = _read_series(assoc_mod.AB, 1, path=args.from_file)
    if args.to_degree < phi.cap:
        raise assoc_mod.AssociatorError(
            f"--to-degree {args.to_degree} is below the degree {phi.cap} of {args.from_file}"
        )
    kernel_dims = {}
    lines = []
    for step, phi, revised in assoc_mod.extension_steps(phi, args.to_degree):
        if revised:
            lines.append(f"degree {step.degree - 1}: revised within the solution set")
        kernel_dims[step.degree] = step.kernel_dimension
        lines.append(
            f"degree {step.degree}: solution found, kernel dimension {step.kernel_dimension}"
        )
    atomic_write(args.out, f"{_DEGREE_HEADER}{phi.cap}\n{phi.text()}\n")
    lines.append(f"wrote {args.out}")
    _emit(
        args,
        "extend-associator",
        {"from": args.from_file, "to_degree": args.to_degree},
        sorted(kernel_dims),
        {str(k): v for k, v in kernel_dims.items()},
        lines,
    )


def cmd_check_yb(args):
    psi = _read_series(assoc_mod.AB, args.cap, args.series, args.infile)
    result = assoc_mod.check_yang_baxter(psi, args.cap)
    status = "pass" if result.passed else f"FAIL at degree {result.first_failure_degree}"
    _emit(
        args,
        "check-yb",
        {"cap": args.cap, "series": psi.text()},
        list(range(args.cap + 1)),
        {"passed": result.passed, "first_failure_degree": result.first_failure_degree},
        [f"yang-baxter: {status}"],
    )


def cmd_distinguish(args):
    w1 = parse_word(args.w1, args.n)
    w2 = parse_word(args.w2, args.n)
    report = inv_mod.distinguish(w1, w2, args.cap, args.cache_dir)
    if report.images_equal_to_cap:
        headline = f"images equal to cap {args.cap}"
    else:
        headline = f"images differ first at degree {report.first_difference_degree}"
    _emit(
        args,
        "distinguish",
        {"n": args.n, "cap": args.cap, "w1": args.w1, "w2": args.w2},
        list(range(args.cap + 1)),
        {
            "first_difference_degree": report.first_difference_degree,
            "oracle_equal": report.oracle_equal,
        },
        [headline, f"oracle: words {'equal' if report.oracle_equal else 'distinct'}"],
    )


def cmd_vassiliev_degree(args):
    xi = GroupRingElement.parse(args.element, args.n)
    report = inv_mod.vassiliev_degree(xi, args.cap, cache_dir=args.cache_dir)
    order = "above cap" if report.above_cap else str(report.order)
    _emit(
        args,
        "vassiliev-degree",
        {"n": args.n, "cap": args.cap, "element": args.element},
        list(range(args.cap + 1)),
        {"order": report.order, "image": _sd_values(report.image)},
        [f"order: {order}", f"image: {report.image.text()}"],
    )


def cmd_delta_kernel(args):
    if args.cap < 0:
        raise SeriesError("cap must be >= 0")
    degrees = list(range(1, args.cap + 1))
    values = {}
    lines = []
    for k in degrees:
        report = inv_mod.delta_kernel(args.n, k, args.cache_dir)
        values[str(k)] = {
            "kernel_dimension": report.kernel_dimension,
            "domain_dimension": report.domain_dimension,
        }
        lines.append(
            f"degree {k}: kernel dimension {report.kernel_dimension} "
            f"(domain dimension {report.domain_dimension})"
        )
    _emit(
        args,
        "delta-kernel",
        {"n": args.n, "cap": args.cap},
        degrees,
        values,
        lines,
    )


def cmd_hilbert_table(args):
    table = inv_mod.hilbert_table(args.n, args.cap, args.cache_dir)
    lines = [f"n = {args.n}, degrees 0..{args.cap}"]
    values = {}
    for name, row in table.rows():
        lines.append(f"{name:>25}: {row}")
        values[name] = [str(v) for v in row]
    _emit(
        args,
        "hilbert-table",
        {"n": args.n, "cap": args.cap},
        list(range(args.cap + 1)),
        values,
        lines,
    )


def cmd_check_splitting(args):
    report = inv_mod.check_splitting_identity(
        args.n, args.cap, args.samples, args.seed, args.cache_dir
    )
    lines = [f"splitting identity: {'pass' if report.passed else 'FAIL'} ({len(report.cases)} cases)"]
    for case in report.cases:
        if not case.passed:
            lines.append(
                f"  FAIL {case.description}: order {case.order_plain} vs {case.order_twisted}"
            )
    _emit(
        args,
        "check-splitting",
        {"n": args.n, "cap": args.cap, "samples": args.samples, "seed": args.seed},
        list(range(args.cap + 1)),
        {
            "passed": report.passed,
            "cases": [
                {
                    "description": case.description,
                    "order_plain": case.order_plain,
                    "order_twisted": case.order_twisted,
                    "passed": case.passed,
                }
                for case in report.cases
            ],
        },
        lines,
    )


def _arg(*flags, **keywords):
    """One argument: its option strings and ``add_argument`` keywords."""
    return flags, keywords


class _OneOf(tuple):
    """Arguments of which a run may give at most one."""


def _flags(n=True, cap=True, preset=False, series=False, cache_dir=True) -> tuple:
    """The shared flags a subcommand reads; every subcommand has --format."""
    flags = []
    if n:
        flags.append(_arg("--n", type=int, default=3, help="strand count (default 3)"))
    if cap:
        flags.append(_arg("--cap", type=int, default=3, help="truncation degree (default 3)"))
    if preset:
        flags.append(_arg(
            "--preset",
            choices=PRESET_KINDS,
            default="oriented_artin",
            help="relation preset for quotient commands",
        ))
    if series:
        flags.append(_OneOf((
            _arg("--series", help="series in the text grammar"),
            _arg("--in", dest="infile", help="file holding the series"),
        )))
    if cache_dir:
        flags.append(_arg(
            "--cache-dir", default=None, help="directory for persisted oriented Groebner rules"
        ))
    flags.append(_arg("--format", choices=("text", "structured"), default="text", dest="format_"))
    return tuple(flags)


# Every subcommand: name -> (help line, arguments, handler).  _read_args reads
# a well-formed run from it, and _command_parser builds argparse's parser from
# it for everything else.
COMMANDS = {
    "dim": ("graded dimensions of a quotient preset", _flags(preset=True), cmd_dim),
    "normal-form": (
        "canonical representative in a quotient",
        _flags(preset=True, series=True),
        cmd_normal_form,
    ),
    "eval": (
        "evaluate a representation on a word",
        _flags() + (
            _arg("--family", choices=("welded", "drinfeld", "rho3"), required=True),
            _arg("--word", required=True, help="word in the token grammar"),
            _arg(
                "--assoc",
                help="series file for the associator-driven families "
                "(default: the bootstrapped semi-associator at the working cap)",
            ),
        ),
        cmd_eval,
    ),
    "check-associator": (
        "test the semi-associator axioms",
        _flags(n=False, series=True, cache_dir=False)
        + (_arg("--axioms", default="AE,AS,H1,H3,P"),),
        cmd_check_associator,
    ),
    "extend-associator": (
        "extend a semi-associator degree by degree",
        _flags(n=False, cap=False, cache_dir=False) + (
            _arg("--from", dest="from_file", required=True),
            _arg("--to-degree", dest="to_degree", type=int, required=True),
            _arg("--out", required=True),
        ),
        cmd_extend_associator,
    ),
    "check-yb": (
        "Yang-Baxter test for the 3-strand family",
        _flags(n=False, series=True, cache_dir=False),
        cmd_check_yb,
    ),
    "distinguish": (
        "separate welded words by truncated invariants",
        _flags() + (_arg("--w1", required=True), _arg("--w2", required=True)),
        cmd_distinguish,
    ),
    "vassiliev-degree": (
        "filtration order of a group-ring element",
        _flags() + (
            _arg("--element", required=True, help="group-ring grammar, e.g. '1*[sig1] - 1*[s1]'"),
        ),
        cmd_vassiliev_degree,
    ),
    "delta-kernel": (
        "kernel of the chord-to-oriented comparison map", _flags(), cmd_delta_kernel
    ),
    "hilbert-table": ("dimension table, chord vs oriented", _flags(), cmd_hilbert_table),
    "check-splitting": (
        "permutation factors preserve vanishing order",
        _flags() + (_arg("--samples", type=int, default=20), _arg("--seed", type=int, default=0)),
        cmd_check_splitting,
    ),
}


def _read_args(name: str, argv: list):
    """The namespace argparse would read from argv, or None where argparse must read it.

    Reads only exact ``--flag value`` pairs of the command's declared flags,
    each flag at most once and each value not starting with ``-``; converts
    with the flag's ``type`` and checks its ``choices``, the required flags
    and the ``_OneOf`` groups.  Help, ``--flag=value``, abbreviations,
    negative numbers, repeats, unknown flags and bad values return None.
    """
    declared = {}  # flag -> (dest, add_argument keywords, id of its _OneOf or None)
    for argument in COMMANDS[name][1]:
        group = id(argument) if isinstance(argument, _OneOf) else None
        for flags, keywords in argument if group is not None else (argument,):
            dest = keywords.get("dest") or flags[0].lstrip("-").replace("-", "_")
            declared.update((flag, (dest, keywords, group)) for flag in flags)
    if len(argv) % 2:
        return None
    values = {dest: keywords.get("default") for dest, keywords, _ in declared.values()}
    given, groups = set(), set()
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in declared or value.startswith("-"):
            return None
        dest, keywords, group = declared[flag]
        if dest in given or group in groups:
            return None
        given.add(dest)
        if group is not None:
            groups.add(group)
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except (TypeError, ValueError):
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
    if any(k.get("required") and dest not in given for dest, k, _ in declared.values()):
        return None
    return SimpleNamespace(**values)


def _command_parser(name: str):
    """argparse's parser of one command, for what _read_args declines."""
    import argparse

    help_line, arguments, _ = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"braidalg {name}", description=help_line)
    for argument in arguments:
        if isinstance(argument, _OneOf):
            group = parser.add_mutually_exclusive_group()
            for flags, keywords in argument:
                group.add_argument(*flags, **keywords)
        else:
            flags, keywords = argument
            parser.add_argument(*flags, **keywords)
    return parser


def _top_level_command(argv: list) -> str:
    """The command argv names, read by the top-level parser, which owns the help and usage errors."""
    import argparse

    width = max(map(len, COMMANDS))
    top = argparse.ArgumentParser(
        prog="braidalg",
        description="Exact computations in braid and welded-braid algebras over Q.",
        epilog="commands:\n" + "\n".join(
            f"  {name:<{width}}  {help_line}" for name, (help_line, _, _) in COMMANDS.items()
        ) + "\n\nrun 'braidalg <command> --help' for a command's options",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top.add_argument(
        "command", choices=COMMANDS, metavar="command", help="one of the commands below"
    )
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        top.error(f"the command comes first: braidalg <command> [options]; {argv[0]!r} is an option")
    return top.parse_args(argv[:1]).command


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A known command needs no top-level parser: building one costs every run.
    name = argv[0] if argv and argv[0] in COMMANDS else _top_level_command(argv)
    args = _read_args(name, argv[1:])
    if args is None:
        args = _command_parser(name).parse_args(argv[1:])
    try:
        COMMANDS[name][2](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory in {name}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

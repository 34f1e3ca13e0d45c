"""Command line front end.

Exit codes: 0 on success, 1 on any input or usage problem, 2 when an
internal self-check fails (which would mean the library contradicted
itself; report it).  They are decided in one place, main, for every
command; a command whose check fails has written its output first.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import os
import sys
from collections.abc import Iterator, Sequence
from typing import TextIO

from .counting import count_words
from .errors import InputError, InternalCheckError
from .words import _separator, _tangled_pieces, parse, render, split_composition

# The handlers call the library functions of the heavier layers as
# attributes of this module, so that tests and bench/spans.py can patch
# them here by name.  Each is bound on first access (see __getattr__), so a
# command imports only the layers it runs: count and tc load no graph,
# enumeration, maximality or census code, and analyze and framing load
# maximality but no graph, enumeration or census code.
_LAZY = {
    "build_graph": "graphs",
    "to_dot": "graphs",
    "_check_search_depth": "hamiltonian",
    "_search": "hamiltonian",
    "mask_to_bits": "hamiltonian",
    # bench/spans.py wraps these three here by name; no handler calls them
    "count_hamiltonian_sets": "hamiltonian",
    "edge_mask": "hamiltonian",
    "enumerate_hamiltonian_sets": "hamiltonian",
    "analyze": "maximality",
    "find_framing_cord": "maximality",
    "census_records": "census",
    "summarize_records": "census",
    "write_records_csv": "census",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __package__)
    value = globals()[name] = getattr(module, name)
    return value


def _load(*names: str) -> None:
    """Bind the named library functions here unless they are bound (or patched) already."""
    for name in names:
        if name not in globals():
            __getattr__(name)


def _dumps(payload: object) -> str:
    import json  # only JSON output pays for the import

    return json.dumps(payload, indent=2)


class _Parser(argparse.ArgumentParser):
    def print_help(self, file: TextIO | None = None) -> None:
        # argparse ignores a failed write; help on stdout fails as any output does
        if file is not None:
            return super().print_help(file)
        with _output(None) as out:
            out.write(self.format_help())

    # usage problems are input problems: exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="dowgraph", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    positionals = {
        "word": {
            "nargs": "+",
            "help": "a double occurrence word, compact (121323) or tokens (1 2 1 3 2 3)",
        },
        "n": {"type": int},
    }
    subs = {}
    for name, help_text, positional, formats, handler in (
        ("analyze", "full maximality report for a word", "word", ("text", "json"), _cmd_analyze),
        ("count", "number of Hamiltonian sets of a word", "word", ("text", "json"), _cmd_count),
        ("enumerate", "list every Hamiltonian set of a word", "word", ("text", "json"),
         _cmd_enumerate),
        ("tc", "print the tangled cord with n letters", "n", ("text", "json"), _cmd_tc),
        ("census", "analyze every class with n letters", "n", ("text", "json", "csv"),
         _cmd_census),
        ("framing", "greedy framing cord of a word", "word", ("text", "json"), _cmd_framing),
        ("export-dot", "graph structure as DOT text", "word", ("text",), _cmd_export_dot),
    ):
        sub = subs[name] = commands.add_parser(name, help=help_text)
        sub.add_argument(positional, **positionals[positional])
        sub.add_argument("--format", choices=list(formats), default="text")
        sub.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
        sub.set_defaults(handler=handler)

    subs["census"].add_argument("--threads", type=_positive_int, default=1, metavar="K",
                                help="worker processes for the per-class analysis")
    subs["census"].add_argument("--unsafe-large", action="store_true",
                                help="waive the census size guard")
    return parser


def _stdout_to_devnull() -> None:
    # after stdout failed, so that the flush at interpreter exit cannot raise again
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """The ``--output`` file, opened for writing, or stdout without one.

    A failed open, write or close is an input problem, as is a failed write
    to stdout, which is flushed at the end so that a buffered stdout fails
    here too.  A reader that closed stdout is left to :func:`run`.
    """
    try:
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                yield handle
        else:
            yield sys.stdout
            sys.stdout.flush()
    except OSError as exc:
        if not path:
            if isinstance(exc, BrokenPipeError):
                raise
            _stdout_to_devnull()
        raise InputError(f"cannot write {path or 'stdout'}: {exc.strerror or exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    with _output(output) as out:
        out.write(text)


def _cmd_analyze(args: argparse.Namespace) -> None:
    _load("analyze")
    report = analyze(parse(" ".join(args.word)))
    if args.format == "json":
        _emit(_dumps(report.to_json_dict()), args.output)
    else:
        lines = [
            f"word: {render(report.word)}",
            f"n: {report.n}",
            f"count: {'skipped' if report.count is None else report.count}",
            f"bound: {report.bound}",
            f"maximal: {str(report.is_maximal).lower()}",
        ]
        if report.failing_sigma is not None:
            lines.append(f"failing letters: {sorted(report.failing_sigma)}")
        lines.append(f"composition: {str(report.is_composition).lower()}")
        if report.framing_cord is not None:
            lines.append("framing cord: " + " ".join(str(a) for a in report.framing_cord))
        if report.minimal_even_split is not None:
            split = report.minimal_even_split
            lines.append(
                f"minimal even split: {sorted(split.sigma)} "
                f"projecting to {render(split.projection)}"
            )
        _emit("\n".join(lines), args.output)


def _cmd_count(args: argparse.Namespace) -> None:
    # an int's JSON text is its decimal text, so both formats print the same
    _emit(str(count_words([parse(" ".join(args.word))])[0]), args.output)


def _cmd_enumerate(args: argparse.Namespace) -> None:
    _load("build_graph", "_check_search_depth", "_search", "mask_to_bits")
    graph = build_graph(parse(" ".join(args.word)))
    _check_search_depth(graph)  # before --output is opened
    width = graph.num_real_edges
    # each set's text is made as the search reaches it, from fragments made
    # once per path, and written 256 sets at a time, since on an unbuffered
    # stream each write is a system call.  The JSON layout is exactly that
    # of json.dumps(payload, indent=2), whose pure-Python encoder this
    # avoids; the list is never empty, and mask 0 (all singletons) opens it.
    block: list[str] = []
    with _output(args.output) as out:

        def write(text: str) -> None:
            block.append(text)
            if len(block) == 256:
                out.write("".join(block))
                block.clear()

        if args.format == "json":

            def visit(mask: int, live: list[str | None]) -> None:
                write((",\n" if mask else "[\n") + '  {\n    "mask": "' + mask_to_bits(mask, width)
                      + '",\n    "paths": [\n' + ",\n".join(filter(None, live)) + "\n    ]\n  }")

            _search(graph, visit, lambda p: "      [\n        "
                    + ",\n        ".join(map(str, p.vertices)) + "\n      ]")
            write("\n]\n")
        else:
            _search(graph,
                    lambda mask, live: write(f"{mask_to_bits(mask, width)}  "
                                             + "".join(filter(None, live)) + "\n"),
                    lambda p: "[" + "-".join(map(str, p.vertices)) + "]")
        out.write("".join(block))


def _cmd_tc(args: argparse.Namespace) -> None:
    # written a piece at a time, so that memory stays bounded whatever n is;
    # the JSON text of a word is its rendering in quotes
    pieces = _tangled_pieces(args.n)  # refuses n < 1 before --output is opened
    sep = _separator(args.n)
    quote = '"' if args.format == "json" else ""
    with _output(args.output) as out:
        lead = quote
        for piece in pieces:
            out.write(lead + sep.join(map(str, piece)))
            lead = sep
        out.write(quote + "\n")


def _cmd_census(args: argparse.Namespace) -> None:
    _load("census_records", "summarize_records", "write_records_csv")
    records = census_records(args.n, threads=args.threads, unsafe_large=args.unsafe_large)
    summary = summarize_records(args.n, records)
    if args.format == "csv":
        with _output(args.output) as out:
            write_records_csv(records, out)
    elif args.format == "json":
        _emit(_dumps(summary.to_json_dict()), args.output)
    else:
        lines = [
            f"n: {summary.n}",
            f"classes: {summary.total_classes}",
            "maximal: " + " ".join(render(w) for w in summary.maximal_classes),
            f"bound_violations: {summary.bound_violations}",
            f"equivalence_failures: {summary.equivalence_failures}",
        ]
        _emit("\n".join(lines), args.output)
    if summary.failures:
        raise InternalCheckError("census verification did not come out clean" + "".join(
            f"\n  {label}: " + " ".join(render(w) for w in words)
            for label, words in summary.failures))


def _cmd_framing(args: argparse.Namespace) -> None:
    _load("find_framing_cord")
    word = parse(" ".join(args.word))
    cord = find_framing_cord(word)
    if cord is None:
        left, right = (render(part) for part in split_composition(word))
        text = f"no framing cord: the word splits as ({left})({right})"
        payload = {"word": render(word), "framing_cord": None, "composition": [left, right]}
    else:
        text = " ".join(str(a) for a in cord)
        payload = {"word": render(word), "framing_cord": list(cord)}
    _emit(_dumps(payload) if args.format == "json" else text, args.output)


def _cmd_export_dot(args: argparse.Namespace) -> None:
    _load("build_graph", "to_dot")
    _emit(to_dot(build_graph(parse(" ".join(args.word)))), args.output)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    try:
        status = main()
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does): exit 1 quietly
        _stdout_to_devnull()
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    run()

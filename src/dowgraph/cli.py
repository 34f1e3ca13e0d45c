"""Command line front end.

Exit codes: 0 on success, 1 on any input or usage problem, 2 when an
internal self-check fails (which would mean the library contradicted
itself; report it).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from collections.abc import Iterator, Sequence
from typing import TextIO

from .census import (
    OFFENDERS_KEPT,
    census_records,
    run_census,
    summarize_records,
    write_records_csv,
)
from .errors import InputError, InternalCheckError
from .graphs import build_graph, to_dot
from .hamiltonian import (
    HamiltonianSet,
    count_hamiltonian_sets,
    edge_mask,
    enumerate_hamiltonian_sets,
    format_hamiltonian_set,
    mask_to_bits,
)
from .maximality import DEFAULT_CROSS_CHECK_LIMIT, analyze, find_framing_cord
from .words import parse, render, split_composition, tangled_cord


class _Parser(argparse.ArgumentParser):
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


def _add_word_argument(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "word",
        nargs="+",
        help="a double occurrence word, compact (121323) or tokens (1 2 1 3 2 3)",
    )


def _add_format_argument(sub: argparse.ArgumentParser, choices: Sequence[str]) -> None:
    sub.add_argument("--format", choices=list(choices), default="text")


def _add_output_argument(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="dowgraph", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("analyze", help="full maximality report for a word")
    _add_word_argument(sub)
    _add_format_argument(sub, ("text", "json"))
    _add_output_argument(sub)
    sub.add_argument(
        "--cross-check-limit",
        type=int,
        default=DEFAULT_CROSS_CHECK_LIMIT,
        metavar="N",
        help="enumerate the count only while n stays within N",
    )

    sub = commands.add_parser("count", help="number of Hamiltonian sets of a word")
    _add_word_argument(sub)
    _add_format_argument(sub, ("text", "json"))
    _add_output_argument(sub)

    sub = commands.add_parser("enumerate", help="list every Hamiltonian set of a word")
    _add_word_argument(sub)
    _add_format_argument(sub, ("text", "json"))
    _add_output_argument(sub)

    sub = commands.add_parser("tc", help="print the tangled cord with n letters")
    sub.add_argument("n", type=int)
    _add_format_argument(sub, ("text", "json"))
    _add_output_argument(sub)

    sub = commands.add_parser("census", help="analyze every class with n letters")
    sub.add_argument("n", type=int)
    _add_format_argument(sub, ("text", "json", "csv"))
    _add_output_argument(sub)
    sub.add_argument("--threads", type=_positive_int, default=1, metavar="K",
                     help="worker processes for the per-class analysis")
    sub.add_argument("--cross-check-limit", type=int,
                     default=DEFAULT_CROSS_CHECK_LIMIT, metavar="N")
    sub.add_argument("--unsafe-large", action="store_true",
                     help="waive the census size guard")

    sub = commands.add_parser("framing", help="greedy framing cord of a word")
    _add_word_argument(sub)
    _add_format_argument(sub, ("text", "json"))
    _add_output_argument(sub)

    sub = commands.add_parser("export-dot", help="graph structure as DOT text")
    _add_word_argument(sub)
    _add_format_argument(sub, ("text",))
    _add_output_argument(sub)

    return parser


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """The ``--output`` file, opened for writing, or stdout without one."""
    if not path:
        yield sys.stdout
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    with handle:
        yield handle


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    with _output(output) as out:
        out.write(text)


def _cmd_analyze(args: argparse.Namespace) -> int:
    report = analyze(parse(" ".join(args.word)), cross_check_limit=args.cross_check_limit)
    if args.format == "json":
        _emit(json.dumps(report.to_json_dict(), indent=2), args.output)
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
    if not report.consistent:
        print(
            f"internal check failed: count {report.count} disagrees with the "
            f"parity verdict on {render(report.word)}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    value = count_hamiltonian_sets(build_graph(parse(" ".join(args.word))))
    _emit(json.dumps(value) if args.format == "json" else str(value), args.output)
    return 0


def _json_entry(mask: str, hamset: HamiltonianSet) -> str:
    """One entry of the ``enumerate`` list, laid out as ``json.dumps(...,
    indent=2)`` lays it out; masks are 0/1 strings and vertices integers,
    so nothing needs escaping."""
    paths = ",\n".join(
        "      [\n        " + ",\n        ".join(map(str, p.vertices)) + "\n      ]"
        for p in hamset.sorted_paths()
    )
    return f'  {{\n    "mask": "{mask}",\n    "paths": [\n{paths}\n    ]\n  }}'


def _cmd_enumerate(args: argparse.Namespace) -> int:
    graph = build_graph(parse(" ".join(args.word)))

    def mask_of(hs: HamiltonianSet) -> str:
        # the sets come straight from the enumeration, so skip re-validating them
        return mask_to_bits(edge_mask(graph, hs, check=False), graph.num_real_edges)

    # each set is written as it is formatted; the JSON layout is exactly
    # that of json.dumps(payload, indent=2), whose pure-Python encoder this
    # avoids, and the list is never empty (the all-singletons set is in it)
    with _output(args.output) as out:
        sets = enumerate_hamiltonian_sets(graph)
        if args.format == "json":
            separator = "[\n"
            for hs in sets:
                out.write(separator + _json_entry(mask_of(hs), hs))
                separator = ",\n"
            out.write("\n]\n")
        else:
            for hs in sets:
                out.write(f"{mask_of(hs)}  {format_hamiltonian_set(hs)}\n")
    return 0


def _cmd_tc(args: argparse.Namespace) -> int:
    word = render(tangled_cord(args.n))
    _emit(json.dumps(word) if args.format == "json" else word, args.output)
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    records = census_records(
        args.n,
        threads=args.threads,
        cross_check_limit=args.cross_check_limit,
        unsafe_large=args.unsafe_large,
    )
    summary = summarize_records(args.n, records)
    if args.format == "csv":
        buffer = io.StringIO()
        write_records_csv(records, buffer)
        _emit(buffer.getvalue(), args.output)
    elif args.format == "json":
        _emit(json.dumps(summary.to_json_dict(), indent=2), args.output)
    else:
        lines = [
            f"n: {summary.n}",
            f"classes: {summary.total_classes}",
            "maximal: " + " ".join(render(w) for w in summary.maximal_classes),
            f"bound_violations: {summary.bound_violations}",
            f"equivalence_failures: {summary.equivalence_failures}",
        ]
        _emit("\n".join(lines), args.output)
    cord = tangled_cord(args.n)
    if (
        summary.bound_violations
        or summary.equivalence_failures
        or summary.maximal_classes != (cord,)
    ):
        print(
            "internal check failed: census verification did not come out clean",
            file=sys.stderr,
        )
        unexpected = [w for w in summary.maximal_classes if w != cord]
        missing = [] if cord in summary.maximal_classes else [cord]
        for what, words in (
            (f"{summary.bound_violations} bound violation(s)", summary.violating),
            (f"{summary.equivalence_failures} count/parity disagreement(s)", summary.disagreeing),
            (f"{len(unexpected)} unexpected maximal class(es)", unexpected[:OFFENDERS_KEPT]),
            ("tangled cord not maximal", missing),
        ):
            if words:
                print(f"  {what}: " + " ".join(render(w) for w in words), file=sys.stderr)
        return 2
    return 0


def _cmd_framing(args: argparse.Namespace) -> int:
    word = parse(" ".join(args.word))
    cord = find_framing_cord(word)
    if args.format == "json":
        payload: dict = {"word": render(word)}
        if cord is None:
            left, right = split_composition(word)
            payload["framing_cord"] = None
            payload["composition"] = [render(left), render(right)]
        else:
            payload["framing_cord"] = list(cord)
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        if cord is None:
            left, right = split_composition(word)
            _emit(
                f"no framing cord: the word splits as ({render(left)})({render(right)})",
                args.output,
            )
        else:
            _emit(" ".join(str(a) for a in cord), args.output)
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    _emit(to_dot(build_graph(parse(" ".join(args.word)))), args.output)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "tc": _cmd_tc,
    "census": _cmd_census,
    "framing": _cmd_framing,
    "export-dot": _cmd_export_dot,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does): exit 1 quietly, and
        # point stdout at devnull so the flush at interpreter exit cannot
        # raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    run()

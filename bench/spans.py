"""In-process tracing of the dowgraph layers, from outside the package.

The traced run calls ``dowgraph.cli.main`` in this process.  Before each
call, :func:`patched` replaces the layer functions that the CLI, the census
and the maximality code look up in their module namespaces with wrappers
that record a span around every call.  Nothing in the package changes; the
wrappers only see the calls that cross a module boundary.

A span is ``[request, name, start_ns, end_ns, parent]``.  Spans are kept in
memory and written out when the benchmark ends.  The layer of a span is the
part of its name before the dot, which is the name of a module.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import traceback
from collections import Counter, defaultdict
from math import comb

from workloads import fibonacci

LAYERS = ("words", "graphs", "hamiltonian", "maximality", "census", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = 0
        # set while the census fans out to worker processes: forked workers
        # inherit the wrappers, but their spans would never come back
        self.suspended = False

    def reset(self) -> None:
        """Start a new round: drop the spans and counts kept so far."""
        self.spans, self.stack, self.counts = [], [], Counter()

    def begin(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.request, name, time.perf_counter_ns(), 0, parent])
        self.stack.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self.stack.pop()][3] = time.perf_counter_ns()

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][1] if self.stack else None

    def wrap(self, fn, name: str, under: tuple[str, ...] = (), observe=None):
        """``fn`` with a span around each call.

        ``under`` limits the span to calls made directly inside one of the
        named spans; other calls pass through and count toward their caller.
        ``observe(counts, args, result)`` records counts at the boundary.
        """

        def traced(*args, **kwargs):
            if self.suspended or (under and self.current() not in under):
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        """A span around each step of the generator ``fn`` returns."""

        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            return steps if self.suspended else spanned(steps)

        def spanned(steps):
            while True:
                self.begin(name)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    self.end()
                self.counts["words.raw_words"] += 1
                yield item

        return traced

    def wrap_records(self, fn):
        """``census_records`` under a span named for its process count."""

        def traced(n, threads=1, **kwargs):
            fan_out = threads > 1
            self.begin("census.records_2p" if fan_out else "census.records_1p")
            self.suspended = fan_out
            try:
                return fn(n, threads=threads, **kwargs)
            finally:
                self.suspended = False
                self.end()

        return traced


def subsets_tried(word, witness) -> int:
    """How many subsets ``even_split_witness`` tests before it returns.

    It tries proper non-empty subsets by size, then lexicographically over
    the sorted letters, so the count follows from the witness alone.
    """
    letters = sorted(word.alphabet)
    n = len(letters)
    if witness is None:
        return 2**n - 2
    size = len(witness)
    tried = sum(comb(n, k) for k in range(1, size))
    index = [letters.index(a) for a in sorted(witness)]
    previous = -1
    for i, at in enumerate(index):
        for skipped in range(previous + 1, at):
            tried += comb(n - 1 - skipped, size - 1 - i)
        previous = at
    return tried + 1


def _count_observed(counts, args, result) -> None:
    counts["hamiltonian.sets_found"] += result
    # F(2n+1) masks without adjacent ones on the 2n-1 real edges
    counts["hamiltonian.masks_scanned"] += fibonacci(args[0].num_real_edges + 2)


def _witness_observed(counts, args, result) -> None:
    counts["maximality.subsets_tried"] += subsets_tried(args[0], result)


def _classes_observed(counts, args, result) -> None:
    counts["words.classes"] += len(result)


@contextlib.contextmanager
def patched(tracer: Tracer, dg):
    """Install the wrappers in the package's module namespaces."""
    cli, census, maximality, hamiltonian = dg.cli, dg.census, dg.maximality, dg.hamiltonian
    wrap = tracer.wrap
    analyze = ("maximality.analyze",)
    table = [
        (cli, "parse", wrap(cli.parse, "words.parse")),
        (cli, "build_graph", wrap(cli.build_graph, "graphs.build")),
        (cli, "count_hamiltonian_sets",
         wrap(cli.count_hamiltonian_sets, "hamiltonian.count", observe=_count_observed)),
        (cli, "enumerate_hamiltonian_sets",
         wrap(cli.enumerate_hamiltonian_sets, "hamiltonian.enumerate")),
        (cli, "edge_mask", wrap(cli.edge_mask, "hamiltonian.fingerprint")),
        (cli, "analyze", wrap(cli.analyze, "maximality.analyze")),
        (cli, "census_records", tracer.wrap_records(cli.census_records)),
        (cli, "summarize_records", wrap(cli.summarize_records, "census.fold")),
        (cli, "write_records_csv", wrap(cli.write_records_csv, "census.csv")),
        (census, "enumerate_dow_classes",
         wrap(census.enumerate_dow_classes, "census.classes", observe=_classes_observed)),
        (census, "iter_canonical_words",
         tracer.wrap_generator(census.iter_canonical_words, "words.generate")),
        (census, "class_representative", wrap(census.class_representative, "words.dedupe")),
        (census, "analyze", wrap(census.analyze, "maximality.analyze")),
        (maximality, "canonicalize", wrap(maximality.canonicalize, "words.canonicalize")),
        (maximality, "even_split_witness",
         wrap(maximality.even_split_witness, "maximality.witness", observe=_witness_observed)),
        (maximality, "build_graph", wrap(maximality.build_graph, "graphs.build")),
        (maximality, "count_hamiltonian_sets",
         wrap(maximality.count_hamiltonian_sets, "hamiltonian.count", observe=_count_observed)),
        (maximality, "split_composition",
         wrap(maximality.split_composition, "maximality.composition")),
        (maximality, "find_framing_cord", wrap(maximality.find_framing_cord, "maximality.framing")),
        # analyze's own projection check; the framing check's projection
        # stays inside the framing span
        (maximality, "project", wrap(maximality.project, "maximality.projection", under=analyze)),
        (maximality, "is_tangled_cord",
         wrap(maximality.is_tangled_cord, "maximality.projection", under=analyze)),
        (hamiltonian, "nonconsecutive_masks",
         wrap(hamiltonian.nonconsecutive_masks, "hamiltonian.mask_table")),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in table]
    for module, attr, wrapper in table:
        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def call_in_process(dg, argv: list[str], tracer: Tracer | None = None):
    """Run one CLI command in this process, as a fresh process would.

    The mask table cache is emptied first, since every CLI invocation
    starts without it.  With a tracer, the layer wrappers are installed and
    the command runs under a root span ``cli.main``.  Returns exit status,
    stdout and wall seconds.
    """
    dg.hamiltonian.nonconsecutive_masks.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(patched(tracer, dg))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin("cli.main")
        crash = None
        try:
            status = dg.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails this invocation, not the run
            status, crash = 1, traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.end()
        wall = time.perf_counter() - start
    if crash is not None:
        print(crash, file=sys.stderr)
    return status, out.getvalue().encode(), wall


def round_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``<span>_s`` is the total time inside spans of that name, children
    included.  ``<layer>.layer_self_s`` is the layer's self time: span
    durations minus the part their child spans cover, summed by layer.
    """
    inclusive: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    child_time = [0] * len(spans)
    for request, name, start, end, parent in spans:
        inclusive[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, int] = defaultdict(int)
    for (request, name, start, end, parent), covered in zip(spans, child_time):
        self_time[name.split(".")[0]] += end - start - covered

    def seconds(name: str) -> float:
        return inclusive[name] / 1e9

    raw = counts["words.raw_words"]
    masks = counts["hamiltonian.masks_scanned"]
    metrics = {
        "words.generate_s": seconds("words.generate"),
        "words.dedupe_s": seconds("words.dedupe"),
        "words.canonicalize_s": seconds("words.canonicalize"),
        "words.raw_words": raw,
        "words.classes": counts["words.classes"],
        "words.dedupe_ratio": counts["words.classes"] / raw if raw else 0.0,
        "graphs.build_s": seconds("graphs.build"),
        "graphs.builds": calls["graphs.build"],
        "hamiltonian.count_s": seconds("hamiltonian.count"),
        "hamiltonian.count_calls": calls["hamiltonian.count"],
        "hamiltonian.sets_found": counts["hamiltonian.sets_found"],
        "hamiltonian.masks_scanned": masks,
        "hamiltonian.accept_ratio": counts["hamiltonian.sets_found"] / masks if masks else 0.0,
        "hamiltonian.mask_table_s": seconds("hamiltonian.mask_table"),
        "hamiltonian.enumerate_s": seconds("hamiltonian.enumerate"),
        "hamiltonian.fingerprint_s": seconds("hamiltonian.fingerprint"),
        "maximality.witness_s": seconds("maximality.witness"),
        "maximality.subsets_tried": counts["maximality.subsets_tried"],
        "maximality.framing_s": seconds("maximality.framing"),
        "maximality.composition_s": seconds("maximality.composition"),
        "maximality.projection_s": seconds("maximality.projection"),
        "census.records_1p_s": seconds("census.records_1p"),
        "census.records_2p_s": seconds("census.records_2p"),
        "census.fold_s": seconds("census.fold"),
        "census.csv_s": seconds("census.csv"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.layer_self_s"] = self_time[layer] / 1e9
    metrics["trace.spans"] = len(spans)
    return metrics

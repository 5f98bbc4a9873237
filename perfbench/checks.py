"""Output checks that do not trust the code they check.

Nothing here imports ``repro.cache``: the miss counter is written from
the definition of a direct-mapped cache, and the other checks recompute
their facts from the raw trace arrays.  Each check returns a list of
problems (empty when the output is right), so one bad output does not
hide the next.  ``selftest.py`` feeds every check a corrupted output
and requires a problem back.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np


def direct_mapped_misses(
    proc_indices: np.ndarray,
    extent_starts: np.ndarray,
    extent_lengths: np.ndarray,
    bases: np.ndarray,
    *,
    line_size: int,
    num_lines: int,
    instruction_size: int,
) -> tuple[int, int, int]:
    """``(fetches, line_accesses, misses)`` of a trace under a layout.

    *bases* holds each procedure's start address, indexed like the
    trace's procedure indices.  Every extent touches each line it spans
    once; an access hits exactly when the previous access to the same
    cache line slot was to the same memory line.
    """
    first_byte = bases[proc_indices] + extent_starts
    first = first_byte // line_size
    last = (first_byte + extent_lengths - 1) // line_size
    spans = last - first + 1
    total = int(spans.sum())
    # Line k of the expanded stream is first[e] + (k - start_of_extent_e).
    starts = np.zeros(len(spans), dtype=np.int64)
    np.cumsum(spans[:-1], out=starts[1:])
    lines = np.arange(total, dtype=np.int64) + np.repeat(first - starts, spans)
    slots = (lines % num_lines).astype(np.uint16 if num_lines <= 1 << 16 else np.int64)
    # Group the stream by slot, keeping trace order inside a slot (a
    # stable sort; on 16-bit keys NumPy's is a linear-time radix sort).
    order = np.argsort(slots, kind="stable")
    line_seq = lines[order]
    # A line maps to one slot, so a change of line within the grouped
    # stream is a miss, and so is each slot's first access.
    misses = min(total, 1) + int(np.count_nonzero(line_seq[1:] != line_seq[:-1]))
    fetches = int(np.maximum(extent_lengths // instruction_size, 1).sum())
    return fetches, total, misses


def check_miss_stats(
    stats: Mapping[str, int],
    trace_arrays: tuple[np.ndarray, np.ndarray, np.ndarray],
    names: Sequence[str],
    addresses: Mapping[str, int],
    *,
    line_size: int = 32,
    num_lines: int = 256,
    instruction_size: int = 4,
) -> list[str]:
    """Compare a simulator's ``fetches``/``line_accesses``/``misses``
    (whichever of them *stats* carries) with an independent recount
    for the paper's 8 KB direct-mapped cache."""
    bases = np.asarray([addresses[name] for name in names], dtype=np.int64)
    recount = dict(
        zip(
            ("fetches", "line_accesses", "misses"),
            direct_mapped_misses(
                *trace_arrays,
                bases,
                line_size=line_size,
                num_lines=num_lines,
                instruction_size=instruction_size,
            ),
        )
    )
    wrong = {k: (stats[k], v) for k, v in recount.items() if k in stats and int(stats[k]) != v}
    if wrong or "misses" not in stats:
        return [f"miss stats disagree with the recount (reported, recount): {wrong}"]
    return []


def check_layout(
    program_sizes: Mapping[str, int],
    addresses: Mapping[str, int],
    layout_sizes: Mapping[str, int] | None = None,
) -> list[str]:
    """Every procedure placed once, sizes as in the program, no overlap.

    *layout_sizes* are the sizes the layout itself records (a layout
    JSON carries its program); they must equal *program_sizes*.
    """
    problems = []
    placed = set(addresses)
    expected = set(program_sizes)
    if placed != expected:
        missing = sorted(expected - placed)[:3]
        extra = sorted(placed - expected)[:3]
        problems.append(f"placed set differs: missing {missing}, extra {extra}")
    if layout_sizes is not None and dict(layout_sizes) != dict(program_sizes):
        problems.append("layout records procedure sizes unlike the program")
    spans = sorted(
        (int(addresses[name]), int(addresses[name]) + program_sizes[name], name)
        for name in placed & expected
    )
    for start, _end, name in spans:
        if start < 0:
            problems.append(f"{name} at negative address {start}")
    for (_, prev_end, prev), (start, _, name) in zip(spans, spans[1:]):
        if start < prev_end:
            problems.append(f"{prev} and {name} overlap at {start}")
            break
    return problems


def check_popular(
    proc_indices: np.ndarray,
    extent_lengths: np.ndarray,
    names: Sequence[str],
    popular: Sequence[str],
    *,
    coverage: float = 0.99,
    max_popular: int = 150,
) -> list[str]:
    """The popular set is the smallest byte-ranked prefix covering
    *coverage* of executed bytes, cut at *max_popular*."""
    executed = np.bincount(
        proc_indices, weights=extent_lengths, minlength=len(names)
    ).astype(np.int64)
    total = int(executed.sum())
    ranked = sorted(
        (
            (-int(executed[i]), names[i])
            for i in range(len(names))
            if executed[i]
        )
    )
    covered = 0
    expected = []
    for negative_bytes, name in ranked:
        if covered >= coverage * total:
            break
        expected.append(name)
        covered -= negative_bytes
    expected = expected[:max_popular]
    if list(popular) != expected:
        return [
            f"popular set of {len(popular)} differs from the recomputed "
            f"{len(expected)}-procedure prefix"
        ]
    return []


def check_perturbation(
    clean: Mapping[frozenset, float],
    perturbed: Mapping[frozenset, float],
    clean_nodes: set,
    perturbed_nodes: set,
    *,
    scale: float = 0.1,
    sigmas: float = 5.0,
) -> list[str]:
    """Section 5.1: ``w' = w * exp(scale * X)``, ``X ~ N(0, 1)``.

    The graph keeps its nodes and edges; the log weight ratios have
    mean 0 and standard deviation *scale*, each within *sigmas*
    standard errors of an *n*-edge sample.
    """
    if clean_nodes != perturbed_nodes:
        return ["perturbation changed the node set"]
    if set(clean) != set(perturbed):
        return ["perturbation changed the edge set"]
    n = len(clean)
    if n < 30:
        return []
    keys = list(clean)
    ratios = np.log(
        np.asarray([perturbed[k] for k in keys])
        / np.asarray([clean[k] for k in keys])
    )
    mean = float(ratios.mean())
    std = float(ratios.std(ddof=1))
    problems = []
    if abs(mean) > sigmas * scale / math.sqrt(n):
        problems.append(f"log-ratio mean {mean:.4f} is not ~0 over {n} edges")
    if abs(std - scale) > sigmas * scale / math.sqrt(2 * (n - 1)):
        problems.append(
            f"log-ratio std {std:.4f} is not ~{scale} over {n} edges"
        )
    return problems


def graph_edges(graph) -> dict[frozenset, float]:
    """Edge weights of an undirected profile graph keyed by node pair."""
    return {frozenset((a, b)): w for a, b, w in graph.edges()}


def check_upload(response: Mapping, digest: str | None, deduped: bool) -> list[str]:
    """An upload answers with the expected digest and dedupe flag."""
    problems = []
    if digest is not None and response.get("digest") != digest:
        problems.append(
            f"upload digest {response.get('digest')!r} != first upload's "
            f"{digest!r}"
        )
    if response.get("deduped") is not deduped:
        problems.append(
            f"upload deduped={response.get('deduped')!r}, expected {deduped}"
        )
    return problems


def check_same_layout(served: Mapping, local: Mapping) -> list[str]:
    """An HTTP layout equals the library's layout for the same trace."""
    if served != local:
        differing = [
            name
            for name in local.get("addresses", {})
            if served.get("addresses", {}).get(name)
            != local["addresses"][name]
        ]
        return [
            f"served layout differs from run_placement "
            f"({len(differing)} addresses differ)"
        ]
    return []

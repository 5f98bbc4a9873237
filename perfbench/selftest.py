"""Self-tests of ``checks``: each check passes a right output and rejects
a corrupted one.

Run on its own with ``python3 perfbench/selftest.py`` (exit 0 when every
check behaves); ``run.py`` runs it before every workload and reports a
failure as an incorrect run.  The inputs are small synthetic traces and
layouts made here, so the self-test needs nothing from the program.
"""

from __future__ import annotations

import sys

import numpy as np

import checks

LINE_SIZE = 32
NUM_LINES = 16
INSTRUCTION_SIZE = 4


def _program(rng: np.random.Generator, n: int = 40):
    names = [f"p{i}" for i in range(n)]
    sizes = {name: int(rng.integers(4, 100)) * INSTRUCTION_SIZE for name in names}
    addresses, cursor = {}, 0
    for name in rng.permutation(names):
        cursor += int(rng.integers(0, 3)) * LINE_SIZE
        addresses[str(name)] = cursor
        cursor += sizes[str(name)]
    return names, sizes, addresses


def _trace(rng: np.random.Generator, names, sizes, events: int = 3000):
    weights = 1.0 / np.arange(1, len(names) + 1)
    procs = rng.choice(len(names), size=events, p=weights / weights.sum())
    starts, lengths = [], []
    for p in procs:
        words = sizes[names[p]] // INSTRUCTION_SIZE
        first = int(rng.integers(0, words))
        count = int(rng.integers(1, words - first + 1))
        starts.append(first * INSTRUCTION_SIZE)
        lengths.append(count * INSTRUCTION_SIZE)
    return (
        procs.astype(np.int64),
        np.asarray(starts, dtype=np.int64),
        np.asarray(lengths, dtype=np.int64),
    )


def _reference_misses(arrays, names, addresses) -> tuple[int, int, int]:
    """A one-access-at-a-time direct-mapped cache: the textbook model."""
    tags = [None] * NUM_LINES
    fetches = accesses = misses = 0
    for proc, start, length in zip(*arrays):
        base = addresses[names[proc]] + int(start)
        fetches += max(int(length) // INSTRUCTION_SIZE, 1)
        for line in range(base // LINE_SIZE, (base + int(length) - 1) // LINE_SIZE + 1):
            accesses += 1
            if tags[line % NUM_LINES] != line:
                tags[line % NUM_LINES] = line
                misses += 1
    return fetches, accesses, misses


def run() -> list[str]:
    """Every self-test; returns what went wrong (empty when all held)."""
    rng = np.random.default_rng(20_26)
    names, sizes, addresses = _program(rng)
    arrays = _trace(rng, names, sizes)
    cases: list[tuple[str, list[str], bool]] = []  # (label, problems, must reject)

    # Miss counter: the vectorised recount equals the textbook model, and
    # the check rejects counts that are off by one or another layout's.
    def miss_check(stats, layout=addresses):
        return checks.check_miss_stats(
            stats, arrays, names, layout, line_size=LINE_SIZE, num_lines=NUM_LINES
        )

    keys = ("fetches", "line_accesses", "misses")
    right = dict(zip(keys, _reference_misses(arrays, names, addresses)))
    moved = dict(addresses)
    moved[names[0]] += LINE_SIZE * NUM_LINES // 2
    cases.append(("right miss stats", miss_check(right), False))
    for key in keys:
        cases.append((f"{key} off by one", miss_check(dict(right, **{key: right[key] + 1})), True))
    cases.append(("stats of another layout", miss_check(right, moved), True))

    # Layout validity.
    by_address = sorted(addresses, key=addresses.get)
    overlapping = dict(addresses, **{by_address[1]: addresses[by_address[0]] + 4})
    missing = {k: v for k, v in addresses.items() if k != names[3]}
    resized = dict(sizes, **{names[5]: sizes[names[5]] + 4})
    negative = dict(addresses, **{by_address[0]: -LINE_SIZE})
    cases += [
        ("valid layout", checks.check_layout(sizes, addresses, sizes), False),
        ("overlapping layout", checks.check_layout(sizes, overlapping), True),
        ("layout missing a procedure", checks.check_layout(sizes, missing), True),
        ("layout with a wrong size", checks.check_layout(sizes, addresses, resized), True),
        ("layout at a negative address", checks.check_layout(sizes, negative), True),
    ]

    # Popular set: the byte-ranked prefix reaching the coverage.
    executed = np.bincount(arrays[0], weights=arrays[2], minlength=len(names))
    ranked = sorted(range(len(names)), key=lambda i: (-executed[i], names[i]))
    covered, popular = 0.0, []
    for i in ranked:
        if covered >= 0.9 * executed.sum():
            break
        popular.append(names[i])
        covered += executed[i]

    def popular_check(chosen):
        return checks.check_popular(arrays[0], arrays[2], names, chosen, coverage=0.9)

    cases += [
        ("right popular set", popular_check(popular), False),
        ("popular set short of coverage", popular_check(popular[:-1]), True),
        ("popular set out of order", popular_check(popular[1::-1] + popular[2:]), True),
    ]

    # Perturbation: w' = w * exp(0.1 X) keeps the graph; other scales,
    # a biased draw or a changed edge or node set do not pass.
    nodes = set(names)
    edges = {
        frozenset((a, b)): float(rng.uniform(1, 1000))
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if rng.random() < 0.6
    }
    noise = rng.standard_normal(len(edges))

    def perturb(scale: float, shift: float = 0.0) -> dict:
        return {k: w * np.exp(scale * x + shift) for (k, w), x in zip(edges.items(), noise)}

    def perturbation_check(perturbed, perturbed_nodes=nodes):
        return checks.check_perturbation(edges, perturbed, nodes, perturbed_nodes)

    cases += [
        ("s = 0.1 perturbation", perturbation_check(perturb(0.1)), False),
        ("s = 0.2 perturbation", perturbation_check(perturb(0.2)), True),
        ("s = 0.05 perturbation", perturbation_check(perturb(0.05)), True),
        ("biased perturbation", perturbation_check(perturb(0.1, 0.05)), True),
        ("dropped edge", perturbation_check(dict(list(perturb(0.1).items())[1:])), True),
        ("dropped node", perturbation_check(perturb(0.1), nodes - {names[0]}), True),
    ]

    # Uploads and served layouts.
    def upload(digest: str, deduped: bool) -> dict:
        return {"digest": digest, "deduped": deduped}

    def same_layout(layout) -> list[str]:
        return checks.check_same_layout({"addresses": addresses}, {"addresses": layout})

    cases += [
        ("fresh upload", checks.check_upload(upload("d1", False), None, False), False),
        ("re-upload", checks.check_upload(upload("d1", True), "d1", True), False),
        ("re-upload not deduped", checks.check_upload(upload("d1", False), "d1", True), True),
        ("re-upload, other digest", checks.check_upload(upload("d2", True), "d1", True), True),
        ("same layout", same_layout(dict(addresses)), False),
        ("different layout", same_layout(moved), True),
    ]
    return [
        f"{label}: {'rejected (' + problems[0] + ')' if problems else 'accepted'}"
        for label, problems, must_reject in cases
        if bool(problems) != must_reject
    ]


if __name__ == "__main__":
    problems = run()
    for problem in problems:
        print(f"self-test failed: {problem}", file=sys.stderr)
    print("self-test: ok" if not problems else f"self-test: {len(problems)} failed")
    sys.exit(1 if problems else 0)

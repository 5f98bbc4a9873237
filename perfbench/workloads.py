"""The three workloads: inputs from the seed, the timed op, its checks.

Each workload is an object with a fixed life cycle driven by
``run.py``::

    setup()            real set-up, repeatable (run.py times several)
    plan()             the fixed op list: Op(kind, warm-up?, payload)
    run(op)            one op, timed
    check(op, output)  independent checks, untimed; returns problems
    miss_pct()         the layout-quality figure of the ops run so far
    close()            stop what setup started, drop what it built

The op list depends only on ``--seed`` and ``--seconds``: ``--seconds``
fixes how many whole rounds of ops a run attempts (from one round's cost
on the reference host, ``ROUND_SECONDS``), so a run never stops on a
clock and every run of a seed attempts the same ops.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import checks
from repro.cache.config import PAPER_CACHE
from repro.cache.simulator import simulate
from repro.eval.experiment import build_context, run_experiment
from repro.eval.reporting import Table1Row
from repro.io import layout_to_dict
from repro.profiles.perturb import PAPER_SCALE
from repro.program.layout import Layout
from repro.serve.app import LockedStore, PlacementService
from repro.serve.http import make_server
from repro.service import PlacementRequest, make_algorithm, run_placement
from repro.store import encode_trace
from repro.trace.callgraph import random_call_graph
from repro.trace.generator import generate_trace
from repro.workloads import spec as workload_spec
from repro.workloads.suite import GO, M88KSIM, SUITE, VORTEX

#: Seconds one round of ops takes on the reference host (2 cores,
#: Python 3.11); ``--seconds`` divided by this is the round count.
ROUND_SECONDS = {"table1-cold": 8.7, "figure5-sweep": 6.0, "serve-mixed": 1.65}

WORKLOADS = tuple(ROUND_SECONDS)


@dataclass(frozen=True)
class Op:
    """One benchmark operation."""

    kind: str
    warmup: bool
    payload: Any = None


def _rng(seed: int, tag: str) -> random.Random:
    # String seeds hash through sha512: the same on every interpreter run.
    return random.Random(f"perfbench:{seed}:{tag}")


def _new_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def variant(workload, rng: random.Random):
    """*workload* with new train and test trace seeds.

    The call graph stays the analog's, so a row's cost does not swing
    with a random program's shape; the benchmark clears the memos after
    each op, so the call graph is still generated cold every time.
    """
    return replace(
        workload,
        train=replace(workload.train, seed=_new_seed(rng)),
        test=replace(workload.test, seed=_new_seed(rng)),
    )


def rounds_for(name: str, seconds: float) -> int:
    """Timed rounds a run of *seconds* attempts (at least one)."""
    return max(1, round(seconds / ROUND_SECONDS[name]))


def _arrays(trace):
    return (trace.proc_indices, trace.extent_starts, trace.extent_lengths)


def _sizes(program) -> dict[str, int]:
    return {name: program.size_of(name) for name in program.names}


def _layout_problems(layout, trace, stats) -> list[str]:
    """Layout validity plus the miss recount of *stats* on *trace*."""
    addresses = dict(layout.items())
    program = trace.program
    reported = {
        "fetches": stats.fetches,
        "line_accesses": stats.line_accesses,
        "misses": stats.misses,
    }
    return checks.check_layout(_sizes(program), addresses) + checks.check_miss_stats(
        reported, _arrays(trace), program.names, addresses
    )


def _mean_pct(rates) -> float:
    """Mean of miss rates, in %; 0 when every op that gives one failed."""
    rates = list(rates)
    return 100.0 * sum(rates) / len(rates) if rates else 0.0


def clear_memos() -> None:
    """Forget memoised call graphs and traces, so the next use is cold."""
    workload_spec.clear_trace_memo()
    workload_spec._cached_call_graph.cache_clear()


# ----------------------------------------------------------------------
# table1-cold
# ----------------------------------------------------------------------


class Table1Cold:
    """One Table 1 row per op, cold, at full scale, store off.

    Each op is a fresh seeded variant of one of the six analogs (its
    program, new train and test seeds) and starts with empty memos, so
    it is cold: it builds the call graph, generates the train and test
    traces, selects the popular set, builds the WCG and both TRGs and
    simulates the default layout on the test trace (``run_table1``'s
    per-row body).
    A round is one row of each analog.  There is nothing to set up:
    every op is cold by design.
    """

    name = "table1-cold"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.rounds = rounds_for(self.name, seconds)
        self.miss_rates: list[float] = []

    def setup(self) -> None:
        clear_memos()

    def plan(self) -> list[Op]:
        rng = _rng(self.seed, self.name)
        ops = [Op("row", True, variant(SUITE[rng.randrange(len(SUITE))], rng))]
        for _ in range(self.rounds):
            ops.extend(Op("row", False, variant(analog, rng)) for analog in SUITE)
        return ops

    def run(self, op: Op):
        workload = op.payload
        program = workload.program
        train = workload.trace("train")
        test = workload.trace("test")
        context = build_context(train, PAPER_CACHE)
        layout = Layout.default(program)
        stats = simulate(layout, test, PAPER_CACHE)
        row = Table1Row(
            name=workload.name,
            total_size=program.total_size,
            total_count=len(program),
            popular_size=program.subset_size(context.popular),
            popular_count=len(context.popular),
            train_events=len(train),
            test_events=len(test),
            default_miss_rate=stats.miss_rate,
            avg_q_size=context.trgs.select_stats.avg_q_entries,
        )
        return row, train, test, context, layout, stats

    def check(self, op: Op, output) -> list[str]:
        row, train, test, context, layout, stats = output
        # The memos would keep every variant's traces alive.
        clear_memos()
        program = train.program
        problems = _layout_problems(layout, test, stats)
        problems += checks.check_popular(
            train.proc_indices, train.extent_lengths, program.names, context.popular
        )
        if row.total_count != op.payload.graph_params.n_procedures:
            problems.append("row procedure count is not the analog's")
        if row.popular_size != sum(program.size_of(n) for n in context.popular):
            problems.append("row popular size is not the popular set's size")
        if row.avg_q_size <= 0:
            problems.append("row has no Q occupancy")
        if not op.warmup:
            self.miss_rates.append(stats.miss_rate)
        return problems

    def miss_pct(self) -> float:
        """Mean default-layout test miss rate of the timed rows, in %."""
        return _mean_pct(self.miss_rates)

    def close(self) -> None:
        clear_memos()
        self.miss_rates = []


# ----------------------------------------------------------------------
# figure5-sweep
# ----------------------------------------------------------------------


class Figure5Sweep:
    """Section 5.1 sweep: perturb a profile, place it three ways, simulate.

    Set-up profiles go, m88ksim and vortex as the suite defines them
    (trace generation and TRG builds happen only here); their GBSC
    placements cost about 0.35, 0.9 and 1.6 s, so perturbation,
    placement and simulation each take a visible share of an op.  Each op takes
    one perturbed copy (``s = 0.1``) of one analog's profile, places it
    with PH, HKC and GBSC and simulates each layout on the test trace.
    A round is one perturbed profile of each analog; each analog's
    clean profile runs once, as warm-up, and gives the GBSC miss rate.
    """

    name = "figure5-sweep"
    analogs = (GO, M88KSIM, VORTEX)

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.rounds = rounds_for(self.name, seconds)
        self.algorithms = [make_algorithm(name) for name in ("ph", "hkc", "gbsc")]
        self.profiles: list[tuple[Any, Any]] = []
        self.clean_gbsc: dict[int, float] = {}
        self._clean_edges: dict[int, list] = {}

    def setup(self) -> None:
        self.close()
        for analog in self.analogs:
            graph = random_call_graph(analog.graph_params)
            train = generate_trace(graph, analog.train)
            test = generate_trace(graph, analog.test)
            self.profiles.append((build_context(train, PAPER_CACHE), test))

    def plan(self) -> list[Op]:
        rng = _rng(self.seed, self.name)
        ops = [Op("clean", True, (i, None)) for i in range(len(self.analogs))]
        ops.append(Op("perturbed", True, (0, _new_seed(rng))))
        for _ in range(self.rounds):
            order = list(range(len(self.analogs)))
            rng.shuffle(order)
            ops.extend(Op("perturbed", False, (i, _new_seed(rng))) for i in order)
        return ops

    def run(self, op: Op):
        index, seed = op.payload
        context, test = self.profiles[index]
        if seed is not None:
            context = context.perturbed(PAPER_SCALE, seed)
        return context, run_experiment(context, test, self.algorithms)

    @staticmethod
    def _graphs(context) -> list:
        return [context.wcg, context.trgs.select, context.trgs.place]

    def check(self, op: Op, output) -> list[str]:
        index, seed = op.payload
        context, result = output
        clean_context, test = self.profiles[index]
        problems = []
        for outcome in result.outcomes:
            problems += _layout_problems(outcome.layout, test, outcome.stats)
        if seed is None:
            self.clean_gbsc[index] = result["GBSC"].stats.miss_rate
            return problems
        clean = self._clean_edges.get(index)
        if clean is None:
            clean = self._clean_edges[index] = [
                (checks.graph_edges(g), set(g.nodes))
                for g in self._graphs(clean_context)
            ]
        for (edges, nodes), graph in zip(clean, self._graphs(context)):
            problems += checks.check_perturbation(
                edges,
                checks.graph_edges(graph),
                nodes,
                set(graph.nodes),
                scale=PAPER_SCALE,
            )
        return problems

    def miss_pct(self) -> float:
        """GBSC's test miss rate from each clean profile, mean over analogs, in %."""
        return _mean_pct(self.clean_gbsc.values())

    def close(self) -> None:
        self.profiles = []
        self.clean_gbsc = {}
        self._clean_edges = {}


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


class ServeMixed:
    """One closed-loop client against an in-process HTTP server.

    The server runs on an ephemeral port over a fresh store.  Each
    round:

    * uploads a fresh trace (a store write) and asks for its PH
      layout, a cold profile build that writes the profile to the store;
    * then, in a seeded order, re-uploads two earlier traces (dedupes)
      and asks for the fresh trace's PH, HKC and GBSC layouts, which
      read and decode the stored profile.

    With seven requests a round, the median request is a stored PH or
    HKC layout, not the midpoint between two unlike kinds.

    The client's traces are made in set-up: the warm-up round uses go's
    own train input, each timed round a new train input (a fresh trace
    seed) of go's call graph.  Go is the smallest analog, so a run holds
    many rounds and its figures do not hang on the few traces whose
    GBSC placement happens to be slow.

    The layout-quality figure is the served GBSC layout of go's own
    train input, the same request on every seed: averaged over a run's
    seeded traces it moved by 13-16 % from seed to seed, more than the
    layout changes it is there to catch.
    """

    name = "serve-mixed"

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seed = seed
        self.rounds = rounds_for(self.name, seconds)
        self.workdir = workdir
        self.server = None
        self.conn: http.client.HTTPConnection | None = None
        self.traces: list = []
        self.bodies: list[bytes] = []
        self._serving: threading.Thread | None = None
        self._store_dir: str | None = None
        self.close()

    def setup(self) -> None:
        self.close()
        rng = _rng(self.seed, self.name)
        graph = random_call_graph(GO.graph_params)
        inputs = [GO.train]
        inputs += [replace(GO.train, seed=_new_seed(rng)) for _ in range(self.rounds)]
        self.traces = [generate_trace(graph, params) for params in inputs]
        self.bodies = [encode_trace(trace) for trace in self.traces]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        self.server = make_server(
            "127.0.0.1", 0, PlacementService(LockedStore(self._store_dir))
        )
        self._serving = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self._serving.start()
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.server_address[1], timeout=170
        )

    def plan(self) -> list[Op]:
        rng = _rng(self.seed, self.name + ":requests")
        ops = []
        for r in range(self.rounds + 1):
            warm = r == 0
            fresh = [Op("upload", warm, r), Op("layout", warm, (r, "ph"))]
            stored = [Op("reupload", warm, rng.randrange(r + 1)) for _ in range(2)]
            stored += [Op("layout", warm, (r, name)) for name in ("ph", "hkc", "gbsc")]
            rng.shuffle(stored)
            ops += fresh + stored
        return ops

    def _request(self, path: str, body: bytes) -> dict:
        self.conn.request("POST", path, body=body)
        response = self.conn.getresponse()
        payload = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"POST {path} answered {response.status}: {payload}")
        return payload

    def run(self, op: Op):
        if op.kind == "layout":
            index, algorithm = op.payload
            body = json.dumps(
                {"trace": self.digests[index], "algorithm": algorithm}
            ).encode()
            return self._request("/layouts", body)
        return self._request("/traces", self.bodies[op.payload])

    @staticmethod
    def endpoint(op: Op) -> str:
        """The endpoint an op calls."""
        return "layouts" if op.kind == "layout" else "traces"

    def check(self, op: Op, output) -> list[str]:
        if op.kind == "upload":
            self.digests[op.payload] = output.get("digest")
            return checks.check_upload(output, None, deduped=False)
        if op.kind == "reupload":
            return checks.check_upload(output, self.digests[op.payload], deduped=True)
        index, algorithm = op.payload
        trace = self.traces[index]
        layout = output["layout"]
        sizes = {p["name"]: p["size"] for p in layout["program"]["procedures"]}
        addresses = layout["addresses"]
        problems = checks.check_layout(_sizes(trace.program), addresses, sizes)
        problems += checks.check_miss_stats(
            output["train"], _arrays(trace), trace.program.names, addresses
        )
        local = self._local.get(op.payload)
        if local is None:
            result = run_placement(PlacementRequest(trace=trace, algorithm=algorithm))
            local = json.loads(json.dumps(layout_to_dict(result.layout)))
            self._local[op.payload] = local
        problems += checks.check_same_layout(layout, local)
        if algorithm == "gbsc" and index == 0:
            self.gbsc_miss.append(output["train"]["miss_rate"])
        return problems

    def miss_pct(self) -> float:
        """Train miss rate of the served GBSC layout of go's own train input, in %."""
        return _mean_pct(self.gbsc_miss)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server = None
        if self._serving is not None:
            self._serving.join(timeout=30)
            self._serving = None
        if self._store_dir is not None:
            shutil.rmtree(self._store_dir, ignore_errors=True)
            self._store_dir = None
        self.digests: dict[int, str] = {}
        self.gbsc_miss: list[float] = []
        self._local = {}


def make(name: str, seed: int, seconds: float, workdir: Path):
    """The workload called *name*."""
    if name == "table1-cold":
        return Table1Cold(seed, seconds)
    if name == "figure5-sweep":
        return Figure5Sweep(seed, seconds)
    if name == "serve-mixed":
        return ServeMixed(seed, seconds, workdir)
    raise KeyError(name)

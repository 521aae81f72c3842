"""The benchmark's workloads: seeded inputs, the timed op, and an
independent oracle for every op's output.

Every input comes from the workload seed: the data, the lookup keys, the
scan ranges, the traversal start nodes, and the equivalence suite's order
and checker seed.
The program under test only ever sees the generated inputs.

A workload is run in *passes*.  A pass is a fixed multiset of ops, its
order shuffled per pass, so every seed runs the same op composition.  The
number of passes follows from ``--seconds`` and the pass's nominal
duration on the reference host (see NOTES.md), not from a clock: a run of
a given seed and length always does the same work, so its counts in
:meth:`Workload.snapshot` repeat exactly.

No oracle calls ``repro.core.transpile`` or ``repro.sql.optimize``: the
serving oracles recompute every answer in plain Python (or networkx) from
the generated rows, and the ``verify`` oracle replays each refutation
through the reference Cypher and SQL evaluators on the user transformer's
image of the counterexample graph.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import random
from array import array
from collections import Counter
from itertools import permutations
from time import perf_counter

from repro.backends.service import GraphitiService
from repro.benchmarks.suite import benchmark_suite
from repro.benchmarks.universes import SOCIAL
from repro.checkers.base import Verdict
from repro.checkers.bounded import BoundedChecker
from repro.core import equivalence
from repro.core.sdt import infer_sdt
from repro.cypher.semantics import evaluate_query as evaluate_cypher
from repro.relational.instance import Database
from repro.sql.pretty import to_sql_text
from repro.sql.semantics import evaluate_query as evaluate_sql
from repro.transformer.semantics import transform_graph

#: Rows per table of the SOCIAL data behind the serving workloads, except
#: ``FOLLOWS``: 4k edges among the first 5k users, a uniform random graph
#: with mean out-degree 0.8, below the giant-component threshold, so an
#: open ``*1..`` closure stays affordable (at degree 1.0 it takes ~1.7 s).
SOCIAL_ROWS = 20_000
FOLLOW_USERS = 5_000
FOLLOW_EDGES = 4_000
#: Reachable pairs the ``FOLLOWS`` graph is conditioned on (the median over
#: unconditioned draws is ~18.6k): of FOLLOW_DRAWS seeded draws, the one
#: whose closure is nearest.  A fixed number of draws keeps set-up work
#: the same on every seed.
FOLLOW_CLOSURE = 18_500
FOLLOW_DRAWS = 10

#: Zipf exponent of the lookup keys.  With 20k keys and the service's
#: 128-entry transpilation LRU, about 26% of ops miss the LRU: well away
#: from the 10% and 50% points where the boundary between the hit and miss
#: latency classes would land on p90 or p50.
ZIPF_EXPONENT = 1.3
LOOKUP_PASS_OPS = 250
#: Ranks get users by their number of posts (the rows a lookup returns)
#: along a fixed sequence, so that the row counts of the hot keys are the
#: same on every seed: drawn freely, the share of empty lookups ranged
#: from 15% to 52% across seeds, moving p50 by ~12%.
#: The offset puts the hottest key on one post, so that p50, which falls
#: among the LRU hits, lies inside the one-row class, not on its edge.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_OFFSET = 0.9

#: Scan texts per seed, half range scans and half grouped aggregates.
#: Widths are log-uniform from SCAN_MIN_WIDTH rows to the whole table, one
#: per stratum of equal log width: iid widths would move the median width
#: by ~25% from seed to seed.  Ranges under ~830 rows miss the planner's
#: range estimate by 8x or more and trigger feedback re-plans (stats
#: refreshes), which the lookup workload already measures; 1000 keeps
#: these ops on fetch and materialization.
SCAN_TEXTS = 80
SCAN_MIN_WIDTH = 1000

#: Traversal bounds (``None`` = open), the start nodes per bound, and the
#: ops per bound in a pass.  With the scan texts, 80 + 8 * 4 = 112 distinct
#: texts: below the LRU, so prepare is warm after the first pass.
TRAVERSE_BOUNDS = (2, 3, 4, 5, 6, 7, 8, None)
TRAVERSE_STARTS = 4
TRAVERSE_OPS_PER_BOUND = 3

#: Bounded-checker work per ``verify`` op: fixed, never cut short by time.
#: A pass checks the whole 410-benchmark suite in a seeded order: check
#: costs run from 30 to 260 ms, and a 120-benchmark sample moved p90 by
#: 7-11% (quartile spread over seeds) on sampling alone.
VERIFY_MAX_BOUND = 3
VERIFY_SAMPLES_PER_BOUND = 20

WARMUP_TEXT = "MATCH (u:USER) WHERE u.uid = 0 RETURN u.uid"


def _digest(items) -> str:
    hasher = hashlib.sha256()
    for item in sorted(items):
        hasher.update(repr(item).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


class Workload:
    """One workload: :meth:`setup`, then ops from :meth:`pass_ops`.

    :meth:`run_op` is the only call inside the timed interval; the oracle
    (:meth:`check`) and the bookkeeping (:meth:`account`) run outside it.
    """

    name = ""
    #: Nominal seconds per pass on the reference host, calibration included.
    pass_seconds = 1.0
    #: Calibration kernel units run before each op, and the ops on either
    #: side of an op over which its host slowdown is averaged.
    kernel_units = 1
    kernel_window = 1
    #: Whether the ops are much shorter than the host's switching between
    #: speeds, so that percentiles come from full-speed ops only (see
    #: ``calibrate.py``).
    short_ops = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(str(p) for p in (self.seed, self.name, *parts)))

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_seconds))

    def setup(self, phases: dict, checkpoint) -> None:
        """Generate inputs and warm up, recording ``generate_s``,
        ``load_s`` and ``spawn_s`` (the warm-up op) in *phases*, and
        calling *checkpoint* (a calibration burst) between phases."""
        raise NotImplementedError

    def pass_ops(self, index: int) -> list:
        raise NotImplementedError

    def run_op(self, op):
        raise NotImplementedError

    def op_class(self, op) -> str:
        """The op's class, by which the traced run splits its layers."""
        return self.name

    def check(self, op, result) -> bool:
        raise NotImplementedError

    def account(self, op, result) -> None:
        """Fold one op's outcome into the counters (outside the timing)."""

    def snapshot(self) -> dict:
        """The determinism counts of the ops run so far."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# -- serving workloads (GraphitiService) --------------------------------------


def user_name(uid: int) -> str:
    return f"user{uid}"


def post_title(pid: int) -> str:
    return f"post{pid}"


def social_rows(
    rng: random.Random, users: int, posts: int, follows: list[tuple], other: int
) -> dict[str, list[tuple]]:
    """Seeded SOCIAL rows as plain lists, from which the service's instance
    and the oracles' compact indexes are built; dropped after set-up.

    Each post has exactly one author (``WROTE`` row *i* targets post *i*);
    ``LIKES`` endpoints are uniform; *follows* are ``(src, dst)`` pairs.
    """
    return {
        "USER": [(uid, user_name(uid), rng.randrange(18, 80)) for uid in range(1, users + 1)],
        "POST": [(pid, post_title(pid), rng.randrange(0, 1000)) for pid in range(1, posts + 1)],
        "FOLLOWS": [(fid, src, dst) for fid, (src, dst) in enumerate(follows, start=1)],
        "WROTE": [
            (wrid, rng.randrange(1, users + 1), wrid)
            for wrid in range(1, min(other, posts) + 1)
        ],
        "LIKES": [
            (lkid, rng.randrange(1, users + 1), rng.randrange(1, posts + 1))
            for lkid in range(1, other + 1)
        ],
    }


def induced_database(rows: dict[str, list[tuple]]) -> Database:
    """The rows loaded into an induced-schema instance (the service's copy)."""
    sdt = infer_sdt(SOCIAL.graph_schema)
    database = Database(sdt.schema)
    for label, table_rows in rows.items():
        table = sdt.table_for(label)
        for row in table_rows:
            database.insert(table, list(row))
    return database


def uniform_edges(rng: random.Random, users: int, count: int) -> list[tuple[int, int]]:
    return [(rng.randrange(1, users + 1), rng.randrange(1, users + 1)) for _ in range(count)]


def closure_size(edges: list[tuple[int, int]]) -> int:
    """Reachable (source, target) pairs, source excluded from its own set
    (plain BFS: this shapes the input, it is not the traversal oracle)."""
    successors: dict[int, list[int]] = {}
    for source, target in edges:
        successors.setdefault(source, []).append(target)
    total = 0
    for source in successors:
        seen = {source}
        frontier = [source]
        while frontier:
            frontier = [
                target
                for node in frontier
                for target in successors.get(node, ())
                if target not in seen and not seen.add(target)
            ]
            total += len(frontier)
    return total


def bag(rows) -> Counter:
    return Counter(tuple(row) for row in rows)


class ServingWorkload(Workload):
    """Shared set-up and accounting for workloads served by
    :class:`GraphitiService` in its default configuration."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.service: GraphitiService | None = None

    def setup(self, phases: dict, checkpoint) -> None:
        start = perf_counter()
        rng = self.rng("data")
        follows = self.follow_edges(rng)
        rows = social_rows(rng, SOCIAL_ROWS, SOCIAL_ROWS, follows, SOCIAL_ROWS)
        # The oracles keep compact indexes only, and build them before the
        # program's instance exists, so that peak RSS is mostly the
        # program's: the rows themselves are dropped here.
        self.prepare_inputs(rows)
        database = induced_database(rows)
        del rows
        phases["generate_s"] = perf_counter() - start
        checkpoint()
        start = perf_counter()
        self.service = GraphitiService(SOCIAL.graph_schema)
        self.service.load_database(database)
        phases["load_s"] = perf_counter() - start
        checkpoint()
        start = perf_counter()
        warm, _ = self.service.serve(WARMUP_TEXT)
        phases["spawn_s"] = perf_counter() - start
        if warm.rows:
            raise RuntimeError("warm-up lookup of a missing key returned rows")
        self._misses_at_start = self._prepare_misses()
        self._replans_at_start = self._replans()
        self.ops = 0
        self.rows_returned = 0
        self.sql_pairs: set[tuple[str, str]] = set()

    def follow_edges(self, rng: random.Random) -> list[tuple[int, int]]:
        return uniform_edges(rng, FOLLOW_USERS, FOLLOW_EDGES)

    def prepare_inputs(self, rows: dict[str, list[tuple]]) -> None:
        """Build the op texts and the oracles' indexes from *rows*."""
        raise NotImplementedError

    def run_op(self, text: str):
        return self.service.serve(text)

    def check(self, text: str, result) -> bool:
        table, _ = result
        return bag(table.rows) == self.expected(text)

    def expected(self, text: str) -> Counter:
        raise NotImplementedError

    def account(self, text: str, result) -> None:
        table, prepared = result
        self.ops += 1
        self.rows_returned += len(table.rows)
        self.sql_pairs.add((text, prepared.sql_text))

    def _prepare_misses(self) -> float:
        counter = self.service.metrics.get("repro_transpile_cache_total")
        return counter.value(tier="memory", result="miss") if counter else 0.0

    def _replans(self) -> float:
        counter = self.service.metrics.get("repro_plan_replans_total")
        return counter.total() if counter else 0.0

    def snapshot(self) -> dict:
        return {
            "ops": self.ops,
            "prepare_misses": int(self._prepare_misses() - self._misses_at_start),
            "replans": int(self._replans() - self._replans_at_start),
            "rows_returned": self.rows_returned,
            "sql_digest": _digest(self.sql_pairs),
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


class LookupWorkload(ServingWorkload):
    """Zipf-skewed point 1-hop lookups: many distinct texts, tiny results."""

    name = "lookup"
    pass_seconds = 0.6
    kernel_units = 2
    kernel_window = 3
    short_ops = True

    def prepare_inputs(self, rows: dict[str, list[tuple]]) -> None:
        # (author, post) pairs sorted by author: a user's posts are a slice.
        authored = sorted((author, pid) for _, author, pid in rows["WROTE"])
        self.authors = array("i", (author for author, _ in authored))
        self.authored = array("i", (pid for _, pid in authored))
        self.ranked = array("i", self.rank_users(rows))
        self.cumulative = array("d", itertools.accumulate(
            1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(self.ranked) + 1)
        ))

    def rank_users(self, rows: dict[str, list[tuple]]) -> list[int]:
        """Users by Zipf rank.  Rank *r* gets a seeded user whose post count
        is the Poisson(1) quantile of the *r*-th golden-ratio point (the
        nearest count with users left once a count runs out)."""
        posts = Counter(author for _, author, _ in rows["WROTE"])
        rng = self.rng("ranks")
        by_count: dict[int, list[int]] = {}
        for uid, _, _ in rows["USER"]:
            by_count.setdefault(posts[uid], []).append(uid)
        for users in by_count.values():
            rng.shuffle(users)
        cdf = list(itertools.accumulate(math.exp(-1.0) / math.factorial(k) for k in range(12)))
        ranked = []
        for rank in range(len(rows["USER"])):
            want = bisect.bisect_left(cdf, (rank + GOLDEN_OFFSET) * GOLDEN % 1.0)
            count = min(
                (count for count, users in by_count.items() if users),
                key=lambda count: (abs(count - want), count),
            )
            ranked.append(by_count[count].pop())
        return ranked

    @staticmethod
    def text(uid: int) -> str:
        return (
            "MATCH (u:USER)-[w:WROTE]->(p:POST) "
            f"WHERE u.uid = {uid} RETURN u.uname, p.pid, p.title"
        )

    def pass_ops(self, index: int) -> list:
        """One key per equal-probability stratum of the Zipf law, shuffled.

        The ranks drawn and their order are the same on every seed; the
        seed decides which user holds each rank, and the data.  Drawn per
        seed, the ranks' tail varied the number of texts the feedback loop
        re-plans (126-142 refreshes in a run), and the refreshes take
        three quarters of the run, so ops/s moved by ~6% with the seed.
        """
        rng = random.Random(f"{self.name}:pass:{index}")
        total = self.cumulative[-1]
        ops = [
            self.text(
                self.ranked[
                    bisect.bisect_left(
                        self.cumulative, (slot + rng.random()) / LOOKUP_PASS_OPS * total
                    )
                ]
            )
            for slot in range(LOOKUP_PASS_OPS)
        ]
        rng.shuffle(ops)
        return ops

    def expected(self, text: str) -> Counter:
        uid = int(text.split("u.uid = ")[1].split()[0])
        low = bisect.bisect_left(self.authors, uid)
        high = bisect.bisect_right(self.authors, uid)
        return bag(
            (user_name(uid), pid, post_title(pid)) for pid in self.authored[low:high]
        )


class ScanTraverseWorkload(ServingWorkload):
    """Large engine work per op: range scans and grouped aggregates with a
    continuous spread of widths up to the whole 20k-row table, and bounded
    ``*1..k`` / open ``*1..`` FOLLOWS traversals from seeded start nodes."""

    name = "scan-traverse"
    pass_seconds = 3.3
    kernel_units = 25
    kernel_window = 5

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.unrolled_ops = 0
        self.traversal_ops = 0

    def follow_edges(self, rng: random.Random) -> list[tuple[int, int]]:
        """Uniform random edges: the draw whose transitive closure is
        nearest FOLLOW_CLOSURE.  The closure of a single draw varies by
        ~10% (quartile spread) from seed to seed, and every traversal
        plan's work grows with it."""
        draws = [uniform_edges(rng, FOLLOW_USERS, FOLLOW_EDGES) for _ in range(FOLLOW_DRAWS)]
        return min(draws, key=lambda edges: abs(closure_size(edges) - FOLLOW_CLOSURE))

    def prepare_inputs(self, rows: dict[str, list[tuple]]) -> None:
        users = rows["USER"]
        count = len(users)
        scores = array("i", [0] * (len(rows["POST"]) + 1))
        for pid, _, score in rows["POST"]:
            scores[pid] = score
        # Indexed by uid: age, posts written and their best score (-1: none).
        self.ages = array("i", [0] * (count + 1))
        for uid, _, age in users:
            self.ages[uid] = age
        self.post_counts = array("i", [0] * (count + 1))
        self.best_scores = array("i", [-1] * (count + 1))
        for _, author, pid in rows["WROTE"]:
            self.post_counts[author] += 1
            self.best_scores[author] = max(self.best_scores[author], scores[pid])
        rng = self.rng("ranges")
        self.scans: dict[str, tuple[str, int, int]] = {}
        low_log, high_log = math.log(SCAN_MIN_WIDTH), math.log(count)
        for index in range(SCAN_TEXTS):
            stratum = (index // 2 + rng.random()) / (SCAN_TEXTS // 2)
            width = round(math.exp(low_log + stratum * (high_log - low_log)))
            low = rng.randint(1, count - width + 1)
            if index % 2 == 0:
                kind, returns = "range", "RETURN u.uid, u.uname, u.age"
                pattern = "MATCH (u:USER)"
            else:
                kind, returns = "group", "RETURN u.uid, count(*), max(p.score)"
                pattern = "MATCH (u:USER)-[w:WROTE]->(p:POST)"
            text = f"{pattern} WHERE u.uid >= {low} AND u.uid < {low + width} {returns}"
            self.scans[text] = (kind, low, low + width)
        import networkx

        self.graph = networkx.DiGraph()
        self.graph.add_nodes_from(range(1, FOLLOW_USERS + 1))
        self.graph.add_edges_from((src, dst) for _, src, dst in rows["FOLLOWS"])
        followers = sorted({src for _, src, _ in rows["FOLLOWS"]})
        rng = self.rng("starts")
        self.traversals: dict[str, tuple[int, int | None]] = {}
        for hops in TRAVERSE_BOUNDS:
            bound = "" if hops is None else str(hops)
            for start in rng.sample(followers, TRAVERSE_STARTS):
                text = (
                    f"MATCH (a:USER)-[:FOLLOWS*1..{bound}]->(b:USER) "
                    f"WHERE a.uid = {start} RETURN b.uid"
                )
                self.traversals[text] = (start, hops)
        # Every traversal's answer up front, so the graph can be dropped.
        self.reach = {text: self.reachable(text) for text in self.traversals}
        self.graph = None

    def pass_ops(self, index: int) -> list:
        ops = list(self.scans)
        by_bound: dict[int | None, list[str]] = {}
        for text, (_, hops) in self.traversals.items():
            by_bound.setdefault(hops, []).append(text)
        for texts in by_bound.values():
            ops.extend(
                texts[(index * TRAVERSE_OPS_PER_BOUND + slot) % len(texts)]
                for slot in range(TRAVERSE_OPS_PER_BOUND)
            )
        self.rng("pass", index).shuffle(ops)
        return ops

    def op_class(self, text: str) -> str:
        return "traverse" if text in self.traversals else "scan"

    def expected(self, text: str) -> Counter:
        if text in self.traversals:
            return self.reach[text]
        kind, low, high = self.scans[text]
        if kind == "range":
            return bag((uid, user_name(uid), self.ages[uid]) for uid in range(low, high))
        return bag(
            (uid, self.post_counts[uid], self.best_scores[uid])
            for uid in range(low, high)
            if self.post_counts[uid]
        )

    def reachable(self, text: str) -> Counter:
        """Distinct nodes at the end of a walk of 1..k hops from the start.

        A node other than the start qualifies when its shortest distance is
        within the bound; the start itself only when a cycle leads back to
        it, i.e. one of its predecessors is within ``k - 1`` hops.
        """
        import networkx

        start, hops = self.traversals[text]
        distance = networkx.single_source_shortest_path_length(self.graph, start, cutoff=hops)
        reached = {node for node, hop in distance.items() if hop >= 1}
        if any(
            predecessor in distance and (hops is None or distance[predecessor] < hops)
            for predecessor in self.graph.predecessors(start)
        ):
            reached.add(start)
        return bag((node,) for node in reached)

    def account(self, text: str, result) -> None:
        super().account(text, result)
        _, prepared = result
        plan = prepared.plan
        if text in self.traversals and plan is not None:
            self.traversal_ops += 1
            if any(t.choice == "unrolled" for t in plan.traversals):
                self.unrolled_ops += 1

    def snapshot(self) -> dict:
        return {
            **super().snapshot(),
            "traversal_ops": self.traversal_ops,
            "unrolled_ops": self.unrolled_ops,
        }


# -- verify: the paper's own use ---------------------------------------------


def _separates(left, right) -> bool:
    """True when no column bijection makes the two tables equal
    (Definition 4.4: bags, or lists when either side is ordered)."""
    if len(left.attributes) != len(right.attributes) or len(left.rows) != len(right.rows):
        return True
    ordered = left.ordered or right.ordered
    left_rows = [tuple(row) for row in left.rows]
    left_bag = Counter(left_rows)
    for mapping in permutations(range(len(right.attributes))):
        mapped = [tuple(row[i] for i in mapping) for row in right.rows]
        if (mapped == left_rows) if ordered else (Counter(mapped) == left_bag):
            return False
    return True


class VerifyWorkload(Workload):
    """``check_equivalence`` with the bounded checker over the whole
    410-benchmark suite in a seeded order.  No backend is involved."""

    name = "verify"
    pass_seconds = 11.2
    kernel_units = 15
    kernel_window = 5

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.instances_checked = 0
        self.refuted = 0
        self.missed_refutations = 0
        self.outcomes: list[tuple] = []

    def setup(self, phases: dict, checkpoint) -> None:
        start = perf_counter()
        self.suite = suite = benchmark_suite()
        self.checker = BoundedChecker(
            max_bound=VERIFY_MAX_BOUND,
            samples_per_bound=VERIFY_SAMPLES_PER_BOUND,
            time_budget_seconds=math.inf,
            seed=self.rng("checker").randrange(2**31),
        )
        phases["generate_s"] = perf_counter() - start
        checkpoint()
        start = perf_counter()
        for benchmark in suite:
            benchmark.cypher_query, benchmark.sql_query, benchmark.transformer
        phases["load_s"] = perf_counter() - start
        checkpoint()
        start = perf_counter()
        self.run_op(suite[-1])
        phases["spawn_s"] = perf_counter() - start

    def pass_ops(self, index: int) -> list:
        ops = list(self.suite)
        self.rng("pass", index).shuffle(ops)
        return ops

    def run_op(self, benchmark):
        return equivalence.check_equivalence(
            benchmark.graph_schema,
            benchmark.cypher_query,
            benchmark.relational_schema,
            benchmark.sql_query,
            benchmark.transformer,
            self.checker,
        )

    def check(self, benchmark, result) -> bool:
        if result.verdict not in (Verdict.NOT_EQUIVALENT, Verdict.BOUNDED_EQUIVALENT):
            return False
        if result.verdict is Verdict.BOUNDED_EQUIVALENT:
            return True
        if benchmark.expected_equivalent or result.counterexample is None:
            return False
        graph = result.counterexample.graph
        target = transform_graph(benchmark.transformer, graph, benchmark.relational_schema)
        return _separates(
            evaluate_cypher(benchmark.cypher_query, graph),
            evaluate_sql(benchmark.sql_query, target),
        )

    def account(self, benchmark, result) -> None:
        self.instances_checked += result.outcome.instances_checked
        if result.verdict is Verdict.NOT_EQUIVALENT:
            self.refuted += 1
        elif not benchmark.expected_equivalent:
            self.missed_refutations += 1
        self.outcomes.append(
            (
                benchmark.id,
                result.verdict.value,
                result.outcome.instances_checked,
                to_sql_text(result.transpiled, result.sdt.schema, optimized=False),
            )
        )

    def snapshot(self) -> dict:
        return {
            "instances_checked": self.instances_checked,
            "refuted": self.refuted,
            "missed_refutations": self.missed_refutations,
            "sql_digest": _digest(self.outcomes),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (LookupWorkload, ScanTraverseWorkload, VerifyWorkload)
}

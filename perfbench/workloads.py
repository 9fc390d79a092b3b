"""The benchmark's three workloads: generated inputs, operations, oracles.

Each workload generates its rows from the seed, builds its database(s)
with default :class:`~repro.Database` settings, and plans its operations
in whole rounds from the seed; every epoch of a run builds from the same
rows and runs the same operations.  Every operation carries its expected
result, computed before anything is timed from an independent oracle:

* ``oltp`` — a Python model of balances and order ids;
* ``analytic`` and ``sharded`` — stdlib :mod:`sqlite3` loaded with the same
  rows (and, for ``sharded``, kept in step with the planned inserts).

An operation is ``Op(kind, sql, params, expected, ordered)``: ``kind`` is
``"read"``, ``"write"``, or ``"probe"`` for a write that is run and checked
in sequence but measured apart from the workload's own operations; ``sql``
is ``None`` for a bulk ``insert_many`` of the rows in ``params``, whose
expected result is the row count.
"""

from __future__ import annotations

import random
import string
from typing import Dict, List, NamedTuple, Optional

from repro import Database
from repro.workloads import zipf_int

from oracle import SqliteOracle

#: Rows per ``insert_many`` call when loading a relation.
LOAD_BATCH = 500


class Op(NamedTuple):
    kind: str
    sql: Optional[str]
    params: object
    expected: object
    ordered: bool = False


def _text(rng: random.Random, low: int, high: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase)
                   for __ in range(rng.randint(low, high)))


def _jitter(rng: random.Random, base: int) -> int:
    """A row count within 2% above ``base``, drawn from the seed."""
    return base + rng.randrange(base // 50 + 1)


def _plan_seed(seed: int, stream: int) -> int:
    """The seed of one random stream of the plan."""
    return seed * 7919 + stream


def _load(relation, rows: List[tuple]) -> None:
    for start in range(0, len(rows), LOAD_BATCH):
        relation.insert_many(rows[start:start + LOAD_BATCH])


class Workload:
    """Common shape: ``build`` (timed as set-up), ``plan``, ``restart``,
    ``final_checks``; ``databases`` lists every database of the workload."""

    name = ""
    #: Rounds per ``--seconds`` second; sets the fixed amount of work so
    #: that one run measures about ``--seconds`` on the reference machine.
    rounds_per_second = 1.0
    warmup_rounds = 1

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.small = small
        self.db: Optional[Database] = None

    def databases(self) -> List[Database]:
        return [self.db]

    def execute(self, op: Op):
        if op.sql is None:
            return len(self.bulk_target().insert_many(op.params))
        return self.db.execute(op.sql, op.params)

    def bulk_target(self):
        raise NotImplementedError

    def restart(self) -> None:
        self.db.restart()

    def drop(self) -> None:
        """Forget the built database(s) before the next build."""
        self.db = None


class Oltp(Workload):
    """Autocommit point reads and writes on customer/orders."""

    name = "oltp"
    rounds_per_second = 130.0
    warmup_rounds = 10
    #: Operations of one round (shuffled per round): 50% point SELECT,
    #: 25% UPDATE, 20% INSERT of a new order, 5% DELETE of a recent order.
    ROUND = (["read_customer"] * 8 + ["read_order"] * 2 + ["update"] * 5
             + ["insert"] * 4 + ["delete"])
    ZIPF_ALPHA = 1.1
    RECENT = 20         # a DELETE picks one of the newest live orders
    READ_WINDOW = 200   # an order read picks one of the newest live orders

    def __init__(self, seed: int, small: bool):
        super().__init__(seed, small)
        rng = random.Random(seed)
        self.n_customers = 200 if small else 1000
        n_orders = _jitter(rng, 400 if small else 2000)
        self.customers = [(i, _text(rng, 6, 24), rng.randrange(0, 10_000))
                          for i in range(1, self.n_customers + 1)]
        self.orders = [(o, rng.randint(1, self.n_customers),
                        rng.randint(1, 500))
                       for o in range(1, n_orders + 1)]
        # The final state, filled in by plan().
        self.model_customers: Dict[int, tuple] = {}
        self.model_orders: Dict[int, tuple] = {}

    def build(self) -> None:
        db = Database()
        customer = db.create_table("customer", [
            ("id", "INT", False), ("name", "STRING"), ("balance", "INT")])
        orders = db.create_table("orders", [
            ("oid", "INT", False), ("cust", "INT", False),
            ("amount", "INT")])
        _load(customer, self.customers)
        _load(orders, self.orders)
        db.create_index("customer_id", "customer", ["id"], unique=True)
        db.create_index("orders_oid", "orders", ["oid"], unique=True)
        db.create_attachment("orders", "referential", "orders_cust",
                             {"parent": "customer", "columns": ["cust"],
                              "parent_columns": ["id"]})
        db.add_check("orders_amount", "orders", "amount > 0")
        db.checkpoint()
        self.db = db

    def plan(self, rounds: int) -> List[Op]:
        rng = random.Random(_plan_seed(self.seed, 1))
        customers = {row[0]: row for row in self.customers}
        orders = {row[0]: row for row in self.orders}
        live = sorted(orders)
        next_oid = live[-1] + 1
        # Zipf ranks map to customer ids through a seeded permutation so
        # the hot customers are spread over the heap's pages.
        ids = list(customers)
        rng.shuffle(ids)
        per_round = self.ROUND.count("read_customer") \
            + self.ROUND.count("update") + self.ROUND.count("insert")
        ranks = iter(zipf_int(rounds * per_round, self.ZIPF_ALPHA,
                              self.n_customers,
                              seed=_plan_seed(self.seed, 0)))
        ops: List[Op] = []
        for __ in range(rounds):
            kinds = list(self.ROUND)
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "read_customer":
                    key = ids[next(ranks) - 1]
                    ops.append(Op("read", "SELECT id, name, balance FROM "
                                  "customer WHERE id = :k", {"k": key},
                                  [customers[key]]))
                elif kind == "read_order":
                    oid = rng.choice(live[-self.READ_WINDOW:])
                    ops.append(Op("read", "SELECT oid, cust, amount FROM "
                                  "orders WHERE oid = :o", {"o": oid},
                                  [orders[oid]]))
                elif kind == "update":
                    key = ids[next(ranks) - 1]
                    delta = rng.randint(-50, 50)
                    ident, name, balance = customers[key]
                    customers[key] = (ident, name, balance + delta)
                    ops.append(Op("write", "UPDATE customer SET balance = "
                                  "balance + :d WHERE id = :k",
                                  {"d": delta, "k": key}, 1))
                elif kind == "insert":
                    row = (next_oid, ids[next(ranks) - 1],
                           rng.randint(1, 500))
                    next_oid += 1
                    orders[row[0]] = row
                    live.append(row[0])
                    ops.append(Op("write", "INSERT INTO orders VALUES "
                                  "(:o, :c, :a)",
                                  {"o": row[0], "c": row[1], "a": row[2]}, 1))
                else:
                    oid = rng.choice(live[-self.RECENT:])
                    del orders[oid]
                    live.remove(oid)
                    ops.append(Op("write", "DELETE FROM orders WHERE "
                                  "oid = :o", {"o": oid}, 1))
        self.model_customers = customers
        self.model_orders = orders
        return ops

    def final_checks(self) -> List[Op]:
        """Post-restart: every committed write is present, nothing else."""
        return [Op("read", "SELECT id, name, balance FROM customer", None,
                   sorted(self.model_customers.values())),
                Op("read", "SELECT oid, cust, amount FROM orders", None,
                   sorted(self.model_orders.values()))]

    def row_count(self) -> int:
        return len(self.model_customers) + len(self.model_orders)


class Analytic(Workload):
    """Read-only scans, aggregates and a join over a relation several times
    the buffer pool, with index range probes."""

    name = "analytic"
    rounds_per_second = 1.1
    DEPARTMENTS = 20
    EMPLOYEE = [("id", "INT", False), ("name", "STRING"), ("dept_no", "INT"),
                ("salary", "INT"), ("bonus", "FLOAT"), ("active", "BOOL"),
                ("note", "STRING")]
    DEPARTMENT = [("dno", "INT", False), ("dname", "STRING"),
                  ("budget", "INT")]
    #: The query shapes, run round-robin; params are drawn per round.
    SHAPES = (
        ("filter", "SELECT id, name, salary FROM employee "
                   "WHERE salary > :s AND dept_no = :d", False),
        ("group", "SELECT dept_no, COUNT(*), SUM(salary), AVG(bonus), "
                  "MIN(salary), MAX(salary) FROM employee "
                  "WHERE bonus > :b GROUP BY dept_no", False),
        ("expr", "SELECT dept_no, SUM(salary * 12 + bonus), "
                 "AVG(salary - bonus) FROM employee "
                 "WHERE dept_no <> :d GROUP BY dept_no", False),
        ("join", "SELECT department.dname, COUNT(*), SUM(employee.salary) "
                 "FROM employee JOIN department "
                 "ON employee.dept_no = department.dno "
                 "WHERE employee.bonus < :b GROUP BY dname", False),
        ("topk", "SELECT id, name, salary FROM employee WHERE dept_no = :d "
                 "ORDER BY salary DESC LIMIT 10", True),
        ("range", "SELECT id, name, salary FROM employee "
                  "WHERE id BETWEEN :lo AND :hi", False),
    )
    #: Shapes per round: two range probes make seven operations, so the
    #: median latency falls inside one shape's samples rather than on the
    #: edge between two.
    ROUND = ("filter", "group", "expr", "join", "topk", "range", "range")
    RANGE_WIDTH = 300
    PROBE = "UPDATE employee SET bonus = bonus + :d WHERE id = :k"
    PROBES_PER_ROUND = 180
    PROBE_WINDOW = 200

    def __init__(self, seed: int, small: bool):
        super().__init__(seed, small)
        rng = random.Random(seed)
        n = _jitter(rng, 1000 if small else 8000)
        self.n_employees = n
        departments = 8 if small else self.DEPARTMENTS
        self.departments = [(d, f"dept_{d:02d}_{_text(rng, 2, 6)}",
                             rng.randrange(100_000, 900_000))
                            for d in range(departments)]
        salaries = rng.sample(range(30_000, 230_000), n)  # unique: no ties
        self.employees = [
            (i, _text(rng, 6, 20), rng.randrange(departments), salaries[i - 1],
             round(rng.uniform(0.0, 5000.0), 2), rng.random() < 0.9,
             _text(rng, 300, 400))
            for i in range(1, n + 1)]
        self.oracle: Optional[SqliteOracle] = None

    def build(self) -> None:
        db = Database()
        department = db.create_table("department", self.DEPARTMENT)
        employee = db.create_table("employee", self.EMPLOYEE)
        _load(department, self.departments)
        _load(employee, self.employees)
        db.create_index("employee_id", "employee", ["id"], unique=True)
        db.checkpoint()
        self.db = db

    def plan(self, rounds: int) -> List[Op]:
        rng = random.Random(_plan_seed(self.seed, 2))
        oracle = self.oracle = SqliteOracle()
        oracle.create("department", self.DEPARTMENT)
        oracle.create("employee", self.EMPLOYEE)
        oracle.insert("department", self.departments)
        oracle.insert("employee", self.employees)
        departments = len(self.departments)
        shapes = {shape: (sql, ordered) for shape, sql, ordered in self.SHAPES}
        # The probe's keys come from one window of ids: its pages stay
        # cached, so its median is a cached update, not the edge between
        # cached and missed ones.
        window = rng.randint(1, self.n_employees - self.PROBE_WINDOW)
        probes = self.PROBES_PER_ROUND // (10 if self.small else 1)
        ops: List[Op] = []
        for __ in range(rounds):
            for shape in self.ROUND:
                sql, ordered = shapes[shape]
                # Parameters move the result, not the work: every shape but
                # the range probe scans the whole relation, and each
                # filter's selectivity stays within a few percent.
                if shape == "filter":
                    params = {"s": rng.randrange(190_000, 200_000),
                              "d": rng.randrange(departments)}
                elif shape == "group":
                    params = {"b": rng.randrange(0, 100)}
                elif shape == "expr":
                    params = {"d": rng.randrange(departments)}
                elif shape == "join":
                    params = {"b": rng.randrange(4900, 5000)}
                elif shape == "topk":
                    params = {"d": rng.randrange(departments)}
                else:
                    low = rng.randint(1, self.n_employees - self.RANGE_WIDTH)
                    params = {"lo": low, "hi": low + self.RANGE_WIDTH - 1}
                ops.append(Op("read", sql, params, oracle.query(sql, params),
                              ordered))
            # The reads have no writes to time, so each round ends with
            # single-row UPDATEs measured apart: ``write_p50_ms`` here, and
            # what restart recovers.  Spread over the run, they see the
            # same host as the reads.
            for __ in range(probes):
                params = {"d": rng.randint(1, 100),
                          "k": rng.randint(window,
                                           window + self.PROBE_WINDOW - 1)}
                oracle.conn.execute(self.PROBE, params)
                ops.append(Op("probe", self.PROBE, params, 1))
        return ops

    def final_checks(self) -> List[Op]:
        """Post-restart contents.  The plan's answers are then all taken,
        so its oracle is closed: it would count in ``peak_rss_mb``."""
        oracle, self.oracle = self.oracle, None
        checks = []
        for table, columns in (("department", self.DEPARTMENT),
                               ("employee", self.EMPLOYEE)):
            sql = (f"SELECT {', '.join(col[0] for col in columns)} "
                   f"FROM {table}")
            checks.append(Op("read", sql, None, oracle.query(sql)))
        oracle.close()
        return checks

    def row_count(self) -> int:
        return len(self.departments) + len(self.employees)


class Sharded(Workload):
    """Pushdown queries, partition-key lookups and 2PC bulk inserts on a
    hash-partitioned relation over four child databases."""

    name = "sharded"
    rounds_per_second = 0.8
    SHARDS = 4
    SALES = [("id", "INT", False), ("region", "STRING"), ("product", "INT"),
             ("amount", "INT"), ("qty", "INT")]
    REGIONS = 8
    PRODUCTS = 50
    INSERT_ROWS = 200
    LOOKUPS = 5
    GROUPED = ("SELECT region, COUNT(*), SUM(amount), AVG(amount), "
               "MIN(qty), MAX(qty) FROM sales WHERE qty > :q "
               "GROUP BY region", False)
    #: The pushdown queries of one round.  The grouped aggregate, the
    #: slowest, runs twice (1/6 of the operations), so that the p95
    #: latency falls inside its samples rather than on their lower edge.
    QUERIES = (
        GROUPED,
        GROUPED,
        ("SELECT COUNT(*), MIN(amount), MAX(amount) FROM sales "
         "WHERE product = :p", False),
        ("SELECT id, amount FROM sales WHERE region = :r "
         "ORDER BY amount DESC, id LIMIT 10", True),
        ("SELECT id, region, amount FROM sales "
         "WHERE amount > :a AND qty = :q", False),
    )
    LOOKUP = ("SELECT id, region, product, amount, qty FROM sales "
              "WHERE id = :k")

    def __init__(self, seed: int, small: bool):
        super().__init__(seed, small)
        rng = random.Random(seed)
        self.n_rows = _jitter(rng, 800 if small else 8000)
        self.regions = [f"region_{r}_{_text(rng, 1, 4)}"
                        for r in range(self.REGIONS)]
        self.rows = [self._row(rng, i) for i in range(1, self.n_rows + 1)]
        self.children: List[Database] = []
        self.oracle: Optional[SqliteOracle] = None
        self.final_rows = 0

    def _row(self, rng: random.Random, ident: int) -> tuple:
        return (ident, rng.choice(self.regions), rng.randrange(self.PRODUCTS),
                rng.randint(1, 10_000), rng.randint(1, 20))

    def databases(self) -> List[Database]:
        return [self.db] + self.children

    def build(self) -> None:
        children = [Database() for __ in range(self.SHARDS)]
        db = Database()
        sales = db.create_table("sales", self.SALES,
                                storage_method="sharded",
                                attributes={"databases": children,
                                            "child_statistics": True})
        _load(sales, self.rows)
        for each in [db] + children:
            each.checkpoint()
        self.db, self.children = db, children

    def drop(self) -> None:
        self.db, self.children = None, []

    def bulk_target(self):
        return self.db.table("sales")

    def restart(self) -> None:
        """Crash and restart the whole cluster: every child, then the
        coordinator, then re-deliver surviving commit decisions."""
        for child in self.children:
            child.restart()
        self.db.restart()
        self.db.resolve_indoubt()

    def plan(self, rounds: int) -> List[Op]:
        rng = random.Random(_plan_seed(self.seed, 3))
        oracle = SqliteOracle()
        oracle.create("sales", self.SALES)
        oracle.insert("sales", self.rows)
        next_id = self.n_rows + 1
        ops: List[Op] = []
        for __ in range(rounds):
            kinds = (["query"] * len(self.QUERIES) + ["lookup"] * self.LOOKUPS
                     + ["insert"] * 2)
            rng.shuffle(kinds)
            queries = iter(self.QUERIES)
            for kind in kinds:
                if kind == "insert":
                    batch = [self._row(rng, i) for i in
                             range(next_id, next_id + self.INSERT_ROWS)]
                    next_id += self.INSERT_ROWS
                    oracle.insert("sales", batch)
                    ops.append(Op("write", None, batch, len(batch)))
                    continue
                if kind == "lookup":
                    sql, ordered = self.LOOKUP, False
                    params = {"k": rng.randint(1, next_id - 1)}
                else:
                    sql, ordered = next(queries)
                    params = {"q": rng.randint(1, 3),
                              "p": rng.randrange(self.PRODUCTS),
                              "r": rng.choice(self.regions),
                              "a": rng.randint(9000, 9900)}
                    if "qty = :q" in sql:
                        params["q"] = rng.randint(1, 20)
                    params = {k: v for k, v in params.items()
                              if f":{k}" in sql}
                ops.append(Op("read", sql, params, oracle.query(sql, params),
                              ordered))
        self.oracle = oracle
        self.final_rows = next_id - 1
        return ops

    def final_checks(self) -> List[Op]:
        """Post-restart contents; closes the plan's oracle, as
        :meth:`Analytic.final_checks` does."""
        oracle, self.oracle = self.oracle, None
        sql = "SELECT id, region, product, amount, qty FROM sales"
        checks = [Op("read", sql, None, oracle.query(sql))]
        oracle.close()
        return checks

    def row_count(self) -> int:
        return self.final_rows


WORKLOADS = {cls.name: cls for cls in (Oltp, Analytic, Sharded)}

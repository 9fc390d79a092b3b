"""Independent oracles and the one place their tolerances are declared.

The engine's answers are compared with stdlib :mod:`sqlite3` running the
same SQL over the same generated rows (``analytic``, ``sharded``) or with a
Python model of the expected state (``oltp``).  Known, benign differences
between the two engines are declared here once:

* floating-point SUM/AVG may be accumulated in another order, so numbers
  compare equal within a relative tolerance of :data:`FLOAT_REL_TOL`;
* a result without ORDER BY has no defined row order, so such results are
  compared as sorted lists;
* sqlite stores booleans as 0/1, which compare equal to ``False``/``True``.
"""

from __future__ import annotations

import math
import sqlite3
from typing import Iterable, List, Optional, Sequence

#: Relative tolerance for float results (summation order differs).
FLOAT_REL_TOL = 1e-9

_SQLITE_TYPES = {"INT": "INTEGER", "FLOAT": "REAL", "STRING": "TEXT",
                 "BOOL": "INTEGER"}


def _sort_key(row):
    # NULLs sort first; every other value sorts by (type name, value) so
    # rows of mixed int/float values order the same way on both sides.
    return tuple((0, "", 0) if v is None else
                 (1, "n", float(v)) if isinstance(v, (int, float)) else
                 (1, type(v).__name__, v) for v in row)


def _value_equal(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=1e-9)
    return a == b


def rows_equal(actual: Optional[Sequence], expected: Sequence,
               ordered: bool) -> bool:
    """Whether an engine result matches the oracle's, under the declared
    tolerances (``ordered`` is False for results without ORDER BY)."""
    if actual is None or len(actual) != len(expected):
        return False
    if not ordered:
        actual = sorted(actual, key=_sort_key)
        expected = sorted(expected, key=_sort_key)
    for row_a, row_e in zip(actual, expected):
        if len(row_a) != len(row_e):
            return False
        if not all(_value_equal(a, e) for a, e in zip(row_a, row_e)):
            return False
    return True


class SqliteOracle:
    """An in-memory sqlite database loaded with the workload's rows."""

    def __init__(self):
        self.conn = sqlite3.connect(":memory:")

    def create(self, name: str, columns: Iterable[tuple]) -> None:
        cols = ", ".join(f"{col[0]} {_SQLITE_TYPES[col[1]]}"
                         for col in columns)
        self.conn.execute(f"CREATE TABLE {name} ({cols})")

    def insert(self, name: str, rows: List[tuple]) -> None:
        if rows:
            marks = ", ".join("?" * len(rows[0]))
            self.conn.executemany(f"INSERT INTO {name} VALUES ({marks})",
                                  rows)

    def query(self, sql: str, params: Optional[dict] = None) -> List[tuple]:
        return [tuple(row) for row in
                self.conn.execute(sql, params or {}).fetchall()]

    def close(self) -> None:
        self.conn.close()

"""A deterministic TPC-H-like data generator (stands in for dbgen).

The official ``dbgen`` is not available offline, so this module generates
the four tables the evaluation needs — ``lineitem``, ``orders``,
``customer``, ``nation`` — with the schema elements and value
distributions that queries Q1, Q3, Q10, and Q12 exercise:

* pk-fk relationships (customer ← orders ← lineitem, nation ← customer),
* 1-7 lineitems per order,
* Q1's four (returnflag, linestatus) groups with the paper's highly skewed
  proportions (≈48% / 24% / 24% / 0.06%, Section 6.4),
* date windows such that the paper's predicates hit realistic
  selectivities (Q1 ≈98%, Q3/Q10/Q12 single-digit percent).

``scale_factor=1.0`` corresponds to TPC-H SF0.1-ish row counts so that the
full benchmark suite runs in CI time; pass larger factors to stress.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..storage.table import Table
from .dates import add_days, date_range_ints

NATIONS = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
SHIP_INSTRUCTIONS = [
    "DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN",
]
ORDER_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]

#: Base row counts at scale_factor=1.0 (≈ TPC-H SF 0.1).
BASE_CUSTOMERS = 15_000
BASE_ORDERS = 150_000


def _choice(rng: np.random.Generator, values, n: int) -> np.ndarray:
    idx = rng.integers(0, len(values), n)
    out = np.empty(n, dtype=object)
    arr = np.array(values, dtype=object)
    out[:] = arr[idx]
    return out


def generate_tpch(scale_factor: float = 0.1, seed: int = 42) -> Dict[str, Table]:
    """Generate the TPC-H subset; returns ``{name: Table}``."""
    rng = np.random.default_rng(seed)
    n_customers = max(100, int(BASE_CUSTOMERS * scale_factor))
    n_orders = max(1000, int(BASE_ORDERS * scale_factor))

    nation = Table(
        {
            "n_nationkey": np.arange(len(NATIONS), dtype=np.int64),
            "n_name": np.array(NATIONS, dtype=object),
        }
    )

    customer = Table(
        {
            "c_custkey": np.arange(n_customers, dtype=np.int64),
            "c_name": np.array(
                [f"Customer#{i:09d}" for i in range(n_customers)], dtype=object
            ),
            "c_nationkey": rng.integers(0, len(NATIONS), n_customers),
            "c_mktsegment": _choice(rng, SEGMENTS, n_customers),
            "c_acctbal": np.round(rng.random(n_customers) * 9999.99 - 999.99, 2),
            "c_phone": np.array(
                [f"{rng.integers(10, 35)}-{i % 1000:03d}-{i % 10000:04d}"
                 for i in range(n_customers)],
                dtype=object,
            ),
        }
    )

    order_dates_pool = date_range_ints("1992-01-01", "1998-08-02")
    o_orderdate = order_dates_pool[rng.integers(0, order_dates_pool.shape[0], n_orders)]
    orders = Table(
        {
            "o_orderkey": np.arange(n_orders, dtype=np.int64),
            "o_custkey": rng.integers(0, n_customers, n_orders),
            "o_orderdate": o_orderdate,
            "o_orderpriority": _choice(rng, ORDER_PRIORITIES, n_orders),
            "o_shippriority": np.zeros(n_orders, dtype=np.int64),
            "o_totalprice": np.round(rng.random(n_orders) * 400000 + 900, 2),
        }
    )

    # 1-7 lineitems per order, ~4 on average (matches dbgen).
    lines_per_order = rng.integers(1, 8, n_orders)
    l_orderkey = np.repeat(np.arange(n_orders, dtype=np.int64), lines_per_order)
    n_lines = l_orderkey.shape[0]
    l_linenumber = np.concatenate(
        [np.arange(1, k + 1, dtype=np.int64) for k in lines_per_order]
    )
    l_quantity = rng.integers(1, 51, n_lines).astype(np.float64)
    l_extendedprice = np.round(l_quantity * (rng.random(n_lines) * 2000 + 100), 2)
    l_discount = np.round(rng.integers(0, 11, n_lines) / 100.0, 2)
    l_tax = np.round(rng.integers(0, 9, n_lines) / 100.0, 2)
    order_date_per_line = o_orderdate[l_orderkey]
    l_shipdate = add_days(order_date_per_line, rng.integers(1, 122, n_lines))
    l_commitdate = add_days(order_date_per_line, rng.integers(30, 91, n_lines))
    l_receiptdate = add_days(l_shipdate, rng.integers(1, 31, n_lines))

    # (returnflag, linestatus): groups sized per the paper's Q1 discussion —
    # shipped-before-cutoff lines are finished (F) and split A/R; a sliver
    # is (N, F); the rest are open (N, O).
    cutoff = 19950617
    returnflag = np.empty(n_lines, dtype=object)
    linestatus = np.empty(n_lines, dtype=object)
    finished = l_shipdate <= cutoff
    split = rng.random(n_lines)
    returnflag[:] = "N"
    linestatus[:] = "O"
    linestatus[finished] = "F"
    returnflag[finished & (split < 0.5)] = "A"
    returnflag[finished & (split >= 0.5)] = "R"
    sliver = finished & (split >= 0.9988)  # ≈0.06% of all rows become (N, F)
    returnflag[sliver] = "N"

    lineitem = Table(
        {
            "l_orderkey": l_orderkey,
            "l_linenumber": l_linenumber,
            "l_quantity": l_quantity,
            "l_extendedprice": l_extendedprice,
            "l_discount": l_discount,
            "l_tax": l_tax,
            "l_returnflag": returnflag,
            "l_linestatus": linestatus,
            "l_shipdate": l_shipdate,
            "l_commitdate": l_commitdate,
            "l_receiptdate": l_receiptdate,
            "l_shipmode": _choice(rng, SHIP_MODES, n_lines),
            "l_shipinstruct": _choice(rng, SHIP_INSTRUCTIONS, n_lines),
        }
    )

    return {
        "nation": nation,
        "customer": customer,
        "orders": orders,
        "lineitem": lineitem,
    }


def load_tpch(db, scale_factor: float = 0.1, seed: int = 42) -> None:
    """Generate and register the TPC-H subset into a Database."""
    for name, table in generate_tpch(scale_factor, seed).items():
        db.create_table(name, table, replace=True)

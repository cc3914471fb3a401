"""Shared fixtures: small deterministic databases for every suite, plus
the Hypothesis profiles the property suites run under.

* ``tier1`` (default) — the budget the fast tier-1 gate runs with.
* ``ci-deep`` — the scheduled CI job's profile
  (``--hypothesis-profile=ci-deep``): an order of magnitude more
  examples for the randomized plan-equivalence harnesses.

Property tests that want the profile to govern their example count set
``@settings(deadline=None)`` without pinning ``max_examples``.

The suites are warning-strict: a ``DeprecationWarning`` fails the test
that triggered it (see :func:`pytest_configure`).
"""

import sys

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro.api import Database
from repro.datagen import load_tpch, make_gids_table, make_zipf_table
from repro.storage import Table

hypothesis_settings.register_profile(
    "tier1", max_examples=60, deadline=None
)
hypothesis_settings.register_profile(
    "ci-deep", max_examples=600, deadline=None, print_blob=True
)
if not any(arg.startswith("--hypothesis-profile") for arg in sys.argv):
    # This conftest loads at collection time — after the hypothesis
    # plugin applied any --hypothesis-profile option — so only install
    # the tier-1 default when no profile was requested explicitly.
    hypothesis_settings.load_profile("tier1")


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")
    # Hypothesis imports libcst only to report a failing example, and
    # that import warns; without this narrow exception the report of a
    # real failure would itself become a warning error.
    config.addinivalue_line(
        "filterwarnings", "ignore:mypy_extensions.TypedDict:DeprecationWarning"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def zipf_table():
    return make_zipf_table(2_000, groups=20, theta=1.0, seed=3)


@pytest.fixture
def small_db(zipf_table):
    db = Database()
    db.create_table("zipf", zipf_table)
    db.create_table("gids", make_gids_table(20, seed=3))
    rng = np.random.default_rng(4)
    db.create_table(
        "zipf2",
        Table(
            {
                "z": rng.integers(0, 20, 300),
                "w": np.round(rng.random(300), 3),
            }
        ),
    )
    return db


@pytest.fixture(scope="session")
def tpch_db():
    db = Database()
    load_tpch(db, scale_factor=0.02, seed=11)
    return db


@pytest.fixture
def simple_table():
    return Table(
        {
            "a": np.array([1, 2, 2, 3, 3, 3], dtype=np.int64),
            "b": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            "s": np.array(["x", "y", "x", "y", "x", "y"], dtype=object),
        }
    )

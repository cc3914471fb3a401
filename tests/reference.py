"""The reference every executor comparison in these suites runs against.

The product runs one executor, the vector engine.  The compiled
produce/consume engine (:mod:`repro.exec.compiled`, the paper's Appendix
A) is kept as its independent oracle: it materializes every subtree,
``Lb``/``Lf`` scans included, and shares neither the rid-domain pushed
path nor the per-bar memo, so a test that compares a result with
:func:`reference` checks that code instead of comparing it with itself.
"""

from repro.api import ExecOptions, QueryResult
from repro.exec.compiled import CompiledExecutor


def reference(db, statement, params=None, options=None):
    """Run ``statement`` (SQL text or a logical plan) on the compiled
    reference over ``db``'s tables and registered results, capturing as
    ``options.capture`` says.  Returned as a :class:`QueryResult`, so it
    compares like the result under test; nothing is registered."""
    plan = db.parse(statement) if isinstance(statement, str) else statement
    opts = options if options is not None else ExecOptions()
    executor = CompiledExecutor(db.catalog, results=db._results)
    return QueryResult(db, plan, executor.execute(plan, opts.config, params))


def vector(db, statement, params=None, options=None):
    """Run ``statement`` the way the product does: ``db.sql`` for text,
    ``db.execute`` for a plan."""
    run = db.sql if isinstance(statement, str) else db.execute
    return run(statement, params=params, options=options)


#: Both engines under the names test ids carry, for tests that assert
#: the same answer from each (``@pytest.mark.parametrize("engine", ENGINES)``).
ENGINES = {"vector": vector, "compiled": reference}

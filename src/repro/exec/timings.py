"""Central registry of per-execution timing/counter keys.

Every key written into an :class:`~repro.exec.vector.executor.ExecResult`
``timings`` dict (or read back out by benchmarks and BENCH gates) must be
one of the constants below — enforced statically by lint rule **RPR003
timings-registry** (``python -m tools.lint src benchmarks``).

Why a registry at all: the late-materialization benchmarks gate on
counters like ``late_mat_chain_hops``; a typo'd key at either the write
or the read site does not error, it silently reports ``0``/``None`` and
the gate stops measuring anything.  Keeping every spelling in one module
turns that failure mode into a lint error.

Adding a key: declare the constant here, add it to :data:`ALL_KEYS`,
and use the constant at both write and read sites.
"""

from __future__ import annotations

#: Wall-clock seconds of one ``execute()`` call (both backends).
EXECUTE = "execute"

#: Number of lineage-consuming subtrees the planner handed to the pushed
#: (late-materializing) path during this execution.
LATE_MAT_SUBTREES = "late_mat_subtrees"

#: Joins executed inside pushed subtrees in the rid domain.
LATE_MAT_JOINS = "late_mat_joins"

#: DISTINCT operators absorbed into pushed subtrees.
LATE_MAT_DISTINCTS = "late_mat_distincts"

#: Join hops flattened into a single pushed rid-domain chain.
LATE_MAT_CHAIN_HOPS = "late_mat_chain_hops"

#: Chain hops whose build side was swapped by the cardinality rule.
LATE_MAT_BUILD_SWAPS = "late_mat_build_swaps"

#: Chain hops whose build keys column statistics alone know unique.
LATE_MAT_PKFK_DETECTED = "late_mat_pkfk_detected"

#: Seconds one execution spent finding and filling the per-bar memo's
#: missing bars; written whenever the memo answered, even with none missing.
LATE_MAT_MEMO_FILL = "late_mat_memo_fill_s"

#: Seconds one execution spent merging per-bar memo partials into answers.
LATE_MAT_MEMO_MERGE = "late_mat_memo_merge_s"

#: Seconds one execution spent from entering the per-bar memo's route to
#: holding its memo entry: the bound route's identity checks (and, when it
#: was stale, the guards and derivations that rebind it) plus the memo
#: lookup; written whenever the memo answered.
LATE_MAT_ROUTE = "late_mat_route_s"

#: Pushed trees whose bound route one execution (re)bound; absent on a
#: warm run, whose route still held.
LATE_MAT_ROUTE_BINDS = "late_mat_route_binds"

#: Registered but never written: the engine runs every kernel serially,
#: so nothing in ``src/`` sets this key.  It stays because ``perfbench``
#: still reads it into a count-exact metric that must stay 0; drop it
#: together with that metric.
MORSEL_TASKS = "morsel_tasks"

#: Every registered timings key.  Tests assert BENCH-gated keys appear
#: here; the linter does not consult this set (it checks that *call
#: sites* reference ``timings.<CONSTANT>``), so a key missing from it is
#: caught at test time, not silently accepted.
ALL_KEYS = frozenset(
    {
        EXECUTE,
        LATE_MAT_SUBTREES,
        LATE_MAT_JOINS,
        LATE_MAT_DISTINCTS,
        LATE_MAT_CHAIN_HOPS,
        LATE_MAT_BUILD_SWAPS,
        LATE_MAT_PKFK_DETECTED,
        LATE_MAT_MEMO_FILL,
        LATE_MAT_MEMO_MERGE,
        LATE_MAT_ROUTE,
        LATE_MAT_ROUTE_BINDS,
        MORSEL_TASKS,
    }
)

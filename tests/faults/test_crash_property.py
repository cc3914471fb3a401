"""The crash-recovery property (the tentpole's acceptance criterion).

For ANY randomly generated operation log (register / drop / pin /
checkpoint over a handful of view names) interrupted at ANY failpoint,
re-opening the directory must recover a registry in which every
acknowledged-and-untouched registration answers its backward and forward
lineage queries **bit-identically** to the moment it was acknowledged,
and every acknowledged drop stays dropped.

The one operation allowed to differ is the operation the crash
interrupted (it was never acknowledged): its name is "tainted" and
exempt from assertions — recovery may surface either the before or the
after state for it, but must never damage anything else.

The budgeted arm runs the same logs under a registry byte budget that
holds about two views: a registration or unpin it refuses is
unacknowledged (it never reached the WAL), and every name keeps its
previously acknowledged state.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from harness import (
    assert_answers_identical,
    open_db,
    register_view,
    snapshot_answers,
)
from repro.errors import InjectedFault, RegistryFullError
from repro.lineage.wal import (
    CHECKPOINT_BEFORE_RENAME,
    CHECKPOINT_BEFORE_WAL_RESET,
    CHECKPOINT_PARTIAL_WRITE,
    WAL_BEFORE_APPEND,
    WAL_BEFORE_FSYNC,
    WAL_PARTIAL_APPEND,
    Failpoints,
)

NAMES = ["va", "vb", "vc"]

#: Room for two of the harness views' lineage (128-168 bytes each).
BUDGET = 300

WAL_SITES = [WAL_BEFORE_APPEND, WAL_BEFORE_FSYNC, WAL_PARTIAL_APPEND]
CHECKPOINT_SITES = [
    CHECKPOINT_PARTIAL_WRITE,
    CHECKPOINT_BEFORE_RENAME,
    CHECKPOINT_BEFORE_WAL_RESET,
]

operations = st.one_of(
    st.tuples(
        st.just("register"),
        st.integers(0, len(NAMES) - 1),
        st.integers(2, 6),  # statement cutoff: distinct lineage shapes
    ),
    st.tuples(st.just("drop"), st.integers(0, len(NAMES) - 1)),
    st.tuples(
        st.just("pin"), st.integers(0, len(NAMES) - 1), st.booleans()
    ),
    st.tuples(st.just("checkpoint")),
)

op_logs = st.tuples(
    st.lists(operations, min_size=1, max_size=8),
    st.integers(min_value=0, max_value=7),  # crash op index (mod len)
    st.integers(min_value=0, max_value=2),  # crash site choice
    st.booleans(),  # whether to crash at all
)


def site_for(op, pick: int) -> str:
    if op[0] == "checkpoint":
        return CHECKPOINT_SITES[pick]
    return WAL_SITES[pick]


def apply_op(db, op):
    kind = op[0]
    try:
        if kind == "register":
            name = NAMES[op[1]]
            return name, snapshot_answers(register_view(db, name, cut=op[2]))
        if kind == "drop":
            name = NAMES[op[1]]
            if name in db.results():
                db.drop_result(name)
                return name, None
            return None, None
        if kind == "pin":
            name = NAMES[op[1]]
            if name in db.results():
                db.pin_result(name, op[2])
            return None, None
    except RegistryFullError:
        return None, None  # refused before the WAL: unacknowledged
    db.checkpoint()
    return None, None


@given(op_logs)
@settings(deadline=None)
def test_any_prefix_any_failpoint_recovers_acknowledged_state(log):
    with tempfile.TemporaryDirectory() as root:
        check_recovers_acknowledged_state(Path(root) / "state", log, budget=None)


@given(op_logs)
@settings(deadline=None)
def test_budgeted_log_recovers_acknowledged_state(log):
    with tempfile.TemporaryDirectory() as root:
        check_recovers_acknowledged_state(Path(root) / "state", log, budget=BUDGET)


def check_recovers_acknowledged_state(directory, log, budget):
    ops, crash_index, site_pick, do_crash = log
    crash_index = crash_index % len(ops)

    failpoints = Failpoints()
    db = open_db(directory, failpoints=failpoints, max_result_bytes=budget)

    expected = {}  # name -> acked answers (None = acked drop)
    tainted = None
    for index, op in enumerate(ops):
        if do_crash and index == crash_index:
            failpoints.arm(site_for(op, site_pick))
            try:
                name, snap = apply_op(db, op)
            except InjectedFault:
                # The interrupted op was never acknowledged: its name
                # (if any) is exempt from recovery assertions.
                tainted = NAMES[op[1]] if op[0] != "checkpoint" else None
                break
            # The armed site was not on this op's path (e.g. a pin that
            # no-opped); disarm and continue as a clean run.
            failpoints.clear()
            if name is not None:
                expected[name] = snap
        else:
            name, snap = apply_op(db, op)
            if name is not None:
                expected[name] = snap
    db.close()

    recovered = open_db(directory, max_result_bytes=budget)
    try:
        for name, snap in expected.items():
            if name == tainted:
                continue
            if snap is None:
                assert name not in recovered.results()
            else:
                assert name in recovered.results()
                assert_answers_identical(recovered.result(name), snap)
        # The recovered log accepts new acknowledged work (pinned, so a
        # full budget admits it).
        post = snapshot_answers(register_view(recovered, "post", cut=4, pin=True))
    finally:
        recovered.close()

    final = open_db(directory)
    assert_answers_identical(final.result("post"), post)
    final.close()

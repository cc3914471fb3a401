"""Property: the per-bar memo's sort-free merge equals the sorting merge.

A ``"groups"`` / ``"distinct"`` partial holds one int64 order key per
group, the group's first-row leaf positions packed in mixed radix
(:func:`repro.exec.late_mat._order_strides`), and
:func:`repro.exec.late_mat._merge_groups` merges a brush's partials with
one scatter-min of those keys per slot, sorting only the merged groups.
Here random bars of a random output — rows of 1–3 leaf positions, each
row with a key-dictionary code — are cut into partials the way a fill
cuts them, and 1–4 bindings over shared bars are merged both ways: by
``_merge_groups`` over packed keys and by a copy of the merge that kept
one position column per leaf and lexsorted every partial row.  Both must
give bit-identical columns of identical dtypes, with dictionaries on both
sides of the merge's sparse-slot threshold.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.late_mat import _merge_groups, _order_strides, _split_by
from repro.exec.vector.kernels import DENSE_FACTORIZE_MAX, first_occurrence


def _lexsort_merge(groups, width: int, num_codes: int) -> list:
    """The merge over partials ``[keys..., codes, counts, positions...]``
    (one position column per order leaf): a lexsort of every partial row
    by (binding, positions), then each slot's first row."""
    parts = [p for g in groups for p in g]
    if not parts:
        return [None] * len(groups)
    keys = len(parts[0]) - width - 2
    if len(groups) == 1 and len(parts) == 1:
        return [[a.copy() for a in parts[0][:keys]] + [parts[0][keys + 1].astype(np.int64)]]
    sizes = [sum(p[-1].size for p in g) for g in groups]
    binding = np.repeat(np.arange(len(groups)), sizes)
    columns = [np.concatenate(cols) for cols in zip(*parts, strict=True)]
    order = np.lexsort(columns[: -width - 1 : -1] + [binding])
    slot = binding * num_codes + columns[keys]
    if len(groups) * num_codes > max(4 * slot.size, DENSE_FACTORIZE_MAX):
        slot = np.unique(slot, return_inverse=True)[1]
    first = first_occurrence(slot[order], int(slot.max()) + 1)
    rows = order[np.sort(first[first >= 0])]
    counts = np.bincount(slot, weights=columns[keys + 1], minlength=first.size)[slot[rows]]
    merged = [k[rows] for k in columns[:keys]] + [counts.astype(np.int64)]
    return _split_by(binding[rows], len(groups), merged)


def _pack(positions, strides) -> np.ndarray:
    """Order keys packed as a fill packs them."""
    return sum(p * s for p, s in zip(positions, strides, strict=True))


def _partial(codes, positions, dictionary, strides):
    """One bar's partials in both layouts: per group (code) in the order of
    its first row, its key values, code, count, and first-row positions
    (packed, and as columns)."""
    if codes.size == 0:
        return None, None
    by_order = np.lexsort(positions[::-1])
    codes, positions = codes[by_order], [p[by_order] for p in positions]
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    groups = np.argsort(first)
    first, counts = first[groups], counts[groups].astype(np.int32)
    head = [k[codes[first]] for k in dictionary] + [codes[first], counts]
    firsts = [p[first] for p in positions]
    return head + [_pack(firsts, strides)], head + firsts


@st.composite
def merges(draw):
    """Bindings over the partials of one random output."""
    width = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 12), min_size=width, max_size=width))
    space = int(np.prod(sizes))
    n = draw(st.integers(0, min(space, 80)))
    sparse = draw(st.booleans())
    num_codes = DENSE_FACTORIZE_MAX + 7 if sparse else draw(st.integers(1, 12))
    num_bars = draw(st.integers(1, 6))
    num_keys = draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    bindings = draw(st.lists(
        st.lists(st.integers(0, num_bars - 1), max_size=num_bars, unique=True).map(sorted),
        min_size=1, max_size=4,
    ))
    rng = np.random.default_rng(seed)
    flat = rng.choice(space, size=n, replace=False)
    positions = [p.astype(np.int64) for p in np.unravel_index(flat, sizes)]
    codes = rng.integers(0, min(num_codes, 1 + n // 2), size=n).astype(np.int32)
    if sparse:
        codes = (codes.astype(np.int64) * 4099 % num_codes).astype(np.int32)
    bar_of = rng.integers(0, num_bars, size=n)
    dictionary = [
        (np.arange(num_codes, dtype=np.int64) * 7) % 5,
        np.where(np.arange(num_codes) % 3 == 0, -0.0, np.arange(num_codes) / 4.0),
    ][:num_keys]
    strides = _order_strides(sizes)
    bars = [
        _partial(codes[bar_of == b], [p[bar_of == b] for p in positions], dictionary, strides)
        for b in range(num_bars)
    ]
    return width, num_codes, bars, bindings


@settings(deadline=None)
@given(merges())
def test_scatter_min_merge_equals_the_lexsort_merge(case):
    width, num_codes, bars, bindings = case
    packed = [[bars[b][0] for b in bs if bars[b][0] is not None] for bs in bindings]
    columns = [[bars[b][1] for b in bs if bars[b][1] is not None] for bs in bindings]
    got = _merge_groups(packed, num_codes)
    want = _lexsort_merge(columns, width, num_codes)
    assert len(got) == len(want) == len(bindings)
    for g, w in zip(got, want, strict=True):
        assert (g is None) == (w is None)
        if g is None:
            continue
        assert [a.dtype for a in g] == [a.dtype for a in w]
        assert [a.tobytes() for a in g] == [a.tobytes() for a in w]


@settings(deadline=None)
@given(
    st.lists(st.integers(1, 2**20), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
    st.sampled_from([np.int32, np.int64]),
)
def test_packed_order_keys_sort_as_position_tuples(sizes, seed, dtype):
    strides = _order_strides(sizes)
    assert strides is not None  # at most 60 bits
    rng = np.random.default_rng(seed)
    positions = [rng.integers(0, size, size=50).astype(dtype) for size in sizes]
    key = _pack(positions, strides)
    assert key.dtype == np.int64
    by_tuple = np.lexsort(positions[::-1])
    assert np.array_equal(np.argsort(key, kind="stable"), by_tuple)
    assert np.array_equal(np.diff(key[by_tuple]) == 0,
                          np.all([np.diff(p[by_tuple]) == 0 for p in positions], axis=0))
    assert key.min() >= 0


def test_packing_declines_past_63_bits():
    assert _order_strides([2**32, 2**31 - 1]) == [2**31 - 1, 1]
    assert _order_strides([2**32, 2**31]) is None
    assert _order_strides([2**21, 2**21, 2**21]) is None
    assert _order_strides([3, 2**61]) == [2**61, 1]
    assert _order_strides([5, 2**61]) is None
    # A leaf without rows counts as one row: no product of 0 hides an overflow.
    assert _order_strides([0, 2**40]) == [2**40, 1]
    assert _order_strides([0, 2**40, 2**40]) is None

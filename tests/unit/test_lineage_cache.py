"""Tests for the lineage cache's keys and epochs.

Array parameters once fingerprinted by raw buffer bytes, so an int32
array and an int64 array with identical bytes collided to one entry.
"""

import numpy as np

from repro.lineage.cache import LineageResolutionCache, Pin, param_fingerprint


def _array_key(values):
    """The fingerprint :func:`param_fingerprint` gives one array."""
    ((_, key),) = param_fingerprint({"bars": values})
    return key


class TestSubsetKeyDtype:
    def test_int32_and_int64_with_identical_bytes_differ(self):
        # int64 [1] and int32 [1, 0] share the exact little-endian buffer.
        wide = np.array([1], dtype=np.int64)
        narrow = np.array([1, 0], dtype=np.int32)
        assert wide.tobytes() == narrow.tobytes()
        assert _array_key(wide) != _array_key(narrow)

    def test_digest_form_also_carries_dtype(self):
        wide = np.arange(1024, dtype=np.int64)  # 8 KiB: digest form
        narrow = np.frombuffer(wide.tobytes(), dtype=np.int32)
        assert wide.tobytes() == narrow.tobytes()
        key_wide = _array_key(wide)
        key_narrow = _array_key(narrow)
        assert key_wide != key_narrow
        # Same buffer hashes identically; only dtype/length distinguish.
        assert key_wide[2] == key_narrow[2]

    def test_resolution_does_not_collide_across_dtypes(self):
        cache = LineageResolutionCache()
        wide = np.array([1], dtype=np.int64)
        narrow = np.array([1, 0], dtype=np.int32)
        out_wide = cache.get(
            ("stmt", param_fingerprint({"k": wide})), lambda: "wide", 0
        )
        out_narrow = cache.get(
            ("stmt", param_fingerprint({"k": narrow})), lambda: "narrow", 0
        )
        assert (out_wide, out_narrow) == ("wide", "narrow")


class TestMemoEpochs:
    KEY = ("view", "bars", "t", 0)

    def test_pin_compares_by_identity(self):
        arr = np.arange(3)
        assert Pin(arr) == Pin(arr) and hash(Pin(arr)) == hash(Pin(arr))
        assert Pin(arr) != Pin(arr.copy())
        assert (1, Pin(arr)) == (1, Pin(arr))

    def test_vouched_entry_is_restamped_not_rebuilt(self):
        cache = LineageResolutionCache()
        built = []

        def build():
            built.append(object())
            return built[-1]

        def lookup(arr, vouch=True):
            def same(stored):
                return np.array_equal(stored.obj, arr)

            return cache.get(self.KEY, build, Pin(arr), same if vouch else None)

        old, new = np.arange(3), np.arange(3)
        first = lookup(old)
        assert lookup(new) is first  # bit-equal: re-stamped
        assert lookup(new) is first  # a plain hit
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["revalidated"]) == (2, 1, 1)
        # A refused vouch, or none at all, rebuilds.
        assert lookup(np.arange(4)) is built[1]
        assert lookup(np.arange(4), vouch=False) is built[2]
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["revalidated"]) == (2, 3, 1)
        assert stats["entries"] == 1

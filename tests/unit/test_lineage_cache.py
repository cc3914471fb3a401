"""Regression tests for the lineage rid-resolution cache's keying.

``subset_key`` once fingerprinted rid subsets by raw buffer bytes, so an
int32 subset and an int64 subset with identical bytes collided to one
entry.
"""

import numpy as np

from repro.lineage.cache import LineageResolutionCache


class TestSubsetKeyDtype:
    def test_int32_and_int64_with_identical_bytes_differ(self):
        # int64 [1] and int32 [1, 0] share the exact little-endian buffer.
        wide = np.array([1], dtype=np.int64)
        narrow = np.array([1, 0], dtype=np.int32)
        assert wide.tobytes() == narrow.tobytes()
        assert LineageResolutionCache.subset_key(wide) != (
            LineageResolutionCache.subset_key(narrow)
        )

    def test_digest_form_also_carries_dtype(self):
        wide = np.arange(1024, dtype=np.int64)  # 8 KiB: digest form
        narrow = np.frombuffer(wide.tobytes(), dtype=np.int32)
        assert wide.tobytes() == narrow.tobytes()
        key_wide = LineageResolutionCache.subset_key(wide)
        key_narrow = LineageResolutionCache.subset_key(narrow)
        assert key_wide != key_narrow
        # Same buffer hashes identically; only dtype/length distinguish.
        assert key_wide[2] == key_narrow[2]

    def test_resolution_does_not_collide_across_dtypes(self):
        cache = LineageResolutionCache()
        wide = np.array([1], dtype=np.int64)
        narrow = np.array([1, 0], dtype=np.int32)
        out_wide = cache.resolve(
            "view", "backward", "t",
            LineageResolutionCache.subset_key(wide), lambda: np.array([10]), 0,
        )
        out_narrow = cache.resolve(
            "view", "backward", "t",
            LineageResolutionCache.subset_key(narrow), lambda: np.array([20]), 0,
        )
        assert list(out_wide) == [10] and list(out_narrow) == [20]

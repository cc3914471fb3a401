"""Synthetic Physician Compare dataset (stands in for the real CMS data).

The data profiling experiment (paper Section 6.5.2, Figure 15) checks four
functional dependencies over the Physician Compare dataset:

* ``NPI → PAC_ID``  (integer-typed determinant)
* ``Zip → State``
* ``Zip → City``
* ``LBN1 → CCN1``   (business name → CCN, mostly null-ish in reality)

This generator embeds each FD with a controlled violation rate: a fraction
of determinant values is assigned 2-3 distinct dependent values and the
rest exactly one, so an FD checker must find precisely the planted
violations (tests assert the counts).  All dependent attributes are
strings except PAC_ID, mirroring the paper's note that Metanome models all
attributes as strings while NPI is naturally an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..storage.table import Table
from ..substrate.zipf import sample_zipf

FDS = (
    ("NPI", "PAC_ID"),
    ("Zip", "State"),
    ("Zip", "City"),
    ("LBN1", "CCN1"),
)


@dataclass
class PhysicianData:
    table: Table
    #: determinant column -> set of violating determinant values
    planted_violations: Dict[str, set]


def _strings(prefix: str, values: np.ndarray) -> np.ndarray:
    out = np.empty(values.shape[0], dtype=object)
    out[:] = [f"{prefix}{int(v):06d}" for v in values]
    return out


def _dependent(
    rng: np.random.Generator,
    keys: np.ndarray,
    num_keys: int,
    violation_rate: float,
    num_dep: int = 0,
) -> Tuple[np.ndarray, set]:
    """Per-row dependent codes for an FD key column with planted violations.

    Non-violating keys map to one dependent code; violating keys map to a
    mix of 2-3 codes chosen per row.  ``num_dep`` bounds the dependent
    domain (defaults to ``num_keys``).
    """
    if num_dep <= 0:
        num_dep = num_keys
    base_code = rng.integers(0, max(2, num_dep), num_keys)
    violating = rng.random(num_keys) < violation_rate
    alt_code = (base_code + 1 + rng.integers(0, 3, num_keys)) % max(2, num_dep)
    take_alt = rng.random(keys.shape[0]) < 0.35
    codes = base_code[keys].copy()
    mask = violating[keys] & take_alt
    codes[mask] = alt_code[keys][mask]
    # A violation only materializes if both codes actually occur.
    seen_alt = np.zeros(num_keys, dtype=bool)
    seen_base = np.zeros(num_keys, dtype=bool)
    seen_alt[keys[mask]] = True
    seen_base[keys[~mask]] = True
    actual = set(np.nonzero(violating & seen_alt & seen_base)[0].tolist())
    return codes, actual


def make_physician_table(
    n: int = 100_000,
    violation_rate: float = 0.02,
    seed: int = 13,
) -> PhysicianData:
    rng = np.random.default_rng(seed)
    num_npi = max(10, n // 10)        # ~10 rows per physician
    num_zip = max(10, n // 50)
    num_lbn = max(10, n // 25)

    npi_keys = sample_zipf(n, num_npi, 0.5, rng)
    zip_keys = sample_zipf(n, num_zip, 0.8, rng)
    lbn_keys = sample_zipf(n, num_lbn, 0.6, rng)

    pac_codes, npi_viol = _dependent(rng, npi_keys, num_npi, violation_rate)
    state_codes, zip_state_viol = _dependent(
        rng, zip_keys, num_zip, violation_rate, num_dep=60
    )
    city_codes, zip_city_viol = _dependent(rng, zip_keys, num_zip, violation_rate * 1.5)
    ccn_codes, lbn_viol = _dependent(rng, lbn_keys, num_lbn, violation_rate)

    table = Table(
        {
            "NPI": (1_000_000_000 + npi_keys).astype(np.int64),
            "PAC_ID": (40_000_000 + pac_codes).astype(np.int64),
            "Zip": _strings("Z", zip_keys),
            "State": _strings("S", state_codes % 60),
            "City": _strings("C", city_codes),
            "LBN1": _strings("L", lbn_keys),
            "CCN1": _strings("N", ccn_codes),
        }
    )
    planted = {
        "NPI": {int(1_000_000_000 + v) for v in npi_viol},
        "Zip:State": {f"Z{v:06d}" for v in zip_state_viol},
        "Zip:City": {f"Z{v:06d}" for v in zip_city_viol},
        "LBN1": {f"L{v:06d}" for v in lbn_viol},
    }
    return PhysicianData(table=table, planted_violations=planted)

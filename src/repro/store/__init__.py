"""On-disk artifact store: persist a mining run, serve it many times.

The store subsystem turns the in-memory artifacts of a run — context,
frequent/closed families, minimal generators, the packed lattice order
core and the columnar rule bases — into one versioned ``.npz`` container
(:mod:`repro.store.npz`), plus an optional Arrow/Parquet export of the
rule columns for out-of-process consumers (:mod:`repro.store.arrow`,
behind a soft ``pyarrow`` dependency).

The crucial property is that loading is *cheap*: the lattice order core
is rehydrated from its stored containment words and Hasse edges, so a
``repro bases --from-store`` warm start skips mining and the O(n²)
lattice construction entirely, and round-trips are exact — the loaded
arrays are byte-identical to the saved ones (asserted by the store
round-trip tests).
"""

from .arrow import (
    EXPORT_FORMATS,
    arrow_available,
    export_rule_arrays,
    rule_arrays_to_table,
)
from .integrity import (
    DIGEST_ALGORITHM,
    VERIFY_MODES,
    array_digest,
    compute_digests,
    verify_container,
)
from .npz import (
    FORMAT_NAME,
    FORMAT_VERSION,
    READABLE_VERSIONS,
    StoredRun,
    load_run,
    read_manifest,
    save_run,
)

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "READABLE_VERSIONS",
    "StoredRun",
    "save_run",
    "load_run",
    "read_manifest",
    "arrow_available",
    "rule_arrays_to_table",
    "export_rule_arrays",
    "EXPORT_FORMATS",
    "DIGEST_ALGORITHM",
    "VERIFY_MODES",
    "array_digest",
    "compute_digests",
    "verify_container",
]

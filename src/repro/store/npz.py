"""The versioned NPZ artifact store: mine once, serve many times.

Everything a mining run produces — the transaction context, the frequent
and frequent-closed families, the minimal generators, the packed lattice
order core and the columnar rule bases — is a function of arrays this
library already holds in packed form.  This module writes those arrays
into one compressed ``.npz`` container (plain numpy, no pickling, no
optional dependencies) and rehydrates them without redoing any of the
expensive work: a loaded lattice adopts the stored containment words and
Hasse edges through :meth:`~repro.core.order.OrderCore.from_parts`
instead of re-running the O(n²) construction passes.

Container layout (flat keys, ``__``-separated)::

    manifest                      uint8 row of UTF-8 JSON (format name,
                                  version, section index, run metadata)
    context__indptr               CSR row offsets of the relation
    context__item_ids             item column per relation pair
    context__items                item universe (int64 or unicode)
    frequent__words/__counts/__universe    packed family rows + supports
    closed__words/__counts/__universe      idem, the closed family
    generators__words             packed generator rows (closed universe)
    generators__closure_index     row -> canonical closed-member index
    order__words                  packed strict-containment BitMatrix
    order__rows / order__cols     Hasse edge index arrays
    rules__<name>__antecedent_rows/__union_rows/__universe
                                  one basis as row pairs into the
                                  families its manifest entry names
    rules__<name>__antecedents/__consequents/__support/__confidence/
        __support_count/__universe         one basis as rule columns

A basis built from the stored families is written as row pairs: rule
``X → Z \\ X`` is an antecedent row (frequent, closed or generator;
``-1`` for ``∅``) and a union row (frequent or closed).  The loader
rebuilds its columns with
:meth:`~repro.core.rulearrays.RuleArrays.from_row_pairs`, the assembler
the emitters use, so they are bit-identical to the built ones.  A bare
:class:`~repro.core.rulearrays.RuleArrays` is written as columns.
Integer index and count arrays are written in the narrowest signed
dtype that holds their values and read back as int64.

Every section is optional except the manifest; :func:`load_run` returns
whatever the file holds.  Items must be strings or integers — the two
kinds every dataset loader and generator in this library produces — so
the container never needs ``allow_pickle``.

The format is versioned (:data:`FORMAT_VERSION`); readers load the
versions in :data:`READABLE_VERSIONS` (version 1 stores every basis as
columns) and reject any other loudly instead of mis-parsing it.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from ..core.bitmatrix import BitMatrix
from ..core.families import ClosedItemsetFamily, ItemsetFamily, PackedFamily
from ..core.generators import GeneratorFamily
from ..core.itemset import Item, Itemset
from ..core.lattice import IcebergLattice
from ..core.order import OrderCore
from ..core.rulearrays import MaskRows, RowPairs, RuleArrays
from ..data.context import TransactionDatabase
from ..errors import InvalidParameterError, StoreFormatError, StoreIntegrityError
from ..ioutils import atomic_write
from .integrity import (
    DIGEST_ALGORITHM,
    compute_digests,
    resolve_verify_mode,
    verify_container,
)

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "READABLE_VERSIONS",
    "StoredRun",
    "save_run",
    "load_run",
    "read_manifest",
]

#: Identifies the container type inside the manifest.
FORMAT_NAME = "repro-store"

#: Major format version written; bumped on any incompatible layout change.
FORMAT_VERSION = 2

#: Versions this reader loads; it refuses others rather than guessing.
READABLE_VERSIONS = (1, 2)

#: The families a pair-encoded basis may index, by manifest name.
_ROW_FAMILIES = ("frequent", "closed", "generators")


def _narrow(array: np.ndarray) -> np.ndarray:
    """An integer array in the narrowest signed dtype that holds its values."""
    array = np.asarray(array)
    low, high = (int(array.min()), int(array.max())) if array.size else (0, 0)
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return array.astype(dtype)
    return array.astype(np.int64)


def _int64(data, key: str) -> np.ndarray:
    """A stored integer array widened back to int64."""
    return data[key].astype(np.int64)


# ----------------------------------------------------------------------
# Item-universe codec
# ----------------------------------------------------------------------
def _encode_items(items: Sequence[Item]) -> np.ndarray:
    """Items as a native numpy array (no pickling): unicode or int64."""
    values = list(items)
    if not values:
        return np.zeros(0, dtype="<U1")
    if all(isinstance(v, str) for v in values):
        return np.array(values)
    if all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values
    ):
        return np.array([int(v) for v in values], dtype=np.int64)
    raise StoreFormatError(
        "the artifact store holds items as strings or integers; got mixed "
        f"or unsupported item types in {values[:5]!r}..."
    )


def _decode_items(array: np.ndarray) -> tuple[Item, ...]:
    """Inverse of :func:`_encode_items`."""
    if array.dtype.kind == "U":
        return tuple(str(value) for value in array.tolist())
    if array.dtype.kind in ("i", "u"):
        return tuple(int(value) for value in array.tolist())
    raise StoreFormatError(f"unsupported stored item dtype {array.dtype}")


def _decode_members(matrix: BitMatrix, universe: Sequence[Item]) -> list[Itemset]:
    """Unpack every mask row back into an :class:`Itemset`, row order kept."""
    rows, cols = matrix.nonzero()
    per_row = np.bincount(rows, minlength=matrix.n_rows)
    members: list[Itemset] = []
    position = 0
    for row in range(matrix.n_rows):
        stop = position + int(per_row[row])
        members.append(Itemset(universe[col] for col in cols[position:stop]))
        position = stop
    return members


# ----------------------------------------------------------------------
# Section encoders
# ----------------------------------------------------------------------
def _family_section(prefix: str, family: ItemsetFamily, payload: dict) -> dict:
    """Pack one itemset family into ``payload``; return its manifest entry."""
    packed = family.packed()
    payload[f"{prefix}__words"] = packed.matrix.words
    payload[f"{prefix}__counts"] = _narrow(packed.counts)
    payload[f"{prefix}__universe"] = _encode_items(packed.universe)
    return {
        "n_members": len(packed.members),
        "n_objects": family.n_objects,
        "minsup_count": family.minsup_count,
    }


def _family_rows(prefix: str, data) -> MaskRows:
    """One family's stored rows and counts, read without decoding any itemset."""
    universe = _decode_items(data[f"{prefix}__universe"])
    return MaskRows(
        BitMatrix(data[f"{prefix}__words"], len(universe)),
        _int64(data, f"{prefix}__counts"),
        universe,
    )


def _load_family(
    rows: MaskRows, entry: dict, closed: bool
) -> ItemsetFamily | ClosedItemsetFamily:
    cls = ClosedItemsetFamily if closed else ItemsetFamily
    return cls.from_packed(
        PackedFamily(
            _decode_members(rows.matrix, rows.universe),
            rows.universe,
            rows.matrix,
            rows.counts,
        ),
        n_objects=int(entry["n_objects"]),
        minsup_count=int(entry["minsup_count"]),
    )


def _rules_section(
    name: str, arrays: RuleArrays, payload: dict, pairs: RowPairs | None
) -> None:
    prefix = f"rules__{name}"
    payload[f"{prefix}__universe"] = _encode_items(arrays.universe)
    if pairs is not None:
        payload[f"{prefix}__antecedent_rows"] = _narrow(pairs.antecedent_rows)
        payload[f"{prefix}__union_rows"] = _narrow(pairs.union_rows)
        return
    payload[f"{prefix}__antecedents"] = arrays.antecedents.words
    payload[f"{prefix}__consequents"] = arrays.consequents.words
    payload[f"{prefix}__support"] = arrays.support
    payload[f"{prefix}__confidence"] = arrays.confidence
    payload[f"{prefix}__support_count"] = arrays.support_count


def _pair_families(
    name: str, pairs: RowPairs, arrays: RuleArrays, stored: dict
) -> dict:
    """The manifest names of the families *pairs* index, checked by identity."""
    if len(pairs.union_rows) != len(arrays):
        raise InvalidParameterError(
            f"basis {name!r}: {len(pairs.union_rows)} row pairs for "
            f"{len(arrays)} rules"
        )
    names = {}
    for side, family in (("antecedent", pairs.antecedents), ("union", pairs.unions)):
        names[side] = next(
            (label for label, held in stored.items() if held is family), None
        )
        if names[side] is None:
            raise InvalidParameterError(
                f"basis {name!r}: its {side} rows index a family this save "
                "does not store"
            )
    return names


def _row_source(
    label: str, data, manifest: dict, path: Path, sources: dict
) -> MaskRows:
    """The stored rows of one family a basis indexes, read once per load.

    *sources* caches the rows already read, by the family sections too.
    """
    if label not in _ROW_FAMILIES or label not in manifest.get("sections", []):
        raise StoreFormatError(
            f"{path}: a rule basis indexes the {label!r} family, which the "
            f"store lacks (sections: {', '.join(manifest.get('sections', []))})"
        )
    if label not in sources:
        if label == "generators":
            closed = _row_source("closed", data, manifest, path, sources)
            sources[label] = _generator_rows(data, closed, path)[0]
        else:
            sources[label] = _family_rows(label, data)
    return sources[label]


def _generator_rows(
    data, closed: MaskRows, path: Path
) -> tuple[MaskRows, np.ndarray]:
    """The generator rows (over the closed universe) and each one's closed row."""
    closure_index = _checked_closure_index(data, len(closed.counts), path)
    rows = MaskRows(
        BitMatrix(data["generators__words"], len(closed.universe)),
        closed.counts[closure_index],
        closed.universe,
    )
    return rows, closure_index


def _checked_closure_index(data, n_closed: int, path: Path) -> np.ndarray:
    closure_index = _int64(data, "generators__closure_index")
    if closure_index.size and not (
        closure_index.min() >= 0 and closure_index.max() < n_closed
    ):
        raise StoreFormatError(
            f"{path}: generators__closure_index must index the "
            f"{n_closed} closed itemsets"
        )
    return closure_index


def _load_rules(
    name: str, entry: dict, data, manifest: dict, path: Path, sources: dict
) -> RuleArrays:
    """One basis: its stored columns, or its row pairs assembled into columns."""
    prefix = f"rules__{name}"
    universe = _decode_items(data[f"{prefix}__universe"])
    pairs = entry.get("pairs")
    if pairs is None:
        # Stored columns are checked here; the assembler checks row pairs.
        # They are read outside the try, so a digest failure stays a
        # StoreIntegrityError.
        antecedents, consequents, support, confidence, counts = (
            data[f"{prefix}__{label}"]
            for label in (
                "antecedents", "consequents", "support", "confidence", "support_count"
            )
        )
        try:
            arrays = RuleArrays(
                BitMatrix(antecedents, len(universe)),
                BitMatrix(consequents, len(universe)),
                universe,
                support,
                confidence,
                counts,
            )
        except ValueError as exc:
            raise StoreFormatError(f"{path}: {prefix}: {exc}") from None
        problems = arrays.validate()
        if problems:
            raise StoreFormatError(f"{path}: {prefix}__{problems[0]}")
        return arrays
    antecedents = _row_source(pairs.get("antecedent"), data, manifest, path, sources)
    unions = _row_source(pairs.get("union"), data, manifest, path, sources)
    union_family = "closed" if pairs["union"] == "generators" else pairs["union"]
    try:
        return RuleArrays.from_row_pairs(
            antecedents,
            _int64(data, f"{prefix}__antecedent_rows"),
            unions,
            _int64(data, f"{prefix}__union_rows"),
            universe,
            int(manifest["families"][union_family]["n_objects"]),
        )
    except InvalidParameterError as exc:
        raise StoreFormatError(f"{path}: {prefix}__{exc}") from None


def _json_safe(value):
    """Best-effort JSON coercion for basis metadata (numpy scalars, etc.)."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# ----------------------------------------------------------------------
# The stored run
# ----------------------------------------------------------------------
@dataclass
class StoredRun:
    """Everything :func:`load_run` rehydrated from one container.

    Sections absent from the file are ``None`` (or empty for the rule
    mapping).  The lattice, when present, carries the *stored* packed
    order core — no containment or reduction pass ran to build it.
    """

    path: Path
    manifest: dict
    database: TransactionDatabase | None = None
    frequent: ItemsetFamily | None = None
    closed: ClosedItemsetFamily | None = None
    generators: GeneratorFamily | None = None
    lattice: IcebergLattice | None = None
    rule_arrays: dict[str, RuleArrays] = field(default_factory=dict)
    basis_kinds: dict[str, str] = field(default_factory=dict)
    basis_metadata: dict[str, dict] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """Dataset name recorded at save time (``"unnamed"`` when absent).

        The manifest always carries the ``name`` key (possibly null), so
        the fallback must trigger on ``None``, not on a missing key.
        """
        value = self.manifest.get("dataset", {}).get("name")
        return "unnamed" if value is None else str(value)

    @property
    def minsup(self) -> float | None:
        """Relative minimum support of the stored run, if recorded."""
        value = self.manifest.get("minsup")
        return None if value is None else float(value)

    @property
    def minconf(self) -> float | None:
        """Minimum confidence of the stored run, if recorded."""
        value = self.manifest.get("minconf")
        return None if value is None else float(value)

    @property
    def sections(self) -> tuple[str, ...]:
        """The sections present in the container."""
        return tuple(self.manifest.get("sections", ()))

    def require(self, section: str):
        """The section's object, or a clear error naming what is missing."""
        attribute = {
            "context": "database",
            "frequent": "frequent",
            "closed": "closed",
            "generators": "generators",
            "order": "lattice",
        }.get(section)
        if attribute is None:
            raise InvalidParameterError(f"unknown store section {section!r}")
        value = getattr(self, attribute)
        if value is None:
            raise StoreFormatError(
                f"store {self.path} has no {section!r} section "
                f"(sections: {', '.join(self.sections) or 'none'})"
            )
        return value


# ----------------------------------------------------------------------
# Save / load
# ----------------------------------------------------------------------
def save_run(
    path: str | Path,
    *,
    database: TransactionDatabase | None = None,
    frequent: ItemsetFamily | None = None,
    closed: ClosedItemsetFamily | None = None,
    generators: GeneratorFamily | None = None,
    lattice: IcebergLattice | None = None,
    rule_arrays: Mapping[str, RuleArrays] | None = None,
    row_pairs: Mapping[str, RowPairs] | None = None,
    basis_kinds: Mapping[str, str] | None = None,
    basis_metadata: Mapping[str, Mapping] | None = None,
    name: str | None = None,
    minsup: float | None = None,
    minconf: float | None = None,
    extra: Mapping | None = None,
) -> Path:
    """Write one mining run into a versioned ``.npz`` container.

    Every section argument is optional; only the supplied sections are
    written, and the manifest indexes what is present.

    Parameters
    ----------
    path : str or Path
        Destination file (conventionally ``.npz``).
    database, frequent, closed, generators, lattice : optional
        The run's sections.  ``lattice`` must have been built over
        ``closed`` — the loaded order core is re-attached to the loaded
        family by member index.
    rule_arrays : mapping of str to RuleArrays, optional
        One entry per basis to store, keyed by basis name.
    row_pairs : mapping of str to RowPairs, optional
        The row pairs of those bases that have them (a
        :class:`~repro.bases.base.BuiltBasis` carries them).  Such a
        basis is written as its two row arrays; the families they index
        must be saved too (checked by identity).  The other bases are
        written as their five columns.
    basis_kinds, basis_metadata : mapping, optional
        Per-basis registry kind and construction metadata, recorded in
        the manifest (metadata is JSON-coerced).
    name, minsup, minconf : optional
        Run identity recorded in the manifest.
    extra : mapping, optional
        Arbitrary caller JSON stored under the manifest's ``extra`` key.

    Returns
    -------
    Path
        The path written.
    """
    path = Path(path)
    payload: dict[str, np.ndarray] = {}
    manifest: dict = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "dataset": {"name": name or (database.name if database is not None else None)},
        "minsup": minsup,
        "minconf": minconf,
        "sections": [],
        "families": {},
        "bases": [],
        "extra": _json_safe(dict(extra)) if extra else {},
    }

    if database is not None:
        matrix = database.matrix
        rows, cols = np.nonzero(matrix)
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=database.n_objects)))
        )
        payload["context__indptr"] = _narrow(indptr)
        payload["context__item_ids"] = _narrow(cols)
        payload["context__items"] = _encode_items(database.items)
        manifest["dataset"].update(
            {"n_objects": database.n_objects, "n_items": database.n_items}
        )
        manifest["sections"].append("context")

    if frequent is not None:
        manifest["families"]["frequent"] = _family_section(
            "frequent", frequent, payload
        )
        manifest["sections"].append("frequent")

    if closed is not None:
        manifest["families"]["closed"] = _family_section("closed", closed, payload)
        manifest["sections"].append("closed")

    if generators is not None:
        if closed is None:
            raise InvalidParameterError(
                "storing generators requires storing their closed family too"
            )
        if generators.closed_family is not closed:
            raise InvalidParameterError(
                "the generator family was built from a different closed family"
            )
        packed = generators.packed()
        payload["generators__words"] = packed.matrix.words
        payload["generators__closure_index"] = _narrow(packed.closure_rows)
        manifest["sections"].append("generators")

    if lattice is not None:
        if closed is None:
            raise InvalidParameterError(
                "storing a lattice requires storing its closed family too"
            )
        if lattice.closed_family is not closed:
            raise InvalidParameterError(
                "the lattice was built from a different closed family"
            )
        hasse_rows, hasse_cols = lattice.hasse_edge_indices()
        payload["order__words"] = lattice.order_core.packed_containment_matrix().words
        payload["order__rows"] = _narrow(hasse_rows)
        payload["order__cols"] = _narrow(hasse_cols)
        manifest["order"] = {
            "n": len(lattice),
            "n_edges": lattice.edge_count(),
        }
        manifest["sections"].append("order")

    row_pairs = dict(row_pairs or {})
    unknown = sorted(set(row_pairs) - set(rule_arrays or {}))
    if unknown:
        raise InvalidParameterError(
            f"row pairs given for bases without rule arrays: {', '.join(unknown)}"
        )
    if rule_arrays:
        stored = {"frequent": frequent, "closed": closed, "generators": generators}
        stored = {
            label: family for label, family in stored.items() if family is not None
        }
        for basis_name, arrays in rule_arrays.items():
            pairs = row_pairs.get(basis_name)
            entry = {
                "name": basis_name,
                "kind": (basis_kinds or {}).get(basis_name),
                "rules": len(arrays),
                "metadata": _json_safe(
                    dict((basis_metadata or {}).get(basis_name, {}))
                ),
            }
            if pairs is not None:
                entry["pairs"] = _pair_families(basis_name, pairs, arrays, stored)
            _rules_section(basis_name, arrays, payload, pairs)
            manifest["bases"].append(entry)
        manifest["sections"].append("rules")

    # Per-array SHA-256 digests let a reader verify the container end to
    # end (``load_run(verify=...)``) long after any transport or storage
    # layer could have corrupted it.
    manifest["integrity"] = {
        "algorithm": DIGEST_ALGORITHM,
        "arrays": compute_digests(payload),
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    payload["manifest"] = np.frombuffer(manifest_bytes, dtype=np.uint8)
    # Crash-safe write: a `repro save` killed mid-write leaves either the
    # complete old file or the complete new file, never a torn container.
    with atomic_write(path, "wb") as handle:
        np.savez_compressed(handle, **payload)
    return path


def _parse_manifest(raw: np.ndarray, source: str | Path) -> dict:
    try:
        manifest = json.loads(np.asarray(raw, dtype=np.uint8).tobytes().decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StoreFormatError(f"{source}: unreadable store manifest ({exc})") from None
    if manifest.get("format") != FORMAT_NAME:
        raise StoreFormatError(
            f"{source} is not a {FORMAT_NAME} container "
            f"(format={manifest.get('format')!r})"
        )
    version = manifest.get("version")
    if version not in READABLE_VERSIONS:
        raise StoreFormatError(
            f"{source} uses store format version {version!r}; this reader "
            f"supports versions {', '.join(map(str, READABLE_VERSIONS))}"
        )
    return manifest


def _open_container(path: Path):
    """``np.load`` with every not-an-NPZ failure mapped to StoreFormatError.

    numpy's own errors here are misleading (a text file surfaces as a
    pickle complaint, a truncated one as BadZipFile); the documented
    contract is one loud :class:`~repro.errors.StoreFormatError` for
    anything that is not a readable store container.
    """
    try:
        return np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise StoreFormatError(f"store file not found: {path}") from None
    except (ValueError, OSError, zipfile.BadZipFile, zlib.error, EOFError) as exc:
        # Truncated or otherwise undecodable bytes are an integrity
        # failure (the file existed but cannot be what was saved), which
        # subclasses the documented StoreFormatError contract.
        raise StoreIntegrityError(
            f"{path} is not a readable store container ({exc})"
        ) from None


def read_manifest(path: str | Path) -> dict:
    """The validated manifest of a container, without loading any section."""
    path = Path(path)
    with _open_container(path) as data:
        if "manifest" not in data:
            raise StoreFormatError(f"{path} has no store manifest")
        return _parse_manifest(data["manifest"], path)


def load_run(
    path: str | Path,
    sections: Iterable[str] | None = None,
    retain_containment: bool = True,
    verify: str = "manifest",
) -> StoredRun:
    """Rehydrate a container written by :func:`save_run`.

    The returned lattice wraps the *stored* order core — no containment
    or transitive-reduction pass runs on load.

    Parameters
    ----------
    path : str or Path
        A container written by :func:`save_run`.
    sections : iterable of str, optional
        Restrict loading to the named sections (dependencies included
        automatically: generators and the lattice both need the closed
        family).  Sections the file does not hold are skipped — use
        :meth:`StoredRun.require` for a clear error when one is
        mandatory.  ``None`` loads everything the file holds.
    retain_containment : bool
        When ``False`` the order section is rehydrated CSR-only: the
        stored ``order__words`` array (the packed ``n**2 / 8``-byte
        containment relation) is never decompressed; the lattice adopts
        just the Hasse edge arrays plus the ``O(n x words)`` member
        masks and answers containment queries by mask probing.  The
        memory-lean warm-start mode of query-only consumers such as
        ``repro serve``.
    verify : str
        Integrity verification mode (see :mod:`repro.store.integrity`):
        ``"manifest"`` (the default) cross-checks the manifest's array
        inventory against the container, ``"full"`` additionally
        recomputes every array's SHA-256 digest (from the one
        decompression its section reads), ``"off"`` skips verification
        entirely.

    Returns
    -------
    StoredRun
        One attribute per loaded section; absent sections are ``None``.

    Raises
    ------
    StoreFormatError
        When the file is not a store container or its format name or
        version does not match this reader.
    StoreIntegrityError
        When the container fails integrity verification (truncated or
        undecodable file, missing/extra arrays, digest mismatch).
    """
    path = Path(path)
    resolve_verify_mode(verify)
    with _open_container(path) as data:
        if "manifest" not in data:
            raise StoreFormatError(f"{path} has no store manifest")
        manifest = _parse_manifest(data["manifest"], path)
        container = verify_container(data, manifest, path, verify)
        present = set(manifest.get("sections", []))
        wanted = present if sections is None else set(sections) & present
        if wanted & {"generators", "order"}:
            wanted.add("closed")
        wanted &= present

        run = StoredRun(path=path, manifest=manifest)
        try:
            _load_sections(run, container, manifest, wanted, retain_containment)
            container.verify_unread()
        except (zipfile.BadZipFile, zlib.error, EOFError, KeyError) as exc:
            # A flipped byte inside a compressed member surfaces as a
            # zip/zlib decode failure (or a missing key) at read time;
            # map it to the documented corruption error regardless of
            # the verify mode in effect.
            raise StoreIntegrityError(
                f"{path}: container section data is corrupted ({exc!r})"
            ) from None
        return run


def _load_sections(
    run: StoredRun, data, manifest: dict, wanted: set[str], retain_containment: bool
) -> None:
    """Populate *run* with the *wanted* sections of an opened container."""
    if "context" in wanted:
        items = _decode_items(data["context__items"])
        indptr = _int64(data, "context__indptr")
        item_ids = _int64(data, "context__item_ids")
        if not (
            indptr.size
            and indptr[0] == 0
            and indptr[-1] == item_ids.size
            and (np.diff(indptr) >= 0).all()
        ):
            raise StoreFormatError(
                f"{run.path}: context__indptr must start at 0, never decrease "
                f"and end at the {item_ids.size} stored item ids"
            )
        if item_ids.size and not 0 <= item_ids.min() <= item_ids.max() < len(items):
            raise StoreFormatError(
                f"{run.path}: context__item_ids must index the {len(items)} items"
            )
        transactions = [
            [items[c] for c in item_ids[indptr[i] : indptr[i + 1]]]
            for i in range(len(indptr) - 1)
        ]
        run.database = TransactionDatabase(
            transactions, item_order=items, name=run.name
        )

    families = manifest.get("families", {})
    # Family rows read once and shared by the pair-encoded rule bases.
    sources: dict[str, MaskRows] = {}
    if "frequent" in wanted:
        sources["frequent"] = _family_rows("frequent", data)
        run.frequent = _load_family(
            sources["frequent"], families["frequent"], closed=False
        )
    if "closed" in wanted:
        sources["closed"] = _family_rows("closed", data)
        run.closed = _load_family(sources["closed"], families["closed"], closed=True)

    if "generators" in wanted:
        members = run.closed.itemsets()
        sources["generators"], closure_index = _generator_rows(
            data, sources["closed"], run.path
        )
        generator_sets = _decode_members(
            sources["generators"].matrix, sources["closed"].universe
        )
        by_closure: dict[Itemset, list[Itemset]] = {}
        for index, generator in zip(closure_index, generator_sets):
            by_closure.setdefault(members[int(index)], []).append(generator)
        run.generators = GeneratorFamily(run.closed, by_closure)

    if "order" in wanted:
        rows, cols = _int64(data, "order__rows"), _int64(data, "order__cols")
        try:
            if retain_containment:
                n = int(manifest["order"]["n"])
                core = OrderCore.from_parts(
                    BitMatrix(data["order__words"], n), rows, cols
                )
            else:
                core = OrderCore.from_edges(
                    run.closed.packed().matrix.words, rows, cols
                )
        except InvalidParameterError as exc:
            raise StoreFormatError(
                f"{run.path}: order__rows/order__cols: {exc}"
            ) from None
        run.lattice = IcebergLattice(run.closed, order_core=core)

    if "rules" in wanted:
        for entry in manifest.get("bases", []):
            basis_name = entry["name"]
            run.rule_arrays[basis_name] = _load_rules(
                basis_name, entry, data, manifest, run.path, sources
            )
            if entry.get("kind"):
                run.basis_kinds[basis_name] = entry["kind"]
            run.basis_metadata[basis_name] = dict(entry.get("metadata", {}))

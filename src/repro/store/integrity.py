"""End-to-end integrity verification of the NPZ artifact store.

The mine-once/serve-many pipeline trusts its store files for a long
time: a container written today may be hot-reloaded into a serving
daemon weeks later, after passing through object stores, rsyncs and
backup restores — any of which can flip a bit.  The zip layer's CRC-32
catches most transport damage, but only for the arrays a reader happens
to decompress, only when numpy surfaces the failure readably, and with
32 bits of protection.  This module adds an explicit, end-to-end check:

* at **save** time, :func:`compute_digests` records one SHA-256 digest
  per stored array (over dtype, shape and raw bytes) into the
  manifest's ``integrity`` section;
* at **load** time, :func:`verify_container` replays the check behind
  three modes — ``"manifest"`` (structural: every manifest-listed
  array present in the file and vice versa, digests recorded),
  ``"full"`` (additionally compare every array's SHA-256 against the
  manifest, each hashed from the one decompression its section reads)
  and ``"off"``.

Every failure raises :class:`~repro.errors.StoreIntegrityError` naming
the first offending array, so a corrupted store is rejected loudly at
load instead of serving wrong answers quietly.
"""

from __future__ import annotations

import hashlib
import zipfile
import zlib

import numpy as np

from ..errors import InvalidParameterError, StoreIntegrityError

__all__ = [
    "DIGEST_ALGORITHM",
    "VERIFY_MODES",
    "VerifyingContainer",
    "array_digest",
    "compute_digests",
    "resolve_verify_mode",
    "verify_container",
]

#: The digest algorithm recorded in (and required by) the manifest.
DIGEST_ALGORITHM = "sha256"

#: Accepted values of the ``verify=`` parameter of ``load_run`` and the
#: ``repro serve --verify`` flag, weakest first.
VERIFY_MODES = ("off", "manifest", "full")


def array_digest(array: np.ndarray) -> str:
    """Return the hex SHA-256 digest of one stored array.

    The digest covers the dtype string, the shape and the raw C-order
    bytes, so any single-bit change to the data — and any silent dtype
    or shape reinterpretation — produces a different digest.

    Parameters
    ----------
    array : numpy.ndarray
        The array exactly as written into (or read back from) the
        container.

    Returns
    -------
    str
        Lowercase hexadecimal SHA-256 digest.
    """
    contiguous = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(contiguous.dtype.str.encode("ascii"))
    digest.update(repr(tuple(contiguous.shape)).encode("ascii"))
    digest.update(contiguous.tobytes())
    return digest.hexdigest()


def compute_digests(payload: dict[str, np.ndarray]) -> dict[str, str]:
    """Digest every array of a save payload (the manifest key excluded).

    Parameters
    ----------
    payload : dict[str, numpy.ndarray]
        The arrays about to be written, keyed by container name.  The
        ``"manifest"`` entry — which will itself *carry* the digests —
        is skipped.

    Returns
    -------
    dict[str, str]
        Container key to hex digest, sorted by key.
    """
    return {
        key: array_digest(array)
        for key, array in sorted(payload.items())
        if key != "manifest"
    }


def resolve_verify_mode(verify: str) -> str:
    """Validate a ``verify=`` argument against :data:`VERIFY_MODES`."""
    if verify not in VERIFY_MODES:
        raise InvalidParameterError(
            f"verify must be one of {', '.join(VERIFY_MODES)}; got {verify!r}"
        )
    return verify


class VerifyingContainer:
    """An opened container that checks each array's digest on its first read.

    Returned by :func:`verify_container`; the loader reads every section
    through it, so under ``verify="full"`` each array is decompressed
    once, and hashed from the same bytes its section then uses.
    :meth:`verify_unread` checks the arrays no section read, one at a
    time, so none of them stays resident.  In the other modes no array
    is pending and reads pass straight through.
    """

    def __init__(self, data, source, recorded: dict[str, str]) -> None:
        self._data = data
        self._source = source
        # The digest of every array not read yet.
        self._pending = dict(recorded)

    def __contains__(self, key: str) -> bool:
        """Return whether the container holds array *key*."""
        return key in self._data

    def __getitem__(self, key: str) -> np.ndarray:
        """Return array *key*, checking its digest on its first read."""
        expected = self._pending.pop(key, None)
        if expected is None:
            return self._data[key]
        try:
            array = self._data[key]
            actual = array_digest(array)
        except (ValueError, OSError, zipfile.BadZipFile, zlib.error, EOFError) as exc:
            raise StoreIntegrityError(
                f"{self._source}: array {key!r} is unreadable ({exc})"
            ) from None
        if actual != expected:
            raise StoreIntegrityError(
                f"{self._source}: array {key!r} failed {DIGEST_ALGORITHM} "
                f"verification (stored {expected[:12]}..., "
                f"computed {actual[:12]}...)"
            )
        return array

    def verify_unread(self) -> None:
        """Check every array not read yet, one at a time, in key order."""
        for key in sorted(self._pending):
            self[key]  # raises on a mismatch; the array is dropped at once


def verify_container(data, manifest: dict, source, verify: str) -> VerifyingContainer:
    """Check one opened container against its manifest's integrity section.

    Parameters
    ----------
    data : numpy.lib.npyio.NpzFile
        The opened container.
    manifest : dict
        Its already-parsed and version-checked manifest.
    source : str or Path
        The file path, for error messages.
    verify : str
        One of :data:`VERIFY_MODES`.  ``"off"`` checks nothing;
        ``"manifest"`` checks the array inventory both ways; ``"full"``
        additionally compares every array's SHA-256 digest against the
        recorded one, as the returned container reads it.

    Returns
    -------
    VerifyingContainer
        The container to read the sections from.  Under ``"full"`` call
        its :meth:`~VerifyingContainer.verify_unread` once they are read.

    Raises
    ------
    StoreIntegrityError
        On a missing integrity section, an unknown digest algorithm, an
        array listed but absent (or present but unlisted), and — when
        the array is read — an array whose compressed bytes cannot be
        decoded, or a digest mismatch.
    InvalidParameterError
        When *verify* is not a recognized mode.
    """
    if resolve_verify_mode(verify) == "off":
        return VerifyingContainer(data, source, {})
    integrity = manifest.get("integrity")
    if not isinstance(integrity, dict) or "arrays" not in integrity:
        raise StoreIntegrityError(
            f"{source}: the manifest carries no integrity section; "
            "cannot verify (re-save the store, or load with verify='off')"
        )
    algorithm = integrity.get("algorithm")
    if algorithm != DIGEST_ALGORITHM:
        raise StoreIntegrityError(
            f"{source}: unsupported integrity digest algorithm "
            f"{algorithm!r} (this reader verifies {DIGEST_ALGORITHM})"
        )
    recorded: dict = integrity["arrays"]
    listed = set(recorded)
    present = set(data.files) - {"manifest"}
    missing = sorted(listed - present)
    if missing:
        raise StoreIntegrityError(
            f"{source}: array(s) listed in the manifest are missing from "
            f"the container: {', '.join(missing)}"
        )
    unlisted = sorted(present - listed)
    if unlisted:
        raise StoreIntegrityError(
            f"{source}: container holds array(s) the manifest never "
            f"recorded: {', '.join(unlisted)}"
        )
    return VerifyingContainer(data, source, recorded if verify == "full" else {})

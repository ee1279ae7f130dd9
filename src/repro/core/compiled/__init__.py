"""NumPy-facing wrappers over the bundled C replay kernels.

Each wrapper takes the same arrays the scalar/NumPy code paths already hold,
handles dtype/contiguity coercion for the *read-only* inputs, and calls the
matching C function.  Mutated arrays (``loads``, ``counts``) must be C-
contiguous with the exact dtype — they are the steppers' own state vectors,
which always are; the wrappers assert rather than copy so an accidental
view can never silently desynchronise the in-place update.

Availability is a separate concern: callers gate on
:func:`backend_unavailable_reason` (or catch :class:`CompiledUnavailable`)
before reaching any wrapper here.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiled._backend import (
    CompiledUnavailable,
    backend_unavailable_reason,
    describe_backend,
    load_backend,
)

__all__ = [
    "CompiledUnavailable",
    "backend_unavailable_reason",
    "describe_backend",
    "load_backend",
    "kd_rounds",
    "select_rows",
    "stale_epochs",
    "weighted_rounds",
    "one_plus_beta",
    "always_go_left",
    "threshold",
    "two_phase",
]


def _in_i64(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


def _in_f64(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64)


def _mutable(arr: np.ndarray, dtype: type) -> np.ndarray:
    if arr.dtype != np.dtype(dtype) or not arr.flags["C_CONTIGUOUS"]:
        raise TypeError(
            f"compiled kernels mutate {np.dtype(dtype)} C-contiguous arrays "
            f"in place; got dtype={arr.dtype} contiguous={arr.flags['C_CONTIGUOUS']}"
        )
    return arr


def _ptr(ffi, ctype: str, arr: np.ndarray):
    return ffi.cast(ctype, ffi.from_buffer(arr))


def _round_shape(samples: np.ndarray, ties: np.ndarray, k: int) -> tuple[int, int]:
    """``(r, d)`` of a round block; the C kernels size their scratch by it."""
    r, d = samples.shape
    if ties.shape != samples.shape or not 1 <= k <= d:
        raise ValueError(
            f"round kernels need ties shaped like samples {samples.shape} "
            f"and 1 <= k <= d; got ties {ties.shape}, k={k}"
        )
    return r, d


def _check_scratch(status: int, d: int) -> None:
    """The round kernels allocate O(d) scratch per call; -1 means it failed."""
    if status != 0:
        raise MemoryError(
            f"compiled round kernel could not allocate scratch for d={d}"
        )


def kd_rounds(
    loads: np.ndarray, samples: np.ndarray, ties: np.ndarray, k: int
) -> np.ndarray:
    """Sequential strict (k,d)-choice rounds; mutates ``loads`` in place.

    Returns the ``(r, k)`` destination matrix in ball order, identical to
    ``r`` successive ``strict_select`` calls.
    """
    ffi, lib = load_backend()
    loads = _mutable(loads, np.int64)
    samples = _in_i64(samples)
    ties = _in_f64(ties)
    r, d = _round_shape(samples, ties, k)
    out = np.empty((r, k), dtype=np.int64)
    status = lib.repro_kd_rounds(
        _ptr(ffi, "int64_t *", loads),
        _ptr(ffi, "const int64_t *", samples),
        _ptr(ffi, "const double *", ties),
        r, d, k,
        _ptr(ffi, "int64_t *", out),
    )
    _check_scratch(status, d)
    return out


def stale_epochs(
    loads: np.ndarray,
    samples: np.ndarray,
    ties: np.ndarray,
    k: int,
    epoch_rounds: int,
    commit: bool = True,
) -> np.ndarray:
    """Strict stale-information epochs of ``epoch_rounds`` rows each.

    Every row of an epoch is selected against ``loads`` as of the epoch
    start; with ``commit`` each epoch's placements are added to ``loads``
    in place at its end, exactly like the scalar epoch loop.  Without it
    ``loads`` is a read-only snapshot.  Returns ``(rows, k)`` in ball order.
    """
    ffi, lib = load_backend()
    loads = _mutable(loads, np.int64) if commit else _in_i64(loads)
    samples = _in_i64(samples)
    ties = _in_f64(ties)
    rows, d = _round_shape(samples, ties, k)
    if epoch_rounds < 1 or rows % epoch_rounds:
        raise ValueError(
            f"stale epochs need whole epochs of epoch_rounds >= 1 rows; got "
            f"{rows} rows and epoch_rounds={epoch_rounds}"
        )
    out = np.empty((rows, k), dtype=np.int64)
    status = lib.repro_stale_epochs(
        _ptr(ffi, "int64_t *", loads),
        _ptr(ffi, "const int64_t *", samples),
        _ptr(ffi, "const double *", ties),
        rows // epoch_rounds, epoch_rounds, d, k, int(commit),
        _ptr(ffi, "int64_t *", out),
    )
    _check_scratch(status, d)
    return out


def select_rows(
    snapshot: np.ndarray, samples: np.ndarray, ties: np.ndarray, k: int
) -> np.ndarray:
    """Strict selection of every row against one frozen snapshot (the rest
    of a stale epoch under way): one uncommitted :func:`stale_epochs` epoch.
    No mutation; returns ``(r, k)`` in ball order."""
    return stale_epochs(
        snapshot, samples, ties, k, max(len(samples), 1), commit=False
    )


def weighted_rounds(
    loads: np.ndarray,
    counts: np.ndarray,
    samples: np.ndarray,
    ties: np.ndarray,
    weights: np.ndarray,
    increments: np.ndarray,
) -> np.ndarray:
    """Sequential weighted rounds; mutates ``loads`` (float weighted loads)
    and ``counts`` (int ball counts) in place.  ``weights`` rows must be
    sorted descending; returns ``(r, k)`` kept bins, heaviest ball first."""
    ffi, lib = load_backend()
    loads = _mutable(loads, np.float64)
    counts = _mutable(counts, np.int64)
    samples = _in_i64(samples)
    ties = _in_f64(ties)
    weights = _in_f64(weights)
    increments = _in_f64(increments)
    k = weights.shape[1]
    r, d = _round_shape(samples, ties, k)
    if weights.shape != (r, k) or increments.shape != (r,):
        raise ValueError(
            f"weighted rounds need weights ({r}, k) and increments ({r},); "
            f"got {weights.shape} and {increments.shape}"
        )
    out = np.empty((r, k), dtype=np.int64)
    status = lib.repro_weighted_rounds(
        _ptr(ffi, "double *", loads),
        _ptr(ffi, "int64_t *", counts),
        _ptr(ffi, "const int64_t *", samples),
        _ptr(ffi, "const double *", ties),
        _ptr(ffi, "const double *", weights),
        _ptr(ffi, "const double *", increments),
        r, d, k,
        _ptr(ffi, "int64_t *", out),
    )
    _check_scratch(status, d)
    return out


def one_plus_beta(
    loads: np.ndarray,
    coins: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
) -> np.ndarray:
    """Sequential (1+beta)-choice balls; mutates ``loads`` in place."""
    ffi, lib = load_backend()
    loads = _mutable(loads, np.int64)
    coins = np.ascontiguousarray(coins, dtype=np.bool_).view(np.uint8)
    first = _in_i64(first)
    second = _in_i64(second)
    n = first.shape[0]
    out = np.empty(n, dtype=np.int64)
    lib.repro_one_plus_beta(
        _ptr(ffi, "int64_t *", loads),
        _ptr(ffi, "const uint8_t *", coins),
        _ptr(ffi, "const int64_t *", first),
        _ptr(ffi, "const int64_t *", second),
        n,
        _ptr(ffi, "int64_t *", out),
    )
    return out


def always_go_left(loads: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Sequential Always-Go-Left balls; mutates ``loads`` in place."""
    ffi, lib = load_backend()
    loads = _mutable(loads, np.int64)
    probes = _in_i64(probes)
    n, d = probes.shape
    out = np.empty(n, dtype=np.int64)
    lib.repro_always_go_left(
        _ptr(ffi, "int64_t *", loads),
        _ptr(ffi, "const int64_t *", probes),
        n, d,
        _ptr(ffi, "int64_t *", out),
    )
    return out


def threshold(
    loads: np.ndarray, probes: np.ndarray, limits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential threshold-probing balls; mutates ``loads`` in place.

    Returns ``(bins, probes_used)`` per ball."""
    ffi, lib = load_backend()
    loads = _mutable(loads, np.int64)
    probes = _in_i64(probes)
    limits = _in_i64(limits)
    n, max_probes = probes.shape
    out_bins = np.empty(n, dtype=np.int64)
    out_used = np.empty(n, dtype=np.int64)
    lib.repro_threshold(
        _ptr(ffi, "int64_t *", loads),
        _ptr(ffi, "const int64_t *", probes),
        _ptr(ffi, "const int64_t *", limits),
        n, max_probes,
        _ptr(ffi, "int64_t *", out_bins),
        _ptr(ffi, "int64_t *", out_used),
    )
    return out_bins, out_used


def two_phase(
    loads: np.ndarray,
    primary: np.ndarray,
    fallback: np.ndarray,
    cap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential two-phase adaptive balls; mutates ``loads`` in place.

    Returns ``(bins, retried)`` per ball, ``retried`` as a bool array."""
    ffi, lib = load_backend()
    loads = _mutable(loads, np.int64)
    primary = _in_i64(primary)
    fallback = _in_i64(fallback)
    n = primary.shape[0]
    retry_probes = fallback.shape[1]
    out_bins = np.empty(n, dtype=np.int64)
    out_retried = np.empty(n, dtype=np.uint8)
    lib.repro_two_phase(
        _ptr(ffi, "int64_t *", loads),
        _ptr(ffi, "const int64_t *", primary),
        _ptr(ffi, "const int64_t *", fallback),
        n, retry_probes, int(cap),
        _ptr(ffi, "int64_t *", out_bins),
        _ptr(ffi, "uint8_t *", out_retried),
    )
    return out_bins, out_retried.view(np.bool_)

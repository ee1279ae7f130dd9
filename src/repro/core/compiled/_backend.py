"""Build/load machinery for the bundled C kernels.

The compiled tier ships ``_kernels.c`` and compiles it on first use with the
system C compiler, loading the result through cffi's ABI mode.  Nothing here
is required for correctness: every caller first asks
:func:`backend_unavailable_reason` and falls back to the NumPy/scalar path
when it returns a reason string.  The guard contract is that a missing
compiler, missing cffi, or failed build produces a *reason*, never an
exception, so a clean pure-python environment behaves exactly as before this
tier existed.

Environment knobs:

``REPRO_COMPILED_DISABLE``
    Any non-empty value short-circuits availability (used by tests and as an
    operator escape hatch).  Re-checked on every call so monkeypatching works.
``REPRO_COMPILED_CACHE``
    Directory for the built shared object (default: XDG cache).
``REPRO_CC``
    C compiler to use (default: first of ``cc``, ``gcc``, ``clang`` on PATH).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

__all__ = [
    "CompiledUnavailable",
    "backend_unavailable_reason",
    "describe_backend",
    "load_backend",
]

_SOURCE = Path(__file__).with_name("_kernels.c")

_CDEF = """
int repro_kd_rounds(int64_t *loads, const int64_t *samples,
                    const double *ties, int64_t r, int64_t d, int64_t k,
                    int64_t *out);
int repro_stale_epochs(int64_t *loads, const int64_t *samples,
                       const double *ties, int64_t epochs, int64_t r,
                       int64_t d, int64_t k, int commit, int64_t *out);
int repro_weighted_rounds(double *loads, int64_t *counts,
                          const int64_t *samples, const double *ties,
                          const double *weights, const double *increments,
                          int64_t r, int64_t d, int64_t k, int64_t *out);
void repro_one_plus_beta(int64_t *loads, const uint8_t *coins,
                         const int64_t *first, const int64_t *second,
                         int64_t n, int64_t *out);
void repro_always_go_left(int64_t *loads, const int64_t *probes,
                          int64_t n, int64_t d, int64_t *out);
void repro_threshold(int64_t *loads, const int64_t *probes,
                     const int64_t *limits, int64_t n, int64_t max_probes,
                     int64_t *out_bins, int64_t *out_used);
void repro_two_phase(int64_t *loads, const int64_t *primary,
                     const int64_t *fallback, int64_t n,
                     int64_t retry_probes, int64_t cap,
                     int64_t *out_bins, uint8_t *out_retried);
"""


class CompiledUnavailable(RuntimeError):
    """The compiled backend cannot be built or loaded in this environment."""


_lock = threading.Lock()
# (ffi, lib) once loaded, or a reason string once a build/load attempt
# failed.  REPRO_COMPILED_DISABLE is deliberately NOT cached — it is checked
# on every call so tests can toggle it.
_loaded: tuple[object, object] | None = None
_failed_reason: str | None = None


def _find_compiler() -> str | None:
    override = os.environ.get("REPRO_CC")
    if override:
        return override if shutil.which(override) else None
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_COMPILED_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-compiled"


#: Compiler flags of the shared object.  ``-ffp-contract=off`` keeps the
#: compiler from fusing ``a + b * c`` into one FMA (the default on aarch64),
#: which rounds once where NumPy rounds the product first: the weighted
#: round's heights must match ``core/weighted.py`` bit for bit.
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


def _compile_command(compiler: str, source: str, out: str) -> list[str]:
    return [compiler, *_CFLAGS, "-o", out, source]


def _source_tag(source: str, compiler: str) -> str:
    """Cache key of the built object: the source and the compile command,
    so a changed flag or compiler rebuilds instead of loading a stale
    ``.so``."""
    command = " ".join(_compile_command(compiler, _SOURCE.name, "-"))
    payload = f"{sys.implementation.cache_tag}\n{command}\n{source}".encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _build(compiler: str, source_path: Path, out_path: Path) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(out_path.parent))
    os.close(fd)
    try:
        proc = subprocess.run(
            _compile_command(compiler, str(source_path), tmp),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip()
            raise CompiledUnavailable(
                f"compiler failed ({compiler}): {detail[:500]}"
            )
        os.replace(tmp, out_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_locked() -> tuple[object, object]:
    global _loaded, _failed_reason
    if _loaded is not None:
        return _loaded
    if _failed_reason is not None:
        raise CompiledUnavailable(_failed_reason)
    try:
        try:
            import cffi
        except ImportError:
            raise CompiledUnavailable(
                "cffi is not installed (pip install repro[compiled])"
            )
        if not _SOURCE.exists():
            raise CompiledUnavailable(f"bundled source missing: {_SOURCE}")
        compiler = _find_compiler()
        if compiler is None:
            raise CompiledUnavailable(
                "no C compiler found (set REPRO_CC or install cc/gcc/clang)"
            )
        source = _SOURCE.read_text(encoding="utf-8")
        lib_path = _cache_dir() / f"repro_kernels_{_source_tag(source, compiler)}.so"
        if not lib_path.exists():
            _build(compiler, _SOURCE, lib_path)
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        try:
            lib = ffi.dlopen(str(lib_path))
        except OSError as exc:
            raise CompiledUnavailable(f"cannot load {lib_path}: {exc}")
        _loaded = (ffi, lib)
        return _loaded
    except CompiledUnavailable as exc:
        _failed_reason = str(exc)
        raise


def load_backend() -> tuple[object, object]:
    """Return ``(ffi, lib)``, building the shared object on first use.

    Raises :class:`CompiledUnavailable` with an actionable reason when the
    backend cannot be provided.  The failure is cached (the environment will
    not grow a compiler mid-process) but the ``REPRO_COMPILED_DISABLE``
    switch is honoured fresh on every call.
    """
    if os.environ.get("REPRO_COMPILED_DISABLE"):
        raise CompiledUnavailable("disabled via REPRO_COMPILED_DISABLE")
    with _lock:
        return _load_locked()


def backend_unavailable_reason() -> str | None:
    """Why the compiled backend cannot run here, or ``None`` if it can."""
    try:
        load_backend()
    except CompiledUnavailable as exc:
        return str(exc)
    return None


def describe_backend() -> dict:
    """Diagnostic summary for ``repro schemes --check`` and humans."""
    reason = backend_unavailable_reason()
    info: dict = {
        "available": reason is None,
        "compiler": _find_compiler(),
        "cache_dir": str(_cache_dir()),
    }
    if reason is not None:
        info["reason"] = reason
    return info


def _reset_for_tests() -> None:
    """Drop the cached load/failure state (test hook)."""
    global _loaded, _failed_reason
    with _lock:
        _loaded = None
        _failed_reason = None

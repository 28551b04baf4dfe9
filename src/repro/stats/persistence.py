"""Persisting precomputed statistics to disk.

The offline phase can be expensive at scale, so its products — sample
positions, synopsis root positions, and histogram state — can be saved
and restored. Only *positions* are stored for samples and synopses:
tuples are re-read from the (immutable) tables on load, so the archive
stays small and the foreign-key joins are reconstructed exactly.

Layout: one directory containing ``manifest.json`` plus one ``.npz``
file per table.

Two durability properties hold:

* **Atomic save.** :func:`save_statistics` stages the whole archive in
  a temporary sibling directory and swaps it into place only once every
  file is written. A crash mid-save leaves either the previous archive
  fully intact or (in the narrow swap window) no manifest at all —
  which :func:`load_statistics` rejects cleanly — never a manifest
  pointing at a mix of old and new ``.npz`` files.
* **Version continuity.** The manifest records the saving manager's
  version as ``statistics_epoch``, and :func:`load_statistics` stamps
  the restored manager with a fresh process-unique version at least
  that large. Two archives loaded into one process therefore never
  share a version, so statistics-versioned caches (plan cache,
  estimator memos) can never serve a plan across an archive swap.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import zipfile
import zlib

import numpy as np

from repro.catalog import Database
from repro.errors import StatisticsError
from repro.stats.histogram import EquiDepthHistogram
from repro.stats.join_synopsis import rebuild_join_synopsis
from repro.stats.manager import StatisticsManager
from repro.stats.sample import TableSample

_MANIFEST = "manifest.json"
_FORMAT_VERSION = 1


def save_statistics(manager: StatisticsManager, directory) -> None:
    """Write all of ``manager``'s statistics under ``directory``.

    The write is atomic at the directory level: the archive is staged
    under a temporary sibling and renamed into place, so a concurrent
    or crashed save can never leave a readable-but-wrong mix of old
    and new files behind the manifest.
    """
    path = pathlib.Path(directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.parent / f".{path.name}.staging-{os.getpid()}"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        _write_archive(manager, staging)
        _swap_into_place(staging, path)
    finally:
        if staging.exists():
            shutil.rmtree(staging, ignore_errors=True)


def _write_archive(manager: StatisticsManager, path: pathlib.Path) -> None:
    manifest: dict = {
        "format_version": _FORMAT_VERSION,
        "statistics_epoch": manager.version,
        "sample_size": manager.sample_size,
        "tables": {},
    }
    for name in manager.database.table_names:
        arrays: dict[str, np.ndarray] = {}
        entry: dict = {}
        sample = manager.sample_for(name)
        if sample is not None:
            arrays["sample_row_ids"] = sample.row_ids
            entry["sample"] = True
        synopsis = manager.synopsis_for(name)
        if synopsis is not None:
            if synopsis.root_row_ids is None:
                raise StatisticsError(
                    f"synopsis for {name!r} lacks root row ids; rebuild it "
                    "before saving"
                )
            arrays["synopsis_row_ids"] = synopsis.root_row_ids
            entry["synopsis"] = True
        histogram_columns = []
        for column in manager.database.table(name).schema.column_names:
            histogram = manager.histogram(name, column)
            if histogram is None:
                continue
            histogram_columns.append(column)
            arrays[f"hist_{column}_uppers"] = histogram.uppers
            arrays[f"hist_{column}_counts"] = histogram.counts
            arrays[f"hist_{column}_distincts"] = histogram.distincts
            arrays[f"hist_{column}_boundary"] = histogram.boundary_counts
            arrays[f"hist_{column}_meta"] = np.array(
                [histogram.minimum, float(histogram.total_rows)]
            )
        entry["histograms"] = histogram_columns
        if arrays:
            np.savez_compressed(path / f"{name}.npz", **arrays)
            manifest["tables"][name] = entry

    # The manifest lands last: a staging directory without one is
    # unreadable garbage, never a half-archive.
    with open(path / _MANIFEST, "w") as handle:
        json.dump(manifest, handle, indent=2)


def _swap_into_place(staging: pathlib.Path, path: pathlib.Path) -> None:
    """Replace ``path`` with ``staging`` via rename.

    POSIX ``rename`` cannot atomically replace a non-empty directory,
    so an existing archive is first moved aside; the only crash window
    leaves *no* manifest at ``path`` (a clean load error), never mixed
    statistics.
    """
    if not path.exists():
        os.replace(staging, path)
        return
    stale = path.parent / f".{path.name}.stale-{os.getpid()}"
    if stale.exists():
        shutil.rmtree(stale)
    os.replace(path, stale)
    try:
        os.replace(staging, path)
    except OSError:
        os.replace(stale, path)  # roll the old archive back
        raise
    shutil.rmtree(stale, ignore_errors=True)


def load_statistics(database: Database, directory) -> StatisticsManager:
    """Restore a :class:`StatisticsManager` saved by :func:`save_statistics`.

    The database must contain the same tables (same sizes) the
    statistics were computed over. Every corruption mode — a missing or
    malformed manifest, a truncated or missing ``.npz``, arrays the
    manifest promises but the archive lacks, out-of-range sample or
    synopsis row ids — raises :class:`StatisticsError`; no partial
    manager ever escapes.

    The returned manager carries a fresh process-unique ``version``
    (floored at the archive's persisted ``statistics_epoch``), so
    loading two archives — or the same archive twice — always yields
    distinct versions and therefore distinct cache keys.
    """
    path = pathlib.Path(directory)
    manifest_path = path / _MANIFEST
    if not manifest_path.exists():
        raise StatisticsError(f"no statistics manifest under {path}")
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        raise StatisticsError(
            f"unreadable statistics manifest under {path}: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or not isinstance(
        manifest.get("tables"), dict
    ):
        raise StatisticsError(
            f"malformed statistics manifest under {path}"
        )
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise StatisticsError(
            f"unsupported statistics format {manifest.get('format_version')!r}"
        )

    manager = StatisticsManager(database)
    manager.sample_size = manifest.get("sample_size")
    for name, entry in manifest["tables"].items():
        if name not in database:
            raise StatisticsError(
                f"statistics reference unknown table {name!r}"
            )
        table = database.table(name)
        try:
            arrays_handle = np.load(path / f"{name}.npz")
        except FileNotFoundError as exc:
            raise StatisticsError(
                f"statistics archive for table {name!r} is missing"
            ) from exc
        except (zipfile.BadZipFile, OSError, ValueError) as exc:
            raise StatisticsError(
                f"statistics archive for table {name!r} is corrupt: {exc}"
            ) from exc
        with arrays_handle as arrays:
            try:
                if entry.get("sample"):
                    manager._samples[name] = TableSample.from_row_ids(
                        table, arrays["sample_row_ids"]
                    )
                if entry.get("synopsis"):
                    manager._synopses[name] = rebuild_join_synopsis(
                        database, name, arrays["synopsis_row_ids"]
                    )
                for column in entry.get("histograms", []):
                    minimum, total_rows = arrays[f"hist_{column}_meta"]
                    manager._histograms[(name, column)] = _histogram_from_state(
                        arrays[f"hist_{column}_uppers"],
                        arrays[f"hist_{column}_counts"],
                        arrays[f"hist_{column}_distincts"],
                        arrays[f"hist_{column}_boundary"],
                        float(minimum),
                        int(total_rows),
                    )
            except KeyError as exc:
                raise StatisticsError(
                    f"statistics archive for table {name!r} lacks array "
                    f"{exc.args[0]!r} promised by the manifest"
                ) from exc
            except (zipfile.BadZipFile, zlib.error, OSError, ValueError) as exc:
                raise StatisticsError(
                    f"statistics archive for table {name!r} is corrupt: {exc}"
                ) from exc
    epoch = manifest.get("statistics_epoch")
    manager.bump_version(epoch if isinstance(epoch, int) else 0)
    return manager


def _histogram_from_state(
    uppers: np.ndarray,
    counts: np.ndarray,
    distincts: np.ndarray,
    boundary_counts: np.ndarray,
    minimum: float,
    total_rows: int,
) -> EquiDepthHistogram:
    histogram = EquiDepthHistogram.__new__(EquiDepthHistogram)
    histogram.uppers = uppers
    histogram.counts = counts
    histogram.distincts = distincts
    histogram.boundary_counts = boundary_counts
    for array in (uppers, counts, distincts, boundary_counts):
        array.setflags(write=False)
    histogram.minimum = minimum
    histogram.total_rows = total_rows
    return histogram

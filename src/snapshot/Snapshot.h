//===-- snapshot/Snapshot.h - Persistent zero-copy snapshots ----*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persistence for `FrozenGraph`: write a closed, frozen analysis to the
/// on-disk format in `Format.h`, and load it back by `mmap`-ing the file
/// read-only — the loaded `FrozenGraph` view's spans point straight into
/// the mapping, so a warm load costs one map plus checksum validation,
/// never a parse/close/freeze.
///
/// Three layers:
///
///   * `writeSnapshot` — serializes a frozen graph (plus pre-rendered
///     name tables, source ranges, the condensation, and optionally the
///     complete label-set kernel's interned rows) and renames it into place
///     atomically.
///   * `LoadedSnapshot` — owns the mapping and the span-backed
///     `FrozenGraph` view; exposes the persisted names so the driver can
///     render query output byte-identically to the in-memory path.
///   * the content-addressed cache — `snapshotCacheKey` hashes source
///     text + format version + analysis configuration into a stable key;
///     `snapshotCachePath` places it under `--snapshot-dir`,
///     `$STCFA_SNAPSHOT_DIR`, or `~/.cache/stcfa`.
///
/// Every failure — unwritable path, short file, bad magic, version or
/// endianness mismatch, checksum mismatch, out-of-bounds section —
/// surfaces as a `Status`; the fault-injection sites `snapshot.*`
/// (FaultInjection.h) pin that contract in the test suite.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SNAPSHOT_SNAPSHOT_H
#define STCFA_SNAPSHOT_SNAPSHOT_H

#include "core/FrozenGraph.h"
#include "snapshot/Format.h"
#include "support/Diagnostics.h"
#include "support/Status.h"

#include <memory>
#include <span>
#include <string>
#include <string_view>

namespace stcfa {

class LabelSetKernel;
class Module;

//===----------------------------------------------------------------------===//
// Writing
//===----------------------------------------------------------------------===//

/// Optional extras persisted alongside the graph tables.
struct SnapshotWriteOptions {
  /// The source program's cache key (`snapshotCacheKey`); stored in the
  /// header so a loader can verify the snapshot matches its input.
  /// 0 = unknown/unchecked.
  uint64_t ContentHash = 0;
  /// A *complete* label-set kernel whose interned rows should be persisted
  /// (warm loads then adopt it and skip the closure). Null = omit.
  const LabelSetKernel *Kernel = nullptr;
};

/// Serializes \p F (frozen from \p M's pipeline) to \p Path: writes to a
/// temporary sibling, fsyncs, and renames into place, so a crashed or
/// faulted write never leaves a half-written snapshot under the final
/// name.  Returns `Ok` or the failure reason (`InvalidArgument` for an
/// inert snapshot, `OutOfMemory` for the injected alloc fault,
/// `Internal` for I/O errors).
Status writeSnapshot(const std::string &Path, const FrozenGraph &F,
                     const Module &M,
                     const SnapshotWriteOptions &Opts = {});

/// `writeSnapshot` with the complete label-set kernel of \p F and
/// \p ContentHash in the header: the fill behind
/// `--save-snapshot`, the driver's cache miss and the daemon's
/// write-through.  A kernel that fails to run is left out; loads then
/// just skip adoption.
Status writeSnapshotWithKernel(const std::string &Path, const FrozenGraph &F,
                               const Module &M, uint64_t ContentHash);

//===----------------------------------------------------------------------===//
// Loading
//===----------------------------------------------------------------------===//

/// A read-only `mmap` of a whole file (RAII; movable, not copyable).
class MappedFile {
public:
  MappedFile() = default;
  MappedFile(MappedFile &&O) noexcept : Data(O.Data), Size(O.Size) {
    O.Data = nullptr;
    O.Size = 0;
  }
  MappedFile &operator=(MappedFile &&O) noexcept;
  ~MappedFile();

  /// Maps \p Path read-only.  On failure returns a default (unmapped)
  /// object with \p Out explaining why.
  static MappedFile open(const std::string &Path, Status &Out);

  bool mapped() const { return Data != nullptr; }
  const unsigned char *data() const { return Data; }
  size_t size() const { return Size; }

private:
  const unsigned char *Data = nullptr;
  size_t Size = 0;
};

/// A validated, mmap-backed snapshot: the `FrozenGraph` view plus the
/// persisted name/source tables.  Immutable after `load`; keep it alive
/// as long as any span or the frozen view is in use.
class LoadedSnapshot {
public:
  /// Maps and validates \p Path.  Null on any failure, with \p Out
  /// carrying the reason; a non-null result passed every header, bounds,
  /// and checksum test.
  static std::unique_ptr<LoadedSnapshot> load(const std::string &Path,
                                              Status &Out);

  /// The zero-copy query view: the same self-contained `FrozenGraph`
  /// a fresh freeze yields, backed by the mapping.
  const FrozenGraph &frozen() const { return *F; }

  /// Header fields.
  uint64_t contentHash() const { return ContentHash; }
  bool hasKernelRows() const { return !KernelPool.empty(); }

  /// The module root occurrence, for the default `labels` query.
  ExprId rootExpr() const { return ExprId(RootExpr); }

  /// Pre-rendered `describeExpr` string of occurrence \p I.
  std::string_view exprName(uint32_t I) const {
    return {StringBlob.data() + ExprNameOffsets[I],
            StringBlob.data() + ExprNameOffsets[I + 1]};
  }
  /// Pre-rendered `describeLabel` string of label \p I.
  std::string_view labelName(uint32_t I) const {
    return {StringBlob.data() + LabelNameOffsets[I],
            StringBlob.data() + LabelNameOffsets[I + 1]};
  }
  /// Source range of occurrence \p I.
  SourceRange exprRange(uint32_t I) const {
    const uint32_t *R = SourceRanges.data() + 4 * size_t(I);
    return {{R[0], R[1]}, {R[2], R[3]}};
  }

  /// Builds a born-complete kernel over the persisted row ids and pool,
  /// or null when the snapshot carries none.  The caller typically hands it
  /// to `QueryEngine::adoptKernel`; it borrows this snapshot's mapping.
  std::unique_ptr<LabelSetKernel> adoptKernel() const;

private:
  LoadedSnapshot() = default;

  MappedFile Map;
  std::unique_ptr<FrozenGraph> F;
  uint64_t ContentHash = 0;
  uint32_t RootExpr = 0;
  std::span<const char> StringBlob;
  std::span<const uint32_t> ExprNameOffsets, LabelNameOffsets, SourceRanges;
  std::span<const uint32_t> KernelRowOf;
  std::span<const uint64_t> KernelPool;
};

//===----------------------------------------------------------------------===//
// Content-addressed cache
//===----------------------------------------------------------------------===//

/// The cache key: source text + format version + the analysis
/// configuration that shapes the frozen tables (\p Config, e.g.
/// `"congruence=bytype;policy=paper"`).  Stable across processes and
/// runs; any format bump changes every key.
uint64_t snapshotCacheKey(std::string_view Source, std::string_view Config);

/// The cache directory: \p Override if non-empty, else
/// `$STCFA_SNAPSHOT_DIR`, else `$XDG_CACHE_HOME/stcfa`, else
/// `$HOME/.cache/stcfa`, else `.stcfa-cache`.  Does not create it.
std::string snapshotCacheDir(const std::string &Override = {});

/// `<dir>/<key as 16 hex digits>.stcfa-snap`.
std::string snapshotCachePath(const std::string &Dir, uint64_t Key);

/// Creates \p Dir (and missing parents) if needed.
Status ensureSnapshotDir(const std::string &Dir);

/// Bounds the cache directory to \p MaxBytes by deleting `*.stcfa-snap`
/// entries oldest-mtime-first (LRU: loads and fills both refresh mtime)
/// until the remaining entries fit.  Counts each unlink in the
/// `snapshot.cache-evictions` counter and returns how many entries were
/// evicted.  A missing directory is an empty cache (returns 0);
/// non-snapshot files are never touched.
size_t enforceSnapshotCacheBudget(const std::string &Dir, uint64_t MaxBytes);

/// Refreshes \p Path's mtime (best-effort) so the LRU eviction order
/// tracks cache *hits*, not just fills.  Call after serving a snapshot
/// from the cache.
void touchSnapshotEntry(const std::string &Path);

/// Where one program's entry lives in the cache.
struct SnapshotCacheSlot {
  std::string Dir, Path; ///< `snapshotCacheDir`, `snapshotCachePath`
  uint64_t Key = 0;      ///< `snapshotCacheKey`
};

/// The cache lookup the driver and the daemon share: keys \p Source under
/// \p Config in the directory \p DirOverride names, and returns the
/// entry if it maps and its content hash matches — counting
/// `snapshot.cache-hits` and refreshing its LRU mtime — else null,
/// counting `snapshot.cache-misses`.  \p Slot names the entry either way.
std::unique_ptr<LoadedSnapshot> lookupSnapshotCache(
    const std::string &DirOverride, std::string_view Source,
    std::string_view Config, SnapshotCacheSlot &Slot);

/// The write-through fill after a miss: writes \p F (frozen from \p M)
/// with its kernel rows into \p Slot, then evicts down to \p MaxBytes
/// (0 = uncapped), counting evictions into \p Evicted.  Each caller
/// decides what a failed fill means.
Status fillSnapshotCache(const SnapshotCacheSlot &Slot, const FrozenGraph &F,
                         const Module &M, uint64_t MaxBytes, size_t &Evicted);

} // namespace stcfa

#endif // STCFA_SNAPSHOT_SNAPSHOT_H

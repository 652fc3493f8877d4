//===-- snapshot/Cache.cpp - Content-addressed snapshot cache -------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cache-key recipe (docs/SNAPSHOT.md): `hashBytes(source)` combined with
/// the snapshot format version and a canonical configuration string
/// naming every option that shapes the frozen tables.  Any source edit,
/// option change, or format bump changes the key, so a stale entry can
/// never be served — there is no invalidation protocol, only misses.
///
//===----------------------------------------------------------------------===//

#include "snapshot/Snapshot.h"
#include "support/Hashing.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

using namespace stcfa;

uint64_t stcfa::snapshotCacheKey(std::string_view Source,
                                 std::string_view Config) {
  uint64_t H = hashBytes(Source.data(), Source.size());
  H = hashCombine(H, SnapshotFormatVersion);
  return hashCombine(H, hashBytes(Config.data(), Config.size()));
}

std::string stcfa::snapshotCacheDir(const std::string &Override) {
  if (!Override.empty())
    return Override;
  if (const char *Env = std::getenv("STCFA_SNAPSHOT_DIR"); Env && *Env)
    return Env;
  if (const char *Xdg = std::getenv("XDG_CACHE_HOME"); Xdg && *Xdg)
    return std::string(Xdg) + "/stcfa";
  if (const char *Home = std::getenv("HOME"); Home && *Home)
    return std::string(Home) + "/.cache/stcfa";
  return ".stcfa-cache";
}

std::string stcfa::snapshotCachePath(const std::string &Dir, uint64_t Key) {
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx", (unsigned long long)Key);
  return Dir + "/" + Hex + ".stcfa-snap";
}

Status stcfa::ensureSnapshotDir(const std::string &Dir) {
  if (Dir.empty())
    return Status::invalidArgument("empty snapshot cache directory");
  // mkdir -p: create each component, tolerating ones that already exist.
  for (size_t Pos = 1; Pos <= Dir.size(); ++Pos) {
    if (Pos != Dir.size() && Dir[Pos] != '/')
      continue;
    std::string Prefix = Dir.substr(0, Pos);
    if (::mkdir(Prefix.c_str(), 0755) != 0 && errno != EEXIST)
      return Status::internal("cannot create snapshot directory '" + Prefix +
                              "'");
  }
  return Status::ok();
}

namespace {
struct CacheEntry {
  std::string Path;
  uint64_t Bytes;
  time_t Mtime;
};

bool isSnapshotEntry(const char *Name) {
  constexpr const char *Suffix = ".stcfa-snap";
  size_t N = std::strlen(Name), S = std::strlen(Suffix);
  return N > S && std::strcmp(Name + (N - S), Suffix) == 0;
}
} // namespace

size_t stcfa::enforceSnapshotCacheBudget(const std::string &Dir,
                                         uint64_t MaxBytes) {
  static Counter &Evictions = counter("snapshot.cache-evictions");
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0; // a missing directory is an empty (and thus bounded) cache
  std::vector<CacheEntry> Entries;
  uint64_t Total = 0;
  while (const dirent *E = ::readdir(D)) {
    if (!isSnapshotEntry(E->d_name))
      continue; // never touch files the cache didn't write
    std::string Path = Dir + "/" + E->d_name;
    struct stat St;
    if (::stat(Path.c_str(), &St) != 0 || !S_ISREG(St.st_mode))
      continue;
    Total += static_cast<uint64_t>(St.st_size);
    Entries.push_back(
        {std::move(Path), static_cast<uint64_t>(St.st_size), St.st_mtime});
  }
  ::closedir(D);
  if (Total <= MaxBytes)
    return 0;
  // Oldest mtime first; fills and hits both refresh it, so this is LRU.
  std::sort(Entries.begin(), Entries.end(),
            [](const CacheEntry &A, const CacheEntry &B) {
              return A.Mtime != B.Mtime ? A.Mtime < B.Mtime
                                        : A.Path < B.Path;
            });
  size_t Evicted = 0;
  for (const CacheEntry &E : Entries) {
    if (Total <= MaxBytes)
      break;
    if (::unlink(E.Path.c_str()) != 0)
      continue; // raced with another process; its unlink counts the bytes
    Total -= E.Bytes;
    ++Evicted;
    Evictions.inc();
  }
  return Evicted;
}

void stcfa::touchSnapshotEntry(const std::string &Path) {
#ifdef __APPLE__
  ::utimes(Path.c_str(), nullptr);
#else
  ::utimensat(AT_FDCWD, Path.c_str(), nullptr, 0);
#endif
}

std::unique_ptr<LoadedSnapshot>
stcfa::lookupSnapshotCache(const std::string &DirOverride,
                           std::string_view Source, std::string_view Config,
                           SnapshotCacheSlot &Slot) {
  Slot.Dir = snapshotCacheDir(DirOverride);
  Slot.Key = snapshotCacheKey(Source, Config);
  Slot.Path = snapshotCachePath(Slot.Dir, Slot.Key);
  Status LoadStatus = Status::ok();
  std::unique_ptr<LoadedSnapshot> Snap =
      LoadedSnapshot::load(Slot.Path, LoadStatus);
  // A key collision with a different content hash is a miss: rebuild
  // rather than serve the wrong program's answers.
  if (Snap && Snap->contentHash() == Slot.Key) {
    counter("snapshot.cache-hits").inc();
    touchSnapshotEntry(Slot.Path); // a hit refreshes the LRU order
    traceInstant("snapshot.cache-hit");
    return Snap;
  }
  counter("snapshot.cache-misses").inc();
  traceInstant("snapshot.cache-miss");
  return nullptr;
}

Status stcfa::fillSnapshotCache(const SnapshotCacheSlot &Slot,
                                const FrozenGraph &F, const Module &M,
                                uint64_t MaxBytes, size_t &Evicted) {
  Evicted = 0;
  Status S = ensureSnapshotDir(Slot.Dir);
  if (S.isOk())
    S = writeSnapshotWithKernel(Slot.Path, F, M, Slot.Key);
  if (S.isOk() && MaxBytes != 0)
    Evicted = enforceSnapshotCacheBudget(Slot.Dir, MaxBytes);
  return S;
}

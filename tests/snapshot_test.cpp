//===-- tests/snapshot_test.cpp - Persistent snapshot format --------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk snapshot contract (docs/SNAPSHOT.md):
///
///   * **Round trip is bit-exact** — a loaded snapshot answers every
///     label-set query, renders every name, and reports every source
///     range identically to the in-memory pipeline that wrote it.
///   * **Writes are deterministic** — the same frozen tables always
///     produce byte-identical files (the cache relies on it).
///   * **Damage is loud** — truncation, header corruption, bit flips,
///     version/endian mismatch, an out-of-range or mis-sized kernel
///     interning, and injected I/O faults all surface as clean `Status`
///     failures, never a crash, an out-of-bounds read or a wrong answer.
///
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "core/FrozenGraph.h"
#include "core/LabelSetKernel.h"
#include "core/QueryEngine.h"
#include "core/Reachability.h"
#include "core/SubtransitiveGraph.h"
#include "gen/Corpus.h"
#include "gen/Generators.h"
#include "snapshot/Snapshot.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "support/Metrics.h"

#include "TestUtil.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include <sys/stat.h>
#include <sys/time.h>

using namespace stcfa;

namespace {

/// A parsed + closed + frozen pipeline, kept alive together.
struct Pipeline {
  std::unique_ptr<Module> M;
  std::unique_ptr<SubtransitiveGraph> G;
  std::unique_ptr<FrozenGraph> F;
};

Pipeline freezeProgram(const std::string &Source) {
  Pipeline P;
  P.M = parseMaybeInfer(Source);
  if (!P.M)
    return P;
  P.G = std::make_unique<SubtransitiveGraph>(*P.M, SubtransitiveConfig{});
  P.G->build();
  EXPECT_TRUE(P.G->close(Deadline::infinite()).isOk());
  P.F = std::make_unique<FrozenGraph>(*P.G);
  EXPECT_TRUE(P.F->status().isOk());
  return P;
}

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "stcfa_snapshot_test_" + Name + ".snap";
}

std::vector<unsigned char> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return {std::istreambuf_iterator<char>(In),
          std::istreambuf_iterator<char>()};
}

void writeFile(const std::string &Path, const std::vector<unsigned char> &B) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(B.data()),
            static_cast<std::streamsize>(B.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

/// Loads and expects failure; returns the failing status for inspection.
Status expectLoadFails(const std::string &Path) {
  Status S = Status::ok();
  std::unique_ptr<LoadedSnapshot> Snap = LoadedSnapshot::load(Path, S);
  EXPECT_EQ(Snap, nullptr) << Path;
  EXPECT_FALSE(S.isOk()) << Path;
  return S;
}

/// The section-table entry of \p Id in the file image \p Bytes, or null.
SnapshotSectionEntry *sectionEntry(std::vector<unsigned char> &Bytes,
                                   SnapshotSectionId Id) {
  const auto *H = reinterpret_cast<const SnapshotHeader *>(Bytes.data());
  auto *Table = reinterpret_cast<SnapshotSectionEntry *>(
      Bytes.data() + sizeof(SnapshotHeader));
  for (uint32_t I = 0; I != H->NumSections; ++I)
    if (Table[I].Id == static_cast<uint32_t>(Id))
      return &Table[I];
  return nullptr;
}

/// Recomputes \p E's payload checksum, so a hand edit gets past the
/// integrity pass and reaches the loader's semantic checks.
void reseal(std::vector<unsigned char> &Bytes, SnapshotSectionEntry &E) {
  E.Checksum = hashBytes(Bytes.data() + E.Offset, E.SizeBytes);
}

/// The `Meta` section of the file image \p Bytes.
SnapshotMeta metaOf(std::vector<unsigned char> &Bytes) {
  SnapshotMeta Meta = {};
  if (SnapshotSectionEntry *E = sectionEntry(Bytes, SnapshotSectionId::Meta))
    std::memcpy(&Meta, Bytes.data() + E->Offset, sizeof(Meta));
  return Meta;
}

/// Writes a kernel-bearing snapshot of \p P to \p Path.
void writeWithKernel(const std::string &Path, const Pipeline &P,
                     uint64_t ContentHash = 0) {
  LabelSetKernel Kern(*P.F);
  ASSERT_TRUE(Kern.run().isOk());
  SnapshotWriteOptions WO;
  WO.ContentHash = ContentHash;
  WO.Kernel = &Kern;
  ASSERT_TRUE(writeSnapshot(Path, *P.F, *P.M, WO).isOk());
}

//===----------------------------------------------------------------------===//
// Round trip
//===----------------------------------------------------------------------===//

TEST(SnapshotRoundTrip, BitExactAcrossTheCorpus) {
  std::vector<std::pair<std::string, std::string>> Programs = {
      {"life", lifeProgram()},
      {"lexgen", makeLexgenLike()},
      {"cubic30", makeCubicFamily(30)},
      {"joinpoint20", makeJoinPointFamily(20)},
  };
  for (uint64_t Seed : {7u, 23u, 91u}) {
    RandomProgramOptions R;
    R.Seed = Seed;
    R.UseRefs = true;
    R.UseEffects = true;
    Programs.emplace_back("random" + std::to_string(Seed),
                          makeRandomProgram(R));
  }

  for (const auto &[Name, Source] : Programs) {
    SCOPED_TRACE(Name);
    Pipeline P = freezeProgram(Source);
    ASSERT_TRUE(P.F);
    const std::string Path = tempPath("roundtrip_" + Name);
    writeWithKernel(Path, P);

    Status S = Status::ok();
    std::unique_ptr<LoadedSnapshot> Snap = LoadedSnapshot::load(Path, S);
    ASSERT_TRUE(Snap) << S.toString();
    const FrozenGraph &LF = Snap->frozen();
    EXPECT_EQ(LF.numNodes(), P.F->numNodes());
    EXPECT_EQ(LF.numEdges(), P.F->numEdges());
    EXPECT_EQ(LF.numExprs(), P.F->numExprs());
    EXPECT_EQ(LF.numLabels(), P.F->numLabels());
    EXPECT_EQ(Snap->rootExpr(), P.M->root());

    // Every label set, through both the point path and the adopted
    // kernel batch path, must equal the in-memory engine's answer.
    QueryEngine Mem(*P.F);
    QueryEngine Disk(LF);
    if (auto Kern = Snap->adoptKernel())
      Disk.adoptKernel(std::move(Kern));
    std::vector<ExprId> Es;
    for (uint32_t I = 0; I != P.M->numExprs(); ++I)
      Es.push_back(ExprId(I));
    std::vector<DenseBitset> DiskBatch = Disk.labelsOfBatch(Es);
    for (uint32_t I = 0; I != P.M->numExprs(); ++I) {
      DenseBitset Want = Mem.labelsOf(ExprId(I));
      EXPECT_TRUE(Want == Disk.labelsOf(ExprId(I))) << "expr " << I;
      EXPECT_TRUE(Want == DiskBatch[I]) << "batch expr " << I;
    }

    // Persisted renderings and ranges match the live Module's.
    for (uint32_t I = 0; I != P.M->numExprs(); ++I) {
      EXPECT_EQ(std::string(Snap->exprName(I)),
                describeExpr(*P.M, ExprId(I)));
      SourceRange Want = P.M->expr(ExprId(I))->range();
      SourceRange Got = Snap->exprRange(I);
      EXPECT_EQ(Got.Begin.Line, Want.Begin.Line);
      EXPECT_EQ(Got.Begin.Col, Want.Begin.Col);
      EXPECT_EQ(Got.End.Line, Want.End.Line);
      EXPECT_EQ(Got.End.Col, Want.End.Col);
    }
    for (uint32_t L = 0; L != P.M->numLabels(); ++L)
      EXPECT_EQ(std::string(Snap->labelName(L)),
                describeLabel(*P.M, LabelId(L)));

    std::remove(Path.c_str());
  }
}

TEST(SnapshotRoundTrip, KernelLessSnapshotStillAnswers) {
  Pipeline P = freezeProgram(makeCubicFamily(10));
  ASSERT_TRUE(P.F);
  const std::string Path = tempPath("nokernel");
  ASSERT_TRUE(writeSnapshot(Path, *P.F, *P.M).isOk()); // no kernel rows

  Status S = Status::ok();
  std::unique_ptr<LoadedSnapshot> Snap = LoadedSnapshot::load(Path, S);
  ASSERT_TRUE(Snap) << S.toString();
  EXPECT_FALSE(Snap->hasKernelRows());
  EXPECT_EQ(Snap->adoptKernel(), nullptr);

  QueryEngine Mem(*P.F);
  QueryEngine Disk(Snap->frozen());
  for (uint32_t I = 0; I != P.M->numExprs(); ++I)
    EXPECT_TRUE(Mem.labelsOf(ExprId(I)) == Disk.labelsOf(ExprId(I)));
  std::remove(Path.c_str());
}

TEST(SnapshotRoundTrip, ContentHashPersists) {
  Pipeline P = freezeProgram(lifeProgram());
  ASSERT_TRUE(P.F);
  const std::string Path = tempPath("contenthash");
  writeWithKernel(Path, P, /*ContentHash=*/0xfeedfacecafebeefULL);
  Status S = Status::ok();
  std::unique_ptr<LoadedSnapshot> Snap = LoadedSnapshot::load(Path, S);
  ASSERT_TRUE(Snap) << S.toString();
  EXPECT_EQ(Snap->contentHash(), 0xfeedfacecafebeefULL);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

TEST(SnapshotDeterminism, TwoFreezesProduceByteIdenticalFiles) {
  // Freeze the same program twice through two independent pipelines and
  // write both: the files must be byte-identical, because the cache key
  // identifies content and the writer zero-fills all padding.
  const std::string Source = makeLexgenLike();
  Pipeline A = freezeProgram(Source);
  Pipeline B = freezeProgram(Source);
  ASSERT_TRUE(A.F && B.F);
  const std::string PathA = tempPath("det_a"), PathB = tempPath("det_b");
  writeWithKernel(PathA, A, 42);
  writeWithKernel(PathB, B, 42);
  EXPECT_EQ(readFile(PathA), readFile(PathB));
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

//===----------------------------------------------------------------------===//
// Injected faults
//===----------------------------------------------------------------------===//

class SnapshotFaultTest : public ::testing::Test {
protected:
  void SetUp() override { disarmFaults(); }
  void TearDown() override { disarmFaults(); }
};

TEST_F(SnapshotFaultTest, WriteAllocFaultFailsTheWriteCleanly) {
  Pipeline P = freezeProgram(makeCubicFamily(6));
  ASSERT_TRUE(P.F);
  const std::string Path = tempPath("writealloc");
  ASSERT_TRUE(armFault(fault::SnapshotWriteAlloc));
  Status S = writeSnapshot(Path, *P.F, *P.M);
  disarmFaults();
  EXPECT_EQ(S.code(), StatusCode::OutOfMemory);
  // The failed write must not have left a file under the final name.
  std::ifstream Probe(Path, std::ios::binary);
  EXPECT_FALSE(Probe.good());
}

TEST_F(SnapshotFaultTest, TruncateCanaryIsCaughtByTheLoader) {
  Pipeline P = freezeProgram(makeCubicFamily(6));
  ASSERT_TRUE(P.F);
  const std::string Path = tempPath("trunc_canary");
  ASSERT_TRUE(armFault(fault::SnapshotTruncate));
  ASSERT_TRUE(writeSnapshot(Path, *P.F, *P.M).isOk());
  disarmFaults();
  Status S = expectLoadFails(Path);
  EXPECT_EQ(S.code(), StatusCode::InvalidArgument);
  std::remove(Path.c_str());
}

TEST_F(SnapshotFaultTest, HeaderCorruptCanaryIsCaughtByTheLoader) {
  Pipeline P = freezeProgram(makeCubicFamily(6));
  ASSERT_TRUE(P.F);
  const std::string Path = tempPath("header_canary");
  ASSERT_TRUE(armFault(fault::SnapshotHeaderCorrupt));
  ASSERT_TRUE(writeSnapshot(Path, *P.F, *P.M).isOk());
  disarmFaults();
  Status S = expectLoadFails(Path);
  EXPECT_EQ(S.code(), StatusCode::InvalidArgument);
  std::remove(Path.c_str());
}

TEST_F(SnapshotFaultTest, CsrBitFlipCanaryIsCaughtByChecksums) {
  Pipeline P = freezeProgram(makeCubicFamily(6));
  ASSERT_TRUE(P.F);
  const std::string Path = tempPath("bitflip_canary");
  ASSERT_TRUE(armFault(fault::SnapshotCsrBitFlip));
  ASSERT_TRUE(writeSnapshot(Path, *P.F, *P.M).isOk());
  disarmFaults();
  Status S = expectLoadFails(Path);
  EXPECT_EQ(S.code(), StatusCode::InvalidArgument);
  std::remove(Path.c_str());
}

TEST_F(SnapshotFaultTest, MapFailFaultFailsTheLoadCleanly) {
  Pipeline P = freezeProgram(makeCubicFamily(6));
  ASSERT_TRUE(P.F);
  const std::string Path = tempPath("mapfail");
  ASSERT_TRUE(writeSnapshot(Path, *P.F, *P.M).isOk());
  ASSERT_TRUE(armFault(fault::SnapshotMapFail));
  Status S = expectLoadFails(Path);
  disarmFaults();
  EXPECT_EQ(S.code(), StatusCode::OutOfMemory);
  std::remove(Path.c_str());
}

TEST_F(SnapshotFaultTest, InertGraphIsRefusedByTheWriter) {
  // A close aborted by a one-node budget leaves the frozen snapshot
  // inert; persisting it would serve wrong (incomplete) answers forever.
  std::unique_ptr<Module> M = parseMaybeInfer(makeCubicFamily(12));
  ASSERT_TRUE(M);
  SubtransitiveConfig GC;
  GC.MaxNodes = 1;
  SubtransitiveGraph G(*M, GC);
  G.build();
  (void)G.close();
  ASSERT_TRUE(G.aborted());
  FrozenGraph F(G);
  ASSERT_FALSE(F.status().isOk());
  Status S = writeSnapshot(tempPath("inert"), F, *M);
  EXPECT_EQ(S.code(), StatusCode::InvalidArgument);
}

//===----------------------------------------------------------------------===//
// Hand-damaged files
//===----------------------------------------------------------------------===//

TEST(SnapshotDamage, MissingEmptyAndShortFilesFailCleanly) {
  expectLoadFails(tempPath("never_written"));

  const std::string Path = tempPath("short");
  writeFile(Path, {});
  expectLoadFails(Path);
  writeFile(Path, {'S', 'T'});
  expectLoadFails(Path);
  writeFile(Path, std::vector<unsigned char>(63, 0));
  expectLoadFails(Path);
  std::remove(Path.c_str());
}

TEST(SnapshotDamage, EveryTruncationPointFailsNeverCrashes) {
  Pipeline P = freezeProgram(makeCubicFamily(8));
  ASSERT_TRUE(P.F);
  const std::string Path = tempPath("truncsweep_src");
  writeWithKernel(Path, P);
  std::vector<unsigned char> Whole = readFile(Path);
  std::remove(Path.c_str());

  const std::string Cut = tempPath("truncsweep");
  // Sweep cuts through the header, the section table, and every payload
  // region (stride keeps the sweep fast on big files).
  for (size_t Keep = 0; Keep < Whole.size();
       Keep += std::max<size_t>(1, Whole.size() / 97)) {
    std::vector<unsigned char> Part(Whole.begin(), Whole.begin() + Keep);
    writeFile(Cut, Part);
    expectLoadFails(Cut);
  }
  std::remove(Cut.c_str());
}

TEST(SnapshotDamage, VersionMismatchIsRejectedEvenWithValidChecksum) {
  Pipeline P = freezeProgram(makeCubicFamily(8));
  ASSERT_TRUE(P.F);
  const std::string Path = tempPath("version");
  ASSERT_TRUE(writeSnapshot(Path, *P.F, *P.M).isOk());
  std::vector<unsigned char> Bytes = readFile(Path);

  // Bump the format version *and* recompute the header checksum, so the
  // rejection proves the version gate, not checksum luck.
  auto *H = reinterpret_cast<SnapshotHeader *>(Bytes.data());
  H->Version = SnapshotFormatVersion + 1;
  H->HeaderChecksum =
      hashBytes(Bytes.data(), sizeof(SnapshotHeader) - sizeof(uint64_t));
  writeFile(Path, Bytes);
  Status S = expectLoadFails(Path);
  EXPECT_NE(S.toString().find("version"), std::string::npos)
      << S.toString();
  std::remove(Path.c_str());
}

TEST(SnapshotDamage, V2FileFailsTheVersionCheck) {
  // A file from the one-row-per-component kernel era: the version gate
  // rejects it before any section is read, so the cache rebuilds it.
  Pipeline P = freezeProgram(makeCubicFamily(8));
  ASSERT_TRUE(P.F);
  const std::string Path = tempPath("v2");
  writeWithKernel(Path, P);
  std::vector<unsigned char> Bytes = readFile(Path);
  auto *H = reinterpret_cast<SnapshotHeader *>(Bytes.data());
  H->Version = 2;
  H->HeaderChecksum =
      hashBytes(Bytes.data(), sizeof(SnapshotHeader) - sizeof(uint64_t));
  writeFile(Path, Bytes);
  Status S = expectLoadFails(Path);
  EXPECT_NE(S.toString().find("format version 2"), std::string::npos)
      << S.toString();
  std::remove(Path.c_str());
}

TEST(SnapshotDamage, KernelRowIdBeyondThePoolIsRejected) {
  Pipeline P = freezeProgram(makeCubicFamily(8));
  ASSERT_TRUE(P.F);
  const std::string Path = tempPath("rowid_range");
  writeWithKernel(Path, P);
  std::vector<unsigned char> Bytes = readFile(Path);
  const SnapshotMeta Meta = metaOf(Bytes);
  ASSERT_GT(Meta.KernelPoolRows, 0u);
  for (uint32_t Bad : {Meta.KernelPoolRows, ~uint32_t(0)}) {
    std::vector<unsigned char> Damaged = Bytes;
    SnapshotSectionEntry *E =
        sectionEntry(Damaged, SnapshotSectionId::KernelRowOf);
    ASSERT_NE(E, nullptr);
    ASSERT_GE(E->SizeBytes, 4u);
    std::memcpy(Damaged.data() + E->Offset + E->SizeBytes - 4, &Bad, 4);
    reseal(Damaged, *E);
    writeFile(Path, Damaged);
    Status S = expectLoadFails(Path);
    EXPECT_NE(S.toString().find("outside the"), std::string::npos)
        << S.toString();
  }
  std::remove(Path.c_str());
}

TEST(SnapshotDamage, MisSizedKernelPoolIsRejected) {
  Pipeline P = freezeProgram(makeCubicFamily(8));
  ASSERT_TRUE(P.F);
  const std::string Path = tempPath("pool_size");
  writeWithKernel(Path, P);
  std::vector<unsigned char> Bytes = readFile(Path);
  SnapshotSectionEntry *E = sectionEntry(Bytes, SnapshotSectionId::KernelPool);
  ASSERT_NE(E, nullptr);
  ASSERT_GE(E->SizeBytes, 8u);
  E->SizeBytes -= 8;
  reseal(Bytes, *E);
  writeFile(Path, Bytes);
  Status S = expectLoadFails(Path);
  EXPECT_NE(S.toString().find("kernel pool section"), std::string::npos)
      << S.toString();
  std::remove(Path.c_str());
}

TEST(SnapshotDamage, MisSizedKernelRowIdsAreRejected) {
  Pipeline P = freezeProgram(makeCubicFamily(8));
  ASSERT_TRUE(P.F);
  const std::string Path = tempPath("rowid_size");
  writeWithKernel(Path, P);
  std::vector<unsigned char> Bytes = readFile(Path);
  SnapshotSectionEntry *E =
      sectionEntry(Bytes, SnapshotSectionId::KernelRowOf);
  ASSERT_NE(E, nullptr);
  ASSERT_GE(E->SizeBytes, 4u);
  E->SizeBytes -= 4;
  reseal(Bytes, *E);
  writeFile(Path, Bytes);
  Status S = expectLoadFails(Path);
  EXPECT_NE(S.toString().find("kernel row-id section"), std::string::npos)
      << S.toString();
  std::remove(Path.c_str());
}

TEST(SnapshotDamage, KernelPoolBitsPastTheLabelsAreRejected) {
  // A pool row naming a label the file has no name for would send the
  // renderer past the name table.
  Pipeline P = freezeProgram(makeCubicFamily(8));
  ASSERT_TRUE(P.F);
  ASSERT_NE(P.M->numLabels() % 64, 0u) << "need a partial tail word";
  const std::string Path = tempPath("pool_tail");
  writeWithKernel(Path, P);
  std::vector<unsigned char> Bytes = readFile(Path);
  const SnapshotMeta Meta = metaOf(Bytes);
  SnapshotSectionEntry *E = sectionEntry(Bytes, SnapshotSectionId::KernelPool);
  ASSERT_NE(E, nullptr);
  ASSERT_GE(Meta.KernelPoolRows, 2u);
  uint64_t Word;
  const size_t At = E->Offset + (2 * size_t(Meta.KernelWordsPerSet) - 1) * 8;
  std::memcpy(&Word, Bytes.data() + At, 8);
  Word |= uint64_t(1) << 63;
  std::memcpy(Bytes.data() + At, &Word, 8);
  reseal(Bytes, *E);
  writeFile(Path, Bytes);
  Status S = expectLoadFails(Path);
  EXPECT_NE(S.toString().find("past the label universe"), std::string::npos)
      << S.toString();
  std::remove(Path.c_str());
}

TEST(SnapshotDamage, EndianMismatchIsRejected) {
  Pipeline P = freezeProgram(makeCubicFamily(8));
  ASSERT_TRUE(P.F);
  const std::string Path = tempPath("endian");
  ASSERT_TRUE(writeSnapshot(Path, *P.F, *P.M).isOk());
  std::vector<unsigned char> Bytes = readFile(Path);
  auto *H = reinterpret_cast<SnapshotHeader *>(Bytes.data());
  H->Endian = __builtin_bswap32(H->Endian);
  H->HeaderChecksum =
      hashBytes(Bytes.data(), sizeof(SnapshotHeader) - sizeof(uint64_t));
  writeFile(Path, Bytes);
  expectLoadFails(Path);
  std::remove(Path.c_str());
}

TEST(SnapshotDamage, FlippedPayloadByteIsCaughtBySectionChecksum) {
  Pipeline P = freezeProgram(makeCubicFamily(8));
  ASSERT_TRUE(P.F);
  const std::string Path = tempPath("payloadflip");
  writeWithKernel(Path, P);
  std::vector<unsigned char> Bytes = readFile(Path);
  // Flip one byte beyond header + table; some positions land in padding
  // (which is checksummed too), so every probe must still fail.
  for (size_t Pos = 512; Pos < Bytes.size();
       Pos += std::max<size_t>(1, Bytes.size() / 13)) {
    std::vector<unsigned char> Damaged = Bytes;
    Damaged[Pos] ^= 0x01;
    writeFile(Path, Damaged);
    expectLoadFails(Path);
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Cache keys
//===----------------------------------------------------------------------===//

TEST(SnapshotCache, KeyIsStableAndDiscriminates) {
  const std::string Src = lifeProgram();
  const std::string Cfg = "analysis=subtransitive;congruence=bytype;"
                          "policy=paper";
  EXPECT_EQ(snapshotCacheKey(Src, Cfg), snapshotCacheKey(Src, Cfg));
  EXPECT_NE(snapshotCacheKey(Src, Cfg), snapshotCacheKey(Src + " ", Cfg));
  EXPECT_NE(snapshotCacheKey(Src, Cfg),
            snapshotCacheKey(Src, Cfg + ";x=1"));
}

TEST(SnapshotCache, PathAndDirHelpers) {
  EXPECT_EQ(snapshotCachePath("/some/dir", 0xabcULL),
            "/some/dir/0000000000000abc.stcfa-snap");
  EXPECT_EQ(snapshotCacheDir("/override"), "/override");
  const std::string Dir = testing::TempDir() + "stcfa_cache_mkdir/a/b";
  EXPECT_TRUE(ensureSnapshotDir(Dir).isOk());
  EXPECT_TRUE(ensureSnapshotDir(Dir).isOk()); // idempotent
}

//===----------------------------------------------------------------------===//
// Size cap / LRU eviction
//===----------------------------------------------------------------------===//

namespace {
void setMtime(const std::string &Path, time_t T) {
  struct timeval Times[2] = {{T, 0}, {T, 0}};
  ASSERT_EQ(::utimes(Path.c_str(), Times), 0) << Path;
}

uint64_t fileSize(const std::string &Path) {
  struct stat St;
  EXPECT_EQ(::stat(Path.c_str(), &St), 0) << Path;
  return static_cast<uint64_t>(St.st_size);
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}
} // namespace

TEST(SnapshotCache, BudgetEvictsOldestFirstAndSparesForeignFiles) {
  const std::string Dir = testing::TempDir() + "stcfa_cache_evict";
  ASSERT_TRUE(ensureSnapshotDir(Dir).isOk());

  // Four real snapshots with strictly increasing (backdated) mtimes —
  // second-granularity timestamps would otherwise tie within the test.
  Pipeline P = freezeProgram(lifeProgram());
  ASSERT_NE(P.F, nullptr);
  const time_t Base = 1700000000;
  std::vector<std::string> Paths;
  uint64_t Total = 0;
  for (uint64_t K = 1; K <= 4; ++K) {
    std::string Path = snapshotCachePath(Dir, K);
    writeWithKernel(Path, P, K);
    setMtime(Path, Base + static_cast<time_t>(K));
    Paths.push_back(Path);
    Total += fileSize(Path);
  }
  // A bystander file must never be evicted, whatever the cap.
  const std::string Foreign = Dir + "/notes.txt";
  writeFile(Foreign, {'h', 'i'});

  const uint64_t Value = counter("snapshot.cache-evictions").value();

  // Under the cap: nothing happens.
  EXPECT_EQ(enforceSnapshotCacheBudget(Dir, Total), 0u);
  for (const std::string &Path : Paths)
    EXPECT_TRUE(fileExists(Path));

  // One byte over: exactly the oldest entry goes.
  EXPECT_EQ(enforceSnapshotCacheBudget(Dir, Total - 1), 1u);
  EXPECT_FALSE(fileExists(Paths[0]));
  EXPECT_TRUE(fileExists(Paths[1]));
  EXPECT_TRUE(fileExists(Paths[2]));
  EXPECT_TRUE(fileExists(Paths[3]));
  EXPECT_EQ(counter("snapshot.cache-evictions").value(), Value + 1);

  // A hit refreshes the LRU order: touch the now-oldest survivor and the
  // next eviction round must pick its (younger-by-mtime) neighbour.
  touchSnapshotEntry(Paths[1]);
  uint64_t OneEntry = fileSize(Paths[3]);
  EXPECT_EQ(enforceSnapshotCacheBudget(Dir, OneEntry + 1), 2u);
  EXPECT_TRUE(fileExists(Paths[1])); // refreshed — survived two rounds
  EXPECT_FALSE(fileExists(Paths[2]));
  EXPECT_FALSE(fileExists(Paths[3]));
  EXPECT_EQ(counter("snapshot.cache-evictions").value(), Value + 3);

  // The bystander survived every round; a missing dir is an empty cache.
  EXPECT_TRUE(fileExists(Foreign));
  EXPECT_EQ(enforceSnapshotCacheBudget(Dir + "/nonexistent", 1), 0u);

  std::remove(Foreign.c_str());
  std::remove(Paths[1].c_str());
}

} // namespace

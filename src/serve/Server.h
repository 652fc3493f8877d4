//===-- serve/Server.h - The stcfa analysis daemon --------------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `stcfa --serve`: a long-running daemon speaking newline-delimited
/// JSON-RPC over a pair of file descriptors (stdin/stdout from the
/// driver; pipes from the tests).  See docs/SERVE.md for the protocol.
///
/// Structure:
///
///   * one reader thread (the caller of `run()`) accepts lines through a
///     size-capped buffer, parses and validates them, and handles
///     `load`/`metrics`/`shutdown` inline;
///   * `query`/`lint` requests resolve their epoch *at accept time* and
///     run on a small worker pool, so a `load` installing epoch N+1
///     never changes the answers of requests already admitted against
///     epoch N;
///   * an admission controller bounds the in-flight cost (governor node
///     units): over the soft budget requests are served by the partial
///     rung (universal sets, marked `"degraded":true`), over the hard
///     budget (2x) they are shed with `resource-exhausted`;
///   * replies serialize on a write mutex — one line each, whatever
///     thread finished first.
///
/// Fault sites `serve.accept-alloc`, `serve.request-parse`, and
/// `serve.reply-write` sit on the reader, parser, and writer paths; all
/// three degrade into structured error replies (the writer falls back to
/// a static preformatted line), never a crash.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SERVE_SERVER_H
#define STCFA_SERVE_SERVER_H

#include "delta/DeltaSession.h"
#include "serve/Epoch.h"
#include "serve/Protocol.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace stcfa {
namespace serve {

/// Daemon configuration, fixed for the server's lifetime.
struct ServeOptions {
  /// Worker-thread count: requests run concurrently across the workers,
  /// each on the one worker that took it.
  unsigned Threads = 1;
  /// Batched-query kernel dispatch threshold; <0 = engine default.
  int64_t KernelThreshold = -1;
  /// Default per-request deadline when the request names none; <0 = none.
  int64_t DefaultDeadlineMs = -1;
  /// Admission soft budget in governor node units (in-flight epoch
  /// nodes).  Above it requests degrade; above twice it they shed.
  uint64_t MaxInflightCost = 4u << 20;
  /// Longest accepted request line; longer lines are drained and
  /// answered with `invalid-argument`.
  uint64_t MaxRequestBytes = 32u << 20;
  /// Write-through snapshot cache: `load` fills it on a miss and maps it
  /// on a hit, so a restarted daemon warms up without re-analysis.
  bool SnapshotCache = false;
  std::string SnapshotDir;
  /// Cache size cap enforced after each fill (LRU by mtime); 0 = uncapped.
  uint64_t SnapshotCacheMaxBytes = 512u << 20;
  /// Hybrid ladder mode for `load`: "off", "standard", or "partial".
  std::string Degrade = "standard";
  bool Stats = false;
};

/// Cost-based admission: `Full` under the soft budget, `Degraded` up to
/// the hard budget (2x soft), `Shed` beyond.  Thread-safe.
class Admission {
public:
  explicit Admission(uint64_t SoftBudget) : Soft(SoftBudget) {}

  enum class Decision : uint8_t { Full, Degraded, Shed };

  /// Tries to admit \p Cost units; on `Shed` nothing was added and
  /// `release` must not be called.
  Decision admit(uint64_t Cost);
  void release(uint64_t Cost);

  uint64_t inflight() const {
    return Inflight.load(std::memory_order_relaxed);
  }

private:
  uint64_t Soft;
  std::atomic<uint64_t> Inflight{0};
};

/// The daemon.  Construct with the two protocol descriptors and call
/// `run()` on the accepting thread; it returns the process exit code
/// after `shutdown` or EOF.
class Server {
public:
  Server(int InFd, int OutFd, ServeOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// The accept loop; returns 0 on clean shutdown/EOF.
  int run();

private:
  //===--- accept path ----------------------------------------------------//
  /// Reads one newline-terminated line into \p Line (without the
  /// newline).  Returns false on EOF with an empty remainder.  Oversized
  /// or allocation-faulted lines are drained to their newline and
  /// reported through \p LineStatus; the reader stays in sync.
  bool readLine(std::string &Line, Status &LineStatus);
  void handleLine(const std::string &Line);
  void dispatch(ServeRequest Req);

  //===--- verbs ----------------------------------------------------------//
  void handleLoad(const ServeRequest &Req);
  /// Runs inline on the reader thread, like `load`: an edit installs the
  /// next epoch, so it must serialize against other installs anyway.
  /// Queries already dispatched keep answering from the epoch they bound
  /// at accept time.
  void handleEdit(const ServeRequest &Req);
  void handleMetrics(const ServeRequest &Req);
  /// Runs on a worker.  \p E is the epoch resolved at accept time;
  /// \p Degraded carries the admission decision.
  void handleQuery(const ServeRequest &Req, const std::shared_ptr<Epoch> &E,
                   bool Degraded);
  void handleLint(const ServeRequest &Req, const std::shared_ptr<Epoch> &E);
  void handleSlice(const ServeRequest &Req, const std::shared_ptr<Epoch> &E);

  //===--- plumbing -------------------------------------------------------//
  /// Full parse -> infer -> hybrid-solve -> install over \p Source: a
  /// `load` that missed the snapshot cache (which then fills it), and the
  /// edit path's fallback when the delta session cannot serve
  /// incrementally (which bypasses the cache: these reloads are transient
  /// mid-edit states).
  Status installFullEpoch(const std::string &Source, const Deadline &D,
                          std::shared_ptr<Epoch> &Out);
  Deadline requestDeadline(const ServeRequest &Req) const;
  void reply(std::string Line);
  void replyError(const JsonValue &Id, const Status &S);
  void enqueue(std::function<void()> Job);
  void drainWorkers();

  int InFd, OutFd;
  ServeOptions Opts;
  EpochManager Epochs;
  Admission Gate;

  std::mutex WriteMu;

  // Worker pool: a plain queue; the pool is tiny and requests are
  // coarse, so contention on one mutex is irrelevant.
  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::condition_variable IdleCv;
  std::deque<std::function<void()>> Queue;
  unsigned Busy = 0;
  bool Stopping = false;
  std::vector<std::thread> Workers;

  // Edit-delta state (reader thread only): the session is created lazily
  // from the last successfully loaded source on the first `edit`, and a
  // new `load` discards it (the client chose a fresh program).
  std::unique_ptr<DeltaSession> Session;
  std::string LoadedSource;

  // Reader-side line buffer; carries bytes across read() chunks.  Bytes
  // before PendingPos are consumed; the buffer is emptied before each
  // refill instead of erased line by line.
  std::string Pending;
  size_t PendingPos = 0;
  bool SawEof = false;
  bool ShutdownRequested = false;
};

} // namespace serve
} // namespace stcfa

#endif // STCFA_SERVE_SERVER_H

//===-- perfbench/Serve.h - What both serve workloads share ---------------===//

#ifndef PERFBENCH_SERVE_H
#define PERFBENCH_SERVE_H

#include "Bench.h"

#include "serve/Epoch.h"

#include <cstdint>
#include <random>
#include <string>

namespace perfbench {

/// One `query` request: `labels`, `is-label-in`, `occurrences` or
/// `all-labels`, on one occurrence and/or label.
struct QueryOp {
  std::string Kind;
  uint32_t Expr = 0;
  uint32_t Label = 0;
};

/// A point query (`labels` 40%, `is-label-in` 30%, `occurrences` 30%) on
/// a uniformly drawn occurrence and label.
QueryOp randomPointQuery(std::mt19937_64 &R, uint32_t Exprs, uint32_t Labels);

std::string queryRequest(uint64_t Id, const QueryOp &Q);

/// The numeric id a reply line leads with (`{"id":<n>,...`); ~0 if none.
uint64_t replyId(const std::string &Reply);

/// Replays one `query` request line in-process through the calls the
/// daemon makes for it: `serve::parseJson` + `validateRequest`, the
/// `Epoch` query, then building and rendering the reply with
/// `renderOkReply`, each under a span inside one op.  Returns the reply
/// size in bytes.
size_t replayQuery(Tracer &T, stcfa::serve::Epoch &E, const QueryOp &Q,
                   const std::string &Line);

/// Reads `"name":<int>` from a reply's result; -1 when absent.
int64_t resultInt(const std::string &Reply, const char *Name);

} // namespace perfbench

#endif // PERFBENCH_SERVE_H

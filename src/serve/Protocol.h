//===-- serve/Protocol.h - Serve-mode request/reply protocol ----*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The newline-delimited JSON protocol of `stcfa --serve` (docs/SERVE.md).
/// One request per line:
///
/// \code
///   {"id": 1, "verb": "load",  "params": {"source": "..."}}
///   {"id": 2, "verb": "edit",  "params": {"op": "replace", "name": "f",
///                                         "text": "let f = ...;"}}
///   {"id": 2, "verb": "query", "params": {"kind": "labels"}}
///   {"id": 3, "verb": "lint",  "params": {"passes": ["dead-function"]}}
///   {"id": 4, "verb": "slice", "params": {"expr": 12, "dir": "back",
///                                         "witness": true}}
///   {"id": 5, "verb": "metrics"}
///   {"id": 6, "verb": "shutdown"}
/// \endcode
///
/// One reply per request (order may interleave across concurrent
/// requests; match on `id`):
///
/// \code
///   {"id": 2, "ok": true,  "result": {...}}
///   {"id": 7, "ok": false, "error": {"code": "invalid-argument",
///                                    "message": "..."}}
/// \endcode
///
/// Error codes are the `statusCodeName()` vocabulary, so daemon replies,
/// driver exit codes, and degradation reports all speak one language.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SERVE_PROTOCOL_H
#define STCFA_SERVE_PROTOCOL_H

#include "serve/Json.h"
#include "support/Status.h"

#include <string>
#include <string_view>

namespace stcfa {
namespace serve {

/// The request verbs the daemon understands.
enum class Verb : uint8_t {
  Load,
  Edit,
  Query,
  Lint,
  Slice,
  Metrics,
  Shutdown
};

/// A validated request envelope.  `Params` points into `Doc` (which owns
/// the whole parsed request), so a `ServeRequest` is self-contained.
struct ServeRequest {
  JsonValue Doc;               ///< the whole parsed request object
  JsonValue Id;                ///< echoed verbatim; null when absent
  Verb V = Verb::Metrics;
  const JsonValue *Params = nullptr; ///< the `params` object, or null
};

/// Validates a parsed request document into \p Out: must be an object,
/// `verb` must be a known string, `params` (when present) must be an
/// object, `id` (when present) must be a number or string, and
/// `params.deadline_ms` (when present, on any verb) must be an integer in
/// `[0, Deadline::MaxMillis]`.  On failure
/// \p Out.Id still carries whatever id could be salvaged, so the error
/// reply can be correlated.
Status validateRequest(JsonValue Doc, ServeRequest &Out);

/// `{"id":<id>,"ok":true,"result":<result>}`.
std::string renderOkReply(const JsonValue &Id, const JsonValue &Result);
/// The same around an already rendered \p Result (the `metrics` reply).
std::string renderOkReply(const JsonValue &Id, std::string_view Result);

/// `{"id":<id>,"ok":false,"error":{"code":...,"message":...}}`.
std::string renderErrorReply(const JsonValue &Id, const Status &S);

} // namespace serve
} // namespace stcfa

#endif // STCFA_SERVE_PROTOCOL_H

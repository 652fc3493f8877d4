//===-- serve/Protocol.cpp - Serve-mode request/reply protocol ------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"
#include "support/Deadline.h"

using namespace stcfa;
using namespace stcfa::serve;

Status stcfa::serve::validateRequest(JsonValue Doc, ServeRequest &Out) {
  Out.Doc = std::move(Doc);
  Out.Id = JsonValue::null();
  Out.Params = nullptr;
  if (!Out.Doc.isObject())
    return Status::invalidArgument("request must be a JSON object");
  // Salvage the id first so even a bad verb gets a correlated reply.
  if (const JsonValue *Id = Out.Doc.field("id")) {
    if (!Id->isNumber() && !Id->isString() && !Id->isNull())
      return Status::invalidArgument("'id' must be a number or string");
    Out.Id = *Id;
  }
  const JsonValue *V = Out.Doc.field("verb");
  if (!V || !V->isString())
    return Status::invalidArgument("request needs a string 'verb'");
  const std::string &Name = V->asString();
  if (Name == "load")
    Out.V = Verb::Load;
  else if (Name == "edit")
    Out.V = Verb::Edit;
  else if (Name == "query")
    Out.V = Verb::Query;
  else if (Name == "lint")
    Out.V = Verb::Lint;
  else if (Name == "slice")
    Out.V = Verb::Slice;
  else if (Name == "metrics")
    Out.V = Verb::Metrics;
  else if (Name == "shutdown")
    Out.V = Verb::Shutdown;
  else
    return Status::invalidArgument("unknown verb '" + Name + "'");
  if (const JsonValue *P = Out.Doc.field("params")) {
    if (!P->isObject())
      return Status::invalidArgument("'params' must be an object");
    Out.Params = P;
    if (const JsonValue *Ms = P->field("deadline_ms"))
      if (!Ms->isInt() || Ms->asInt() < 0 || Ms->asInt() > Deadline::MaxMillis)
        return Status::invalidArgument(
            "'deadline_ms' must be an integer from 0 to " +
            std::to_string(Deadline::MaxMillis));
  }
  return Status::ok();
}

std::string stcfa::serve::renderOkReply(const JsonValue &Id,
                                        std::string_view Result) {
  std::string Out = "{\"id\":";
  renderJson(Id, Out);
  Out += ",\"ok\":true,\"result\":";
  Out += Result;
  Out += '}';
  return Out;
}

std::string stcfa::serve::renderOkReply(const JsonValue &Id,
                                        const JsonValue &Result) {
  return renderOkReply(Id, renderJson(Result));
}

std::string stcfa::serve::renderErrorReply(const JsonValue &Id,
                                           const Status &S) {
  JsonValue Err = JsonValue::object();
  Err.set("code", JsonValue::string(statusCodeName(S.code())));
  Err.set("message", JsonValue::string(S.message()));
  std::string Out = "{\"id\":";
  renderJson(Id, Out);
  Out += ",\"ok\":false,\"error\":";
  renderJson(Err, Out);
  Out += '}';
  return Out;
}

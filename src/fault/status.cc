#include "fault/status.h"

namespace gs::fault {

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "ok";
    case ErrorCode::kTransient:
      return "transient";
    case ErrorCode::kResourceExhausted:
      return "resource_exhausted";
    case ErrorCode::kInvalidRequest:
      return "invalid_request";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kUnavailable:
      return "unavailable";
  }
  return "unknown";
}

ErrorCode Classify(const std::exception& e) {
  // ExchangeTimeoutError derives TransientError, so this branch routes
  // exchange timeouts into the retry ladder too.
  if (dynamic_cast<const TransientError*>(&e) != nullptr) {
    return ErrorCode::kTransient;
  }
  if (dynamic_cast<const ResourceExhaustedError*>(&e) != nullptr) {
    return ErrorCode::kResourceExhausted;
  }
  if (dynamic_cast<const InvalidRequestError*>(&e) != nullptr) {
    return ErrorCode::kInvalidRequest;
  }
  return ErrorCode::kInternal;
}

}  // namespace gs::fault

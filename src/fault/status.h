// Error taxonomy for recoverable failures.
//
// The library's baseline failure mode is a bare gs::Error thrown by
// GS_CHECK, which callers can only treat as fatal. Recovery — retrying a
// transient kernel fault, shedding work under memory pressure, rejecting a
// malformed request without killing a serving worker — needs to know *what
// kind* of failure unwound, so the boundary layers (serving workers, the
// trainer's epoch loop) classify exceptions into a small StatusOr-style
// code set:
//
//   kTransient          retry is expected to succeed (injected kernel
//                       fault, watchdog-cancelled batch, UVA transfer
//                       error, cross-shard exchange timeout)
//   kResourceExhausted  device memory exhausted even after the allocator's
//                       recovery ladder ran; degrade (shed fanouts) or shed
//                       load
//   kUnavailable        no live device is left to serve even a degraded
//                       partial response; retrying cannot help until one
//                       recovers
//   kInvalidRequest     the input can never succeed; reject, never retry
//   kInternal           everything else (plain gs::Error, std::exception);
//                       fail the unit of work, keep the worker alive
//
// Throw sites that know their category throw the typed subclasses below;
// Classify() maps any exception back to a code at catch sites.

#ifndef GSAMPLER_FAULT_STATUS_H_
#define GSAMPLER_FAULT_STATUS_H_

#include <exception>
#include <string>

#include "common/error.h"

namespace gs::fault {

enum class ErrorCode {
  kOk = 0,
  kTransient,
  kResourceExhausted,
  kInvalidRequest,
  kInternal,
  kUnavailable,
};

const char* ErrorCodeName(ErrorCode code);

// All three derive from gs::Error so existing catch (const gs::Error&)
// sites keep working unchanged.
class TransientError : public Error {
 public:
  explicit TransientError(const std::string& what) : Error(what) {}
};

class ResourceExhaustedError : public Error {
 public:
  explicit ResourceExhaustedError(const std::string& what) : Error(what) {}
};

class InvalidRequestError : public Error {
 public:
  explicit InvalidRequestError(const std::string& what) : Error(what) {}
};

// A cross-shard frontier exchange timed out (exchange.timeout fault site
// past the hedge budget). Derives TransientError so Classify routes it
// through the serving retry ladder — the next attempt re-resolves placement
// and may land on a healthy replica.
class ExchangeTimeoutError : public TransientError {
 public:
  explicit ExchangeTimeoutError(const std::string& what) : TransientError(what) {}
};

// Maps an in-flight exception to its code. Unrecognized exception types
// (including plain gs::Error) classify as kInternal.
ErrorCode Classify(const std::exception& e);

}  // namespace gs::fault

#endif  // GSAMPLER_FAULT_STATUS_H_

#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace triad {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kDataLoss:
      return "DataLoss";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

namespace internal {

void DieBadResultAccess(const char* what, const std::string& detail) {
  std::fprintf(stderr, "triad: fatal Result misuse: %s%s%s\n", what,
               detail.empty() ? "" : " — ", detail.c_str());
  std::abort();
}

}  // namespace internal
}  // namespace triad

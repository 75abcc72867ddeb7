#ifndef TRIAD_COMMON_STATUS_H_
#define TRIAD_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace triad {

/// \brief Error categories used across the library.
///
/// Mirrors the Arrow/RocksDB idiom: fallible operations return a Status (or a
/// Result<T>) instead of throwing. Programming errors use TRIAD_CHECK instead.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kIoError,
  kFailedPrecondition,
  kInternal,
  kDeadlineExceeded,  ///< a pass/operation ran past its cooperative budget
  kUnavailable,       ///< transient resource exhaustion; safe to retry
  kDataLoss,          ///< stored bytes failed integrity checks (checksum)
};

/// \brief Returns a human-readable name for a status code ("InvalidArgument"...).
const char* StatusCodeToString(StatusCode code);

/// \brief A success-or-error outcome carrying a code and message.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// \brief Either a value of type T or an error Status.
///
/// Access requires checking ok() first; violating that is a checked
/// programming error (aborts), consistent with absl::StatusOr.
template <typename T>
class Result {
 public:
  /// Implicit so `return value;` works in functions returning Result<T>.
  Result(T value) : payload_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit so `return Status::...(...)` works.
  Result(Status status) : payload_(std::move(status)) {  // NOLINT
    EnsureError();
  }

  bool ok() const { return std::holds_alternative<T>(payload_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(payload_);
  }

  const T& value() const& {
    EnsureValue();
    return std::get<T>(payload_);
  }
  T& value() & {
    EnsureValue();
    return std::get<T>(payload_);
  }
  T&& value() && {
    EnsureValue();
    return std::get<T>(std::move(payload_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void EnsureValue() const;
  void EnsureError() const;

  std::variant<T, Status> payload_;
};

namespace internal {
[[noreturn]] void DieBadResultAccess(const char* what, const std::string& detail);
}  // namespace internal

template <typename T>
void Result<T>::EnsureValue() const {
  if (!ok()) {
    internal::DieBadResultAccess("value() on errored Result",
                                 std::get<Status>(payload_).ToString());
  }
}

template <typename T>
void Result<T>::EnsureError() const {
  if (std::holds_alternative<Status>(payload_) &&
      std::get<Status>(payload_).ok()) {
    internal::DieBadResultAccess("Result constructed from OK status", "");
  }
}

/// Propagates an error Status from an expression that yields Status.
#define TRIAD_RETURN_NOT_OK(expr)                \
  do {                                           \
    ::triad::Status _st = (expr);                \
    if (!_st.ok()) return _st;                   \
  } while (false)

/// Evaluates a Result<T> expression and either assigns its value or returns
/// its error. Usage: TRIAD_ASSIGN_OR_RETURN(auto x, MakeX());
#define TRIAD_ASSIGN_OR_RETURN(lhs, rexpr)            \
  TRIAD_ASSIGN_OR_RETURN_IMPL_(                       \
      TRIAD_STATUS_CONCAT_(_triad_result_, __LINE__), lhs, rexpr)

#define TRIAD_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                 \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value()

#define TRIAD_STATUS_CONCAT_(a, b) TRIAD_STATUS_CONCAT_IMPL_(a, b)
#define TRIAD_STATUS_CONCAT_IMPL_(a, b) a##b

}  // namespace triad

#endif  // TRIAD_COMMON_STATUS_H_

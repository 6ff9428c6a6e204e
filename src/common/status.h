#ifndef VDG_COMMON_STATUS_H_
#define VDG_COMMON_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace vdg {

/// Error categories used across the VDG library. Mirrors the
/// Arrow/RocksDB convention: no exceptions cross an API boundary;
/// every fallible operation returns a Status or a Result<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kTypeError,        // dataset-type conformance violation
  kParseError,       // VDL syntax errors
  kIoError,          // persistent store / log file failures
  kUnavailable,      // simulated resource offline / catalog unreachable
  kPermissionDenied, // trust-chain or policy rejection
  kFailedPrecondition,
  kResourceExhausted,
  kInternal,
  kDeadlineExceeded,  // per-request deadline expired before a response
  kCancelled,         // caller abandoned the call before completion
  kUnimplemented,     // the callee does not answer this call
};

/// Human-readable name of a status code, e.g. "NotFound".
const char* StatusCodeToString(StatusCode code);

/// A lightweight success-or-error value. Ok statuses carry no
/// allocation; error statuses carry a code and a message.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status PermissionDenied(std::string msg) {
    return Status(StatusCode::kPermissionDenied, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }

  /// An Unavailable error whose request may already have reached the
  /// server (e.g. a lost reply after a mutation was sent): blindly
  /// re-issuing it could apply the work twice. See MarkRetryUnsafe.
  static Status UnavailableRetryUnsafe(std::string msg) {
    return MarkRetryUnsafe(Unavailable(std::move(msg)));
  }

  /// Stamps `s` with the retry-unsafe hint. The hint rides in the
  /// message (not a separate field) so it survives the wire codec and
  /// old decoders without a frame-format change. Ok statuses are
  /// returned untouched.
  static Status MarkRetryUnsafe(Status s);

  /// True unless the status carries the retry-unsafe marker. A
  /// retry-safe failure means the operation provably never executed
  /// server-side (connect refused, rejected at admission, read-only
  /// call), so a carrier may re-issue it without double-applying work.
  bool retry_safe() const;

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsTypeError() const { return code_ == StatusCode::kTypeError; }
  bool IsParseError() const { return code_ == StatusCode::kParseError; }
  bool IsPermissionDenied() const {
    return code_ == StatusCode::kPermissionDenied;
  }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// A value-or-error holder, the return type of fallible functions that
/// produce a value. Use `VDG_ASSIGN_OR_RETURN` to unwrap.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or an error Status keeps call
  /// sites terse (`return 42;` / `return Status::NotFound(...)`).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

  /// Returns the contained value or `fallback` when in error state.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ holds
};

/// Propagates a non-OK Status out of the current function.
#define VDG_RETURN_IF_ERROR(expr)               \
  do {                                          \
    ::vdg::Status vdg_status__ = (expr);        \
    if (!vdg_status__.ok()) return vdg_status__; \
  } while (false)

#define VDG_CONCAT_IMPL_(a, b) a##b
#define VDG_CONCAT_(a, b) VDG_CONCAT_IMPL_(a, b)

/// Unwraps a Result<T> into `lhs`, propagating the error on failure.
#define VDG_ASSIGN_OR_RETURN(lhs, expr)                        \
  auto VDG_CONCAT_(vdg_result__, __LINE__) = (expr);           \
  if (!VDG_CONCAT_(vdg_result__, __LINE__).ok())               \
    return VDG_CONCAT_(vdg_result__, __LINE__).status();       \
  lhs = std::move(VDG_CONCAT_(vdg_result__, __LINE__)).value()

}  // namespace vdg

#endif  // VDG_COMMON_STATUS_H_

#include "common/status.h"

namespace vdg {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kTypeError:
      return "TypeError";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kPermissionDenied:
      return "PermissionDenied";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
  }
  return "Unknown";
}

namespace {
// Suffix marker carried in the message of retry-unsafe errors; a
// textual marker (rather than a new frame field) keeps the wire codec
// and its version-1 decoders unchanged.
constexpr const char kRetryUnsafeMarker[] = " [retry-unsafe]";
constexpr size_t kRetryUnsafeMarkerLen = sizeof(kRetryUnsafeMarker) - 1;
}  // namespace

Status Status::MarkRetryUnsafe(Status s) {
  if (s.ok() || !s.retry_safe()) return s;
  return Status(s.code(), s.message() + kRetryUnsafeMarker);
}

bool Status::retry_safe() const {
  if (message_.size() < kRetryUnsafeMarkerLen) return true;
  return message_.compare(message_.size() - kRetryUnsafeMarkerLen,
                          kRetryUnsafeMarkerLen, kRetryUnsafeMarker) != 0;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  out += ": ";
  out += message_;
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

}  // namespace vdg

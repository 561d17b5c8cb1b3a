// Lightweight error-handling primitives for the Scale4Edge ecosystem.
//
// The ecosystem tools are long-running batch analyses (assembly, CFG
// reconstruction, WCET analysis, fault campaigns); a recoverable failure in
// one workload must not abort a whole campaign, so fallible interfaces return
// Result<T> instead of throwing. Exceptions are reserved for programming
// errors (violated preconditions), reported via S4E_CHECK.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace s4e {

// Broad failure category; the message carries the detail.
enum class ErrorCode : std::uint8_t {
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kParseError,
  kEncodingError,
  kUnsupported,
  kStateError,
  kIoError,
  kAnalysisError,
};

// Human-readable name of an ErrorCode ("parse_error", ...).
const char* to_string(ErrorCode code) noexcept;

// Value type describing a recoverable failure.
class [[nodiscard]] Error {
 public:
  Error(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  ErrorCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  // "parse_error: unexpected token 'foo'"
  std::string to_string() const;

 private:
  ErrorCode code_;
  std::string message_;
};

// Minimal expected<T, Error>. Deliberately small: no monadic chaining,
// just construction, testing, and checked access.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Error error) : data_(std::move(error)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const noexcept { return std::holds_alternative<T>(data_); }
  explicit operator bool() const noexcept { return ok(); }

  // Precondition: ok(). Aborts with the error text otherwise.
  T& value() & {
    require_ok();
    return std::get<T>(data_);
  }
  const T& value() const& {
    require_ok();
    return std::get<T>(data_);
  }
  T&& value() && {
    require_ok();
    return std::get<T>(std::move(data_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  // Precondition: !ok().
  const Error& error() const {
    if (ok()) throw std::logic_error("Result::error() called on ok Result");
    return std::get<Error>(data_);
  }

  T value_or(T fallback) const& {
    return ok() ? std::get<T>(data_) : std::move(fallback);
  }

 private:
  void require_ok() const {
    if (!ok()) {
      throw std::runtime_error("Result::value() on error: " +
                               std::get<Error>(data_).to_string());
    }
  }

  std::variant<T, Error> data_;
};

// Result<void> analogue.
class [[nodiscard]] Status {
 public:
  Status() = default;  // ok
  Status(Error error) : error_(std::move(error)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const noexcept { return !error_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  const Error& error() const {
    if (ok()) throw std::logic_error("Status::error() called on ok Status");
    return *error_;
  }

  std::string to_string() const { return ok() ? "ok" : error_->to_string(); }

 private:
  std::optional<Error> error_;
};

// Precondition checking for programming errors (not recoverable failures).
[[noreturn]] void check_failed(const char* expr, const char* file, int line,
                               const std::string& message);

#define S4E_CHECK(expr)                                              \
  do {                                                               \
    if (!(expr)) ::s4e::check_failed(#expr, __FILE__, __LINE__, ""); \
  } while (false)

#define S4E_CHECK_MSG(expr, msg)                                        \
  do {                                                                  \
    if (!(expr)) ::s4e::check_failed(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)

// Propagate an error from a Result/Status expression inside a function that
// itself returns Result/Status.
#define S4E_TRY(var, expr)                    \
  auto var##_result = (expr);                 \
  if (!var##_result.ok()) {                   \
    return var##_result.error();              \
  }                                           \
  auto& var = *var##_result

#define S4E_TRY_STATUS(expr)          \
  do {                                \
    auto s4e_try_status = (expr);     \
    if (!s4e_try_status.ok()) {       \
      return s4e_try_status.error();  \
    }                                 \
  } while (false)

}  // namespace s4e

// Error types shared across the mobile-traffic-demands (mtd) library.
//
// Every mtd error carries a retryability classification: `retryable()` is
// true when the failure is transient (an I/O hiccup, an injected fault, a
// watchdog-detected stall) and a caller holding a consistent checkpoint may
// reasonably re-attempt the operation, false when retrying cannot help (bad
// arguments, malformed input, numerical degeneracy). The engine Supervisor
// keys its restart decision off this bit.
#pragma once

#include <exception>
#include <stdexcept>
#include <string>

namespace mtd {

/// Base class for every error thrown by the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what, bool retryable = false)
      : std::runtime_error(what), retryable_(retryable) {}

  /// True when the failure is transient and the operation may be retried
  /// from a consistent state (see engine/supervisor.hpp).
  [[nodiscard]] bool retryable() const noexcept { return retryable_; }

 private:
  bool retryable_;
};

/// A caller supplied an argument outside the documented domain.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A numerical routine failed to converge or produced a degenerate result.
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

/// Malformed input while parsing serialized models or traces.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

/// A filesystem or stream operation failed (open, short write, rename).
/// Retryable by default: disks fill, NFS blips, paths reappear.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what, bool retryable = true)
      : Error(what, retryable) {}
};

/// A runtime failure inside the streaming engine (worker fault, watchdog
/// stall, supervision giving up). Retryability is decided at the throw
/// site: a stalled-consumer shutdown is retryable from the last checkpoint,
/// exhausted supervision is not.
class EngineError : public Error {
 public:
  explicit EngineError(const std::string& what, bool retryable = false)
      : Error(what, retryable) {}
};

/// True when `error` holds an mtd::Error marked retryable. Any other
/// exception carries no retryability contract and is never retried.
[[nodiscard]] inline bool is_retryable(
    const std::exception_ptr& error) noexcept {
  if (!error) return false;
  try {
    std::rethrow_exception(error);
  } catch (const Error& e) {
    return e.retryable();
  } catch (...) {
    return false;
  }
}

/// Of two errors that ended the same run, the one to report: `first`,
/// unless it is retryable and `second` is not — a failure a retry cannot
/// mend outranks one it can, whichever came first.
[[nodiscard]] inline std::exception_ptr graver_error(
    std::exception_ptr first, std::exception_ptr second) noexcept {
  if (!first || (second && is_retryable(first) && !is_retryable(second))) {
    return second;
  }
  return first;
}

namespace detail {
[[noreturn]] inline void throw_invalid(const std::string& what) {
  throw InvalidArgument(what);
}
}  // namespace detail

/// Throws InvalidArgument with `what` unless `cond` holds.
inline void require(bool cond, const std::string& what) {
  if (!cond) detail::throw_invalid(what);
}

/// Same for a literal message, which becomes a std::string only on failure,
/// so a check that holds allocates nothing.
inline void require(bool cond, const char* what) {
  if (!cond) detail::throw_invalid(what);
}

}  // namespace mtd

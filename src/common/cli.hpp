// Command-line values shared by the tools' argument parser (tools::Args)
// and the campaign knobs (campaign/spec.hpp), so both report a bad value
// the same way.
#pragma once

#include <string>
#include <string_view>

#include "common/status.hpp"
#include "common/strings.hpp"

namespace s4e {

// The integer value `text` of command-line flag `flag`, in [min, max]. The
// error names the flag, the range and the text ("no value" when empty).
inline Result<long long> parse_flag_integer(std::string_view flag,
                                            std::string_view text,
                                            long long min, long long max) {
  const auto parsed = parse_integer(text);
  if (parsed.ok() && *parsed >= min && *parsed <= max) return *parsed;
  return Error(ErrorCode::kInvalidArgument,
               format("%.*s expects an integer in %lld..%lld (got %s)",
                      static_cast<int>(flag.size()), flag.data(), min, max,
                      text.empty()
                          ? "no value"
                          : ("'" + std::string(text) + "'").c_str()));
}

}  // namespace s4e

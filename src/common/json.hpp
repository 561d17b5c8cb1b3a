// JSON text helpers shared by the writers of JSON output (obs trace lines,
// s4e-lint --json).
#pragma once

#include <string>
#include <string_view>

namespace s4e {

// The contents of a JSON string literal for `text`: quotes, backslashes,
// \n and \t escaped, and \u00XX for the other control characters.
std::string json_escape(std::string_view text);

}  // namespace s4e

#include "common/json.hpp"

#include "common/strings.hpp"

namespace s4e {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += c == '\n' ? "\\n" : c == '\t' ? "\\t" : format("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace s4e

#include "common/json.hpp"

#include <fstream>
#include <utility>
#include <vector>

#include "common/file.hpp"
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

std::string json_number(double value, int decimals) {
  return format("%.*f", decimals, value);
}

Status merge_bench_entry(const std::string& path, const std::string& key,
                         const std::string& value_json) {
  std::vector<std::pair<std::string, std::string>> entries;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto open_quote = line.find('"');
    if (open_quote == std::string::npos) continue;  // braces / blank lines
    const auto close_quote = line.find('"', open_quote + 1);
    const auto colon = line.find(':', close_quote);
    if (close_quote == std::string::npos || colon == std::string::npos) {
      continue;
    }
    std::string value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.erase(0, 1);
    while (!value.empty() && (value.back() == ',' || value.back() == ' ')) {
      value.pop_back();
    }
    entries.emplace_back(
        line.substr(open_quote + 1, close_quote - open_quote - 1), value);
  }
  bool replaced = false;
  for (auto& entry : entries) {
    if (entry.first == key) {
      entry.second = value_json;
      replaced = true;
    }
  }
  if (!replaced) entries.emplace_back(key, value_json);

  std::string text = "{\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    text += "  \"" + entries[i].first + "\": " + entries[i].second +
            (i + 1 < entries.size() ? ",\n" : "\n");
  }
  return write_file_atomic(path, text + "}\n");
}

}  // namespace s4e

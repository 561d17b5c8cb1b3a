#include "common/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <limits>

namespace s4e {

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      fields.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

std::vector<std::string_view> split_whitespace(std::string_view text) {
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    const std::size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) fields.push_back(text.substr(start, i - start));
  }
  return fields;
}

Result<std::int64_t> parse_integer(std::string_view text) {
  text = trim(text);
  if (text.empty()) {
    return Error(ErrorCode::kParseError, "empty integer literal");
  }
  bool negative = false;
  if (text.front() == '+' || text.front() == '-') {
    negative = text.front() == '-';
    text.remove_prefix(1);
  }
  if (text.empty()) {
    return Error(ErrorCode::kParseError, "sign without digits");
  }
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  } else if (text.size() > 2 && text[0] == '0' &&
             (text[1] == 'b' || text[1] == 'B')) {
    base = 2;
    text.remove_prefix(2);
  }
  // The magnitude accumulates unsigned: the most negative literal's is one
  // past INT64_MAX.
  const std::uint64_t max_magnitude =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
      (negative ? 1 : 0);
  std::uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else if (c == '_') {
      continue;  // digit separator
    } else {
      return Error(ErrorCode::kParseError,
                   std::string("bad digit '") + c + "' in integer literal");
    }
    if (digit >= base) {
      return Error(ErrorCode::kParseError,
                   std::string("digit '") + c + "' out of range for base");
    }
    const auto udigit = static_cast<std::uint64_t>(digit);
    if (value > (max_magnitude - udigit) / static_cast<std::uint64_t>(base)) {
      return Error(ErrorCode::kOutOfRange, "integer literal too large");
    }
    value = value * static_cast<std::uint64_t>(base) + udigit;
  }
  return static_cast<std::int64_t>(negative ? 0 - value : value);
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string pad_left(const std::string& value, std::size_t width) {
  if (value.size() >= width) return value;
  return std::string(width - value.size(), ' ') + value;
}

std::string pad_right(const std::string& value, std::size_t width) {
  if (value.size() >= width) return value;
  return value + std::string(width - value.size(), ' ');
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  // Single-row dynamic program; flag names are short, so O(|a|*|b|) with a
  // |b|+1 row is plenty.
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitute =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({substitute, row[j] + 1, row[j - 1] + 1});
    }
  }
  return row[b.size()];
}

}  // namespace s4e

// JSON text helpers shared by the writers of JSON output (obs trace lines,
// s4e-lint --json, bench and campaign telemetry reports).
#pragma once

#include <string>
#include <string_view>

#include "common/status.hpp"

namespace s4e {

// The contents of a JSON string literal for `text`: quotes, backslashes,
// \n and \t escaped, and \u00XX for the other control characters.
std::string json_escape(std::string_view text);

// A double with `decimals` fixed decimals (locale-independent digits; the
// default suits throughput numbers, tiny fractions pass more).
std::string json_number(double value, int decimals = 2);

// Insert or replace the `key` entry of the report file at `path`, keeping
// the other entries and their order. Benches (BENCH_*.json) and the
// campaign tools' --metrics-out share the format: one `"key": value` line
// per entry inside a single top-level object, so merging is a line
// replace, not a JSON parse. `value_json` must be one line. The file is
// replaced with write_file_atomic, so a killed writer never leaves a
// truncated report behind for the next merge.
Status merge_bench_entry(const std::string& path, const std::string& key,
                         const std::string& value_json);

}  // namespace s4e

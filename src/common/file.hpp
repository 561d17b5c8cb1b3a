// Crash-safe file replacement shared by every writer whose output a later
// run reads back (trace files, the fleet checkpoint journal, bench and
// telemetry reports).
#pragma once

#include <string>
#include <string_view>

#include "common/status.hpp"

namespace s4e {

// Replace `path` with `bytes` atomically: write a per-process sibling temp
// file, flush and fsync it, close it (checked), then rename(2) it over
// `path`. A writer killed midway leaves either the old file or the new
// one, never a truncated hybrid; on failure the temp file is removed.
Status write_file_atomic(const std::string& path, std::string_view bytes);

}  // namespace s4e

#include "fleet/worker.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/strings.hpp"

namespace s4e::fleet {

namespace {

// The stall hook parks the worker long enough for the orchestrator's kill
// to land; SIGKILL interrupts the sleep, so the bound is never reached in
// practice.
constexpr auto kStallDuration = std::chrono::seconds(60);

Status write_line(const std::string& line) {
  if (std::fwrite(line.data(), 1, line.size(), stdout) != line.size() ||
      std::fputc('\n', stdout) == EOF || std::fflush(stdout) != 0) {
    return Error(ErrorCode::kIoError, "fleet worker: stdout write failed");
  }
  return Status();
}

}  // namespace

Status emit_stream(const Vocabulary& vocabulary, const MetaLine& meta,
                   const std::vector<std::string>& record_lines,
                   unsigned stall_after) {
  S4E_TRY_STATUS(write_line(encode(vocabulary, meta)));
  for (std::size_t i = 0; i < record_lines.size(); ++i) {
    if (stall_after != 0 && i == stall_after) {
      std::this_thread::sleep_for(kStallDuration);
    }
    S4E_TRY_STATUS(write_line(record_lines[i]));
  }
  return write_line(encode(DoneLine{meta.shard, record_lines.size()}));
}

std::optional<std::pair<unsigned, unsigned>> parse_shard(
    std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto index = parse_integer(text.substr(0, slash));
  const auto count = parse_integer(text.substr(slash + 1));
  if (!index.ok() || !count.ok() || *index < 0 || *count < 1 ||
      *index >= *count || *count > 1 << 20) {
    return std::nullopt;
  }
  return std::make_pair(static_cast<unsigned>(*index),
                        static_cast<unsigned>(*count));
}

Result<std::string> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error(ErrorCode::kIoError, "cannot read " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace s4e::fleet

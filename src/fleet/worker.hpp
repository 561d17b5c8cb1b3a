// Worker-side streaming for fleet shards: after s4e-faultsim / s4e-mutate
// finish their shard, `--emit-jsonl` replaces the human report with the
// fleet wire stream (meta, records in global index order, done) on stdout,
// which the orchestrator reads through a pipe.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "fleet/records.hpp"

namespace s4e::fleet {

// Stream one shard to stdout: the meta line, every pre-encoded record line,
// and the done line. Records are flushed individually so the orchestrator
// sees them as they happen (and the stall hook has a defined cut point).
// `stall_after` is a failure-injection hook (tests): when non-zero, sleep
// before emitting record N+1 so the orchestrator can SIGKILL this worker at
// a deterministic point.
Status emit_stream(const Vocabulary& vocabulary, const MetaLine& meta,
                   const std::vector<std::string>& record_lines,
                   unsigned stall_after);

// Parse an "i/N" shard selector (0 <= i < N). nullopt on malformed input.
std::optional<std::pair<unsigned, unsigned>> parse_shard(
    std::string_view text);

// Raw file bytes for campaign fingerprinting; error on unreadable path.
Result<std::string> read_file_bytes(const std::string& path);

}  // namespace s4e::fleet

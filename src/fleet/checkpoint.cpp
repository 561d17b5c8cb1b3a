#include "fleet/checkpoint.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/file.hpp"
#include "common/strings.hpp"
#include "fleet/worker.hpp"

namespace s4e::fleet {

std::string encode_header(const CheckpointHeader& header) {
  return format("{\"checkpoint\":\"s4e-fleet\",\"mode\":\"%s\","
                "\"fingerprint\":\"%016llx\"}",
                std::string(header.vocabulary.name).c_str(),
                static_cast<unsigned long long>(header.fingerprint));
}

namespace {

std::string commit_line(unsigned shard) {
  return format("{\"commit\":%u}", shard);
}

}  // namespace

std::string encode_block(const Vocabulary& vocabulary,
                         const CompletedShard& shard) {
  std::string text = encode(vocabulary, shard.meta) + "\n";
  for (const RecordLine& record : shard.records) {
    text += encode(vocabulary, record) + "\n";
  }
  return text + commit_line(shard.meta.shard) + "\n";
}

std::optional<std::vector<CompletedShard>> parse_journal(
    const std::string& text, const CheckpointHeader& header) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != encode_header(header)) {
    return std::nullopt;  // a different campaign, or no journal at all
  }
  std::vector<CompletedShard> shards;

  // Shard blocks. Any structural defect means the daemon died mid-append
  // (or the file was altered): the torn block and everything after it are
  // discarded, not errors. Records are checked as the live stream checks
  // them, each numbered by its place in the block's range; the range itself
  // is checked against the shard contract by run_fleet. Nothing is sized
  // from the meta line's counts before the records are there.
  while (std::getline(in, line)) {
    auto meta = parse_line(line, header.vocabulary);
    if (!meta.ok() || !meta->meta.has_value()) break;
    CompletedShard block;
    block.meta = *meta->meta;
    const u64 count = block.meta.end - block.meta.begin;

    while (block.records.size() < count && std::getline(in, line)) {
      auto parsed = parse_line(line, header.vocabulary);
      if (!parsed.ok() || !parsed->record.has_value() ||
          parsed->record->index !=
              block.meta.begin + block.records.size()) {
        break;
      }
      block.records.push_back(*parsed->record);
    }
    if (block.records.size() != count || !std::getline(in, line) ||
        line != commit_line(block.meta.shard)) {
      break;
    }
    shards.push_back(std::move(block));
  }

  std::sort(shards.begin(), shards.end(),
            [](const CompletedShard& a, const CompletedShard& b) {
              return a.meta.shard < b.meta.shard;
            });
  return shards;
}

Result<CheckpointJournal> CheckpointJournal::open(
    const std::string& path, const CheckpointHeader& header,
    std::vector<CompletedShard>& recovered, bool& replaced_stale) {
  recovered.clear();
  replaced_stale = false;

  const std::string existing = read_file_bytes(path).value_or("");
  auto parsed = parse_journal(existing, header);
  const bool resume = parsed.has_value();
  if (resume) recovered = std::move(*parsed);
  replaced_stale = !resume && !existing.empty();

  // The journal is rewritten from the committed blocks only, so a partial
  // trailing block does not accumulate garbage across restarts. The write
  // is atomic (write_file_atomic), then appends continue.
  std::string text = encode_header(header) + "\n";
  for (const CompletedShard& shard : recovered) {
    text += encode_block(header.vocabulary, shard);
  }
  if (auto status = write_file_atomic(path, text); !status.ok()) {
    return Error(ErrorCode::kIoError,
                 "checkpoint: " + status.error().message());
  }
  CheckpointJournal journal;
  journal.vocabulary_ = header.vocabulary;
  journal.file_.reset(std::fopen(path.c_str(), "ab"));
  if (journal.file_ == nullptr) {
    return Error(ErrorCode::kIoError,
                 "checkpoint: cannot open " + path + " for appending");
  }
  return journal;
}

Status CheckpointJournal::commit(const CompletedShard& shard) {
  S4E_CHECK_MSG(file_ != nullptr, "checkpoint journal is closed");
  const std::string text = encode_block(vocabulary_, shard);
  if (std::fwrite(text.data(), 1, text.size(), file_.get()) != text.size() ||
      std::fflush(file_.get()) != 0 || ::fsync(::fileno(file_.get())) != 0) {
    return Error(ErrorCode::kIoError, "checkpoint: append failed");
  }
  return Status();
}

}  // namespace s4e::fleet

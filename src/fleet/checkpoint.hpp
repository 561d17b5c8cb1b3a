// Crash-safe checkpoint journal for the campaign fleet service.
//
// The journal is an append-only text file. Line one is a header binding the
// file to one campaign: its model's name and fingerprint (which covers the
// ELF, the knobs and the shard count). Every time a shard finishes, the
// daemon appends one block:
//
//   <the worker's meta line: shard, range, total, golden run, fingerprint>
//   <end - begin record lines, global index order>
//   {"commit":i}
//
// and flushes + fsyncs before acknowledging the shard as done. A block
// without its commit line (daemon died mid-append) is ignored on load, as
// is everything after it — so the worst crash loses exactly the in-flight
// block and the shard is simply re-run. Resume is automatic: when the
// journal exists and its header matches the campaign, committed shards are
// fed straight into the aggregation and never re-executed.
#pragma once

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "fleet/records.hpp"

namespace s4e::fleet {

struct CheckpointHeader {
  Vocabulary vocabulary;  // the model's: the header names it, blocks use it
  u64 fingerprint = 0;
};

// One committed shard: the worker's meta line (its range and golden
// reference) and every record in global index order.
struct CompletedShard {
  MetaLine meta;
  std::vector<RecordLine> records;
};

class CheckpointJournal {
 public:
  // Open `path` for the campaign described by `header`. If the file holds a
  // matching journal, committed shards are returned through `recovered`
  // (sorted by shard index) and appends continue after them. If the file is
  // missing, empty, or belongs to a *different* campaign, it is replaced by
  // a fresh journal and `recovered` stays empty; `replaced_stale` reports
  // that case so the caller can surface it.
  static Result<CheckpointJournal> open(const std::string& path,
                                        const CheckpointHeader& header,
                                        std::vector<CompletedShard>& recovered,
                                        bool& replaced_stale);

  // Append one committed shard block and fsync it to disk.
  Status commit(const CompletedShard& shard);

 private:
  struct Closer {
    void operator()(std::FILE* file) const { std::fclose(file); }
  };
  std::unique_ptr<std::FILE, Closer> file_;
  Vocabulary vocabulary_;
};

// Parse helper shared with tests: the fully committed shard blocks of a
// journal stream, or nullopt when the stream does not start with
// `header`'s line. A block that does not parse — cut short, a field out of
// range, a record numbered other than its place in the range — is torn:
// it and everything after it are discarded, not an error.
std::optional<std::vector<CompletedShard>> parse_journal(
    const std::string& text, const CheckpointHeader& header);

std::string encode_header(const CheckpointHeader& header);
// One shard block: meta line, records and commit line, newline-terminated.
std::string encode_block(const Vocabulary& vocabulary,
                         const CompletedShard& shard);

}  // namespace s4e::fleet

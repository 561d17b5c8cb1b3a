// Wire records for the campaign fleet service (s4e-campaignd).
//
// A fleet worker (`s4e-faultsim --shard i/N --emit-jsonl`, likewise
// s4e-mutate) streams its shard's results as JSONL: one `meta` line
// announcing the shard's identity and range, one `record` line per mutant
// in global index order, and one `done` line carrying the record count.
// The orchestrator merges records into a slot array indexed by the global
// mutant index — the same deterministic aggregation the in-process
// executor uses — so the fleet report is byte-identical to a serial run.
//
// The format is deliberately flat (no nested objects), so both ends share
// a line codec instead of a JSON library. Every line is self-describing;
// a stream cut mid-line is detected by the missing `done` count.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bits.hpp"
#include "common/status.hpp"

namespace s4e::fleet {

// A campaign model's wire vocabulary, taken from the model's own names
// (Model::kName, kClassNames, kBucketNames): the "mode" of meta and
// checkpoint lines, and the record names RecordLine::klass and ::bucket
// index.
struct Vocabulary {
  std::string_view name;
  std::span<const char* const> classes;
  std::span<const char* const> buckets;
};

template <class Model>
constexpr Vocabulary vocabulary_of() {
  return {Model::kName, Model::kClassNames, Model::kBucketNames};
}

// Campaign identity: FNV-1a over the program image bytes, the model's name,
// the canonical campaign spec (campaign::spec_argv: every knob's value) and
// the shard count. Two runs with the same fingerprint run the same
// campaign, so their shards and checkpoints compose.
u64 campaign_fingerprint(const std::string& elf_bytes, std::string_view mode,
                         const std::vector<std::string>& spec,
                         unsigned shards);

// First line of a worker stream.
struct MetaLine {
  unsigned shard = 0;
  unsigned shards = 1;
  u64 begin = 0;       // global index of the shard's first mutant
  u64 end = 0;         // one past the shard's last mutant
  u64 total = 0;       // full campaign size
  int golden_exit = 0;
  u64 golden_instructions = 0;
  u64 fingerprint = 0;
};

// One mutant outcome. `bucket` is the outcome/verdict enum value and
// `klass` the fault target / mutation operator enum value — exactly what
// the aggregate report needs; the orchestrator never re-derives specs.
struct RecordLine {
  u64 index = 0;  // global mutant index
  u8 klass = 0;   // fault::FaultTarget or mutation::Operator
  u8 bucket = 0;  // fault::Outcome or mutation::Verdict
  int exit_code = 0;
  u64 instructions = 0;
  bool pruned = false;
};

// Last line of a worker stream; `count` must equal the records sent.
struct DoneLine {
  unsigned shard = 0;
  u64 count = 0;
};

// A parsed worker line (exactly one of the optionals is set).
struct ParsedLine {
  std::optional<MetaLine> meta;
  std::optional<RecordLine> record;
  std::optional<DoneLine> done;
};

std::string encode(const Vocabulary& vocabulary, const MetaLine& meta);
std::string encode(const Vocabulary& vocabulary, const RecordLine& record);
std::string encode(const DoneLine& done);

// Strict parse of one worker line; errors name the offending field. An
// integer field that does not fit its type is malformed.
Result<ParsedLine> parse_line(std::string_view line,
                              const Vocabulary& vocabulary);

// A campaign model's result as a wire record (the worker side) and back
// (the orchestrator side, which folds it with the model's own fold). The
// model maps its class and bucket; the other fields are common to every
// result type.
template <class Model>
RecordLine to_record(const typename Model::ItemResult& result, u64 index) {
  RecordLine record;
  record.index = index;
  record.klass = static_cast<u8>(Model::klass(result));
  record.bucket = static_cast<u8>(Model::bucket(result));
  record.exit_code = result.exit_code;
  record.instructions = result.instructions;
  record.pruned = result.pruned;
  return record;
}

template <class Model>
typename Model::ItemResult from_record(const RecordLine& record) {
  auto result = Model::from_class(record.klass, record.bucket);
  result.exit_code = record.exit_code;
  result.instructions = record.instructions;
  result.pruned = record.pruned;
  return result;
}

}  // namespace s4e::fleet

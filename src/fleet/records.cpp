#include "fleet/records.hpp"

#include <charconv>
#include <utility>

#include "common/fnv1a.hpp"
#include "common/strings.hpp"

namespace s4e::fleet {

namespace {

std::optional<u8> match(std::span<const char* const> names,
                        std::string_view text) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == text) return static_cast<u8>(i);
  }
  return std::nullopt;
}

// Flat-JSON field access: the raw value token for `key`, unquoted for
// strings.
std::optional<std::string> json_field(std::string_view line,
                                      std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  std::size_t i = pos + needle.size();
  if (i >= line.size()) return std::nullopt;
  if (line[i] == '"') {  // no escapes: the lines carry no free text
    const std::size_t close = line.find('"', i + 1);
    if (close == std::string_view::npos) return std::nullopt;
    return std::string(line.substr(i + 1, close - i - 1));
  }
  std::size_t end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  if (end == i || end == line.size()) return std::nullopt;
  return std::string(line.substr(i, end - i));
}

// Integer field of type T; nullopt when absent, non-numeric, or outside
// T's range (a negative count, an exit code past int).
template <class T>
std::optional<T> json_int_field(std::string_view line, std::string_view key) {
  const auto raw = json_field(line, key);
  if (!raw.has_value()) return std::nullopt;
  const auto value = parse_integer(*raw);
  if (!value.ok() || !std::in_range<T>(*value)) return std::nullopt;
  return static_cast<T>(*value);
}

}  // namespace

u64 campaign_fingerprint(const std::string& elf_bytes, std::string_view mode,
                         const std::vector<std::string>& spec,
                         unsigned shards) {
  // The fields after the image are NUL-separated, so no two field lists
  // hash the same bytes.
  std::string fields(mode);
  for (const std::string& token : spec) fields += '\0' + token;
  fields += '\0' + std::to_string(shards);
  u64 hash = kFnv1aOffsetBasis;
  for (const std::string_view bytes : {elf_bytes, fields}) {
    hash = fnv1a(reinterpret_cast<const u8*>(bytes.data()), bytes.size(), hash);
  }
  return hash;
}

std::string encode(const Vocabulary& vocabulary, const MetaLine& meta) {
  return format(
      "{\"meta\":\"s4e-fleet\",\"mode\":\"%s\",\"shard\":%u,\"shards\":%u,"
      "\"begin\":%llu,\"end\":%llu,\"total\":%llu,\"golden_exit\":%d,"
      "\"golden_instructions\":%llu,\"fingerprint\":\"%016llx\"}",
      std::string(vocabulary.name).c_str(), meta.shard, meta.shards,
      static_cast<unsigned long long>(meta.begin),
      static_cast<unsigned long long>(meta.end),
      static_cast<unsigned long long>(meta.total), meta.golden_exit,
      static_cast<unsigned long long>(meta.golden_instructions),
      static_cast<unsigned long long>(meta.fingerprint));
}

std::string encode(const Vocabulary& vocabulary, const RecordLine& record) {
  return format("{\"i\":%llu,\"class\":\"%s\",\"bucket\":\"%s\",\"exit\":%d,"
                "\"insns\":%llu,\"pruned\":%u}",
                static_cast<unsigned long long>(record.index),
                vocabulary.classes[record.klass],
                vocabulary.buckets[record.bucket], record.exit_code,
                static_cast<unsigned long long>(record.instructions),
                record.pruned ? 1u : 0u);
}

std::string encode(const DoneLine& done) {
  return format("{\"done\":true,\"shard\":%u,\"count\":%llu}", done.shard,
                static_cast<unsigned long long>(done.count));
}

Result<ParsedLine> parse_line(std::string_view line,
                              const Vocabulary& vocabulary) {
  ParsedLine parsed;
  if (line.find("\"meta\"") != std::string_view::npos) {
    MetaLine meta;
    if (json_field(line, "mode") != vocabulary.name) {
      return Error(ErrorCode::kParseError,
                   "fleet meta line: missing or mismatched mode");
    }
    const auto shard = json_int_field<unsigned>(line, "shard");
    const auto shards = json_int_field<unsigned>(line, "shards");
    const auto begin = json_int_field<u64>(line, "begin");
    const auto end = json_int_field<u64>(line, "end");
    const auto total = json_int_field<u64>(line, "total");
    const auto golden_exit = json_int_field<int>(line, "golden_exit");
    const auto golden_insns = json_int_field<u64>(line, "golden_instructions");
    const auto fingerprint = json_field(line, "fingerprint");
    if (!shard || !shards || !begin || !end || !total || !golden_exit ||
        !golden_insns || !fingerprint) {
      return Error(ErrorCode::kParseError,
                   "fleet meta line: missing or out-of-range field");
    }
    // Fingerprints travel as quoted hex: parse_integer's signed range
    // cannot hold them.
    const char* fp_end = fingerprint->data() + fingerprint->size();
    const auto fp = std::from_chars(fingerprint->data(), fp_end,
                                    meta.fingerprint, 16);
    if (fingerprint->empty() || fp.ec != std::errc() || fp.ptr != fp_end) {
      return Error(ErrorCode::kParseError,
                   "fleet meta line: bad fingerprint");
    }
    meta.shard = *shard;
    meta.shards = *shards;
    meta.begin = *begin;
    meta.end = *end;
    meta.total = *total;
    meta.golden_exit = *golden_exit;
    meta.golden_instructions = *golden_insns;
    if (meta.begin > meta.end || meta.end > meta.total ||
        meta.shards == 0 || meta.shard >= meta.shards) {
      return Error(ErrorCode::kParseError,
                   "fleet meta line: inconsistent shard range");
    }
    parsed.meta = meta;
    return parsed;
  }
  if (line.find("\"done\"") != std::string_view::npos) {
    const auto shard = json_int_field<unsigned>(line, "shard");
    const auto count = json_int_field<u64>(line, "count");
    if (!shard || !count) {
      return Error(ErrorCode::kParseError,
                   "fleet done line: missing or out-of-range field");
    }
    parsed.done = DoneLine{*shard, *count};
    return parsed;
  }
  const auto index = json_int_field<u64>(line, "i");
  const auto klass = json_field(line, "class");
  const auto bucket = json_field(line, "bucket");
  const auto exit_code = json_int_field<int>(line, "exit");
  const auto insns = json_int_field<u64>(line, "insns");
  const auto pruned = json_int_field<long long>(line, "pruned");
  if (!index || !klass || !bucket || !exit_code || !insns || !pruned) {
    return Error(ErrorCode::kParseError,
                 "fleet record line: missing or out-of-range field in '" +
                     std::string(line.substr(0, 120)) + "'");
  }
  const auto klass_value = match(vocabulary.classes, *klass);
  const auto bucket_value = match(vocabulary.buckets, *bucket);
  if (!klass_value || !bucket_value) {
    return Error(ErrorCode::kParseError,
                 "fleet record line: unknown class or bucket");
  }
  RecordLine record;
  record.index = *index;
  record.klass = *klass_value;
  record.bucket = *bucket_value;
  record.exit_code = *exit_code;
  record.instructions = *insns;
  record.pruned = *pruned != 0;
  parsed.record = record;
  return parsed;
}

}  // namespace s4e::fleet

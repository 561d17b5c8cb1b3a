#include "fleet/records.hpp"

#include <charconv>

#include "common/strings.hpp"

namespace s4e::fleet {

namespace {

constexpr std::string_view kFaultTargets[] = {"gpr", "mem", "code"};
constexpr std::string_view kOutcomes[] = {"masked", "sdc", "crash", "hang"};
constexpr std::string_view kOperators[] = {"opcode-subst", "register-repl",
                                           "imm-perturb"};
constexpr std::string_view kVerdicts[] = {"killed-result", "killed-crash",
                                          "killed-hang", "SURVIVED"};

template <std::size_t N>
std::optional<u8> match(const std::string_view (&names)[N],
                        std::string_view text) {
  for (std::size_t i = 0; i < N; ++i) {
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

// Integer field; nullopt when absent or non-numeric.
std::optional<long long> json_int_field(std::string_view line,
                                        std::string_view key) {
  const auto raw = json_field(line, key);
  if (!raw.has_value()) return std::nullopt;
  const auto value = parse_integer(*raw);
  if (!value.ok()) return std::nullopt;
  return *value;
}

}  // namespace

std::string_view to_string(Mode mode) noexcept {
  return mode == Mode::kFault ? "fault" : "mutation";
}

std::optional<Mode> parse_mode(std::string_view text) noexcept {
  if (text == "fault") return Mode::kFault;
  if (text == "mutation") return Mode::kMutation;
  return std::nullopt;
}

u64 campaign_fingerprint(const std::string& elf_bytes, Mode mode,
                         const std::vector<std::string>& spec,
                         unsigned shards) {
  // The fields after the image are NUL-separated, so no two field lists
  // hash the same bytes.
  std::string fields(to_string(mode));
  for (const std::string& token : spec) fields += '\0' + token;
  fields += '\0' + std::to_string(shards);
  u64 hash = 0xcbf29ce484222325ull;  // FNV-1a
  for (const std::string_view bytes : {elf_bytes, fields}) {
    for (const char c : bytes) {
      hash ^= static_cast<u8>(c);
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

std::string encode(const MetaLine& meta) {
  return format(
      "{\"meta\":\"s4e-fleet\",\"mode\":\"%s\",\"shard\":%u,\"shards\":%u,"
      "\"begin\":%llu,\"end\":%llu,\"total\":%llu,\"golden_exit\":%d,"
      "\"golden_instructions\":%llu,\"fingerprint\":\"%016llx\"}",
      std::string(to_string(meta.mode)).c_str(), meta.shard, meta.shards,
      static_cast<unsigned long long>(meta.begin),
      static_cast<unsigned long long>(meta.end),
      static_cast<unsigned long long>(meta.total), meta.golden_exit,
      static_cast<unsigned long long>(meta.golden_instructions),
      static_cast<unsigned long long>(meta.fingerprint));
}

std::string encode(Mode mode, const RecordLine& record) {
  const std::string_view klass = mode == Mode::kFault
                                     ? kFaultTargets[record.klass]
                                     : kOperators[record.klass];
  const std::string_view bucket = mode == Mode::kFault
                                      ? kOutcomes[record.bucket]
                                      : kVerdicts[record.bucket];
  return format("{\"i\":%llu,\"class\":\"%s\",\"bucket\":\"%s\",\"exit\":%d,"
                "\"insns\":%llu,\"pruned\":%u}",
                static_cast<unsigned long long>(record.index),
                std::string(klass).c_str(), std::string(bucket).c_str(),
                record.exit_code,
                static_cast<unsigned long long>(record.instructions),
                record.pruned ? 1u : 0u);
}

std::string encode(const DoneLine& done) {
  return format("{\"done\":true,\"shard\":%u,\"count\":%llu}", done.shard,
                static_cast<unsigned long long>(done.count));
}

Result<ParsedLine> parse_line(std::string_view line, Mode mode) {
  ParsedLine parsed;
  if (line.find("\"meta\"") != std::string_view::npos) {
    MetaLine meta;
    const auto mode_name = json_field(line, "mode");
    const auto parsed_mode =
        mode_name.has_value() ? parse_mode(*mode_name) : std::nullopt;
    if (!parsed_mode.has_value() || *parsed_mode != mode) {
      return Error(ErrorCode::kParseError,
                   "fleet meta line: missing or mismatched mode");
    }
    meta.mode = *parsed_mode;
    const auto shard = json_int_field(line, "shard");
    const auto shards = json_int_field(line, "shards");
    const auto begin = json_int_field(line, "begin");
    const auto end = json_int_field(line, "end");
    const auto total = json_int_field(line, "total");
    const auto golden_exit = json_int_field(line, "golden_exit");
    const auto golden_insns = json_int_field(line, "golden_instructions");
    const auto fingerprint = json_field(line, "fingerprint");
    if (!shard || !shards || !begin || !end || !total || !golden_exit ||
        !golden_insns || !fingerprint) {
      return Error(ErrorCode::kParseError, "fleet meta line: missing field");
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
    meta.shard = static_cast<unsigned>(*shard);
    meta.shards = static_cast<unsigned>(*shards);
    meta.begin = static_cast<u64>(*begin);
    meta.end = static_cast<u64>(*end);
    meta.total = static_cast<u64>(*total);
    meta.golden_exit = static_cast<int>(*golden_exit);
    meta.golden_instructions = static_cast<u64>(*golden_insns);
    if (meta.begin > meta.end || meta.end > meta.total ||
        meta.shards == 0 || meta.shard >= meta.shards) {
      return Error(ErrorCode::kParseError,
                   "fleet meta line: inconsistent shard range");
    }
    parsed.meta = meta;
    return parsed;
  }
  if (line.find("\"done\"") != std::string_view::npos) {
    DoneLine done;
    const auto shard = json_int_field(line, "shard");
    const auto count = json_int_field(line, "count");
    if (!shard || !count || *count < 0) {
      return Error(ErrorCode::kParseError, "fleet done line: missing field");
    }
    done.shard = static_cast<unsigned>(*shard);
    done.count = static_cast<u64>(*count);
    parsed.done = done;
    return parsed;
  }
  RecordLine record;
  const auto index = json_int_field(line, "i");
  const auto klass = json_field(line, "class");
  const auto bucket = json_field(line, "bucket");
  const auto exit_code = json_int_field(line, "exit");
  const auto insns = json_int_field(line, "insns");
  const auto pruned = json_int_field(line, "pruned");
  if (!index || !klass || !bucket || !exit_code || !insns || !pruned) {
    return Error(ErrorCode::kParseError,
                 "fleet record line: missing field in '" +
                     std::string(line.substr(0, 120)) + "'");
  }
  const auto klass_value = mode == Mode::kFault ? match(kFaultTargets, *klass)
                                                : match(kOperators, *klass);
  const auto bucket_value = mode == Mode::kFault ? match(kOutcomes, *bucket)
                                                 : match(kVerdicts, *bucket);
  if (!klass_value || !bucket_value) {
    return Error(ErrorCode::kParseError,
                 "fleet record line: unknown class or bucket");
  }
  record.index = static_cast<u64>(*index);
  record.klass = *klass_value;
  record.bucket = *bucket_value;
  record.exit_code = static_cast<int>(*exit_code);
  record.instructions = static_cast<u64>(*insns);
  record.pruned = *pruned != 0;
  parsed.record = record;
  return parsed;
}

}  // namespace s4e::fleet

// Campaign fleet service tests: wire codec round trips, checkpoint journal
// recovery, and the orchestrator's headline contract — the multi-process
// fleet report is byte-identical to the serial engine's, including across
// worker SIGKILLs and daemon crash/resume cycles.
//
// Orchestrator tests fork real worker binaries (s4e-faultsim / s4e-mutate
// from S4E_TOOL_DIR), so this suite exercises the full process-supervision
// path, not a mock.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "asm/assembler.hpp"
#include "campaign/spec.hpp"
#include "common/file.hpp"
#include "common/strings.hpp"
#include "core/workloads.hpp"
#include "debug/tcp.hpp"
#include "elf/elf32.hpp"
#include "fault/fault.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/orchestrator.hpp"
#include "fleet/records.hpp"
#include "fleet/worker.hpp"
#include "mutation/mutation.hpp"

#ifndef S4E_TOOL_DIR
#error "S4E_TOOL_DIR must be defined by the build system"
#endif

namespace s4e::fleet {
namespace {

using FaultModel = fault::FaultModel;
using MutationModel = mutation::MutationModel;
constexpr Vocabulary kFault = vocabulary_of<FaultModel>();
constexpr Vocabulary kMutation = vocabulary_of<MutationModel>();

std::string tool(const std::string& name) {
  return std::string(S4E_TOOL_DIR) + "/" + name;
}

std::string temp_path(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" +
         (info != nullptr ? std::string(info->name()) + "_" : "") + name;
}

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  const std::string full = command + " 2>&1";
  FILE* pipe = popen(full.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

// Assemble standard workload `name` into an ELF at `path`.
assembler::Program write_workload_elf(const std::string& name,
                                      const std::string& path) {
  auto workload = core::find_workload(name);
  EXPECT_TRUE(workload.ok()) << name;
  auto program = assembler::assemble(workload->source);
  EXPECT_TRUE(program.ok()) << program.error().to_string();
  EXPECT_TRUE(elf::write_elf_file(*program, path).ok());
  return *program;
}

// Fixture: one checksum ELF on disk plus the serial reference reports,
// computed in-process through the same engines the worker binaries use.
class Fleet : public ::testing::Test {
 protected:
  void SetUp() override {
    elf_ = temp_path("fleet.elf");
    program_ = write_workload_elf("checksum", elf_);
  }
  void TearDown() override { std::remove(elf_.c_str()); }

  std::string serial_fault_report(unsigned mutants, u64 seed) {
    fault::CampaignConfig config;
    config.mutant_count = mutants;
    config.seed = seed;
    config.jobs = 1;
    fault::Campaign campaign(program_, config);
    auto result = campaign.run();
    EXPECT_TRUE(result.ok());
    return result.ok() ? result->to_string() : "";
  }

  std::string serial_mutation_report(unsigned max_mutants) {
    mutation::MutationConfig config;
    config.max_mutants = max_mutants;
    config.jobs = 1;
    mutation::MutationCampaign campaign(program_, config);
    auto score = campaign.run();
    EXPECT_TRUE(score.ok());
    return score.ok() ? score->to_string() : "";
  }

  FleetOptions fault_options(unsigned mutants, u64 seed) {
    FleetOptions options;
    options.elf_path = elf_;
    options.worker_path = tool("s4e-faultsim");
    options.spec = {"--mutants=" + std::to_string(mutants),
                    "--seed=" + std::to_string(seed)};
    return options;
  }

  std::string elf_;
  assembler::Program program_;
};

// --- wire records ----------------------------------------------------------

TEST(FleetRecords, MetaRoundTrips) {
  MetaLine meta;
  meta.shard = 3;
  meta.shards = 16;
  meta.begin = 37;
  meta.end = 50;
  meta.total = 200;
  meta.golden_exit = 42;
  meta.golden_instructions = 123456;
  meta.fingerprint = 0xdeadbeefcafef00dull;  // exceeds i64: hex transport
  auto parsed = parse_line(encode(kFault, meta), kFault);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  ASSERT_TRUE(parsed->meta.has_value());
  EXPECT_EQ(parsed->meta->shard, 3u);
  EXPECT_EQ(parsed->meta->begin, 37u);
  EXPECT_EQ(parsed->meta->end, 50u);
  EXPECT_EQ(parsed->meta->total, 200u);
  EXPECT_EQ(parsed->meta->golden_exit, 42);
  EXPECT_EQ(parsed->meta->golden_instructions, 123456u);
  EXPECT_EQ(parsed->meta->fingerprint, 0xdeadbeefcafef00dull);
}

TEST(FleetRecords, RecordRoundTripsBothModes) {
  RecordLine record;
  record.index = 99;
  record.klass = 2;
  record.bucket = 1;
  record.exit_code = -6;
  record.instructions = 4242;
  record.pruned = true;
  for (const Vocabulary& vocabulary : {kFault, kMutation}) {
    auto parsed = parse_line(encode(vocabulary, record), vocabulary);
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
    ASSERT_TRUE(parsed->record.has_value());
    EXPECT_EQ(parsed->record->index, 99u);
    EXPECT_EQ(parsed->record->klass, 2);
    EXPECT_EQ(parsed->record->bucket, 1);
    EXPECT_EQ(parsed->record->exit_code, -6);
    EXPECT_EQ(parsed->record->instructions, 4242u);
    EXPECT_TRUE(parsed->record->pruned);
  }
}

TEST(FleetRecords, DoneRoundTrips) {
  DoneLine done;
  done.shard = 7;
  done.count = 13;
  auto parsed = parse_line(encode(done), kMutation);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->done.has_value());
  EXPECT_EQ(parsed->done->shard, 7u);
  EXPECT_EQ(parsed->done->count, 13u);
}

// A flat line with every field of `fields` at its default, or at `value`
// for `key` (tests build malformed lines from it).
using Fields = std::vector<std::pair<std::string, std::string>>;
std::string flat_line(const Fields& fields, const std::string& key,
                      const std::string& value) {
  std::string line;
  for (const auto& [field, default_value] : fields) {
    line += (line.empty() ? "{\"" : ",\"") + field +
            "\":" + (field == key ? value : default_value);
  }
  return line + "}";
}

std::string meta_line(const std::string& key, const std::string& value) {
  return flat_line({{"meta", "\"s4e-fleet\""},
                    {"mode", "\"fault\""},
                    {"shard", "0"},
                    {"shards", "2"},
                    {"begin", "0"},
                    {"end", "5"},
                    {"total", "10"},
                    {"golden_exit", "0"},
                    {"golden_instructions", "9"},
                    {"fingerprint", "\"0000000000000007\""}},
                   key, value);
}

std::string record_line(const std::string& key, const std::string& value) {
  return flat_line({{"i", "0"},
                    {"class", "\"gpr\""},
                    {"bucket", "\"sdc\""},
                    {"exit", "-6"},
                    {"insns", "40"},
                    {"pruned", "0"}},
                   key, value);
}

std::string done_line(const std::string& key, const std::string& value) {
  return flat_line({{"done", "true"}, {"shard", "1"}, {"count", "5"}}, key,
                   value);
}

TEST(FleetRecords, RejectsMalformedLines) {
  EXPECT_FALSE(parse_line("{\"i\":1}", kFault).ok());
  EXPECT_FALSE(parse_line("not json at all", kFault).ok());
  EXPECT_FALSE(parse_line(record_line("bucket", "\"nope\""), kFault).ok());
  // A fault-mode class name is rejected under mutation mode (and vice
  // versa) — the two vocabularies never mix on one stream.
  EXPECT_FALSE(
      parse_line(record_line("bucket", "\"SURVIVED\""), kMutation).ok());
  MetaLine meta;
  meta.shard = 5;
  meta.shards = 4;  // shard >= shards
  EXPECT_FALSE(parse_line(encode(kFault, meta), kFault).ok());

  // An integer field that does not fit its type: negative shards, ranges,
  // indices and counts, and exit codes or shard numbers past their range
  // (which a cast would wrap into plausible values).
  ASSERT_TRUE(parse_line(meta_line("", ""), kFault).ok());
  ASSERT_TRUE(parse_line(record_line("", ""), kFault).ok());
  ASSERT_TRUE(parse_line(done_line("", ""), kFault).ok());
  const struct {
    std::string (*line)(const std::string&, const std::string&);
    const char* key;
    const char* value;
  } cases[] = {
      {meta_line, "shard", "-1"},
      {meta_line, "shards", "-1"},
      {meta_line, "shards", "4294967298"},  // wraps to 2
      {meta_line, "begin", "-1"},
      {meta_line, "end", "-1"},
      {meta_line, "total", "-1"},
      {meta_line, "golden_exit", "2147483648"},
      {meta_line, "golden_exit", "-2147483649"},
      {meta_line, "golden_instructions", "-9"},
      {record_line, "i", "-1"},
      {record_line, "exit", "4294967290"},  // wraps to -6
      {record_line, "insns", "-40"},
      {done_line, "shard", "-1"},
      {done_line, "shard", "4294967297"},  // wraps to 1
      {done_line, "count", "-5"},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(parse_line(c.line(c.key, c.value), kFault).ok())
        << c.key << "=" << c.value;
  }
}

// `config` with one knob moved off its current value (to another valid
// one).
template <class Config, class Knob>
Config with_knob_changed(Config config, const Knob& knob) {
  const long long value = knob.get(config);
  if (knob.kind == campaign::KnobKind::kSwitch) {
    knob.set(config, value == 0 ? 1 : 0);
  } else if (knob.kind == campaign::KnobKind::kInteger) {
    knob.set(config, value == knob.min ? knob.max : knob.min);
  } else {
    knob.set(config, (value + 1) % static_cast<long long>(
                                         split(knob.choices, '|').size()));
  }
  return config;
}

// Every single-knob change of both models' default campaign changes the
// fingerprint. The loop runs over the knob tables, so a knob added later is
// covered without touching this test.
template <class Model, class Other>
void expect_every_knob_fingerprinted() {
  const std::string elf_bytes = "\x7f" "ELF-ish";
  const std::string_view mode = Model::kName;
  const typename Model::Config base;
  const auto spec = campaign::spec_argv<Model>(base);
  const u64 a = campaign_fingerprint(elf_bytes, mode, spec, 4);
  EXPECT_EQ(a, campaign_fingerprint(elf_bytes, mode, spec, 4));
  EXPECT_NE(a, campaign_fingerprint(elf_bytes, mode, spec, 8));
  EXPECT_NE(a, campaign_fingerprint(elf_bytes + "x", mode, spec, 4));
  EXPECT_NE(a, campaign_fingerprint(elf_bytes, Other::kName, spec, 4));
  campaign::for_each_knob<Model>([&](const auto& knob) {
    const auto changed =
        campaign::spec_argv<Model>(with_knob_changed(base, knob));
    EXPECT_NE(a, campaign_fingerprint(elf_bytes, mode, changed, 4))
        << knob.flag;
  });
}

TEST(FleetRecords, FingerprintSeparatesCampaigns) {
  expect_every_knob_fingerprinted<FaultModel, MutationModel>();
  expect_every_knob_fingerprinted<MutationModel, FaultModel>();
}

// --- campaign spec ---------------------------------------------------------

// parse_spec(spec_argv(c)) gives back c, knob for knob, for the default
// campaign and every single-knob change of it.
template <class Model>
void expect_spec_round_trips() {
  std::vector<typename Model::Config> configs(1);
  campaign::for_each_knob<Model>([&](const auto& knob) {
    configs.push_back(with_knob_changed(configs[0], knob));
  });
  for (const auto& config : configs) {
    const auto spec = campaign::spec_argv<Model>(config);
    auto parsed = campaign::parse_spec<Model>(spec);
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
    campaign::for_each_knob<Model>([&](const auto& knob) {
      EXPECT_EQ(knob.get(*parsed), knob.get(config)) << knob.flag;
    });
    EXPECT_EQ(campaign::spec_argv<Model>(*parsed), spec);
  }
}

TEST(CampaignSpec, ParseOfSpecArgvRoundTrips) {
  expect_spec_round_trips<fault::FaultModel>();
  expect_spec_round_trips<mutation::MutationModel>();
}

template <class Model>
std::vector<std::string> canonical(const std::vector<std::string>& tokens) {
  auto config = campaign::parse_spec<Model>(tokens);
  EXPECT_TRUE(config.ok()) << config.error().to_string();
  return config.ok() ? campaign::spec_argv<Model>(*config)
                     : std::vector<std::string>{};
}

TEST(CampaignSpec, RecanonicalisingIsIdempotent) {
  using Tokens = std::vector<std::string>;
  const Tokens seven = canonical<fault::FaultModel>({"--seed=7"});
  EXPECT_EQ(seven, (Tokens{"--harts=1", "--mutants=200", "--seed=7",
                           "--triage=off"}));
  EXPECT_EQ(canonical<fault::FaultModel>({"--seed=007"}), seven);
  EXPECT_EQ(canonical<fault::FaultModel>({"--seed=0x7"}), seven);
  EXPECT_EQ(canonical<fault::FaultModel>(seven), seven);
  const Tokens knobs = canonical<fault::FaultModel>(
      {"--no-code", "--triage", "--blind", "--mutants=9"});
  EXPECT_EQ(knobs, (Tokens{"--harts=1", "--mutants=9", "--seed=1", "--blind",
                           "--no-code", "--triage=on"}));
  EXPECT_EQ(canonical<fault::FaultModel>(knobs), knobs);
  EXPECT_EQ(canonical<mutation::MutationModel>(
                {"--all-sites", "--triage=verify", "--max=05"}),
            (Tokens{"--max=5", "--all-sites", "--triage=verify"}));
}

// A knob of the other mode, or a bad value, is an error naming the flag.
TEST(CampaignSpec, RejectsUnknownKnobsAndBadValues) {
  auto max = campaign::parse_spec<fault::FaultModel>({"--max=5"});
  ASSERT_FALSE(max.ok());
  EXPECT_EQ(max.error().message(), "no knob '--max'");
  auto seed = campaign::parse_spec<mutation::MutationModel>({"--seed=9"});
  ASSERT_FALSE(seed.ok());
  EXPECT_EQ(seed.error().message(), "no knob '--seed'");
  auto range = campaign::parse_spec<fault::FaultModel>({"--harts=0"});
  ASSERT_FALSE(range.ok());
  EXPECT_NE(range.error().message().find("--harts expects an integer"),
            std::string::npos);
  auto triage = campaign::parse_spec<fault::FaultModel>({"--triage=bogus"});
  ASSERT_FALSE(triage.ok());
  EXPECT_EQ(triage.error().message(),
            "--triage expects off|on|verify (got bogus)");
}

TEST(FleetRecords, ParseShardSelector) {
  auto shard = parse_shard("3/16");
  ASSERT_TRUE(shard.has_value());
  EXPECT_EQ(shard->first, 3u);
  EXPECT_EQ(shard->second, 16u);
  EXPECT_FALSE(parse_shard("16/16").has_value());  // index out of range
  EXPECT_FALSE(parse_shard("3").has_value());
  EXPECT_FALSE(parse_shard("a/b").has_value());
  EXPECT_FALSE(parse_shard("-1/4").has_value());
  EXPECT_FALSE(parse_shard("0/0").has_value());
}

// --- checkpoint journal ----------------------------------------------------

CompletedShard make_shard(unsigned shard, u64 begin, u64 end, u64 total) {
  CompletedShard block;
  block.meta.shard = shard;
  block.meta.shards = 4;
  block.meta.begin = begin;
  block.meta.end = end;
  block.meta.total = total;
  block.meta.golden_exit = 36;
  block.meta.golden_instructions = 999;
  for (u64 i = begin; i < end; ++i) {
    RecordLine record;
    record.index = i;
    record.klass = static_cast<u8>(i % 3);
    record.bucket = static_cast<u8>(i % 4);
    record.exit_code = 36;
    record.instructions = 100 + i;
    block.records.push_back(record);
  }
  return block;
}

TEST(FleetCheckpoint, CommitAndRecover) {
  const std::string path = temp_path("ck.jsonl");
  CheckpointHeader header;
  header.vocabulary = kFault;
  header.fingerprint = 0xabcdef0123456789ull;

  std::vector<CompletedShard> recovered;
  bool replaced = false;
  {
    auto journal = CheckpointJournal::open(path, header, recovered, replaced);
    ASSERT_TRUE(journal.ok()) << journal.error().to_string();
    EXPECT_TRUE(recovered.empty());
    EXPECT_FALSE(replaced);
    ASSERT_TRUE(journal->commit(make_shard(2, 10, 20, 40)).ok());
    ASSERT_TRUE(journal->commit(make_shard(0, 0, 10, 40)).ok());
  }
  {
    auto journal = CheckpointJournal::open(path, header, recovered, replaced);
    ASSERT_TRUE(journal.ok());
    EXPECT_FALSE(replaced);
    ASSERT_EQ(recovered.size(), 2u);
    EXPECT_EQ(recovered[0].meta.shard, 0u);  // sorted by shard index
    EXPECT_EQ(recovered[1].meta.shard, 2u);
    EXPECT_EQ(recovered[1].records.size(), 10u);
    EXPECT_EQ(recovered[1].records[0].index, 10u);
    EXPECT_EQ(recovered[0].meta.golden_exit, 36);
    EXPECT_EQ(recovered[1].meta.total, 40u);
  }
  std::remove(path.c_str());
}

TEST(FleetCheckpoint, PartialTrailingBlockIsDiscarded) {
  CheckpointHeader header;
  header.vocabulary = kMutation;
  header.fingerprint = 7;
  std::string text = encode_header(header) + "\n";
  CompletedShard good = make_shard(0, 0, 3, 6);
  text += encode_block(kMutation, good);
  // Second block: meta line + one record, then the daemon died — no
  // commit line.
  CompletedShard bad = make_shard(1, 3, 6, 6);
  text += encode(kMutation, bad.meta) + "\n";
  text += encode(kMutation, bad.records[0]) + "\n";

  auto parsed = parse_journal(text, header);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].meta.shard, 0u);
}

// A block whose records are not numbered begin, begin+1, ... is torn,
// like one cut short: the live stream would have failed that shard, so
// the journal must not resurrect it (nor anything after it).
TEST(FleetCheckpoint, MisnumberedRecordDiscardsBlock) {
  CheckpointHeader header;
  header.vocabulary = kFault;
  header.fingerprint = 7;
  CompletedShard misnumbered = make_shard(1, 10, 20, 40);
  misnumbered.records[4].index = 13;  // a duplicate, not 14
  const std::string text = encode_header(header) + "\n" +
                           encode_block(kFault, make_shard(0, 0, 10, 40)) +
                           encode_block(kFault, misnumbered) +
                           encode_block(kFault, make_shard(2, 20, 30, 40));
  auto parsed = parse_journal(text, header);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].meta.shard, 0u);

  misnumbered.records[4].index = 14;
  parsed = parse_journal(encode_header(header) + "\n" +
                             encode_block(kFault, misnumbered),
                         header);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 1u);
}

TEST(FleetCheckpoint, StaleJournalIsReplaced) {
  const std::string path = temp_path("ck_stale.jsonl");
  CheckpointHeader header;
  header.vocabulary = kFault;
  header.fingerprint = 1;
  std::vector<CompletedShard> recovered;
  bool replaced = false;
  {
    auto journal = CheckpointJournal::open(path, header, recovered, replaced);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->commit(make_shard(0, 0, 2, 4)).ok());
  }
  // Same path, different campaign fingerprint: committed work must NOT be
  // resurrected into the wrong campaign.
  header.fingerprint = 2;
  {
    auto journal = CheckpointJournal::open(path, header, recovered, replaced);
    ASSERT_TRUE(journal.ok());
    EXPECT_TRUE(recovered.empty());
    EXPECT_TRUE(replaced);
  }
  std::remove(path.c_str());
}

// --- orchestrator: byte-identity -------------------------------------------

TEST_F(Fleet, FaultReportMatchesSerialEngine) {
  const std::string serial = serial_fault_report(40, 1);
  FleetOptions options = fault_options(40, 1);
  options.workers = 3;
  options.shards = 5;
  auto fleet = run_fleet<FaultModel>(options);
  ASSERT_TRUE(fleet.ok()) << fleet.error().to_string();
  EXPECT_EQ(fleet->report, serial);
  EXPECT_EQ(fleet->stats.shards_done, 5u);
  EXPECT_EQ(fleet->stats.records, 40u);
  EXPECT_EQ(fleet->stats.worker_restarts, 0u);
}

TEST_F(Fleet, MutationReportMatchesSerialEngine) {
  const std::string serial = serial_mutation_report(50);
  FleetOptions options;
  options.elf_path = elf_;
  options.worker_path = tool("s4e-mutate");
  options.spec = {"--max=50"};
  options.workers = 2;
  options.shards = 4;
  auto fleet = run_fleet<MutationModel>(options);
  ASSERT_TRUE(fleet.ok()) << fleet.error().to_string();
  EXPECT_EQ(fleet->report, serial);
}

// --- orchestrator: fault tolerance -----------------------------------------

TEST_F(Fleet, SigkilledWorkerIsRestartedAndReportUnchanged) {
  const std::string serial = serial_fault_report(40, 1);
  FleetOptions options = fault_options(40, 1);
  options.workers = 2;
  options.shards = 4;
  // The first spawned worker stalls after 3 records and is SIGKILLed by
  // the daemon; its shard must be re-run and the merged report unharmed.
  options.test_kill_after_records = 3;
  auto fleet = run_fleet<FaultModel>(options);
  ASSERT_TRUE(fleet.ok()) << fleet.error().to_string();
  EXPECT_EQ(fleet->report, serial);
  EXPECT_GE(fleet->stats.worker_restarts, 1u);
  EXPECT_GT(fleet->stats.workers_spawned, 4u);
}

TEST_F(Fleet, DaemonCrashResumesFromCheckpoint) {
  const std::string serial = serial_fault_report(40, 1);
  const std::string checkpoint = temp_path("resume.jsonl");
  FleetOptions options = fault_options(40, 1);
  options.workers = 2;
  options.shards = 4;
  options.checkpoint_path = checkpoint;
  options.test_fail_after_commits = 2;
  auto crashed = run_fleet<FaultModel>(options);
  ASSERT_FALSE(crashed.ok());  // simulated daemon death

  options.test_fail_after_commits = 0;
  auto resumed = run_fleet<FaultModel>(options);
  ASSERT_TRUE(resumed.ok()) << resumed.error().to_string();
  EXPECT_EQ(resumed->report, serial);
  EXPECT_GE(resumed->stats.shards_recovered, 2u);
  EXPECT_LE(resumed->stats.shards_done, 2u);
  EXPECT_FALSE(resumed->stats.checkpoint_replaced);
  std::remove(checkpoint.c_str());
}

// Resuming from a journal whose header matches the campaign but whose
// block lies — negative fields, a range too large to hold, a range off the
// shard contract — re-runs the shard or fails with a message; it never
// aborts the daemon.
TEST_F(Fleet, CraftedCheckpointNeverAborts) {
  const std::string serial = serial_fault_report(20, 1);
  const std::string checkpoint = temp_path("crafted.jsonl");
  FleetOptions options = fault_options(20, 1);
  options.workers = 2;
  options.shards = 2;
  options.checkpoint_path = checkpoint;
  options.test_fail_after_commits = 1;
  ASSERT_FALSE(run_fleet<FaultModel>(options).ok());
  options.test_fail_after_commits = 0;
  std::ifstream in(checkpoint);
  std::string header;
  std::string meta;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, meta));  // the committed shard's meta line
  in.close();
  const std::string fingerprint =
      meta.substr(meta.find("\"fingerprint\":"));
  const auto block = [&](unsigned shard, const char* range,
                         const std::string& records) {
    return format("{\"meta\":\"s4e-fleet\",\"mode\":\"fault\",\"shard\":%u,"
                  "\"shards\":2,%s,\"golden_exit\":0,"
                  "\"golden_instructions\":1,",
                  shard, range) +
           fingerprint + "\n" + records + format("{\"commit\":%u}\n", shard);
  };
  const char* negative = "\"begin\":-1,\"end\":-1,\"total\":-1";
  // 2^40: far more records than memory holds.
  const char* huge =
      "\"begin\":0,\"end\":1099511627776,\"total\":1099511627776";
  const std::string one_record =
      "{\"i\":0,\"class\":\"gpr\",\"bucket\":\"masked\",\"exit\":0,"
      "\"insns\":1,\"pruned\":0}\n";
  const struct {
    std::string blocks;
    bool rerun;  // the blocks are torn: every shard re-runs
  } cases[] = {
      {block(0, negative, "") + block(1, negative, ""), true},
      {block(0, huge, one_record), true},
      {block(0, "\"begin\":0,\"end\":1,\"total\":20", one_record), false},
  };
  for (const auto& c : cases) {
    ASSERT_TRUE(
        write_file_atomic(checkpoint, header + "\n" + c.blocks).ok());
    auto resumed = run_fleet<FaultModel>(options);
    if (c.rerun) {
      ASSERT_TRUE(resumed.ok()) << resumed.error().to_string();
      EXPECT_EQ(resumed->report, serial);
      EXPECT_EQ(resumed->stats.shards_recovered, 0u);
      EXPECT_EQ(resumed->stats.shards_done, 2u);
    } else {
      ASSERT_FALSE(resumed.ok());
      EXPECT_NE(resumed.error().message().find("outside the contract"),
                std::string::npos)
          << resumed.error().message();
    }
  }
  std::remove(checkpoint.c_str());
}

TEST_F(Fleet, KillCrashAndResumeCombined) {
  // The full gauntlet: a worker is SIGKILLed, the daemon then dies, and
  // the resumed daemon must still converge on the serial bytes.
  const std::string serial = serial_fault_report(40, 1);
  const std::string checkpoint = temp_path("gauntlet.jsonl");
  FleetOptions options = fault_options(40, 1);
  options.workers = 2;
  options.shards = 4;
  options.checkpoint_path = checkpoint;
  options.test_kill_after_records = 2;
  options.test_fail_after_commits = 1;
  auto crashed = run_fleet<FaultModel>(options);
  ASSERT_FALSE(crashed.ok());

  options.test_kill_after_records = 0;
  options.test_fail_after_commits = 0;
  auto resumed = run_fleet<FaultModel>(options);
  ASSERT_TRUE(resumed.ok()) << resumed.error().to_string();
  EXPECT_EQ(resumed->report, serial);
  std::remove(checkpoint.c_str());
}

TEST_F(Fleet, WorkerUsageErrorIsPermanent) {
  // s4e-mutate rejects the fault knobs with exit 2; a respawn would be
  // rejected the same way, so the fleet stops after the first worker.
  FleetOptions options = fault_options(10, 1);
  options.worker_path = tool("s4e-mutate");
  options.workers = 1;
  options.shards = 2;
  FleetStats stats;
  auto fleet = run_fleet<FaultModel>(options, &stats);
  ASSERT_FALSE(fleet.ok());
  EXPECT_NE(fleet.error().message().find("(exit 2)"), std::string::npos)
      << fleet.error().message();
  EXPECT_EQ(stats.workers_spawned, 1u);
  EXPECT_EQ(stats.worker_restarts, 0u);
}

TEST_F(Fleet, SpecIsValidatedBeforeAnyWorkerStarts) {
  FleetOptions options = fault_options(10, 1);
  options.spec.push_back("--all-sites");  // a mutation knob
  FleetStats stats;
  auto fleet = run_fleet<FaultModel>(options, &stats);
  ASSERT_FALSE(fleet.ok());
  EXPECT_NE(fleet.error().message().find("'--all-sites'"), std::string::npos)
      << fleet.error().message();
  EXPECT_EQ(stats.workers_spawned, 0u);
}

TEST_F(Fleet, BrokenWorkerBinaryExhaustsRetries) {
  FleetOptions options = fault_options(10, 1);
  options.worker_path = "/nonexistent/worker";
  options.workers = 1;
  options.shards = 2;
  options.max_retries = 1;
  auto fleet = run_fleet<FaultModel>(options);
  ASSERT_FALSE(fleet.ok());
  EXPECT_NE(fleet.error().message().find("giving up"), std::string::npos)
      << fleet.error().message();
}

// --- orchestrator: status endpoint -----------------------------------------

TEST_F(Fleet, StatusEndpointServesLiveMetrics) {
  FleetOptions options = fault_options(60, 1);
  options.workers = 1;  // serialize shards: a wide time window to query
  options.shards = 8;
  options.status_port = 0;
  std::atomic<int> port{-1};
  options.on_status_port = [&port](int bound) { port.store(bound); };

  std::atomic<bool> done{false};
  std::string response;
  std::thread client([&] {
    while (!done.load()) {
      const int p = port.load();
      if (p < 0) continue;
      std::string error;
      auto channel =
          debug::TcpChannel::connect_loopback(static_cast<u16>(p), error);
      if (channel == nullptr) continue;
      bool timed_out = false;
      const std::string line = channel->read_for(2000, timed_out);
      if (!line.empty()) {
        response = line;
        return;
      }
    }
  });
  auto fleet = run_fleet<FaultModel>(options);
  done.store(true);
  client.join();
  ASSERT_TRUE(fleet.ok()) << fleet.error().to_string();
  EXPECT_NE(response.find("\"fleet_shards_total\": 8"), std::string::npos)
      << response;
  EXPECT_NE(response.find("fleet_records"), std::string::npos);
  EXPECT_EQ(fleet->stats.status_port, port.load());
  EXPECT_EQ(fleet->stats.shards_done, 8u);
}

// --- shard property: union of shards == whole campaign ----------------------

std::vector<std::string> stream_records(const std::string& output) {
  std::vector<std::string> records;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"i\":", 0) == 0) records.push_back(line);
  }
  return records;
}

TEST_F(Fleet, ShardUnionEqualsSerialForSeveralShardCounts) {
  // Worker-level property test over the real binary: for several N, the
  // concatenation of all N shard streams is exactly the 1-shard stream —
  // same records, same global order, no gaps, no overlaps.
  const std::string base = tool("s4e-faultsim") + " " + elf_ +
                           " --emit-jsonl --jobs 1 --mutants 24 --seed 3";
  auto whole = run_command(base + " --shard 0/1");
  ASSERT_EQ(whole.exit_code, 0) << whole.output;
  const auto reference = stream_records(whole.output);
  ASSERT_EQ(reference.size(), 24u);

  for (const unsigned shards : {2u, 3u, 5u, 7u}) {
    std::vector<std::string> merged;
    for (unsigned i = 0; i < shards; ++i) {
      auto shard = run_command(base + format(" --shard %u/%u", i, shards));
      ASSERT_EQ(shard.exit_code, 0) << shard.output;
      const auto records = stream_records(shard.output);
      merged.insert(merged.end(), records.begin(), records.end());
    }
    EXPECT_EQ(merged, reference) << "shard count " << shards;
  }
}

TEST_F(Fleet, MutationShardUnionEqualsSerial) {
  const std::string base = tool("s4e-mutate") + " " + elf_ +
                           " --emit-jsonl --jobs 1 --max 30";
  auto whole = run_command(base + " --shard 0/1");
  ASSERT_EQ(whole.exit_code, 0) << whole.output;
  const auto reference = stream_records(whole.output);
  ASSERT_FALSE(reference.empty());

  for (const unsigned shards : {2u, 4u}) {
    std::vector<std::string> merged;
    for (unsigned i = 0; i < shards; ++i) {
      auto shard = run_command(base + format(" --shard %u/%u", i, shards));
      ASSERT_EQ(shard.exit_code, 0) << shard.output;
      const auto records = stream_records(shard.output);
      merged.insert(merged.end(), records.begin(), records.end());
    }
    EXPECT_EQ(merged, reference) << "shard count " << shards;
  }
}

// --- daemon binary ----------------------------------------------------------

TEST_F(Fleet, DaemonBinaryMatchesSerialTool) {
  auto serial = run_command(tool("s4e-faultsim") + " " + elf_ +
                            " --jobs 1 --mutants 20 --seed 5");
  ASSERT_EQ(serial.exit_code, 0) << serial.output;
  auto daemon = run_command(tool("s4e-campaignd") + " " + elf_ +
                            " --workers 2 --shards 3 --mutants 20 --seed 5");
  ASSERT_EQ(daemon.exit_code, 0) << daemon.output;
  EXPECT_EQ(daemon.output, serial.output);
}

// The daemon takes every knob its mode's tool takes and forwards it: for
// each knob that had no way to reach the workers before the knob tables,
// the merged stdout equals the serial tool's, and the knob visibly changes
// that report.
TEST_F(Fleet, DaemonForwardsEveryKnob) {
  const std::string crc = temp_path("fleet_crc32.elf");
  const std::string calls = temp_path("fleet_callchain.elf");
  const std::string smp = temp_path("fleet_smp.elf");
  write_workload_elf("crc32", crc);
  write_workload_elf("callchain", calls);
  write_workload_elf("smp_spinlock", smp);
  const std::string fault_base = "--mutants 30 --seed 4";
  const struct {
    const char* tool;
    const std::string& elf;
    const std::string base;
    const char* knob;
  } cases[] = {
      {"s4e-faultsim", elf_, fault_base, "--triage"},
      {"s4e-faultsim", elf_, fault_base, "--triage=verify"},
      {"s4e-faultsim", elf_, fault_base, "--blind"},
      {"s4e-faultsim", elf_, fault_base, "--no-gpr"},
      {"s4e-faultsim", elf_, fault_base, "--no-mem"},
      {"s4e-faultsim", elf_, fault_base, "--no-code"},
      {"s4e-faultsim", smp, "--mutants 20", "--harts 2"},
      {"s4e-mutate", calls, "--max 20", "--triage"},
      {"s4e-mutate", crc, "--max 0", "--all-sites"},
  };
  for (const auto& c : cases) {
    const std::string mode =
        std::string(c.tool) == "s4e-faultsim" ? "fault" : "mutation";
    const std::string knobs = c.base + " " + c.knob;
    auto plain = run_command(tool(c.tool) + " " + c.elf + " --jobs 1 " +
                             c.base);
    auto serial = run_command(tool(c.tool) + " " + c.elf + " --jobs 1 " +
                              knobs);
    ASSERT_EQ(serial.exit_code, 0) << knobs << ": " << serial.output;
    EXPECT_NE(serial.output, plain.output) << c.tool << " " << knobs;
    auto daemon = run_command(tool("s4e-campaignd") + " " + c.elf +
                              " --mode " + mode +
                              " --workers 2 --shards 3 " + knobs);
    ASSERT_EQ(daemon.exit_code, 0) << knobs << ": " << daemon.output;
    EXPECT_EQ(daemon.output, serial.output) << c.tool << " " << knobs;
  }
  std::remove(crc.c_str());
  std::remove(calls.c_str());
  std::remove(smp.c_str());
}

TEST_F(Fleet, DaemonRejectsTheOtherModesKnob) {
  const struct {
    const char* args;
    const char* flag;
  } cases[] = {
      {"--mode mutation --mutants 5", "--mutants"},
      {"--mode mutation --seed 9", "--seed"},
      {"--mode mutation --harts 2", "--harts"},
      {"--mode mutation --blind", "--blind"},
      {"--max 5", "--max"},
      {"--mode fault --all-sites", "--all-sites"},
  };
  for (const auto& c : cases) {
    auto result =
        run_command(tool("s4e-campaignd") + " " + elf_ + " " + c.args);
    EXPECT_EQ(result.exit_code, 2) << c.args << ": " << result.output;
    EXPECT_NE(result.output.find(std::string("no knob '") + c.flag + "'"),
              std::string::npos)
        << c.args << ": " << result.output;
  }
}

TEST_F(Fleet, DaemonRejectsBadMode) {
  auto result = run_command(tool("s4e-campaignd") + " " + elf_ +
                            " --mode sideways");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("fault|mutation"), std::string::npos);
}

}  // namespace
}  // namespace s4e::fleet

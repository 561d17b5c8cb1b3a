// Observability layer tests: flight-recorder ring semantics and post-mortem
// content, campaign telemetry as the fold of the report (every JSON field
// recomputed from the results, invariant across worker counts), and JSONL
// trace well-formedness.
//
// Labeled `obs-asan` (run with `ctest -L obs` or `ctest -L asan`): the
// flight recorder writes a power-of-two ring through masked indices, and
// the telemetry fold indexes its bucket and histogram arrays by result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "common/strings.hpp"
#include "fault/fault.hpp"
#include "mutation/mutation.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "vp/machine.hpp"

namespace s4e::obs {
namespace {

assembler::Program build(const std::string& source) {
  auto program = assembler::assemble(source);
  EXPECT_TRUE(program.ok())
      << (program.ok() ? "" : program.error().to_string());
  return *program;
}

// Self-checking checksum: the usual campaign workload.
const char* kChecksumSource = R"(
_start:
    la t0, data
    li t1, 8
    li a0, 0
loop:
    lw t2, 0(t0)
    add a0, a0, t2
    addi t0, t0, 4
    addi t1, t1, -1
    bnez t1, loop
    li a7, 93
    ecall
.data
data:
    .word 1, 2, 3, 4, 5, 6, 7, 8
)";

// --- Flight recorder -------------------------------------------------------

TEST(FlightRecorder, RingRetainsNewestEvents) {
  vp::Machine machine;
  auto program = build(kChecksumSource);
  ASSERT_TRUE(machine.load_program(program).ok());
  FlightRecorderPlugin recorder(8);
  recorder.attach(machine.vm_handle());
  auto run = machine.run();
  ASSERT_TRUE(run.normal_exit());

  // The workload generates far more events than the ring holds; only the
  // newest `capacity` survive, oldest-first, with contiguous sequence
  // numbers ending at the last event observed.
  EXPECT_EQ(recorder.capacity(), 8u);
  EXPECT_GT(recorder.recorded(), recorder.capacity());
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), recorder.capacity());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, recorder.recorded() - events.size() + i);
  }
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorderPlugin recorder(5);
  EXPECT_EQ(recorder.capacity(), 8u);
}

TEST(FlightRecorder, SnapshotBeforeWraparound) {
  vp::Machine machine;
  ASSERT_TRUE(machine
                  .load_program(build(R"(
    li a7, 93
    li a0, 0
    ecall
)"))
                  .ok());
  FlightRecorderPlugin recorder(64);
  recorder.attach(machine.vm_handle());
  ASSERT_TRUE(machine.run().normal_exit());
  // 3 instructions executed, nothing wrapped: snapshot is exactly those.
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), recorder.recorded());
  EXPECT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].kind, FlightEvent::Kind::kInsn);
}

TEST(FlightRecorder, PostMortemDescribesHang) {
  vp::MachineConfig config;
  config.max_instructions = 500;
  vp::Machine machine(config);
  ASSERT_TRUE(machine
                  .load_program(build(R"(
_start:
    li t0, 1
spin:
    addi t0, t0, 1
    j spin
)"))
                  .ok());
  FlightRecorderPlugin recorder;
  recorder.attach(machine.vm_handle());
  auto run = machine.run();
  ASSERT_EQ(run.reason, vp::StopReason::kMaxInstructions);

  const std::string dump = recorder.post_mortem(8);
  // The dump names the spin loop: the PC trail with disassembly and the
  // last control-flow decision.
  EXPECT_NE(dump.find("flight recorder:"), std::string::npos) << dump;
  EXPECT_NE(dump.find("addi t0, t0, 1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("last branch:"), std::string::npos) << dump;
  EXPECT_NE(dump.find("jal"), std::string::npos) << dump;
}

// --- Campaign telemetry ----------------------------------------------------

TEST(CampaignTelemetry, FaultMetricsInvariantAcrossJobsAndReuse) {
  auto program = build(kChecksumSource);
  auto campaign_result = [&](unsigned jobs) {
    fault::CampaignConfig config;
    config.mutant_count = 30;
    config.seed = 3;
    config.jobs = jobs;
    config.collect_metrics = true;
    config.post_mortem = true;
    auto result = fault::Campaign(program, config).run();
    EXPECT_TRUE(result.ok());
    return *result;
  };

  const auto serial = campaign_result(1);
  EXPECT_NE(serial.metrics_json, "{}");
  EXPECT_NE(serial.metrics_json.find("\"mutants_total\": 30"),
            std::string::npos)
      << serial.metrics_json;

  for (const auto& other : {campaign_result(2), campaign_result(3)}) {
    // Byte-identical telemetry AND byte-identical stdout report.
    EXPECT_EQ(serial.metrics_json, other.metrics_json);
    EXPECT_EQ(serial.to_string(), other.to_string());
    // Post-mortems live on the per-slot results, so they are deterministic
    // across scheduling too.
    ASSERT_EQ(serial.mutants.size(), other.mutants.size());
    for (std::size_t i = 0; i < serial.mutants.size(); ++i) {
      EXPECT_EQ(serial.mutants[i].post_mortem, other.mutants[i].post_mortem);
    }
  }
}

TEST(CampaignTelemetry, MetricsOffByDefault) {
  fault::CampaignConfig config;
  config.mutant_count = 5;
  config.jobs = 1;
  auto result = fault::Campaign(build(kChecksumSource), config).run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics_json, "{}");
  for (const auto& mutant : result->mutants) {
    EXPECT_TRUE(mutant.post_mortem.empty());
  }
}

TEST(CampaignTelemetry, HangMutantCarriesPostMortem) {
  // A loop whose counter is a juicy fault target: stuck-at / flipped
  // counters hang, and every hang must carry a flight-recorder dump.
  fault::CampaignConfig config;
  config.mutant_count = 60;
  config.seed = 7;
  config.jobs = 1;
  config.post_mortem = true;
  config.machine.max_instructions = 100'000;
  auto result = fault::Campaign(build(kChecksumSource), config).run();
  ASSERT_TRUE(result.ok());

  bool saw_hang = false;
  for (const auto& mutant : result->mutants) {
    const bool dumpworthy = mutant.outcome == fault::Outcome::kHang ||
                            mutant.outcome == fault::Outcome::kCrash;
    EXPECT_EQ(!mutant.post_mortem.empty(), dumpworthy);
    if (mutant.outcome != fault::Outcome::kHang) continue;
    saw_hang = true;
    // The dump shows the tail of the spin: the loop body instructions and
    // the last taken branch.
    EXPECT_NE(mutant.post_mortem.find("flight recorder:"), std::string::npos);
    EXPECT_NE(mutant.post_mortem.find("last branch:"), std::string::npos);
  }
  EXPECT_TRUE(saw_hang) << "seed produced no hang; pick another seed";
}

TEST(CampaignTelemetry, MutationMetricsInvariantAcrossJobs) {
  auto program = build(kChecksumSource);
  auto score_for = [&](unsigned jobs) {
    mutation::MutationConfig config;
    config.max_mutants = 25;
    config.jobs = jobs;
    config.collect_metrics = true;
    config.post_mortem = true;
    auto score = mutation::MutationCampaign(program, config).run();
    EXPECT_TRUE(score.ok());
    return *score;
  };
  const auto serial = score_for(1);
  EXPECT_NE(serial.metrics_json.find("\"killed_result\":"),
            std::string::npos)
      << serial.metrics_json;
  for (const auto& other : {score_for(2), score_for(3)}) {
    EXPECT_EQ(serial.metrics_json, other.metrics_json);
    EXPECT_EQ(serial.to_string(), other.to_string());
  }
}

// A nested counting loop: a golden run of ~1.1k instructions, so mutant runs
// land in more than one histogram decade (early crashes below 1k, full runs
// and hangs above). Its pointer is a constant and `t5` is written but never
// read, so static triage prunes some faults and mutants.
const char* kNestedLoopSource = R"(
_start:
    la t0, data
    lw t4, 0(t0)
    li a0, 0
    li t3, 40
    addi t5, zero, 5
outer:
    mv t1, t4
loop:
    add a0, a0, t1
    addi t1, t1, -1
    bnez t1, loop
    addi t3, t3, -1
    bnez t3, outer
    sw a0, 4(t0)
    li a7, 93
    ecall
.data
data:
    .word 8, 0
)";

// Every field of the telemetry JSON, recomputed from the report's results.
template <class Model>
std::string metrics_from_results(const campaign::Campaign<Model>& campaign,
                                 const typename Model::Config& config,
                                 typename Model::Report report) {
  const u64 bounds[] = {1'000,     10'000,     100'000,
                        1'000'000, 10'000'000, 100'000'000};
  u64 histogram[std::size(bounds) + 1] = {};
  u64 buckets[std::size(Model::kBuckets)] = {};
  u64 pruned = 0, runs = 0, instructions = 0, post_mortems = 0;
  for (const auto& result : Model::results(report)) {
    pruned += result.pruned ? 1 : 0;
    if (config.triage == dataflow::TriageMode::kOn && result.pruned) continue;
    ++runs;
    ++buckets[static_cast<unsigned>(Model::bucket(result))];
    instructions += result.instructions;
    ++histogram[std::lower_bound(std::begin(bounds), std::end(bounds),
                                 result.instructions) -
                std::begin(bounds)];
    post_mortems += result.post_mortem.empty() ? 0 : 1;
  }
  const auto n = [](u64 value) {
    return static_cast<unsigned long long>(value);
  };
  const u64 golden = campaign.golden().result.instructions;
  std::string json = format(
      "{\"mutants_total\": %zu, \"golden_instructions\": %llu, "
      "\"hang_budget\": %llu",
      Model::results(report).size(), n(golden),
      n(config.item_machine(golden).max_instructions));
  if (config.triage != dataflow::TriageMode::kOff) {
    json += format(", \"pruned\": %llu", n(pruned));
  }
  json += format(", \"mutants\": %llu", n(runs));
  for (std::size_t b = 0; b < std::size(buckets); ++b) {
    json += format(", \"%s\": %llu", Model::kBuckets[b], n(buckets[b]));
  }
  json += format(", \"guest_instructions\": %llu, \"mutant_instructions\": "
                 "{\"bounds\": [1000, 10000, 100000, 1000000, 10000000, "
                 "100000000], \"counts\": [",
                 n(instructions));
  for (std::size_t b = 0; b < std::size(histogram); ++b) {
    json += format("%s%llu", b != 0 ? ", " : "", n(histogram[b]));
  }
  return json + format("], \"sum\": %llu}, \"post_mortems\": %llu}",
                       n(instructions), n(post_mortems));
}

// Runs `config` under every triage mode at jobs 1 and 4 and checks the
// telemetry against the recomputation. Returns the JSON of every run.
template <class Model>
std::vector<std::string> check_metrics_fold(typename Model::Config config) {
  const assembler::Program program = build(kNestedLoopSource);
  config.collect_metrics = true;
  config.post_mortem = true;
  std::vector<std::string> all;
  for (const auto triage :
       {dataflow::TriageMode::kOff, dataflow::TriageMode::kOn,
        dataflow::TriageMode::kVerify}) {
    for (const unsigned jobs : {1u, 4u}) {
      config.triage = triage;
      config.jobs = jobs;
      campaign::Campaign<Model> campaign(program, config);
      auto report = campaign.run();
      EXPECT_TRUE(report.ok()) << report.error().to_string();
      if (!report.ok()) continue;
      EXPECT_EQ(report->metrics_json,
                metrics_from_results(campaign, config, *report))
          << "triage " << static_cast<int>(triage) << ", jobs " << jobs;
      all.push_back(report->metrics_json);
    }
  }
  return all;
}

// The whole telemetry JSON is a function of the report: every field,
// recomputed from the returned results, matches byte for byte, for both
// models, every triage mode and any `jobs`.
TEST(CampaignTelemetry, MetricsJsonIsTheFoldOfTheReport) {
  fault::CampaignConfig fault_config;
  fault_config.mutant_count = 60;
  fault_config.seed = 7;
  const auto faults = check_metrics_fold<fault::FaultModel>(fault_config);
  mutation::MutationConfig mutation_config;
  mutation_config.max_mutants = 40;
  const auto mutants =
      check_metrics_fold<mutation::MutationModel>(mutation_config);

  // The inputs exercise what the fold distinguishes: pruned items, runs in
  // two or more histogram decades, and post-mortems.
  for (const auto* runs : {&faults, &mutants}) {
    ASSERT_EQ(runs->size(), 6u);
    EXPECT_EQ(runs->at(0), runs->at(1));  // triage off, jobs 1 vs 4
    EXPECT_NE(runs->at(2).find("\"pruned\": "), std::string::npos);
    EXPECT_EQ(runs->at(2).find("\"pruned\": 0,"), std::string::npos)
        << runs->at(2);
  }
  EXPECT_EQ(faults[0].find("\"post_mortems\": 0}"), std::string::npos)
      << faults[0];
  const std::size_t counts = faults[0].find("\"counts\": [");
  ASSERT_NE(counts, std::string::npos);
  unsigned long long decades[7] = {};
  ASSERT_EQ(std::sscanf(faults[0].c_str() + counts,
                        "\"counts\": [%llu, %llu, %llu, %llu, %llu, %llu, %llu",
                        &decades[0], &decades[1], &decades[2], &decades[3],
                        &decades[4], &decades[5], &decades[6]),
            7);
  EXPECT_GE(std::count_if(std::begin(decades), std::end(decades),
                          [](unsigned long long c) { return c != 0; }),
            2)
      << faults[0];
}

// --- JSONL trace -----------------------------------------------------------

TEST(JsonlTrace, WellFormedLines) {
  const std::string path =
      ::testing::TempDir() + "/obs_trace_" + std::to_string(getpid()) +
      ".jsonl";
  std::FILE* out = std::fopen(path.c_str(), "w");
  ASSERT_NE(out, nullptr);
  {
    vp::Machine machine;
    ASSERT_TRUE(machine.load_program(build(kChecksumSource)).ok());
    JsonlTracePlugin trace(out);
    trace.attach(machine.vm_handle());
    ASSERT_TRUE(machine.run().normal_exit());
    std::fclose(out);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    u64 lines = 0;
    bool saw_insn = false;
    bool saw_mem = false;
    bool saw_exit = false;
    while (std::getline(in, line)) {
      ++lines;
      ASSERT_FALSE(line.empty());
      // One complete JSON object per line, no raw control characters.
      EXPECT_EQ(line.front(), '{') << line;
      EXPECT_EQ(line.back(), '}') << line;
      EXPECT_NE(line.find("\"t\":\""), std::string::npos) << line;
      for (const char c : line) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
      saw_insn |= line.rfind("{\"t\":\"insn\"", 0) == 0;
      saw_mem |= line.rfind("{\"t\":\"mem\"", 0) == 0;
      saw_exit |= line.rfind("{\"t\":\"exit\"", 0) == 0;
    }
    EXPECT_EQ(lines, trace.lines());
    EXPECT_TRUE(saw_insn);
    EXPECT_TRUE(saw_mem);
    EXPECT_TRUE(saw_exit);
  }
  std::remove(path.c_str());
}

TEST(JsonlTrace, LimitBoundsEventLinesNotExit) {
  const std::string path =
      ::testing::TempDir() + "/obs_trace_lim_" + std::to_string(getpid()) +
      ".jsonl";
  std::FILE* out = std::fopen(path.c_str(), "w");
  ASSERT_NE(out, nullptr);
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(build(kChecksumSource)).ok());
  JsonlTracePlugin trace(out, 10);
  trace.attach(machine.vm_handle());
  ASSERT_TRUE(machine.run().normal_exit());
  std::fclose(out);

  std::ifstream in(path);
  std::string line;
  std::vector<std::string> all;
  while (std::getline(in, line)) all.push_back(line);
  ASSERT_EQ(all.size(), 11u);  // 10 insn/mem lines + the exit line
  EXPECT_EQ(all.back().rfind("{\"t\":\"exit\"", 0), 0u) << all.back();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace s4e::obs

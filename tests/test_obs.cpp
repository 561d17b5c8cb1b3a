// Observability layer tests: flight-recorder ring semantics and post-mortem
// content, deterministic metric shard aggregation, campaign telemetry
// invariance across worker counts, JSONL trace well-formedness, and the
// bench-report failure path.
//
// Labeled `obs` (run with `ctest -L obs`) and `tsan`: the campaign
// invariance tests drive the thread pool with per-worker metric shards, the
// exact write pattern the registry's lock-free-by-partitioning argument
// must survive race checking for.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "bench/bench_report.hpp"
#include "fault/fault.hpp"
#include "mutation/mutation.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
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

// --- Metrics registry ------------------------------------------------------

TEST(Metrics, CounterSumsAcrossShards) {
  MetricsRegistry registry;
  const MetricId hits = registry.add_counter("hits");
  registry.open_shards(3);
  registry.shard(0).add(hits, 5);
  registry.shard(1).add(hits, 7);
  registry.shard(2).add(hits, 1);
  EXPECT_EQ(registry.value(hits), 13u);
}

TEST(Metrics, GaugeTakesMaxAcrossShards) {
  MetricsRegistry registry;
  const MetricId depth = registry.add_gauge("depth");
  registry.open_shards(2);
  registry.shard(0).set(depth, 9);
  registry.shard(1).set(depth, 4);
  registry.shard(1).set(depth, 2);  // lower than the shard's max: ignored
  EXPECT_EQ(registry.value(depth), 9u);
}

TEST(Metrics, HistogramBucketsAndOverflow) {
  MetricsRegistry registry;
  const MetricId hist = registry.add_histogram("lat", {10, 100, 1000});
  registry.open_shards(2);
  registry.shard(0).observe(hist, 3);      // <= 10
  registry.shard(0).observe(hist, 10);     // <= 10 (bounds are inclusive)
  registry.shard(1).observe(hist, 50);     // <= 100
  registry.shard(1).observe(hist, 5000);   // overflow
  const auto counts = registry.histogram_counts(hist);
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(registry.value(hist), 4u);  // total observations
}

// The determinism contract: the same multiset of updates produces the same
// aggregate (and the same JSON) no matter how it is partitioned over
// shards — this is what makes campaign metrics byte-identical across
// worker counts.
TEST(Metrics, AggregationIsPartitionInvariant) {
  const std::vector<u64> samples = {1, 4, 9, 16, 25, 36, 49, 64, 81, 100};

  auto run_partitioned = [&](unsigned shards) {
    MetricsRegistry registry;
    const MetricId runs = registry.add_counter("runs");
    const MetricId peak = registry.add_gauge("peak");
    const MetricId hist = registry.add_histogram("val", {10, 50});
    registry.open_shards(shards);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      auto& shard = registry.shard(static_cast<unsigned>(i % shards));
      shard.add(runs, 1);
      shard.set(peak, samples[i]);
      shard.observe(hist, samples[i]);
    }
    return registry.to_json();
  };

  const std::string serial = run_partitioned(1);
  EXPECT_EQ(serial, run_partitioned(2));
  EXPECT_EQ(serial, run_partitioned(4));
  EXPECT_NE(serial.find("\"runs\": 10"), std::string::npos) << serial;
  EXPECT_NE(serial.find("\"peak\": 100"), std::string::npos) << serial;
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

// --- bench report merge ----------------------------------------------------

TEST(BenchReport, MergePreservesOtherEntries) {
  const std::string path =
      ::testing::TempDir() + "/obs_bench_" + std::to_string(getpid()) +
      ".json";
  EXPECT_TRUE(bench::merge_bench_entry(path, "alpha", "{\"v\": 1}"));
  EXPECT_TRUE(bench::merge_bench_entry(path, "beta", "{\"v\": 2}"));
  EXPECT_TRUE(bench::merge_bench_entry(path, "alpha", "{\"v\": 3}"));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"alpha\": {\"v\": 3}"), std::string::npos)
      << content;
  EXPECT_NE(content.find("\"beta\": {\"v\": 2}"), std::string::npos)
      << content;
  std::remove(path.c_str());
}

TEST(BenchReport, MergeIsAtomicAndLeavesNoStagingFile) {
  // The merge stages into `<path>.tmp.<pid>` and renames over the target;
  // after a successful merge the staging file must be gone and the target
  // must parse as one complete object (no truncated hybrid).
  const std::string path =
      ::testing::TempDir() + "/obs_bench_atomic_" + std::to_string(getpid()) +
      ".json";
  const std::string temp = path + ".tmp." + std::to_string(getpid());
  EXPECT_TRUE(bench::merge_bench_entry(path, "alpha", "{\"v\": 1}"));
  EXPECT_TRUE(bench::merge_bench_entry(path, "beta", "{\"v\": 2}"));
  std::ifstream temp_in(temp);
  EXPECT_FALSE(temp_in.good()) << "staging file left behind: " << temp;
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content.front(), '{');
  EXPECT_EQ(content.substr(content.size() - 2), "}\n");
  std::remove(path.c_str());
}

TEST(BenchReport, MergeReportsUnwritablePath) {
  // Used to silently produce nothing; must now return false so tools and
  // benches can fail loudly instead of dropping the report entry.
  EXPECT_FALSE(bench::merge_bench_entry(
      "/nonexistent-dir/report.json", "key", "{}"));
}

}  // namespace
}  // namespace s4e::obs

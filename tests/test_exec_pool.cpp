// Campaign executor tests: job-count resolution, lanes started only for
// work that exists, lane affinity, exception propagation, and the
// determinism guarantee the campaign engines rely on (jobs=1 output ==
// jobs=8 output, bit for bit).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <vector>

#include "asm/assembler.hpp"
#include "exec/campaign_executor.hpp"
#include "fault/fault.hpp"
#include "fresh_reference.hpp"
#include "mutation/mutation.hpp"

namespace s4e::exec {
namespace {

// Entries of /proc/self/task: the threads of this process right now.
std::ptrdiff_t thread_count() {
  using std::filesystem::directory_iterator;
  return std::distance(directory_iterator("/proc/self/task"),
                       directory_iterator{});
}

TEST(CampaignExecutor, ResolveJobs) {
  EXPECT_EQ(CampaignExecutor(3).jobs(), 3u);
  EXPECT_GE(CampaignExecutor(0).jobs(), 1u);
  // Absurd requests (e.g. a negative count cast to unsigned) are clamped;
  // construction starts no thread, so this costs nothing.
  EXPECT_EQ(CampaignExecutor(0xfffffffdu).jobs(), 4096u);
}

TEST(CampaignExecutorAffine, StartsOnlyTheLanesThatHaveWork) {
  // A sanitizer runtime may start a helper thread of its own on the first
  // thread creation: create one first, then count relative to the caller.
  std::thread([] {}).join();
  const std::ptrdiff_t before = thread_count();
  CampaignExecutor executor(4);
  std::ptrdiff_t during = 0;
  executor.run_affine(1, [&](unsigned worker, std::size_t) {
    EXPECT_EQ(worker, 0u);
    during = thread_count();
  });
  EXPECT_LE(during, before + 1) << "one job needs one lane";
}

TEST(CampaignExecutorAffine, FillsEverySlotOnceWithValidLanes) {
  CampaignExecutor executor(4);
  std::vector<std::atomic<int>> slots(300);
  std::atomic<bool> lane_in_range{true};
  executor.run_affine(slots.size(), [&](unsigned worker, std::size_t i) {
    if (worker >= executor.jobs()) lane_in_range.store(false);
    ++slots[i];
  });
  EXPECT_TRUE(lane_in_range.load());
  for (const auto& slot : slots) {
    EXPECT_EQ(slot.load(), 1);
  }
}

TEST(CampaignExecutorAffine, SingleJobRunsInlineOnLaneZero) {
  CampaignExecutor executor(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  executor.run_affine(10, [&](unsigned worker, std::size_t i) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(CampaignExecutorAffine, EachLaneKeepsItsOwnThread) {
  // The point of worker affinity: lane k's jobs all run on one thread, so a
  // per-lane vp::Machine is never touched concurrently.
  CampaignExecutor executor(3);
  std::vector<std::thread::id> lane_thread(3);
  std::vector<std::atomic<int>> lane_switches(3);
  executor.run_affine(200, [&](unsigned worker, std::size_t) {
    const auto self = std::this_thread::get_id();
    if (lane_thread[worker] == std::thread::id{}) {
      lane_thread[worker] = self;
    } else if (lane_thread[worker] != self) {
      ++lane_switches[worker];
    }
  });
  for (const auto& switches : lane_switches) {
    EXPECT_EQ(switches.load(), 0);
  }
}

TEST(CampaignExecutorAffine, PropagatesJobException) {
  CampaignExecutor executor(4);
  EXPECT_THROW(
      executor.run_affine(20,
                          [](unsigned, std::size_t i) {
                            if (i == 7) throw std::runtime_error("job 7");
                          }),
      std::runtime_error);
}

TEST(CampaignProgress, CountsAndSnapshots) {
  CampaignProgress progress;
  progress.begin(10);
  auto empty = progress.snapshot();
  EXPECT_EQ(empty.total, 10u);
  EXPECT_EQ(empty.completed, 0u);
  EXPECT_DOUBLE_EQ(empty.fraction(), 0.0);

  progress.record(0);
  progress.record(0);
  progress.record(3);
  progress.record(CampaignProgress::kBuckets);  // out-of-range: done only
  auto snap = progress.snapshot();
  EXPECT_EQ(snap.completed, 4u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_DOUBLE_EQ(snap.fraction(), 0.4);

  progress.begin(5);  // reusable across campaigns
  EXPECT_EQ(progress.snapshot().completed, 0u);
}

// ---------------------------------------------------------------------------
// Determinism: parallel campaigns must be bit-identical to serial ones.

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

assembler::Program build_checksum() {
  auto program = assembler::assemble(kChecksumSource);
  EXPECT_TRUE(program.ok());
  return *program;
}

TEST(Determinism, FaultCampaignSerialEqualsParallel) {
  auto program = build_checksum();
  fault::CampaignConfig config;
  config.seed = 42;
  config.mutant_count = 80;

  config.jobs = 1;
  fault::Campaign serial(program, config);
  auto serial_result = serial.run();
  ASSERT_TRUE(serial_result.ok()) << serial_result.error().to_string();

  config.jobs = 8;
  fault::Campaign parallel(program, config);
  auto parallel_result = parallel.run();
  ASSERT_TRUE(parallel_result.ok()) << parallel_result.error().to_string();

  EXPECT_EQ(serial_result->golden_exit_code,
            parallel_result->golden_exit_code);
  EXPECT_EQ(serial_result->golden_instructions,
            parallel_result->golden_instructions);
  EXPECT_EQ(serial_result->golden_memory_hash,
            parallel_result->golden_memory_hash);
  // simulated_instructions is a float sum: identical aggregation order
  // makes even that bit-exact.
  EXPECT_EQ(serial_result->simulated_instructions,
            parallel_result->simulated_instructions);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(serial_result->outcome_counts[i],
              parallel_result->outcome_counts[i]);
  }
  ASSERT_EQ(serial_result->mutants.size(), parallel_result->mutants.size());
  for (std::size_t i = 0; i < serial_result->mutants.size(); ++i) {
    const auto& a = serial_result->mutants[i];
    const auto& b = parallel_result->mutants[i];
    EXPECT_EQ(a.outcome, b.outcome) << "mutant " << i;
    EXPECT_EQ(a.exit_code, b.exit_code) << "mutant " << i;
    EXPECT_EQ(a.instructions, b.instructions) << "mutant " << i;
    EXPECT_EQ(a.spec.to_string(), b.spec.to_string()) << "mutant " << i;
  }
  // The full report strings must match byte for byte.
  EXPECT_EQ(serial_result->to_string(), parallel_result->to_string());
}

TEST(Determinism, MutationCampaignSerialEqualsParallel) {
  auto program = build_checksum();
  mutation::MutationConfig config;

  config.jobs = 1;
  mutation::MutationCampaign serial(program, config);
  auto serial_score = serial.run();
  ASSERT_TRUE(serial_score.ok()) << serial_score.error().to_string();

  config.jobs = 8;
  mutation::MutationCampaign parallel(program, config);
  auto parallel_score = parallel.run();
  ASSERT_TRUE(parallel_score.ok()) << parallel_score.error().to_string();

  ASSERT_EQ(serial_score->results.size(), parallel_score->results.size());
  EXPECT_GT(serial_score->results.size(), 0u);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(serial_score->verdict_counts[i],
              parallel_score->verdict_counts[i]);
  }
  for (std::size_t i = 0; i < serial_score->results.size(); ++i) {
    const auto& a = serial_score->results[i];
    const auto& b = parallel_score->results[i];
    EXPECT_EQ(a.verdict, b.verdict) << "mutant " << i;
    EXPECT_EQ(a.exit_code, b.exit_code) << "mutant " << i;
    EXPECT_EQ(a.mutant.address, b.mutant.address) << "mutant " << i;
    EXPECT_EQ(a.mutant.mutated, b.mutant.mutated) << "mutant " << i;
  }
  EXPECT_EQ(serial_score->to_string(), parallel_score->to_string());
}

// Per-worker machine reuse under threads: with --jobs 2 each worker lane
// owns a long-lived vp::Machine that is snapshot-restored between mutants.
// Run under tsan (ctest -L tsan) this is the race check for that path; the
// results must also match a fresh machine per mutant, bit for bit.
TEST(Determinism, FaultCampaignMachineReuseAcrossTwoWorkers) {
  auto program = build_checksum();
  fault::CampaignConfig config;
  config.seed = 42;
  config.mutant_count = 80;
  config.jobs = 2;

  fault::Campaign reused(program, config);
  auto reused_result = reused.run();
  ASSERT_TRUE(reused_result.ok()) << reused_result.error().to_string();
  test_support::expect_matches_fresh(fault::FaultModel(program, config),
                                     *reused_result);
  // Every mutant not dead at its trigger ran on a restored machine; the
  // stats aggregate over the (at most 2) worker lanes that claimed work.
  EXPECT_EQ(reused_result->snapshot_stats.restores +
                reused_result->snapshot_stats.dead_skipped,
            80u);
  EXPECT_GE(reused_result->snapshot_stats.snapshots, 1u);
  EXPECT_LE(reused_result->snapshot_stats.snapshots, 2u);
}

TEST(Determinism, MutationCampaignMachineReuseAcrossTwoWorkers) {
  auto program = build_checksum();
  mutation::MutationConfig config;
  config.jobs = 2;

  mutation::MutationCampaign reused(program, config);
  auto reused_score = reused.run();
  ASSERT_TRUE(reused_score.ok()) << reused_score.error().to_string();
  EXPECT_GT(reused_score->results.size(), 0u);
  test_support::expect_matches_fresh(
      mutation::MutationModel(program, config), *reused_score);
  EXPECT_EQ(reused_score->snapshot_stats.restores,
            reused_score->results.size());
}

TEST(Determinism, ProgressReachesTotalAfterParallelRun) {
  auto program = build_checksum();
  fault::CampaignConfig config;
  config.seed = 7;
  config.mutant_count = 40;
  config.jobs = 4;
  fault::Campaign campaign(program, config);
  ASSERT_TRUE(campaign.run().ok());
  const auto snap = campaign.progress().snapshot();
  EXPECT_EQ(snap.total, 40u);
  EXPECT_EQ(snap.completed, 40u);
  u64 histogram_sum = 0;
  for (u64 bucket : snap.buckets) histogram_sum += bucket;
  EXPECT_EQ(histogram_sum, 40u);
  EXPECT_DOUBLE_EQ(snap.fraction(), 1.0);
}

}  // namespace
}  // namespace s4e::exec

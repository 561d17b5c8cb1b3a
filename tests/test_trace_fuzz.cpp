// Seeded mutation fuzzer over recorded traces (`ctest -L fuzz`).
//
// Valid traces of several standard workloads, assembled with and without
// RV32C and recorded with every timing feature on, are mutated one edit at
// a time: a bit flip, an erased run of bytes, a run of inserted random
// bytes, or a cut of the file, in the header, the event stream or the
// footer. Half of the mutants get their
// stream checksum resealed, so the edit reaches the decoder instead of
// stopping at the checksum. Every mutant must either be refused by
// Trace::parse or yield a trace on which decode, the self check, every
// timing_matrix() replay and a hooked replay return. The suite is
// asan-matched: in a -DS4E_SANITIZE=address build a wild read or write on a
// crafted file shows up here.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "common/fnv1a.hpp"
#include "common/rng.hpp"
#include "core/workloads.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"
#include "vp/machine.hpp"

namespace s4e {
namespace {

// Fixed chunk sizes of the trace layout (format.cpp).
constexpr std::size_t kHeaderBytes = 80;
constexpr std::size_t kFooterBytes = 64;

// The fuzzing budget: a fixed mutant count, cut short by a wall-clock cap
// so slow (sanitizer) builds stay within it too. Every mutant is derived
// from the seed and its index alone, so a failure reproduces by index.
constexpr u64 kSeed = 20261018;
constexpr unsigned kMutants = 100000;
constexpr auto kTimeCap = std::chrono::seconds(2);

struct SeedTrace {
  std::string name;
  std::vector<u8> bytes;
};

std::vector<SeedTrace> seed_traces() {
  const char* const kWorkloads[] = {"checksum", "bubble_sort", "crc32",
                                    "lock_ctrl", "jumptab"};
  std::vector<SeedTrace> traces;
  for (const bool compress : {false, true}) {
    for (const core::Workload& workload : core::standard_workloads()) {
      bool wanted = false;
      for (const char* name : kWorkloads) wanted |= workload.name == name;
      if (!wanted) continue;
      assembler::Options options;
      options.compress = compress;
      auto program = assembler::assemble(workload.source, options);
      EXPECT_TRUE(program.ok()) << workload.name;
      if (!program.ok()) continue;
      // Recorded with every timing feature on, so the header's icache
      // geometry is live in the self check when a mutant rewrites it.
      vp::MachineConfig config;
      config.timing = trace::timing_matrix().back().params;
      vp::Machine machine(config);
      EXPECT_TRUE(machine.load_program(*program).ok());
      trace::TraceRecorder recorder(
          trace::TraceRecorder::config_for(config, *program));
      EXPECT_TRUE(recorder.attach_checked(machine.vm_handle()).ok());
      const vp::RunResult result = machine.run();
      traces.push_back({workload.name + (compress ? "+rvc" : ""),
                        recorder.finish_bytes(result)});
    }
  }
  return traces;
}

// Rewrites the footer's stream checksum to match the (mutated) stream.
void reseal(std::vector<u8>& bytes) {
  if (bytes.size() < kHeaderBytes + 1 + kFooterBytes) return;
  const u64 checksum = fnv1a(bytes.data() + kHeaderBytes,
                             bytes.size() - kHeaderBytes - 1 - kFooterBytes);
  for (unsigned i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<u8>(checksum >> (8 * i));
  }
}

enum class Edit { kFlip, kErase, kInsert, kCut, kCount };

// One edit at a random offset of one region (0 header, 1 stream including
// its kEnd terminator, 2 footer) of a valid trace.
std::vector<u8> mutate(const std::vector<u8>& valid, Rng& rng) {
  std::vector<u8> bytes = valid;
  const std::size_t stream_end = bytes.size() - kFooterBytes;
  const std::size_t bounds[4] = {0, kHeaderBytes, stream_end, bytes.size()};
  const unsigned region = rng.next_below(3);
  const std::size_t lo = bounds[region];
  const std::size_t at =
      lo + rng.next_below(static_cast<u32>(bounds[region + 1] - lo));
  const std::size_t run = 1 + rng.next_below(8);
  switch (static_cast<Edit>(rng.next_below(
      static_cast<u32>(Edit::kCount)))) {
    case Edit::kFlip:
      for (std::size_t i = 0; i < run && at + i < bytes.size(); ++i) {
        bytes[at + i] ^= static_cast<u8>(1u << rng.next_below(8));
        if (!rng.chance(1, 2)) break;  // mostly single-byte flips
      }
      break;
    case Edit::kErase:
      bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                  bytes.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(at + run, bytes.size())));
      break;
    case Edit::kInsert:
      for (std::size_t i = 0; i < run; ++i) {
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     static_cast<u8>(rng.next_u32()));
      }
      break;
    case Edit::kCut:
      bytes.resize(at);
      break;
    case Edit::kCount:
      break;
  }
  if (rng.chance(1, 2)) reseal(bytes);
  return bytes;
}

TEST(TraceFuzz, MutatedTracesAreRefusedOrReplaySafely) {
  const std::vector<SeedTrace> traces = seed_traces();
  ASSERT_EQ(traces.size(), 10u);
  for (const SeedTrace& seed : traces) {
    ASSERT_TRUE(trace::Trace::parse(seed.bytes).ok()) << seed.name;
  }
  const auto matrix = trace::timing_matrix();

  Rng rng(kSeed);
  unsigned mutants = 0, refused = 0, accepted = 0, replayed = 0;
  const auto deadline = std::chrono::steady_clock::now() + kTimeCap;
  for (; mutants < kMutants; ++mutants) {
    if (std::chrono::steady_clock::now() > deadline) break;
    Rng mutant_rng = rng.fork();
    const SeedTrace& seed =
        traces[mutant_rng.next_below(static_cast<u32>(traces.size()))];
    auto parsed = trace::Trace::parse(mutate(seed.bytes, mutant_rng));
    if (!parsed.ok()) {
      ++refused;
      continue;
    }
    ++accepted;
    (void)trace::self_check(*parsed);
    auto decoded = trace::DecodedTrace::decode(*parsed);
    if (!decoded.ok()) continue;
    ++replayed;
    for (const auto& config : matrix) {
      auto result = trace::replay(*decoded, config.params);
      ASSERT_TRUE(result.ok())
          << "mutant " << mutants << " of " << seed.name << " / "
          << config.name << ": " << result.error().to_string();
      EXPECT_EQ(result->instructions, decoded->footer().instructions);
    }
    u64 hook_calls = 0;
    auto hooked = trace::replay(*decoded, vp::TimingParams{},
                                [&hook_calls](u32) { ++hook_calls; });
    ASSERT_TRUE(hooked.ok()) << "mutant " << mutants << " of " << seed.name;
    EXPECT_EQ(hook_calls, decoded->footer().instructions)
        << "mutant " << mutants << " of " << seed.name;
  }
  std::printf("%u mutants: %u refused, %u parsed, %u replayed\n", mutants,
              refused, accepted, replayed);
  // The mix must reach every layer: refusals, and mutants that get past
  // the checksum, the walk and the taint check into replay.
  EXPECT_GT(refused, 0u);
  EXPECT_GT(replayed, 0u);
}

}  // namespace
}  // namespace s4e

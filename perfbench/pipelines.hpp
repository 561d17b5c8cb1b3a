// The per-program pipelines the benchmark times, built only from the
// repository's public calls.
//
// The campaign engines keep their per-mutant stages private, so the traced
// run rebuilds each mutant's pipeline from the same public calls
// fault::Campaign::run and mutation::MutationCampaign::run make (golden run,
// enumeration, triage, WorkerVm prepare, inject or patch, run, classify),
// opening one span around each call, and checks every mutant's result
// against the campaign it mirrors.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "mutation/mutation.hpp"
#include "programs.hpp"
#include "trace/replay.hpp"
#include "tracer.hpp"

namespace perfbench {

// Exact simulated counts. They repeat exactly for a given workload and seed
// (at one executor lane; with more lanes the restore-dependent counts vary
// with scheduling), and a change that only speeds up the simulator leaves
// every one of them unchanged.
struct Counts {
  u64 runs = 0;              // VP runs
  u64 guest_insns = 0;       // instructions over those runs
  u64 mutants = 0;           // mutants classified
  u64 mutant_insns = 0;      // instructions over the mutant runs
  u64 histogram[4] = {};     // fault::Outcome / mutation::Verdict
  u64 candidates = 0;        // mutants offered to static triage
  u64 pruned = 0;            // decided statically
  u64 restores = 0;
  u64 pages_copied = 0;
  u64 tb_invalidated = 0;    // blocks dropped per mutant (restore + patch)
  u64 tb_flushes = 0;
  u64 blocks_fast = 0;
  u64 blocks_careful = 0;
  u64 chain_follows = 0;
  u64 tb_lookups = 0;
  u64 tb_misses = 0;
  u64 trace_bytes = 0;
  u64 trace_insns = 0;
  u64 replays = 0;
  u64 replay_cycles = 0;
  u64 replay_digest = 0;     // FNV-1a over every replayed cycle count

  Counts& operator+=(const Counts& other);
  u64 digest() const;
  std::string to_string() const;
};

// Failed calls and output checks against the number attempted. Safe to use
// from executor lanes.
class Checks {
 public:
  // Counts one attempt; records `what` for `subject` when `ok` is false.
  bool expect(bool ok, const char* what, const std::string& subject);
  u64 attempted() const noexcept { return attempted_.load(); }
  u64 failed() const noexcept { return failed_.load(); }
  std::vector<std::string> messages() const;

 private:
  std::atomic<u64> attempted_{0};
  std::atomic<u64> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> messages_;  // guarded by mutex_
};

// Executor occupancy over run_affine calls with more than one lane.
struct ExecStats {
  u64 calls = 0;
  u64 busy_ns = 0;      // sum of per-mutant job time over all lanes
  u64 capacity_ns = 0;  // lanes x run_affine wall
  u64 tail_ns = 0;      // first lane idle to last lane done, summed
};

struct FaultJob {
  const BenchProgram* program = nullptr;
  s4e::fault::CampaignConfig config;
  const s4e::fault::CampaignResult* reference = nullptr;
  const std::vector<s4e::fault::FaultSpec>* faults = nullptr;  // fault_list()
  u32 id = 0;
};

struct MutationJob {
  const BenchProgram* program = nullptr;
  s4e::mutation::MutationConfig config;
  const s4e::mutation::MutationScore* reference = nullptr;
  u32 id = 0;
};

void fault_pipeline(const FaultJob& job, Tracer& tracer, Counts& counts,
                    ExecStats& exec, Checks& checks);
void mutation_pipeline(const MutationJob& job, Tracer& tracer, Counts& counts,
                       ExecStats& exec, Checks& checks);

// Host time of each stage of one program's timing flow.
struct TimingRun {
  u64 wcet_ns = 0;
  u64 plain_ns = 0;
  u64 cosim_ns = 0;
  u64 record_ns = 0;
  u64 decode_ns = 0;
  u64 replay_ns = 0;  // all configurations
  u64 plain_insns = 0;
  u64 cosim_insns = 0;

  u64 job_ns() const noexcept {
    return wcet_ns + plain_ns + cosim_ns + record_ns + decode_ns + replay_ns;
  }
};

// WCET analysis, a plain run, a QTA co-simulation run, then trace record,
// decode and replay under every configuration of `matrix`.
TimingRun timing_pipeline(const BenchProgram& program, u32 id,
                          const std::vector<s4e::trace::NamedTiming>& matrix,
                          Tracer& tracer, Counts& counts, Checks& checks);

// Cold run then warm run of one program on one machine (restored from a
// snapshot in between, so the translated code stays warm): their difference
// is the translation cost.
void translate_probe(const BenchProgram& program, u32 id, Tracer& tracer,
                     Counts& counts, Checks& checks);

}  // namespace perfbench

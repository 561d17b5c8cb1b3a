// Campaign fleet orchestrator (the engine behind s4e-campaignd): shards a
// fault or mutation campaign across worker *processes*, reads their JSONL
// results from one stdout pipe per worker, and merges them with the same
// slot-array discipline the in-process executor uses.
//
// Determinism contract: every worker regenerates the identical full
// fault/mutant enumeration (same seed, same RNG walk) and executes only
// its contiguous index range; the orchestrator places each record into a
// slot array indexed by the *global* mutant index and folds the slots in
// order. The final report is therefore byte-identical to the serial tool's
// stdout — for any worker count, any shard count, any arrival order, and
// across crash/resume cycles.
//
// Fault tolerance: a worker that dies mid-shard is detected by stream EOF
// before its `done` line (or by a non-zero exit); its partial records are
// discarded and the shard is requeued, up to `max_retries` respawns per
// shard. A worker that exits 2 rejected its arguments, which a respawn
// would too: the fleet stops at once. Completed shards are committed to an
// append-only checkpoint journal (fsync before acknowledge), so a daemon
// crash loses at most the in-flight shards and a restart resumes from the
// committed set.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/records.hpp"

namespace s4e::fleet {

struct FleetOptions {
  std::string elf_path;
  // Worker binary: the tool of the fleet's model (s4e-faultsim for
  // fault::FaultModel, s4e-mutate for mutation::MutationModel).
  std::string worker_path;
  unsigned workers = 2;   // concurrent worker processes
  unsigned shards = 0;    // shard count; 0 = 4x workers (restart granularity)
  unsigned worker_jobs = 1;  // threads inside each worker process

  // The campaign knobs, one "--flag" or "--flag=value" token each, e.g.
  // {"--mutants=40", "--triage=verify"} (campaign/spec.hpp). Before any
  // worker starts, run_fleet parses them with the model's knob table (so a
  // knob the worker would not take is an error) and forwards their
  // canonical form (campaign::spec_argv) to every worker and into the
  // fingerprint.
  std::vector<std::string> spec;

  // Checkpoint journal path; empty disables checkpointing (and resume).
  std::string checkpoint_path;
  // Live status endpoint: -1 = off, 0 = ephemeral port, else fixed port.
  // Each connection receives one JSON metrics line and is closed.
  int status_port = -1;
  // Invoked once with the bound status port (tests grab ephemeral ports).
  std::function<void(int)> on_status_port;
  // Respawn budget per shard before the fleet gives up.
  unsigned max_retries = 3;

  // --- Deterministic failure-injection hooks (tests only).
  // SIGKILL the first worker process after it has streamed N records.
  unsigned test_kill_after_records = 0;
  // Abort the daemon (error return, checkpoint intact) after N commits.
  unsigned test_fail_after_commits = 0;
};

struct FleetStats {
  u64 records = 0;             // records aggregated this run (live ones)
  unsigned shards_total = 0;
  unsigned shards_done = 0;       // committed live by this run
  unsigned shards_recovered = 0;  // taken from the checkpoint, not re-run
  unsigned workers_spawned = 0;
  unsigned worker_restarts = 0;
  bool checkpoint_replaced = false;  // stale journal was discarded
  int status_port = -1;
};

struct FleetReport {
  // The campaign report, byte-identical to the serial tool's stdout.
  std::string report;
  FleetStats stats;
};

// Run `Model`'s campaign (fault::FaultModel or mutation::MutationModel,
// the two instantiations) on the fleet. `stats_out`, when given, also
// receives the statistics of a run that fails (read it after run_fleet
// returns).
template <class Model>
Result<FleetReport> run_fleet(const FleetOptions& options,
                              FleetStats* stats_out = nullptr);

}  // namespace s4e::fleet

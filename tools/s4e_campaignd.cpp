// s4e-campaignd — campaign fleet service: shards a fault or mutation
// campaign across worker processes and merges their streamed results.
//
//   s4e-campaignd file.elf [--mode fault|mutation] [campaign knobs]
//                 [--workers N] [--shards N] [--worker-jobs N]
//                 [--worker PATH] [--checkpoint FILE] [--status-port P]
//                 [--max-retries N] [--stats]
//
// --mode names the campaign model (fault::FaultModel::kName or
// mutation::MutationModel::kName); it is the one place the daemon picks a
// model. The campaign knobs are exactly those the model's tool takes
// (s4e-faultsim for fault, s4e-mutate for mutation), declared by the same
// knob tables (campaign/spec.hpp) and checked before any worker starts: a
// knob of the other model, like a bad value, is a usage error (exit 2).
// Every worker receives their canonical form. The merged report on stdout
// is byte-identical to the serial tool's with the same knobs: workers
// regenerate the identical mutant enumeration, execute only their
// contiguous shard, and the daemon folds the records in global index
// order. --checkpoint makes the fleet crash-safe: completed shards are
// journaled (fsync before acknowledge), and a restarted daemon resumes
// from the committed set instead of re-running it. Workers that die
// mid-shard are respawned automatically; a worker that rejects its
// arguments (exit 2) stops the fleet at once.
//
// Each worker streams its shard back through its stdout pipe.
// --status-port P serves one line of live JSON metrics per connection
// (P=0 binds an ephemeral port, printed to stderr).
#include <unistd.h>

#include <cstdio>
#include <string>

#include "fault/fault.hpp"
#include "fleet/orchestrator.hpp"
#include "mutation/mutation.hpp"
#include "tools/campaign_main.hpp"

namespace {

// Default worker binary: s4e-faultsim / s4e-mutate next to this binary,
// so an installed or build-tree daemon finds its siblings without flags.
std::string sibling_tool(const char* name) {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n <= 0) return name;
  buffer[n] = '\0';
  std::string path(buffer);
  const auto slash = path.rfind('/');
  if (slash == std::string::npos) return name;
  return path.substr(0, slash + 1) + name;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace s4e;
  std::vector<std::string> value_keys = {
      "--mode",        "--workers",         "--shards",
      "--worker-jobs", "--worker",          "--checkpoint",
      "--status-port", "--max-retries",     "--test-kill-after",
      "--test-fail-after-commits"};
  std::vector<std::string> flag_keys = {"--stats"};
  std::vector<std::string> knobs;
  std::string usage =
      "usage: s4e-campaignd <file.elf> [--mode fault|mutation] "
      "[--workers N] [--shards N] [--worker-jobs N] [--worker PATH] "
      "[--checkpoint FILE] [--status-port P] [--max-retries N] "
      "[--stats] [--test-kill-after N] [--test-fail-after-commits N]\n"
      "  and the knobs of the mode's tool: ";
  tools::declare_knobs<fault::FaultModel>(value_keys, flag_keys, knobs, usage);
  tools::declare_knobs<mutation::MutationModel>(value_keys, flag_keys, knobs,
                                                usage);
  usage.back() = '\n';
  tools::Args args(argc, argv, value_keys, flag_keys);
  if (const int code =
          tools::standard_flags(args, "s4e-campaignd", usage.c_str());
      code >= 0) {
    return code;
  }
  if (args.positional().empty()) {
    std::fprintf(stderr, "%s", usage.c_str());
    return 2;
  }

  fleet::FleetOptions options;
  options.elf_path = args.positional()[0];
  const std::string mode = args.value("--mode", fault::FaultModel::kName);
  const bool fault_mode = mode == fault::FaultModel::kName;
  if (!fault_mode && mode != mutation::MutationModel::kName) {
    args.usage_error(Error(ErrorCode::kInvalidArgument,
                           "--mode expects fault|mutation (got " + mode + ")"));
  }
  options.spec = tools::given_knobs(args, knobs);
  constexpr long long kCount = 0xffffffffLL;
  options.workers = static_cast<unsigned>(
      args.integer("--workers", options.workers, 1, 256));
  options.shards = static_cast<unsigned>(
      args.integer("--shards", options.shards, 0, 1 << 16));
  options.worker_jobs = static_cast<unsigned>(
      args.integer("--worker-jobs", options.worker_jobs, 0, 4096));
  options.worker_path = args.value(
      "--worker", sibling_tool(fault_mode ? "s4e-faultsim" : "s4e-mutate"));
  options.checkpoint_path = args.value("--checkpoint");
  if (args.has("--status-port")) {
    options.status_port =
        static_cast<int>(args.integer("--status-port", 0, 0, 65535));
    options.on_status_port = [](int port) {
      std::fprintf(stderr, "[campaignd] status endpoint on 127.0.0.1:%d\n",
                   port);
    };
  }
  options.max_retries = static_cast<unsigned>(
      args.integer("--max-retries", options.max_retries, 0, kCount));
  options.test_kill_after_records = static_cast<unsigned>(
      args.integer("--test-kill-after", 0, 0, kCount));
  options.test_fail_after_commits = static_cast<unsigned>(
      args.integer("--test-fail-after-commits", 0, 0, kCount));

  auto fleet_run =
      fault_mode ? fleet::run_fleet<fault::FaultModel>(options)
                 : fleet::run_fleet<mutation::MutationModel>(options);
  if (!fleet_run.ok()) {
    std::fprintf(stderr, "s4e-campaignd: %s\n",
                 fleet_run.error().to_string().c_str());
    // A knob the mode does not take, or a worker's usage error (exit 2).
    return fleet_run.error().code() == ErrorCode::kInvalidArgument ? 2 : 1;
  }
  std::printf("%s", fleet_run->report.c_str());
  if (args.has("--stats")) {
    // Fleet bookkeeping goes to stderr so stdout stays byte-identical to
    // the serial tool's report.
    const fleet::FleetStats& stats = fleet_run->stats;
    std::fprintf(stderr,
                 "[campaignd] %u/%u shards (%u recovered), %llu records, "
                 "%u workers spawned, %u restarts%s\n",
                 stats.shards_done + stats.shards_recovered,
                 stats.shards_total, stats.shards_recovered,
                 static_cast<unsigned long long>(stats.records),
                 stats.workers_spawned, stats.worker_restarts,
                 stats.checkpoint_replaced ? ", stale checkpoint replaced"
                                           : "");
  }
  return tools::finish_stdout("s4e-campaignd");
}

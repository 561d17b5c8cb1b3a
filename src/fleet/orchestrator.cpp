#include "fleet/orchestrator.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "campaign/spec.hpp"
#include "common/strings.hpp"
#include "debug/tcp.hpp"
#include "fault/fault.hpp"
#include "fleet/worker.hpp"
#include "mutation/mutation.hpp"

namespace s4e::fleet {

namespace {

// Poll heartbeat: bounds the latency of child reaping and the status
// endpoint; all data paths are event-driven.
constexpr int kPollIntervalMs = 50;

// One worker process driving one shard.
struct WorkerProc {
  pid_t pid = -1;
  unsigned shard = 0;
  unsigned spawn_index = 0;
  int fd = -1;  // read end of the worker's stdout pipe
  std::string buffer;
  bool meta_seen = false;
  bool done_seen = false;
  bool stream_closed = false;
  bool exited = false;
  int wait_status = 0;
  CompletedShard block;
};

// Kills and reaps every still-running worker on scope exit, so error
// returns never leak children.
struct ReapGuard {
  std::vector<WorkerProc>* workers;
  ~ReapGuard() {
    for (WorkerProc& worker : *workers) {
      if (worker.pid < 0 || worker.exited) continue;
      ::kill(worker.pid, SIGKILL);
      ::waitpid(worker.pid, nullptr, 0);
      worker.exited = true;
    }
  }
};

std::vector<std::string> worker_argv(const FleetOptions& options,
                                     const std::vector<std::string>& spec,
                                     unsigned shard, unsigned shards,
                                     unsigned stall_after) {
  std::vector<std::string> argv = {options.worker_path,
                                   options.elf_path,
                                   "--shard",
                                   format("%u/%u", shard, shards),
                                   "--emit-jsonl",
                                   "--jobs",
                                   format("%u", options.worker_jobs)};
  argv.insert(argv.end(), spec.begin(), spec.end());
  if (stall_after != 0) {
    argv.push_back("--test-stall-after");
    argv.push_back(format("%u", stall_after));
  }
  return argv;
}

// fork/exec one worker: the child's stdout becomes the stream and `out_fd`
// receives the read end.
Result<pid_t> spawn_worker(const FleetOptions& options,
                           const std::vector<std::string>& spec,
                           unsigned shard, unsigned shards,
                           unsigned stall_after, int& out_fd) {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) {
    return Error(ErrorCode::kIoError,
                 format("fleet: pipe failed: %s", std::strerror(errno)));
  }

  const auto argv_strings =
      worker_argv(options, spec, shard, shards, stall_after);
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (const std::string& arg : argv_strings) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Error(ErrorCode::kIoError,
                 format("fleet: fork failed: %s", std::strerror(errno)));
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "fleet: exec %s failed: %s\n", argv[0],
                 std::strerror(errno));
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd = fds[0];
  return pid;
}

u64 shard_bound(u64 total, unsigned index, unsigned shards) {
  return total * index / shards;
}

// The checks every shard's meta line passes, streamed live or recovered
// from the checkpoint: it is shard `shard` of this campaign, it agrees with
// the campaign-wide facts of the first meta line (kept in `golden`), and
// it covers exactly the range the shard contract gives it.
Status check_meta(const MetaLine& meta, unsigned shard, unsigned shards,
                  u64 fingerprint, std::optional<MetaLine>& golden) {
  if (meta.shard != shard || meta.shards != shards) {
    return Error(ErrorCode::kStateError,
                 format("fleet: expected shard %u/%u, worker announced "
                        "%u/%u",
                        shard, shards, meta.shard, meta.shards));
  }
  if (meta.fingerprint != fingerprint) {
    return Error(ErrorCode::kStateError,
                 format("fleet: shard %u fingerprint mismatch (worker "
                        "sees a different campaign — wrong binary or "
                        "ELF?)",
                        shard));
  }
  if (!golden.has_value()) golden = meta;
  if (golden->total != meta.total || golden->golden_exit != meta.golden_exit ||
      golden->golden_instructions != meta.golden_instructions) {
    return Error(
        ErrorCode::kStateError,
        format("fleet: workers disagree on the campaign (total %llu vs "
               "%llu, golden exit %d vs %d) — mixed binaries or a "
               "non-deterministic workload",
               static_cast<unsigned long long>(golden->total),
               static_cast<unsigned long long>(meta.total),
               golden->golden_exit, meta.golden_exit));
  }
  if (meta.begin != shard_bound(meta.total, shard, shards) ||
      meta.end != shard_bound(meta.total, shard + 1, shards)) {
    return Error(ErrorCode::kStateError,
                 format("fleet: shard %u announced range [%llu,%llu) "
                        "outside the contract",
                        shard, static_cast<unsigned long long>(meta.begin),
                        static_cast<unsigned long long>(meta.end)));
  }
  return Status();
}

// The campaign report from the merged slot array, folded exactly like the
// in-process driver folds its slots.
template <class Model>
std::string merge_report(const MetaLine& golden,
                         const std::vector<RecordLine>& slots) {
  vp::GoldenRun reference;
  reference.result.exit_code = golden.golden_exit;
  reference.result.instructions = golden.golden_instructions;
  typename Model::Report report = Model::open(reference, golden.total);
  Model::results(report).reserve(slots.size());
  for (const RecordLine& record : slots) {
    Model::fold(report, from_record<Model>(record));
  }
  return report.to_string();
}

// The status endpoint's JSON line.
std::string stats_json(const FleetStats& stats) {
  return format("{\"fleet_records\": %llu, \"fleet_shards_done\": %u, "
                "\"fleet_shards_recovered\": %u, "
                "\"fleet_workers_spawned\": %u, "
                "\"fleet_worker_restarts\": %u, \"fleet_shards_total\": %u}",
                static_cast<unsigned long long>(stats.records),
                stats.shards_done, stats.shards_recovered,
                stats.workers_spawned, stats.worker_restarts,
                stats.shards_total);
}

// Consume complete lines from `buffer`, feeding them to `worker`'s block.
Status consume_lines(WorkerProc& worker, const Vocabulary& vocabulary,
                     u64 fingerprint, unsigned shards,
                     std::optional<MetaLine>& golden, u64& records) {
  std::size_t newline;
  while ((newline = worker.buffer.find('\n')) != std::string::npos) {
    const std::string line = worker.buffer.substr(0, newline);
    worker.buffer.erase(0, newline + 1);
    if (line.empty()) continue;
    S4E_TRY(parsed, parse_line(line, vocabulary));
    if (parsed.meta.has_value()) {
      if (worker.meta_seen) {
        return Error(ErrorCode::kStateError,
                     format("fleet: shard %u sent two meta lines",
                            worker.shard));
      }
      S4E_TRY_STATUS(
          check_meta(*parsed.meta, worker.shard, shards, fingerprint, golden));
      worker.meta_seen = true;
      worker.block.meta = *parsed.meta;
      continue;
    }
    if (parsed.record.has_value()) {
      if (!worker.meta_seen || worker.done_seen) {
        return Error(ErrorCode::kStateError,
                     format("fleet: shard %u sent a record outside its "
                            "stream frame",
                            worker.shard));
      }
      const u64 expected =
          worker.block.meta.begin + worker.block.records.size();
      if (parsed.record->index != expected ||
          parsed.record->index >= worker.block.meta.end) {
        return Error(ErrorCode::kStateError,
                     format("fleet: shard %u record index %llu, expected "
                            "%llu",
                            worker.shard,
                            static_cast<unsigned long long>(
                                parsed.record->index),
                            static_cast<unsigned long long>(expected)));
      }
      worker.block.records.push_back(*parsed.record);
      ++records;
      continue;
    }
    // done line
    if (!worker.meta_seen || parsed.done->shard != worker.shard ||
        parsed.done->count != worker.block.records.size() ||
        worker.block.meta.begin + parsed.done->count !=
            worker.block.meta.end) {
      return Error(ErrorCode::kStateError,
                   format("fleet: shard %u done line disagrees with its "
                          "stream",
                          worker.shard));
    }
    worker.done_seen = true;
  }
  return Status();
}

}  // namespace

template <class Model>
Result<FleetReport> run_fleet(const FleetOptions& options,
                              FleetStats* stats_out) {
  constexpr Vocabulary vocabulary = vocabulary_of<Model>();
  if (options.workers == 0 || options.worker_path.empty() ||
      options.elf_path.empty()) {
    return Error(ErrorCode::kInvalidArgument,
                 "fleet: elf path, worker path and workers >= 1 required");
  }
  // The status endpoint writes to sockets whose peer may vanish; broken
  // pipes must surface as write errors, not process death.
  ::signal(SIGPIPE, SIG_IGN);

  const unsigned shards =
      options.shards != 0 ? options.shards : options.workers * 4;
  // The canonical form of the caller's knob tokens, as the worker tool
  // will parse and fingerprint them.
  auto config = campaign::parse_spec<Model>(options.spec);
  if (!config.ok()) {
    return Error(ErrorCode::kInvalidArgument,
                 "fleet: " + std::string(Model::kName) +
                     " campaign: " + config.error().message());
  }
  const std::vector<std::string> spec = campaign::spec_argv<Model>(*config);
  S4E_TRY(elf_bytes, read_file_bytes(options.elf_path));
  const u64 fingerprint =
      campaign_fingerprint(elf_bytes, Model::kName, spec, shards);

  FleetReport out;
  FleetStats own_stats;
  FleetStats& stats = stats_out != nullptr ? *stats_out : own_stats;
  stats = FleetStats{};
  stats.shards_total = shards;

  // --- Checkpoint: recover committed shards, keep the journal open. A
  // recovered block passes the live stream's meta checks.
  std::optional<MetaLine> golden;
  std::map<unsigned, CompletedShard> committed;
  std::unique_ptr<CheckpointJournal> journal;
  if (!options.checkpoint_path.empty()) {
    std::vector<CompletedShard> recovered;
    bool replaced = false;
    auto opened = CheckpointJournal::open(options.checkpoint_path,
                                          {vocabulary, fingerprint},
                                          recovered, replaced);
    if (!opened.ok()) return opened.error();
    journal = std::make_unique<CheckpointJournal>(std::move(*opened));
    stats.checkpoint_replaced = replaced;
    for (CompletedShard& shard : recovered) {
      const unsigned index = shard.meta.shard;
      if (index >= shards || committed.count(index) != 0) {
        return Error(ErrorCode::kStateError,
                     format("fleet: checkpoint holds invalid shard %u",
                            index));
      }
      S4E_TRY_STATUS(
          check_meta(shard.meta, index, shards, fingerprint, golden));
      committed.emplace(index, std::move(shard));
    }
    stats.shards_recovered = static_cast<unsigned>(committed.size());
  }

  // --- Status endpoint.
  std::unique_ptr<debug::TcpListener> status_listener;
  if (options.status_port >= 0) {
    std::string error;
    status_listener = debug::TcpListener::listen_loopback(
        static_cast<u16>(options.status_port), error);
    if (status_listener == nullptr) {
      return Error(ErrorCode::kIoError, "fleet: status listener: " + error);
    }
    stats.status_port = status_listener->port();
    if (options.on_status_port) {
      options.on_status_port(status_listener->port());
    }
  }

  // --- Scheduling state.
  std::deque<unsigned> pending;
  for (unsigned shard = 0; shard < shards; ++shard) {
    if (committed.count(shard) == 0) pending.push_back(shard);
  }
  std::vector<unsigned> retries(shards, 0);
  std::vector<WorkerProc> workers;
  ReapGuard guard{&workers};
  bool kill_hook_pending = options.test_kill_after_records != 0;

  const auto active_workers = [&workers] {
    std::size_t active = 0;
    for (const WorkerProc& worker : workers) {
      active += !worker.exited || !worker.stream_closed;
    }
    return active;
  };

  while (committed.size() < shards) {
    // Spawn until the worker budget is full.
    while (!pending.empty() && active_workers() < options.workers) {
      const unsigned shard = pending.front();
      pending.pop_front();
      // The stall hook rides on the very first spawn only: that worker is
      // the designated victim.
      const unsigned stall =
          (kill_hook_pending && stats.workers_spawned == 0)
              ? options.test_kill_after_records
              : 0;
      int fd = -1;
      auto pid = spawn_worker(options, spec, shard, shards, stall, fd);
      if (!pid.ok()) return pid.error();
      WorkerProc worker;
      worker.pid = *pid;
      worker.shard = shard;
      worker.spawn_index = stats.workers_spawned++;
      worker.fd = fd;
      workers.push_back(std::move(worker));
    }

    // Poll every open stream, then the status listener.
    std::vector<pollfd> fds;
    std::vector<std::size_t> owner;  // workers index of each stream fd
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (!workers[i].stream_closed) {
        fds.push_back({workers[i].fd, POLLIN, 0});
        owner.push_back(i);
      }
    }
    if (status_listener != nullptr) {
      fds.push_back({status_listener->fd(), POLLIN, 0});
    }
    if (!fds.empty()) {
      const int n = ::poll(fds.data(), fds.size(), kPollIntervalMs);
      if (n < 0 && errno != EINTR) {
        return Error(ErrorCode::kIoError,
                     format("fleet: poll failed: %s", std::strerror(errno)));
      }
    }

    // Status endpoint: one metrics line per connection, then close.
    if (status_listener != nullptr && (fds.back().revents & POLLIN) != 0) {
      std::string error;
      bool timed_out = false;
      auto client = status_listener->accept_one_for(0, error, timed_out);
      if (client != nullptr) {
        client->write_all(stats_json(stats) + "\n");
      }
    }

    // Drain readable worker streams.
    for (std::size_t slot = 0; slot < owner.size(); ++slot) {
      if ((fds[slot].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      WorkerProc& worker = workers[owner[slot]];
      char chunk[65536];
      const ssize_t n = ::read(worker.fd, chunk, sizeof chunk);
      if (n > 0) {
        worker.buffer.append(chunk, static_cast<std::size_t>(n));
        S4E_TRY_STATUS(consume_lines(worker, vocabulary, fingerprint, shards,
                                     golden, stats.records));
        // Kill hook: the victim has streamed enough — SIGKILL it mid-shard.
        if (kill_hook_pending && worker.spawn_index == 0 &&
            worker.block.records.size() >=
                options.test_kill_after_records) {
          kill_hook_pending = false;
          ::kill(worker.pid, SIGKILL);
        }
      } else if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
        worker.stream_closed = true;
        ::close(worker.fd);
        worker.fd = -1;
      }
    }

    // Reap exited children — per known pid, never waitpid(-1), so an
    // embedding process's other children (popen!) are left alone.
    for (WorkerProc& worker : workers) {
      if (worker.exited) continue;
      int status = 0;
      if (::waitpid(worker.pid, &status, WNOHANG) == worker.pid) {
        worker.exited = true;
        worker.wait_status = status;
        // Exit 2 is a usage error (the worker's message is on stderr): a
        // respawn would be rejected the same way, so stop at once.
        if (WIFEXITED(status) && WEXITSTATUS(status) == 2) {
          return Error(ErrorCode::kInvalidArgument,
                       format("fleet: worker %s rejected its arguments "
                              "(exit 2) on shard %u; not retried",
                              options.worker_path.c_str(), worker.shard));
        }
      }
    }

    // Settle workers whose stream and process have both finished.
    for (std::size_t i = 0; i < workers.size();) {
      WorkerProc& worker = workers[i];
      if (!worker.exited || !worker.stream_closed) {
        ++i;
        continue;
      }
      const bool clean = worker.done_seen &&
                         WIFEXITED(worker.wait_status) &&
                         WEXITSTATUS(worker.wait_status) == 0;
      if (clean) {
        if (journal != nullptr) {
          S4E_TRY_STATUS(journal->commit(worker.block));
        }
        committed.emplace(worker.shard, std::move(worker.block));
        ++stats.shards_done;
        if (options.test_fail_after_commits != 0 &&
            stats.shards_done >= options.test_fail_after_commits) {
          return Error(ErrorCode::kStateError,
                       format("fleet: test-induced daemon failure after %u "
                              "commits",
                              stats.shards_done));
        }
      } else {
        // Worker died (or its stream broke) mid-shard: drop the partial
        // block and requeue, bounded by the retry budget.
        if (++retries[worker.shard] > options.max_retries) {
          return Error(
              ErrorCode::kStateError,
              format("fleet: shard %u failed %u times, giving up "
                     "(last exit status 0x%x)",
                     worker.shard, retries[worker.shard],
                     static_cast<unsigned>(worker.wait_status)));
        }
        pending.push_back(worker.shard);
        ++stats.worker_restarts;
      }
      workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  if (!golden.has_value()) {
    return Error(ErrorCode::kStateError, "fleet: no worker reported");
  }

  // --- Deterministic aggregation: fill the slot array in global index
  // order from the committed blocks, then fold exactly like the serial
  // engines do.
  std::vector<RecordLine> slots(static_cast<std::size_t>(golden->total));
  std::vector<bool> filled(slots.size(), false);
  for (const auto& [shard, block] : committed) {
    for (std::size_t offset = 0; offset < block.records.size(); ++offset) {
      const u64 index = block.meta.begin + offset;
      if (index >= golden->total || filled[static_cast<std::size_t>(index)]) {
        return Error(ErrorCode::kStateError,
                     format("fleet: duplicate or out-of-range record %llu",
                            static_cast<unsigned long long>(index)));
      }
      slots[static_cast<std::size_t>(index)] = block.records[offset];
      filled[static_cast<std::size_t>(index)] = true;
    }
  }
  for (std::size_t index = 0; index < filled.size(); ++index) {
    if (!filled[index]) {
      return Error(ErrorCode::kStateError,
                   format("fleet: record %zu missing after all shards "
                          "committed",
                          index));
    }
  }

  out.report = merge_report<Model>(*golden, slots);
  out.stats = stats;
  return out;
}

template Result<FleetReport> run_fleet<fault::FaultModel>(const FleetOptions&,
                                                          FleetStats*);
template Result<FleetReport> run_fleet<mutation::MutationModel>(
    const FleetOptions&, FleetStats*);

}  // namespace s4e::fleet

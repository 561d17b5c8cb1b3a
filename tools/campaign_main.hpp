// The shared main() body of the campaign tools (s4e-faultsim, s4e-mutate).
// It parses the model's campaign knobs from their tables (campaign/spec.hpp)
// and owns every other flag a campaign takes whatever its model: --jobs,
// --shard, --progress, --metrics-out, --post-mortem[-dir],
// --snapshot-stats, and the fleet worker mode (--emit-jsonl streams the
// shard to stdout in the model's wire vocabulary). Observability flags
// never change the stdout report.
//
// Each tool supplies a `Tool` description with its listing and labels:
//   Model                           the campaign model
//   kName, kTag                     tool name, stderr tag
//   kProgress[4]                    progress-line names of the buckets
//   kListFlag, list(report)         its optional stdout listing
//   label(result)                   post-mortem header: bucket and item
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "campaign/spec.hpp"
#include "common/json.hpp"
#include "elf/elf32.hpp"
#include "fleet/records.hpp"
#include "fleet/worker.hpp"
#include "tools/tool_util.hpp"

namespace s4e::tools {

inline constexpr char kCampaignUsage[] =
    "[--jobs N] [--progress] [--snapshot-stats] "
    "[--metrics-out FILE] [--post-mortem] [--post-mortem-dir DIR] "
    "[--shard I/N] [--emit-jsonl] [--test-stall-after N]\n";

// Declare `Model`'s knobs (campaign/spec.hpp) to an Args parser: integers
// take a value, switches and choices do not. Each flag is also listed in
// `knobs`, once, so the knobs of several models can share one parser, and
// documented in `usage`.
template <class Model>
void declare_knobs(std::vector<std::string>& value_keys,
                   std::vector<std::string>& flag_keys,
                   std::vector<std::string>& knobs, std::string& usage) {
  campaign::for_each_knob<Model>([&](const auto& knob) {
    if (std::find(knobs.begin(), knobs.end(), knob.flag) != knobs.end()) {
      return;
    }
    knobs.push_back(knob.flag);
    (knob.kind == campaign::KnobKind::kInteger ? value_keys : flag_keys)
        .push_back(knob.flag);
    usage += knob.usage() + " ";
  });
}

// The `knobs` given in `args`, as tokens for campaign::parse_spec.
inline std::vector<std::string> given_knobs(
    const Args& args, const std::vector<std::string>& knobs) {
  std::vector<std::string> tokens;
  for (const std::string& flag : knobs) {
    if (args.has(flag)) tokens.push_back(flag + "=" + args.value(flag));
  }
  return tokens;
}

template <class Tool>
int campaign_main(int argc, char** argv) {
  using Model = typename Tool::Model;
  const char* name = Tool::kName;
  std::vector<std::string> value_keys = {"--jobs", "--metrics-out",
                                         "--post-mortem-dir", "--shard",
                                         "--test-stall-after"};
  std::vector<std::string> flag_keys = {"--progress", "--snapshot-stats",
                                        "--post-mortem", "--emit-jsonl",
                                        Tool::kListFlag};
  std::vector<std::string> knobs;
  std::string usage = format("usage: %s <file.elf> ", name);
  declare_knobs<Model>(value_keys, flag_keys, knobs, usage);
  usage += std::string("[") + Tool::kListFlag + "] " + kCampaignUsage;
  Args args(argc, argv, value_keys, flag_keys);
  if (const int code = standard_flags(args, name, usage.c_str());
      code >= 0) {
    return code;
  }
  if (args.positional().empty()) {
    std::fprintf(stderr, "%s", usage.c_str());
    return 2;
  }

  auto spec = campaign::parse_spec<Model>(given_knobs(args, knobs));
  if (!spec.ok()) args.usage_error(spec.error());
  typename Model::Config config = *spec;
  config.jobs = static_cast<unsigned>(args.integer("--jobs", 0, 0, 4096));
  config.collect_metrics = args.has("--metrics-out");
  config.post_mortem =
      args.has("--post-mortem") || args.has("--post-mortem-dir");
  if (args.has("--shard")) {
    const auto shard = fleet::parse_shard(args.value("--shard"));
    if (!shard) {
      args.usage_error(Error(ErrorCode::kInvalidArgument,
                             "--shard expects I/N (got " +
                                 args.value("--shard") + ")"));
    }
    config.shard_index = shard->first;
    config.shard_count = shard->second;
  }
  const auto stall_after = static_cast<unsigned>(
      args.integer("--test-stall-after", 0, 0, 0xffffffffLL));

  auto program = elf::read_elf_file(args.positional()[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "%s: %s\n", name,
                 program.error().to_string().c_str());
    return 1;
  }
  campaign::Campaign<Model> campaign(*program, config);

  // Optional status line fed by the campaign's atomic progress counters.
  std::atomic<bool> campaign_done{false};
  std::thread status_thread;
  if (args.has("--progress")) {
    status_thread = std::thread([&campaign, &campaign_done] {
      while (!campaign_done.load(std::memory_order_acquire)) {
        const auto snap = campaign.progress().snapshot();
        if (snap.total != 0) {
          std::string line = format(
              "\r[%s] %llu/%llu mutants  (", Tool::kTag,
              static_cast<unsigned long long>(snap.completed),
              static_cast<unsigned long long>(snap.total));
          for (unsigned b = 0; b < 4; ++b) {
            line += format("%s%s %llu", b == 0 ? "" : ", ", Tool::kProgress[b],
                           static_cast<unsigned long long>(snap.buckets[b]));
          }
          std::fprintf(stderr, "%s)", line.c_str());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
      std::fprintf(stderr, "\n");
    });
  }

  auto report = campaign.run();
  campaign_done.store(true, std::memory_order_release);
  if (status_thread.joinable()) status_thread.join();
  if (!report.ok()) {
    std::fprintf(stderr, "%s: %s\n", name,
                 report.error().to_string().c_str());
    return 1;
  }
  const auto& results = Model::results(*report);
  // The exit path of both modes: --metrics-out gets the telemetry, stdout
  // keeps only the report (or the JSONL stream).
  const auto finish = [&] {
    if (args.has("--metrics-out")) {
      const Status status = merge_bench_entry(args.value("--metrics-out"),
                                              name, report->metrics_json);
      if (!status.ok()) {
        std::fprintf(stderr, "%s: %s\n", name, status.to_string().c_str());
        return 1;
      }
    }
    return finish_stdout(name);
  };

  // Fleet worker mode: stream the shard instead of printing the report.
  if (args.has("--emit-jsonl")) {
    auto elf_bytes = fleet::read_file_bytes(args.positional()[0]);
    if (!elf_bytes.ok()) {
      std::fprintf(stderr, "%s: %s\n", name,
                   elf_bytes.error().to_string().c_str());
      return 1;
    }
    constexpr fleet::Vocabulary vocabulary = fleet::vocabulary_of<Model>();
    fleet::MetaLine meta;
    meta.shard = config.shard_index;
    meta.shards = config.shard_count;
    meta.begin = report->shard_begin;
    meta.end = report->shard_begin + results.size();
    meta.total = campaign.items().size();
    meta.golden_exit = campaign.golden().result.exit_code;
    meta.golden_instructions = campaign.golden().result.instructions;
    meta.fingerprint = fleet::campaign_fingerprint(
        *elf_bytes, Model::kName, campaign::spec_argv<Model>(config),
        config.shard_count);
    std::vector<std::string> lines;
    lines.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      lines.push_back(fleet::encode(
          vocabulary,
          fleet::to_record<Model>(results[i], report->shard_begin + i)));
    }
    if (auto status = fleet::emit_stream(vocabulary, meta, lines, stall_after);
        !status.ok()) {
      std::fprintf(stderr, "%s: %s\n", name, status.to_string().c_str());
      return 1;
    }
    return finish();
  }

  std::printf("%s", report->to_string().c_str());
  if (args.has("--snapshot-stats")) {
    // Debug aid on stderr so the stdout report stays byte-identical with
    // and without the flag.
    std::fprintf(stderr, "[%s] %s\n", Tool::kTag,
                 report->snapshot_stats.to_string().c_str());
  }
  if (args.has(Tool::kListFlag)) Tool::list(*report);

  // Post-mortems are emitted after the campaign, in submission order, so
  // the output is deterministic regardless of worker scheduling — and on
  // stderr (or per-mutant files), so stdout stays byte-identical.
  if (config.post_mortem) {
    const std::string dir = args.value("--post-mortem-dir");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& result = results[i];
      if (result.post_mortem.empty()) continue;
      const std::string header = format("[%s] post-mortem #%03zu %s\n",
                                        Tool::kTag, i,
                                        Tool::label(result).c_str());
      if (dir.empty()) {
        std::fprintf(stderr, "%s%s", header.c_str(),
                     result.post_mortem.c_str());
      } else {
        const std::string path = format("%s/mutant_%03zu.txt", dir.c_str(), i);
        if (auto status = write_file(path, header + result.post_mortem);
            !status.ok()) {
          std::fprintf(stderr, "%s: %s\n", name, status.to_string().c_str());
          return 1;
        }
      }
    }
  }

  return finish();
}

}  // namespace s4e::tools

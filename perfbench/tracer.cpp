#include "tracer.hpp"

#include <chrono>
#include <cstdio>
#include <limits>

namespace perfbench {

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Scope::Scope(Tracer& tracer, unsigned lane, const char* name,
                     u32 job) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  lane_ = lane;
  Lane& state = tracer.lanes_[lane];
  Span span;
  span.name = name;
  span.job = job;
  if (!state.open.empty()) {
    span.parent = state.open.back();
    span.parent_lane = static_cast<int>(lane);
  } else if (lane != 0 && state.fork_parent >= 0) {
    span.parent = state.fork_parent;
    span.parent_lane = 0;
  }
  index_ = static_cast<int>(state.spans.size());
  state.spans.push_back(span);
  state.open.push_back(index_);
  state.spans.back().start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const u64 end = now_ns();
  Lane& state = tracer_->lanes_[lane_];
  Span& span = state.spans[static_cast<std::size_t>(index_)];
  span.end_ns = end;
  state.open.pop_back();
  if (span.parent_lane == static_cast<int>(lane_)) {
    state.spans[static_cast<std::size_t>(span.parent)].child_ns +=
        end - span.start_ns;
  }
}

void Tracer::fork() noexcept {
  const int top = lanes_[0].open.empty() ? -1 : lanes_[0].open.back();
  for (unsigned lane = 1; lane < kLanes; ++lane) {
    lanes_[lane].fork_parent = top;
  }
}

void Tracer::clear() {
  for (Lane& lane : lanes_) {
    lane.spans.clear();
    lane.open.clear();
    lane.fork_parent = -1;
  }
}

namespace {

std::string layer_of(const char* name) {
  const std::string full(name);
  return full.substr(0, full.find('.'));
}

}  // namespace

void TraceSummary::add(const Tracer& tracer) {
  for (unsigned lane = 0; lane < Tracer::kLanes; ++lane) {
    for (const Span& span : tracer.spans(lane)) {
      Stat& stat = by_name[span.name];
      ++stat.count;
      stat.total_ns += span.end_ns - span.start_ns;
      if (lane == 0) {
        main_self_by_layer[layer_of(span.name)] += span.self_ns();
        main_self_ns += span.self_ns();
      }
    }
  }
}

const TraceSummary::Stat& TraceSummary::stat(const std::string& name) const {
  static const Stat kNone;
  const auto it = by_name.find(name);
  return it == by_name.end() ? kNone : it->second;
}

double TraceSummary::mean(const Stat& stat, double unit_ns) {
  return stat.count == 0 ? 0.0
                         : static_cast<double>(stat.total_ns) /
                               static_cast<double>(stat.count) / unit_ns;
}

bool write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, const Tracer*>>& tracers) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  u64 base = std::numeric_limits<u64>::max();
  for (const auto& [label, tracer] : tracers) {
    for (unsigned lane = 0; lane < Tracer::kLanes; ++lane) {
      for (const Span& span : tracer->spans(lane)) {
        base = std::min(base, span.start_ns);
      }
    }
  }
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (std::size_t pid = 0; pid < tracers.size(); ++pid) {
    const auto& [label, tracer] = tracers[pid];
    std::fprintf(out,
                 "%s{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %zu, "
                 "\"args\": {\"name\": \"%s\"}}",
                 first ? "" : ",\n", pid + 1, label.c_str());
    first = false;
    for (unsigned lane = 0; lane < Tracer::kLanes; ++lane) {
      const std::vector<Span>& spans = tracer->spans(lane);
      for (std::size_t index = 0; index < spans.size(); ++index) {
        const Span& span = spans[index];
        std::fprintf(
            out,
            ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %zu, \"tid\": %u, "
            "\"args\": {\"job\": %u, \"index\": %zu, \"parent\": %d, "
            "\"parent_tid\": %d, \"self_us\": %.3f}}",
            span.name, layer_of(span.name).c_str(),
            static_cast<double>(span.start_ns - base) / 1e3,
            static_cast<double>(span.end_ns - span.start_ns) / 1e3, pid + 1,
            lane, span.job, index, span.parent, span.parent_lane,
            static_cast<double>(span.self_ns()) / 1e3);
      }
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench

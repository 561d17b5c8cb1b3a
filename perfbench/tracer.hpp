// In-memory span recorder for the benchmark's traced run.
//
// A span is one timed call into a layer of the program, named
// "<layer>.<operation>" after the repository module it enters ("vp.restore",
// "fault.classify"). Spans are recorded from the benchmark's own code around
// public calls, kept in memory per lane (lane 0 is the main thread, lanes
// 1..kLanes-1 are executor lanes) and written out as Chrome trace-event JSON
// when the run ends. A disabled tracer reads no clock and records nothing.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.hpp"

namespace perfbench {

using s4e::u32;
using s4e::u64;

// Monotonic host time in nanoseconds.
u64 now_ns();

struct Span {
  const char* name = "";  // "<layer>.<operation>", static storage
  u64 start_ns = 0;
  u64 end_ns = 0;
  u64 child_ns = 0;  // time covered by direct children on the same lane
  int parent = -1;   // index of the parent span on `parent_lane`
  int parent_lane = -1;
  u32 job = 0;  // campaign / program id the span belongs to

  u64 self_ns() const noexcept { return end_ns - start_ns - child_ns; }
};

class Tracer {
 public:
  static constexpr unsigned kLanes = 3;  // main thread + two executor lanes

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  // RAII span on one lane. Only the thread that owns `lane` may open spans
  // on it.
  class Scope {
   public:
    Scope(Tracer& tracer, unsigned lane, const char* name, u32 job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    unsigned lane_ = 0;
    int index_ = -1;
  };

  // Called on lane 0 before executor lanes start: lane 0's innermost open
  // span becomes the parent of the spans the executor lanes open at top
  // level. The executor's task hand-off orders this write before the lanes
  // read it.
  void fork() noexcept;

  void clear();
  const std::vector<Span>& spans(unsigned lane) const { return lanes_[lane].spans; }

 private:
  struct alignas(64) Lane {
    std::vector<Span> spans;
    std::vector<int> open;
    int fork_parent = -1;
  };

  bool enabled_;
  Lane lanes_[kLanes];
};

// Per-span-name totals over every lane, and lane 0's self time per layer.
// Lane 0's self times partition the wall time of the code they cover:
// spans on executor lanes are not subtracted from their lane 0 parent, so
// the executor call counts as the executor's own time there.
struct TraceSummary {
  struct Stat {
    u64 count = 0;
    u64 total_ns = 0;
  };
  std::map<std::string, Stat> by_name;
  std::map<std::string, u64> main_self_by_layer;
  u64 main_self_ns = 0;

  void add(const Tracer& tracer);
  // Totals of one span name (zero when it never occurred).
  const Stat& stat(const std::string& name) const;
  // Mean duration of `stat` in `unit_ns` units (0 for no spans).
  static double mean(const Stat& stat, double unit_ns);
};

// Write the given tracers' spans as one Chrome trace-event JSON file, one
// process per tracer (viewable in Perfetto or chrome://tracing).
bool write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, const Tracer*>>& tracers);

}  // namespace perfbench

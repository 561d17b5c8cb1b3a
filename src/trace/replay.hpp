// VP-free differential timing replay — the "replay-many" half.
//
// Trace::parse() (format.hpp) walks a recorded event stream once and keeps
// its configuration-independent Profile: how many instructions of each
// latency class ran, divides bucketed by the dividend's significant-bit
// count, trapped instructions by (class, handled), handled fetch traps, the
// bimodal predictor's mispredict count, and the block-dispatch PC sequence.
// DecodedTrace::decode() walks no events — it refuses tainted traces,
// shares the parsed body, and counts the icache misses once (below) — and
// replay() then charges any TimingParams from that profile:
//
//   cycles = profile · TimingModel::class_cycles() costs
//          + icache misses × icache_miss_cycles
//
// The icache miss count depends on the line geometry only, so decode()
// runs vp::IcacheSim over the block-PC array once, under the recorded
// geometry, and a replay with the icache on charges that count; only a
// configuration with another geometry simulates again. Everything else is
// a count times a configuration constant, so a replay costs O(classes).
// Because the exec engine's lowering precomputes every per-instruction
// cost from the same class_cycles()/divide_cycles() the profile is charged
// through, and the recorder preserves every input those costs depend on,
// the replayed cycle count is bit-identical to what a live run under the
// same configuration would report — without booting a VP.
//
// Tainted traces (any timing-path-sensitive site: cycle CSR reads,
// CLINT/GPIO loads, interrupts, non-final wfi) are refused with a per-site
// diagnostic: under a different configuration the program could have taken a
// different path, and replaying the recorded one would be fiction.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "trace/format.hpp"

namespace s4e::trace {

struct ReplayResult {
  u64 cycles = 0;
  u64 instructions = 0;
  u64 blocks = 0;
  u64 icache_misses = 0;
  u64 mispredicts = 0;  // only counted when branch_predictor is enabled
};

// Called once per retired instruction with its PC, in program order (RLE
// runs are expanded). This is the hook the QTA path accumulator attaches to;
// it sees exactly the sequence a live run's insn_exec callback would.
using InsnHook = std::function<void(u32 pc)>;

// Refuse traces replay cannot honour: wrong workload (fingerprint mismatch;
// pass 0 to skip the check) or a timing-path-tainted recording (every taint
// site is listed with its PC and kind).
Status check_replayable(const Trace& trace, u64 expected_fingerprint);

// A trace cleared for replay: it shares the parsed trace's immutable body
// (profile, block PCs, instruction spans — the stream decode, the footer
// cross-check and the branch-predictor run were paid once, by parse()), so
// it costs no event walk and no copy, only one icache pass over the block
// PCs, and it stays valid after the Trace it came from is gone. Every per-configuration replay charges the shared read-only
// profile: replay_matrix() and s4e-qta --replay decode once and fan the
// configurations out over it.
class DecodedTrace {
 public:
  // Refuses tainted traces with a per-site diagnostic (and a non-final wfi,
  // which is always recorded behind its taint).
  static Result<DecodedTrace> decode(const Trace& trace);

  const Header& header() const noexcept { return trace_.header(); }
  const Footer& footer() const noexcept { return trace_.footer(); }
  const Profile& profile() const noexcept { return trace_.profile(); }

  // One PC per block dispatch, in order: the icache model's input.
  const std::vector<u32>& block_pcs() const noexcept {
    return trace_.block_pcs();
  }

  // Calls `on_insn` once per retired instruction with its PC, in program
  // order (RLE runs are expanded).
  void for_each_insn(const InsnHook& on_insn) const;

  // Icache misses over block_pcs() under the line geometry `params` names
  // (its icache_lines and icache_line_bytes; check_icache_geometry() must
  // accept them). decode() counted them once for the recorded geometry,
  // which every timing_matrix() configuration keeps; any other is
  // simulated.
  u64 icache_misses(const vp::TimingParams& params) const;

 private:
  DecodedTrace(Trace trace, u64 recorded_misses)
      : trace_(std::move(trace)), recorded_misses_(recorded_misses) {}
  Trace trace_;
  u64 recorded_misses_ = 0;  // icache misses under the recorded geometry
};

// Charge the trace under `params`: decode() (which refuses tainted traces),
// then the replay below. Both replays refuse (kInvalidArgument) an icache
// geometry check_icache_geometry() refuses when the icache model is on.
Result<ReplayResult> replay(const Trace& trace, const vp::TimingParams& params,
                            const InsnHook& on_insn = nullptr);

// Same, over a pre-decoded trace — the fast path for replay-many. The
// cycles always come from the profile; a hook only adds the instruction
// walk that feeds it.
Result<ReplayResult> replay(const DecodedTrace& trace,
                            const vp::TimingParams& params,
                            const InsnHook& on_insn = nullptr);

// Replay under the *recording* configuration and compare against the cycle
// count the footer captured from the live run — the trace's built-in
// end-to-end self check.
Status self_check(const Trace& trace);

// One named point of the replay configuration matrix.
struct NamedTiming {
  std::string name;  // "base", "icache+bpred", ...
  vp::TimingParams params;
};

// The full E8 ablation lattice: every combination of the five binary
// microarchitectural features (icache, branch predictor, slow RAM, deep
// pipeline, slow multiplier/divider) on the default base — 32 configurations.
std::vector<NamedTiming> timing_matrix();

struct MatrixRow {
  std::string name;
  vp::TimingParams params;
  ReplayResult result;
};

// Fan one trace out over `configs` on exec::CampaignExecutor lanes (`jobs`
// as in its constructor; 0 = hardware concurrency). The trace is shared
// read-only; rows come back in `configs` order.
Result<std::vector<MatrixRow>> replay_matrix(
    const Trace& trace, const std::vector<NamedTiming>& configs,
    unsigned jobs);

}  // namespace s4e::trace

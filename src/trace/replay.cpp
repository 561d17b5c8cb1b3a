#include "trace/replay.hpp"

#include "common/strings.hpp"
#include "exec/campaign_executor.hpp"
#include "isa/opcode.hpp"

namespace s4e::trace {

using isa::OpClass;

namespace {

Error taint_error(const Trace& trace) {
  std::string message =
      format("trace is timing-path-tainted at %zu site(s); the recorded path "
             "is only valid for the recording configuration:",
             trace.taints().size());
  std::size_t listed = 0;
  for (const TaintSite& site : trace.taints()) {
    if (listed == 8) {
      message += format(" ... (%zu more)", trace.taints().size() - listed);
      break;
    }
    message += format(" [pc=0x%08x %.*s]", site.pc,
                      static_cast<int>(to_string(site.kind).size()),
                      to_string(site.kind).data());
    ++listed;
  }
  return Error(ErrorCode::kStateError, message);
}

}  // namespace

Status check_replayable(const Trace& trace, u64 expected_fingerprint) {
  if (expected_fingerprint != 0 &&
      trace.header().fingerprint != expected_fingerprint) {
    return Error(
        ErrorCode::kInvalidArgument,
        format("trace was recorded from a different workload (trace "
               "fingerprint %016llx, expected %016llx)",
               static_cast<unsigned long long>(trace.header().fingerprint),
               static_cast<unsigned long long>(expected_fingerprint)));
  }
  if (!trace.taints().empty()) return taint_error(trace);
  return Status();
}

namespace {

u64 simulate_icache(const std::vector<u32>& block_pcs,
                    const vp::TimingParams& params) {
  vp::TimingParams geometry;
  geometry.icache_miss_cycles = 1;  // any nonzero cost turns the model on
  geometry.icache_lines = params.icache_lines;
  geometry.icache_line_bytes = params.icache_line_bytes;
  vp::IcacheSim icache(geometry);
  for (const u32 pc : block_pcs) icache.probe(pc);
  return icache.misses();
}

bool same_geometry(const vp::TimingParams& a, const vp::TimingParams& b) {
  return a.icache_lines == b.icache_lines &&
         a.icache_line_bytes == b.icache_line_bytes;
}

}  // namespace

Result<DecodedTrace> DecodedTrace::decode(const Trace& trace) {
  if (!trace.taints().empty() || trace.profile().wfi_sleeps != 0) {
    return taint_error(trace);
  }
  // parse() accepted the recorded geometry.
  const u64 misses = simulate_icache(trace.block_pcs(),
                                     trace.header().recorded);
  return DecodedTrace(trace, misses);
}

u64 DecodedTrace::icache_misses(const vp::TimingParams& params) const {
  return same_geometry(params, header().recorded)
             ? recorded_misses_
             : simulate_icache(block_pcs(), params);
}

void DecodedTrace::for_each_insn(const InsnHook& on_insn) const {
  for (const InsnSpan& span : trace_.insn_spans()) {
    for (u32 i = 0; i < span.count; ++i) on_insn(span.pc + i * span.stride);
  }
}

namespace {

// The closed form: every cost but the icache's is a profile count times a
// per-class constant, taken from the same TimingModel::class_cycles() the
// exec engine's lowering bakes into DecodedInsn.
ReplayResult charge(const DecodedTrace& trace, const vp::TimingParams& params) {
  const vp::TimingModel model(params);
  const Profile& profile = trace.profile();
  const auto cost = [&model](OpClass op, bool redirect = false,
                             bool mmio = false) -> u64 {
    return model.class_cycles(op, redirect, mmio);
  };

  ReplayResult out;
  out.instructions = profile.instructions;
  out.blocks = trace.block_pcs().size();
  u64 cycles = profile.plain * cost(OpClass::kArith) +
               profile.jumps * cost(OpClass::kJump, true) +
               profile.amos * cost(OpClass::kAmo) +
               profile.muls * cost(OpClass::kMul) +
               profile.csrs * cost(OpClass::kCsr) +
               profile.sys_exits * cost(OpClass::kSystem) +
               profile.sys_redirects * cost(OpClass::kSystem, true) +
               profile.fetch_traps_handled * params.trap_cycles;

  // Without the predictor a taken branch redirects; with it, a mispredict
  // does, in either direction.
  const u64 branches = profile.branches_taken + profile.branches_not_taken;
  const u64 redirected =
      params.branch_predictor ? profile.mispredicts : profile.branches_taken;
  cycles += redirected * cost(OpClass::kBranch, true) +
            (branches - redirected) * cost(OpClass::kBranch);
  if (params.branch_predictor) out.mispredicts = profile.mispredicts;

  for (unsigned kind = 0; kind < 4; ++kind) {
    cycles += profile.mem[kind] *
              cost((kind & 1) != 0 ? OpClass::kStore : OpClass::kLoad, false,
                   (kind & 2) != 0);
  }
  for (unsigned bits = 1; bits <= 32; ++bits) {
    cycles += profile.divides[bits - 1] *
              (cost(OpClass::kDiv) + model.cycles_for_bits(bits));
  }
  // A trapped instruction issued (its class cost and the redirect were
  // charged by the live run), then trap entry on top when a handler was
  // installed — exactly Machine::take_trap's accounting.
  for (unsigned op = 0; op < isa::kOpClassCount; ++op) {
    const u64 issued = cost(static_cast<OpClass>(op), true);
    cycles += profile.traps[op][0] * issued +
              profile.traps[op][1] * (issued + params.trap_cycles);
  }

  if (params.icache_miss_cycles != 0) {
    out.icache_misses = trace.icache_misses(params);
    cycles += out.icache_misses * params.icache_miss_cycles;
  }
  out.cycles = cycles;
  return out;
}

}  // namespace

Result<ReplayResult> replay(const DecodedTrace& trace,
                            const vp::TimingParams& params,
                            const InsnHook& on_insn) {
  if (params.icache_miss_cycles != 0) {
    S4E_TRY_STATUS(check_icache_geometry(params));
  }
  if (on_insn) trace.for_each_insn(on_insn);
  return charge(trace, params);
}

Result<ReplayResult> replay(const Trace& trace, const vp::TimingParams& params,
                            const InsnHook& on_insn) {
  auto decoded = DecodedTrace::decode(trace);
  if (!decoded.ok()) return decoded.error();
  return replay(*decoded, params, on_insn);
}

Status self_check(const Trace& trace) {
  auto result = replay(trace, trace.header().recorded);
  if (!result.ok()) return result.error();
  if (result->cycles != trace.footer().recorded_cycles) {
    return Error(
        ErrorCode::kStateError,
        format("self check failed: replaying the recording configuration "
               "gives %llu cycles, the live run counted %llu",
               static_cast<unsigned long long>(result->cycles),
               static_cast<unsigned long long>(
                   trace.footer().recorded_cycles)));
  }
  return Status();
}

std::vector<NamedTiming> timing_matrix() {
  struct Feature {
    const char* name;
    void (*apply)(vp::TimingParams&);
  };
  static constexpr Feature kFeatures[] = {
      {"icache", [](vp::TimingParams& p) { p.icache_miss_cycles = 12; }},
      {"bpred", [](vp::TimingParams& p) { p.branch_predictor = true; }},
      {"slowram", [](vp::TimingParams& p) { p.ram_access_cycles = 3; }},
      {"deeppipe", [](vp::TimingParams& p) { p.redirect_penalty = 4; }},
      {"slowmath",
       [](vp::TimingParams& p) {
         p.mul_cycles = 4;
         p.div_min_cycles = 4;
         p.div_max_cycles = 65;
       }},
  };
  constexpr unsigned kFeatureCount = 5;

  std::vector<NamedTiming> matrix;
  matrix.reserve(1u << kFeatureCount);
  for (unsigned mask = 0; mask < (1u << kFeatureCount); ++mask) {
    NamedTiming config;
    for (unsigned bit = 0; bit < kFeatureCount; ++bit) {
      if ((mask & (1u << bit)) == 0) continue;
      if (!config.name.empty()) config.name += '+';
      config.name += kFeatures[bit].name;
      kFeatures[bit].apply(config.params);
    }
    if (config.name.empty()) config.name = "base";
    matrix.push_back(std::move(config));
  }
  return matrix;
}

Result<std::vector<MatrixRow>> replay_matrix(
    const Trace& trace, const std::vector<NamedTiming>& configs,
    unsigned jobs) {
  S4E_TRY_STATUS(check_replayable(trace, 0));
  auto decoded = DecodedTrace::decode(trace);
  if (!decoded.ok()) return decoded.error();

  std::vector<MatrixRow> rows(configs.size());
  std::vector<Status> failures(configs.size());
  exec::CampaignExecutor(jobs).run_affine(
      configs.size(), [&](unsigned, std::size_t i) {
        rows[i].name = configs[i].name;
        rows[i].params = configs[i].params;
        auto result = replay(*decoded, configs[i].params);
        if (result.ok()) {
          rows[i].result = *result;
        } else {
          failures[i] = result.error();
        }
      });
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (!failures[i].ok()) {
      return Error(failures[i].error().code(),
                   format("config '%s': %s", configs[i].name.c_str(),
                          failures[i].error().message().c_str()));
    }
  }
  return rows;
}

}  // namespace s4e::trace

// s4e-faultsim — fault-effect campaign on an ELF.
//
//   s4e-faultsim file.elf [--harts N] [--mutants N] [--seed S] [--blind]
//                [--no-gpr] [--no-mem] [--no-code] [--list] [campaign flags]
//
// --harts N runs every mutant (and the golden reference) on an N-hart SMP
// machine; GPR faults then target an RNG-chosen hart. Static triage is
// forced off for N > 1 (single-stream reasoning is unsound under SMP).
//
// The campaign flags shared with s4e-mutate (jobs, triage, observability
// and fleet mode) are documented in tools/campaign_main.hpp.
#include "fault/fault.hpp"
#include "tools/campaign_main.hpp"

namespace {

using namespace s4e;

struct Faultsim {
  using Model = fault::FaultModel;
  static constexpr const char* kName = "s4e-faultsim";
  static constexpr const char* kTag = "faultsim";
  static constexpr fleet::Mode kMode = fleet::Mode::kFault;
  static constexpr const char* kUsage =
      "usage: s4e-faultsim <file.elf> [--harts N] [--mutants N] [--seed S] "
      "[--blind] [--no-gpr] [--no-mem] [--no-code] [--list] ";
  static constexpr const char* kProgress[] = {"masked", "sdc", "crash",
                                              "hang"};
  static constexpr const char* kValueKeys[] = {"--harts", "--mutants",
                                               "--seed"};
  static constexpr const char* kFlagKeys[] = {"--blind", "--no-gpr",
                                              "--no-mem", "--no-code",
                                              "--list"};

  static void configure(const tools::Args& args,
                        fault::CampaignConfig& config) {
    config.machine.num_harts = static_cast<unsigned>(args.integer(
        "--harts", config.machine.num_harts, 1, vp::Clint::kMaxHarts));
    config.mutant_count = static_cast<unsigned>(
        args.integer("--mutants", config.mutant_count, 0, 0xffffffffLL));
    config.seed = static_cast<u64>(args.integer(
        "--seed", static_cast<long long>(config.seed), 0,
        0x7fffffffffffffffLL));
    config.coverage_directed = !args.has("--blind");
    config.gpr_faults = !args.has("--no-gpr");
    config.memory_faults = !args.has("--no-mem");
    config.code_faults = !args.has("--no-code");
  }

  static u64 fingerprint(const std::string& elf,
                         const fault::CampaignConfig& config) {
    return fleet::campaign_fingerprint(elf, kMode, config.seed,
                                       config.mutant_count, 0,
                                       config.shard_count);
  }

  static void list(const tools::Args& args,
                   const fault::CampaignResult& result) {
    if (!args.has("--list")) return;
    std::printf("\nper-mutant results:\n");
    for (std::size_t i = 0; i < result.mutants.size(); ++i) {
      const auto& mutant = result.mutants[i];
      std::printf("  #%03zu  %-7s exit=%-4d  %s\n", i,
                  std::string(fault::to_string(mutant.outcome)).c_str(),
                  mutant.exit_code, mutant.spec.to_string().c_str());
    }
  }

  static std::string label(const fault::MutantResult& mutant) {
    return format("(%s) %s",
                  std::string(fault::to_string(mutant.outcome)).c_str(),
                  mutant.spec.to_string().c_str());
  }
};

}  // namespace

int main(int argc, char** argv) {
  return s4e::tools::campaign_main<Faultsim>(argc, argv);
}

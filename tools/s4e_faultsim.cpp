// s4e-faultsim — fault-effect campaign on an ELF.
//
//   s4e-faultsim file.elf [fault knobs] [--list] [campaign flags]
//
// The knobs (--harts, --mutants, --seed, --blind, --no-gpr, --no-mem,
// --no-code, --triage) are declared in fault::FaultModel::kKnobs and
// campaign::kDriverKnobs. --harts N runs every mutant (and the golden
// reference) on an N-hart SMP machine; GPR faults then target an
// RNG-chosen hart. Static triage is forced off for N > 1 (single-stream
// reasoning is unsound under SMP).
//
// The campaign flags shared with s4e-mutate (jobs, observability and fleet
// mode) are documented in tools/campaign_main.hpp.
#include "fault/fault.hpp"
#include "tools/campaign_main.hpp"

namespace {

using namespace s4e;

struct Faultsim {
  using Model = fault::FaultModel;
  static constexpr const char* kName = "s4e-faultsim";
  static constexpr const char* kTag = "faultsim";
  static constexpr const auto& kProgress = Model::kBucketNames;
  static constexpr const char* kListFlag = "--list";

  static void list(const fault::CampaignResult& result) {
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

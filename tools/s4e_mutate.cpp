// s4e-mutate — binary mutation analysis of an ELF (the XEMU flow).
//
//   s4e-mutate file.elf [mutation knobs] [--survivors] [campaign flags]
//
// The knobs (--max, --all-sites, --triage) are declared in
// mutation::MutationModel::kKnobs and campaign::kDriverKnobs. The campaign
// flags shared with s4e-faultsim (jobs, observability and fleet mode) are
// documented in tools/campaign_main.hpp.
#include "mutation/mutation.hpp"
#include "tools/campaign_main.hpp"

namespace {

using namespace s4e;

struct Mutate {
  using Model = mutation::MutationModel;
  static constexpr const char* kName = "s4e-mutate";
  static constexpr const char* kTag = "mutate";
  static constexpr const char* kProgress[] = {"result", "crash", "hang",
                                              "survived"};
  static constexpr const char* kListFlag = "--survivors";

  static void list(const mutation::MutationScore& score) {
    std::printf("\nsurviving mutants:\n");
    for (const auto& result : score.results) {
      if (result.verdict != mutation::Verdict::kSurvived) continue;
      std::printf("  0x%08x  %-14s %s\n", result.mutant.address,
                  std::string(mutation::to_string(result.mutant.op)).c_str(),
                  result.mutant.description.c_str());
    }
  }

  static std::string label(const mutation::MutantResult& result) {
    return format("(%s) 0x%08x %s",
                  std::string(mutation::to_string(result.verdict)).c_str(),
                  result.mutant.address, result.mutant.description.c_str());
  }
};

}  // namespace

int main(int argc, char** argv) {
  return s4e::tools::campaign_main<Mutate>(argc, argv);
}

// s4e-mutate — binary mutation analysis of an ELF (the XEMU flow).
//
//   s4e-mutate file.elf [--max N] [--all-sites] [--survivors]
//              [campaign flags]
//
// The campaign flags shared with s4e-faultsim (jobs, triage, observability
// and fleet mode) are documented in tools/campaign_main.hpp.
#include "mutation/mutation.hpp"
#include "tools/campaign_main.hpp"

namespace {

using namespace s4e;

struct Mutate {
  using Model = mutation::MutationModel;
  static constexpr const char* kName = "s4e-mutate";
  static constexpr const char* kTag = "mutate";
  static constexpr fleet::Mode kMode = fleet::Mode::kMutation;
  static constexpr const char* kUsage =
      "usage: s4e-mutate <file.elf> [--max N] [--all-sites] [--survivors] ";
  static constexpr const char* kProgress[] = {"result", "crash", "hang",
                                              "survived"};
  static constexpr const char* kValueKeys[] = {"--max"};
  static constexpr const char* kFlagKeys[] = {"--all-sites", "--survivors"};

  static void configure(const tools::Args& args,
                        mutation::MutationConfig& config) {
    config.executed_only = !args.has("--all-sites");
    config.max_mutants = static_cast<unsigned>(
        args.integer("--max", config.max_mutants, 0, 0xffffffffLL));
  }

  static u64 fingerprint(const std::string& elf,
                         const mutation::MutationConfig& config) {
    return fleet::campaign_fingerprint(elf, kMode, 0, 0, config.max_mutants,
                                       config.shard_count);
  }

  static void list(const tools::Args& args,
                   const mutation::MutationScore& score) {
    if (!args.has("--survivors")) return;
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

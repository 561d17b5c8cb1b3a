// s4e-lint — static binary linter over the reconstructed CFG.
//
// Runs the data-flow analysis (abstract register values, liveness,
// reachability, indirect-target resolution) and reports uninitialized
// register reads, unreachable code, dead register writes, stack imbalance
// and static stack depth, memory-policy violations and unresolved indirect
// jumps. Accepts an ELF or a .s source (assembled in-process).
//
//   s4e-lint <prog.elf|prog.s> [--policy file.policy] [--stack-limit BYTES]
//            [--json] [--quiet]
//
// --json prints one finding per line as a JSON object (machine-readable;
// the human report is the default and is unchanged). --stack-limit flags a
// statically-proven stack depth above BYTES (default: the VP's RAM size —
// sp starts at the top of RAM, so a deeper stack is guaranteed to
// overflow); programs whose depth cannot be bounded are not flagged by
// this check (but recursion is flagged on its own).
//
// Exit status: 0 = clean, 1 = findings reported, 2 = usage/analysis error.
#include <cstdio>

#include "asm/assembler.hpp"
#include "dataflow/lint.hpp"
#include "elf/elf32.hpp"
#include "memwatch/policy_file.hpp"
#include "tools/tool_util.hpp"
#include "vp/machine.hpp"

int main(int argc, char** argv) {
  using namespace s4e;
  static constexpr char kUsage[] =
      "usage: s4e-lint <prog.elf|prog.s> [--policy file.policy] "
      "[--stack-limit BYTES] [--json] [--quiet]\n";
  tools::Args args(argc, argv, {"--policy", "--stack-limit"},
                   {"--json", "--quiet"});
  if (const int code = tools::standard_flags(args, "s4e-lint", kUsage);
      code >= 0) {
    return code;
  }
  if (args.positional().size() != 1) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string& path = args.positional()[0];

  Result<assembler::Program> program =
      ends_with(path, ".s")
          ? [&]() -> Result<assembler::Program> {
              auto source = tools::read_file(path);
              if (!source.ok()) return source.error();
              return assembler::assemble(*source);
            }()
          : elf::read_elf_file(path);
  if (!program.ok()) {
    std::fprintf(stderr, "s4e-lint: %s\n", program.error().to_string().c_str());
    return 2;
  }

  memwatch::Policy policy;
  dataflow::LintOptions options;
  if (args.has("--policy")) {
    auto text = tools::read_file(args.value("--policy"));
    if (!text.ok()) {
      std::fprintf(stderr, "s4e-lint: %s\n", text.error().to_string().c_str());
      return 2;
    }
    auto parsed = memwatch::parse_policy(*text, program->symbols);
    if (!parsed.ok()) {
      std::fprintf(stderr, "s4e-lint: %s\n",
                   parsed.error().to_string().c_str());
      return 2;
    }
    policy = std::move(*parsed);
    options.policy = &policy;
  }
  options.stack_limit = args.integer(
      "--stack-limit", static_cast<i64>(vp::MachineConfig{}.ram_size), 0,
      std::numeric_limits<i64>::max());

  auto report = dataflow::lint_program(*program, options);
  if (!report.ok()) {
    std::fprintf(stderr, "s4e-lint: %s\n", report.error().to_string().c_str());
    return 2;
  }
  if (args.has("--json")) {
    for (const auto& finding : report->findings) {
      std::printf("%s\n", finding.to_json().c_str());
    }
  } else if (!args.has("--quiet")) {
    std::printf("%s", report->to_string().c_str());
  }
  return tools::finish_stdout("s4e-lint", report->clean() ? 0 : 1);
}

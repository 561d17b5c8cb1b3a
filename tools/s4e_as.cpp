// s4e-as — assemble a .s file into an ELF32 executable.
//
//   s4e-as input.s -o output.elf [--text-base 0x80000000] [--data-base ...]
//   s4e-as --workload fir -o fir.elf     (assemble a built-in workload)
//   s4e-as --list-workloads
#include <cstdio>

#include "asm/assembler.hpp"
#include "core/workloads.hpp"
#include "elf/elf32.hpp"
#include "tools/tool_util.hpp"

int main(int argc, char** argv) {
  using namespace s4e;
  static constexpr char kUsage[] =
      "usage: s4e-as <input.s> -o <out.elf> [--compress] "
      "[--text-base ADDR] [--data-base ADDR]\n"
      "       s4e-as --workload <name> -o <out.elf>\n"
      "       s4e-as --list-workloads\n";
  tools::Args args(argc, argv,
                   {"-o", "--workload", "--text-base", "--data-base"},
                   {"--compress", "--list-workloads"});
  if (const int code = tools::standard_flags(args, "s4e-as", kUsage);
      code >= 0) {
    return code;
  }

  if (args.has("--list-workloads")) {
    for (const auto& workload : core::standard_workloads()) {
      std::printf("%-12s %s\n", workload.name.c_str(),
                  workload.description.c_str());
    }
    return tools::finish_stdout("s4e-as");
  }

  std::string source;
  if (args.has("--workload")) {
    auto workload = core::find_workload(args.value("--workload"));
    if (!workload.ok()) {
      std::fprintf(stderr, "%s\n", workload.error().to_string().c_str());
      return 1;
    }
    source = workload->source;
  } else if (!args.positional().empty()) {
    auto text = tools::read_file(args.positional()[0]);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.error().to_string().c_str());
      return 1;
    }
    source = *text;
  } else {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  assembler::Options options;
  options.compress = args.has("--compress");
  options.text_base = static_cast<u32>(
      args.integer("--text-base", options.text_base, 0, 0xffffffffLL));
  options.data_base = static_cast<u32>(
      args.integer("--data-base", options.data_base, 0, 0xffffffffLL));

  auto program = assembler::assemble(source, options);
  if (!program.ok()) {
    std::fprintf(stderr, "s4e-as: %s\n", program.error().to_string().c_str());
    return 1;
  }

  const std::string output = args.value("-o", "a.out");
  if (auto status = elf::write_elf_file(*program, output); !status.ok()) {
    std::fprintf(stderr, "s4e-as: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("s4e-as: wrote %s (%zu bytes of sections, entry 0x%08x)\n",
              output.c_str(), program->image_size(), program->entry);
  return tools::finish_stdout("s4e-as");
}

// s4e-objdump — inspect an ELF produced by s4e-as.
//
//   s4e-objdump file.elf            disassemble .text (default)
//   s4e-objdump -t file.elf         symbol table
//   s4e-objdump --cfg file.elf      Graphviz dump of the reconstructed CFG
//   s4e-objdump --annot file.elf    .loopbound annotations
#include <cstdio>

#include "cfg/cfg.hpp"
#include "elf/elf32.hpp"
#include "isa/disasm.hpp"
#include "isa/rvc.hpp"
#include "tools/tool_util.hpp"

int main(int argc, char** argv) {
  using namespace s4e;
  static constexpr char kUsage[] =
      "usage: s4e-objdump [-t|--cfg|--annot] <file.elf>\n";
  tools::Args args(argc, argv, {}, {"-t", "--cfg", "--annot"});
  if (const int code = tools::standard_flags(args, "s4e-objdump", kUsage);
      code >= 0) {
    return code;
  }
  if (args.positional().empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  auto program = elf::read_elf_file(args.positional()[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "s4e-objdump: %s\n",
                 program.error().to_string().c_str());
    return 1;
  }

  if (args.has("-t")) {
    for (const auto& [name, value] : program->symbols) {
      std::printf("%08x  %s\n", value, name.c_str());
    }
    return 0;
  }
  if (args.has("--annot")) {
    for (const auto& bound : program->loop_bounds) {
      std::printf("loopbound 0x%08x %u\n", bound.address, bound.bound);
    }
    return 0;
  }
  if (args.has("--cfg")) {
    auto cfg = cfg::build_cfg(*program);
    if (!cfg.ok()) {
      std::fprintf(stderr, "s4e-objdump: %s\n",
                   cfg.error().to_string().c_str());
      return 1;
    }
    std::fputs(cfg::to_dot(*cfg).c_str(), stdout);
    return 0;
  }

  // Disassembly of .text with symbol labels.
  const assembler::Section* text = program->find_section(".text");
  if (text == nullptr) {
    std::fprintf(stderr, "s4e-objdump: no .text section\n");
    return 1;
  }
  std::printf("Disassembly of .text (base 0x%08x, entry 0x%08x):\n\n",
              text->base, program->entry);
  u32 offset = 0;
  while (offset + 2 <= text->bytes.size()) {
    const u32 address = text->base + offset;
    for (const auto& [name, value] : program->symbols) {
      if (value == address) std::printf("%s:\n", name.c_str());
    }
    auto half = program->read_half(address);
    if (!half.ok()) break;
    const bool compressed = isa::is_compressed(static_cast<u16>(*half));
    u32 bits = *half;
    if (!compressed) {
      auto word = program->read_word(address);
      if (!word.ok()) break;
      bits = *word;
    }
    auto instr = isa::decode_parcel(bits);
    const std::string text =
        instr.ok() ? isa::disassemble_at(*instr, address)
                   : (compressed ? ".half" : ".word");
    // The encoding column is 10 wide: 4 hex digits for a parcel, 8 for a
    // word.
    std::printf("  %08x:  %-10s%s\n", address,
                format("%0*x", compressed ? 4 : 8, bits).c_str(),
                text.c_str());
    offset += compressed ? 2 : 4;
  }
  return tools::finish_stdout("s4e-objdump");
}

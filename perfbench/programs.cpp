#include "programs.hpp"

#include "asm/assembler.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/workloads.hpp"
#include "testgen/testgen.hpp"

namespace perfbench {

using s4e::format;
using s4e::Rng;

std::vector<Source> standard_sources() {
  std::vector<Source> sources;
  for (const s4e::core::Workload& workload :
       s4e::core::standard_workloads()) {
    if (workload.name.rfind("smp_", 0) == 0) continue;
    sources.push_back({workload.name, workload.source, workload.expected_exit});
  }
  return sources;
}

std::vector<Source> torture_sources(u64 seed, unsigned count) {
  s4e::testgen::TortureConfig config;
  config.seed = seed;
  config.programs = count;
  config.segments = 60;
  config.use_csr = false;
  std::vector<Source> sources;
  for (s4e::testgen::GeneratedProgram& generated :
       s4e::testgen::torture_suite(config)) {
    sources.push_back({"torture_" + generated.name,
                       std::move(generated.source), std::nullopt});
  }
  return sources;
}

namespace {

constexpr const char* kKernelRegs[] = {"s1", "t1", "t2", "t3", "t4"};
constexpr const char* kKernelSrcs[] = {"s0", "s1", "t1", "t2", "t3", "t4"};

const char* pick(Rng& rng, const char* const* items, unsigned count) {
  return items[rng.next_below(count)];
}

// One seeded ALU instruction over the kernel's scratch registers; never
// writes s0 (loop counter) or t0 (buffer pointer).
std::string alu_insn(Rng& rng) {
  static constexpr const char* kRegOps[] = {"add", "sub", "xor", "or", "and"};
  static constexpr const char* kImmOps[] = {"addi", "xori", "andi"};
  static constexpr const char* kShiftOps[] = {"slli", "srli"};
  const char* rd = pick(rng, kKernelRegs, 5);
  const char* rs1 = pick(rng, kKernelSrcs, 6);
  switch (rng.next_below(3)) {
    case 0:
      return format("    %s %s, %s, %s\n", pick(rng, kRegOps, 5), rd, rs1,
                    pick(rng, kKernelSrcs, 6));
    case 1:
      return format("    %s %s, %s, %d\n", pick(rng, kImmOps, 3), rd, rs1,
                    static_cast<int>(rng.next_below(2048)));
    default:
      return format("    %s %s, %s, %u\n", pick(rng, kShiftOps, 2), rd, rs1,
                    1 + rng.next_below(7));
  }
}

}  // namespace

Source kernel_source(u64 seed, unsigned index, unsigned iterations) {
  Rng rng(seed * 0x100000001b3ULL + index);
  std::string text = format(
      "_start:\n"
      "    li s0, %u\n"
      "    li s1, %u\n"
      "    la t0, buffer\n"
      "loop:\n"
      "    .loopbound %u\n"
      "    mul t1, s0, s0\n",
      iterations, rng.next_below(1u << 20), iterations);
  // Fixed mix per iteration: 34 ALU ops, a second multiply, an iterative
  // divide, a store/load pair and a data-independent skip branch.
  for (unsigned slot = 0; slot < 34; ++slot) {
    if (slot == 17) text += "    mul t2, t1, s1\n";
    text += alu_insn(rng);
  }
  text +=
      "    add s1, s1, t1\n"
      "    divu t2, t1, s0\n"
      "    xor s1, s1, t2\n"
      "    sw s1, 0(t0)\n"
      "    lw t4, 0(t0)\n"
      "    add s1, s1, t4\n"
      "    andi t5, s0, 3\n"
      "    beqz t5, skip\n"
      "    addi s1, s1, 1\n"
      "skip:\n"
      "    addi s0, s0, -1\n"
      "    bnez s0, loop\n"
      "    andi a0, s1, 127\n"
      "    li a7, 93\n"
      "    ecall\n"
      ".data\n"
      "buffer:\n"
      "    .space 16\n";
  return {format("kernel%u", index), std::move(text), std::nullopt};
}

Source large_footprint_source(u64 seed, unsigned iterations) {
  // 768 segments of xorshift32 mixing plus one data-dependent forward
  // branch: two translation blocks per segment, about 1.5k in all against
  // the 1024-entry front cache.
  constexpr unsigned kSegments = 768;
  Rng rng(seed ^ 0x5eed'f007'9a1dULL);
  std::string text = format(
      "_start:\n"
      "    li s0, %u\n"
      "    li s1, %u\n"
      "    li s2, 0\n"
      "outer:\n"
      "    .loopbound %u\n",
      iterations, 1 + rng.next_below(0x7fffffff), iterations);
  for (unsigned segment = 0; segment < kSegments; ++segment) {
    text += format(
        "    slli t1, s1, 13\n"
        "    xor s1, s1, t1\n"
        "    srli t1, s1, 17\n"
        "    xor s1, s1, t1\n"
        "    slli t1, s1, 5\n"
        "    xor s1, s1, t1\n"
        "    andi t5, s1, %u\n"
        "    beqz t5, seg%u\n"
        "    addi s2, s2, %u\n"
        "seg%u:\n",
        1u << rng.next_below(11), segment, 1 + rng.next_below(1000),
        segment);
  }
  text +=
      "    addi s0, s0, -1\n"
      "    beqz s0, done\n"
      "    j outer\n"
      "done:\n"
      "    xor a0, s1, s2\n"
      "    andi a0, a0, 127\n"
      "    li a7, 93\n"
      "    ecall\n";
  return {"large_footprint", std::move(text), std::nullopt};
}

bool assemble_all(const std::vector<Source>& sources, Tracer& tracer,
                  std::vector<BenchProgram>& out, std::string& error) {
  out.clear();
  out.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const Source& source = sources[i];
    s4e::Result<s4e::assembler::Program> program = [&] {
      Tracer::Scope span(tracer, 0, "asm.assemble", static_cast<u32>(i));
      return s4e::assembler::assemble(source.text);
    }();
    if (!program.ok()) {
      error = source.name + ": " + program.error().to_string();
      return false;
    }
    out.push_back({source.name, std::move(*program), source.expected_exit});
  }
  return true;
}

}  // namespace perfbench

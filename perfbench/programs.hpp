// Benchmark inputs. Every program is generated or taken from the
// repository's standard workloads and assembled here; the seed changes
// operands, fault lists and generated code, never the amount of work a
// workload is built to do.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "tracer.hpp"

namespace perfbench {

struct BenchProgram {
  std::string name;
  s4e::assembler::Program program;
  std::optional<int> expected_exit;  // known for the standard workloads
};

struct Source {
  std::string name;
  std::string text;
  std::optional<int> expected_exit;
};

// The single-hart standard workloads (core::standard_workloads() minus the
// SMP programs, which need a multi-hart machine).
std::vector<Source> standard_sources();

// Seeded testgen torture programs without CSR access, shaped so each
// yields about two thousand mutation candidates.
std::vector<Source> torture_sources(u64 seed, unsigned count);

// Seeded counted-loop kernel over every latency class the trace replay
// charges differently (the shape of bench_replay's kernel). The seed picks
// operands and immediates; the instruction mix and count are fixed by
// `iterations`.
Source kernel_source(u64 seed, unsigned index, unsigned iterations);

// Seeded loop whose body spans more translation blocks than the TB cache's
// direct-mapped front cache has entries.
Source large_footprint_source(u64 seed, unsigned iterations);

// Assemble every source, one "asm.assemble" span each. Returns false (and
// names the failing program in `error`) when a source does not assemble.
bool assemble_all(const std::vector<Source>& sources, Tracer& tracer,
                  std::vector<BenchProgram>& out, std::string& error);

}  // namespace perfbench

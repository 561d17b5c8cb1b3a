// CLI tool smoke tests: drive the installed binaries through the same
// pipeline a user would (as -> objdump/wcet -> qta/run/faultsim) and check
// exit codes and key output fragments. Tool location comes from the build
// system via S4E_TOOL_DIR.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#ifndef S4E_TOOL_DIR
#error "S4E_TOOL_DIR must be defined by the build system"
#endif
#ifndef S4E_SOURCE_DIR
#error "S4E_SOURCE_DIR must be defined by the build system"
#endif

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

// `with_stderr` off captures stdout alone (stderr goes to the test log).
CommandResult run_command(const std::string& command,
                          bool with_stderr = true) {
  CommandResult result;
  const std::string full = with_stderr ? command + " 2>&1" : command;
  FILE* pipe = popen(full.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string tool(const std::string& name) {
  return std::string(S4E_TOOL_DIR) + "/" + name;
}

// Unique per test and per process: ctest -j runs every discovered test as
// its own concurrent process, so shared fixture files must not collide.
std::string temp_path(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" +
         (info != nullptr ? std::string(info->name()) + "_" : "") + name;
}

class ToolPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    elf_ = temp_path("tools_fir.elf");
    auto result =
        run_command(tool("s4e-as") + " --workload fir -o " + elf_);
    ASSERT_EQ(result.exit_code, 0) << result.output;
  }
  void TearDown() override { std::remove(elf_.c_str()); }

  std::string elf_;
};

TEST(ToolAs, ListWorkloads) {
  auto result = run_command(tool("s4e-as") + " --list-workloads");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("checksum"), std::string::npos);
  EXPECT_NE(result.output.find("lock_ctrl"), std::string::npos);
}

TEST(ToolAs, RejectsMissingInput) {
  auto result = run_command(tool("s4e-as"));
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage"), std::string::npos);
}

TEST(ToolAs, RejectsUnknownWorkload) {
  auto result = run_command(tool("s4e-as") + " --workload nope -o /dev/null");
  EXPECT_EQ(result.exit_code, 1);
}

TEST(ToolAs, AssemblesSourceFile) {
  const std::string source_path = temp_path("tools_tiny.s");
  const std::string elf_path = temp_path("tools_tiny.elf");
  FILE* f = std::fopen(source_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("li a0, 7\nli a7, 93\necall\n", f);
  std::fclose(f);
  auto assembled =
      run_command(tool("s4e-as") + " " + source_path + " -o " + elf_path);
  EXPECT_EQ(assembled.exit_code, 0) << assembled.output;
  auto run = run_command(tool("s4e-run") + " " + elf_path);
  EXPECT_EQ(run.exit_code, 7);
  std::remove(source_path.c_str());
  std::remove(elf_path.c_str());
}

TEST(ToolAs, ReportsAssemblyErrorWithLine) {
  const std::string source_path = temp_path("tools_bad.s");
  FILE* f = std::fopen(source_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("nop\nfrobnicate a0\n", f);
  std::fclose(f);
  auto result =
      run_command(tool("s4e-as") + " " + source_path + " -o /dev/null");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("line 2"), std::string::npos);
  std::remove(source_path.c_str());
}

TEST_F(ToolPipeline, RunExitsWithWorkloadCode) {
  auto result = run_command(tool("s4e-run") + " " + elf_ + " --stats");
  EXPECT_EQ(result.exit_code, 192);  // fir's expected exit code
  EXPECT_NE(result.output.find("insns"), std::string::npos);
  EXPECT_NE(result.output.find("tb-cache"), std::string::npos);
}

TEST_F(ToolPipeline, RunHonorsMaxInsns) {
  auto result = run_command(tool("s4e-run") + " " + elf_ + " --max-insns 10");
  EXPECT_EQ(result.exit_code, 124);
}

TEST_F(ToolPipeline, RunTraceEmitsJsonl) {
  // Bare --trace streams the JSONL events to stderr.
  auto result = run_command(tool("s4e-run") + " " + elf_ +
                            " --trace --trace-limit 5");
  EXPECT_NE(result.output.find("{\"t\":\"insn\",\"n\":1,"), std::string::npos);
  EXPECT_NE(result.output.find("lui"), std::string::npos);
  EXPECT_NE(result.output.find("{\"t\":\"exit\","), std::string::npos);
}

TEST_F(ToolPipeline, RunTraceToFile) {
  const std::string trace_path = temp_path("trace.jsonl");
  auto result = run_command(tool("s4e-run") + " " + elf_ + " --trace=" +
                            trace_path + " --trace-limit 8");
  EXPECT_EQ(result.exit_code, 192);
  // Run report stays clean of trace lines when tracing to a file.
  EXPECT_EQ(result.output.find("{\"t\":"), std::string::npos);
  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(trace, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"t\":"), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 9u);  // 8 insn/mem events + the exit line
  std::remove(trace_path.c_str());
}

TEST_F(ToolPipeline, RunCoverageReport) {
  auto result = run_command(tool("s4e-run") + " " + elf_ + " --coverage");
  EXPECT_NE(result.output.find("GPR coverage"), std::string::npos);
}

TEST_F(ToolPipeline, ObjdumpDisassembles) {
  auto result = run_command(tool("s4e-objdump") + " " + elf_);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("_start:"), std::string::npos);
  EXPECT_NE(result.output.find("dot4:"), std::string::npos);
  EXPECT_NE(result.output.find("mul"), std::string::npos);
}

TEST_F(ToolPipeline, ObjdumpSymbols) {
  auto result = run_command(tool("s4e-objdump") + " -t " + elf_);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("dot_loop"), std::string::npos);
}

TEST_F(ToolPipeline, ObjdumpCfgDot) {
  auto result = run_command(tool("s4e-objdump") + " --cfg " + elf_);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("digraph"), std::string::npos);
}

TEST_F(ToolPipeline, WcetQtaRoundTrip) {
  const std::string cfg_path = temp_path("tools_fir.qtacfg");
  auto wcet = run_command(tool("s4e-wcet") + " " + elf_ + " --emit-cfg " +
                          cfg_path);
  EXPECT_EQ(wcet.exit_code, 0) << wcet.output;
  EXPECT_NE(wcet.output.find("total static WCET"), std::string::npos);
  EXPECT_NE(wcet.output.find("dot4"), std::string::npos);

  auto qta = run_command(tool("s4e-qta") + " " + elf_ + " " + cfg_path);
  EXPECT_EQ(qta.exit_code, 0) << qta.output;
  EXPECT_NE(qta.output.find("static WCET bound"), std::string::npos);
  EXPECT_EQ(qta.output.find("VIOLATED"), std::string::npos);
  std::remove(cfg_path.c_str());
}

TEST_F(ToolPipeline, QtaRejectsMismatchedCfg) {
  // An annotated CFG for a different entry must be refused.
  const std::string cfg_path = temp_path("tools_mismatch.qtacfg");
  FILE* f = std::fopen(cfg_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("qta-cfg v1\nprogram x entry 0x12345678\npenalty 2\n"
             "wcet_total 10\n",
             f);
  std::fclose(f);
  auto result = run_command(tool("s4e-qta") + " " + elf_ + " " + cfg_path);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("does not match"), std::string::npos);
  std::remove(cfg_path.c_str());
}

TEST_F(ToolPipeline, FaultsimRunsCampaign) {
  auto result = run_command(tool("s4e-faultsim") + " " + elf_ +
                            " --mutants 25 --seed 3 --list");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("masked"), std::string::npos);
  EXPECT_NE(result.output.find("#000"), std::string::npos);
}

TEST_F(ToolPipeline, FaultsimMetricsOut) {
  const std::string metrics_path = temp_path("metrics.json");
  auto result = run_command(tool("s4e-faultsim") + " " + elf_ +
                            " --mutants 20 --seed 3 --jobs 1 --metrics-out " +
                            metrics_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics.good());
  std::string content((std::istreambuf_iterator<char>(metrics)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"s4e-faultsim\""), std::string::npos) << content;
  EXPECT_NE(content.find("\"mutants_total\": 20"), std::string::npos)
      << content;
  std::remove(metrics_path.c_str());
}

TEST_F(ToolPipeline, FaultsimMetricsOutUnwritable) {
  auto result = run_command(tool("s4e-faultsim") + " " + elf_ +
                            " --mutants 5 --jobs 1 --metrics-out "
                            "/nonexistent-dir/metrics.json");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("cannot open"), std::string::npos)
      << result.output;
}

TEST_F(ToolPipeline, FaultsimWorkerModeWritesMetrics) {
  // Fleet worker mode streams JSONL on stdout; the telemetry still goes to
  // --metrics-out, covering just the shard (items [0, 10) of 20).
  const std::string metrics_path = temp_path("metrics.json");
  auto result = run_command(tool("s4e-faultsim") + " " + elf_ +
                                " --mutants 20 --seed 3 --jobs 1 --shard 0/2"
                                " --emit-jsonl --metrics-out " +
                                metrics_path,
                            false);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(result.output.find("mutants_total"), std::string::npos)
      << result.output;
  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics.good());
  std::string content((std::istreambuf_iterator<char>(metrics)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"s4e-faultsim\""), std::string::npos) << content;
  EXPECT_NE(content.find("\"mutants_total\": 10,"), std::string::npos)
      << content;
  std::remove(metrics_path.c_str());
}

TEST_F(ToolPipeline, RunProfileReport) {
  auto result = run_command(tool("s4e-run") + " " + elf_ + " --profile");
  EXPECT_NE(result.output.find("hot blocks"), std::string::npos);
  EXPECT_NE(result.output.find("dot_loop"), std::string::npos);
}

TEST_F(ToolPipeline, MutateScoresOracle) {
  auto result = run_command(tool("s4e-mutate") + " " + elf_ +
                            " --max 60 --survivors");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("mutation analysis"), std::string::npos);
  EXPECT_NE(result.output.find("killed"), std::string::npos);
}

TEST(ToolAs, CompressedBinaryRunsIdentically) {
  const std::string plain_elf = temp_path("tools_cmp_plain.elf");
  const std::string rvc_elf = temp_path("tools_cmp_rvc.elf");
  ASSERT_EQ(run_command(tool("s4e-as") + " --workload checksum -o " +
                        plain_elf)
                .exit_code,
            0);
  ASSERT_EQ(run_command(tool("s4e-as") + " --workload checksum --compress -o " +
                        rvc_elf)
                .exit_code,
            0);
  auto plain_run = run_command(tool("s4e-run") + " " + plain_elf);
  auto rvc_run = run_command(tool("s4e-run") + " " + rvc_elf);
  EXPECT_EQ(plain_run.exit_code, rvc_run.exit_code);
  // Disassembly of the compressed binary shows 16-bit encodings.
  auto dump = run_command(tool("s4e-objdump") + " " + rvc_elf);
  EXPECT_NE(dump.output.find("sum_loop"), std::string::npos);
  std::remove(plain_elf.c_str());
  std::remove(rvc_elf.c_str());
}

TEST(ToolCov, MergedCoverageAcrossBinaries) {
  const std::string a = temp_path("tools_cov_a.elf");
  const std::string b = temp_path("tools_cov_b.elf");
  ASSERT_EQ(run_command(tool("s4e-as") + " --workload checksum -o " + a)
                .exit_code,
            0);
  ASSERT_EQ(run_command(tool("s4e-as") + " --workload crc32 -o " + b)
                .exit_code,
            0);
  auto result = run_command(tool("s4e-cov") + " " + a + " " + b);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("merged over 2 binaries"), std::string::npos);
  EXPECT_NE(result.output.find("GPR coverage"), std::string::npos);
  auto per = run_command(tool("s4e-cov") + " " + a + " --per-binary");
  EXPECT_NE(per.output.find(a), std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(ToolTestgen, DumpsSuitesAndElfs) {
  const std::string dir = temp_path("tools_suites");
  auto result = run_command(tool("s4e-testgen") + " " + dir +
                            " --suite torture --count 2 --seed 9 --elf");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("wrote 2 programs"), std::string::npos);
  // The dumped ELF runs to exit 0 through s4e-run.
  auto run = run_command(tool("s4e-run") + " " + dir + "/torture_000.elf");
  EXPECT_EQ(run.exit_code, 0);
  run_command("rm -rf " + dir);
}

// ---------------------------------------------------------------------------
// Flag hygiene, shared across every tool: unknown options are rejected with
// a did-you-mean hint, and --help documents every flag the parser accepts
// (enforced by diffing --list-flags against the help text).

const char* kAllTools[] = {"s4e-as",       "s4e-objdump", "s4e-run",
                           "s4e-wcet",     "s4e-qta",     "s4e-faultsim",
                           "s4e-mutate",   "s4e-cov",     "s4e-lint",
                           "s4e-testgen",  "s4e-campaignd"};

TEST(ToolFlags, UnknownFlagIsRejectedWithSuggestion) {
  auto run = run_command(tool("s4e-run") + " x.elf --max-isns 10");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("unknown option '--max-isns'"),
            std::string::npos);
  EXPECT_NE(run.output.find("did you mean '--max-insns'?"),
            std::string::npos);

  auto faultsim = run_command(tool("s4e-faultsim") + " x.elf --mutant 5");
  EXPECT_EQ(faultsim.exit_code, 2);
  EXPECT_NE(faultsim.output.find("did you mean '--mutants'?"),
            std::string::npos);

  auto mutate = run_command(tool("s4e-mutate") + " x.elf --survivor");
  EXPECT_EQ(mutate.exit_code, 2);
  EXPECT_NE(mutate.output.find("did you mean '--survivors'?"),
            std::string::npos);

  // Far-off typos get a plain rejection, not a wild guess.
  auto wild = run_command(tool("s4e-run") + " x.elf --frobnicate");
  EXPECT_EQ(wild.exit_code, 2);
  EXPECT_NE(wild.output.find("unknown option '--frobnicate'"),
            std::string::npos);
  EXPECT_EQ(wild.output.find("did you mean"), std::string::npos);
}

// Value flags fail loudly: a missing, non-numeric or out-of-range value is
// a usage error (exit 2, naming the flag), never a silent default — and
// neither is a value flag given last, with no value to take.
TEST(ToolFlags, BadOrMissingValueIsRejected) {
  const std::string elf_path = temp_path("tools_numeric.elf");
  ASSERT_EQ(run_command(tool("s4e-as") + " --workload bubble_sort -o " +
                        elf_path)
                .exit_code,
            0);
  const struct {
    const char* tool;
    const char* args;
    const char* flag;
  } cases[] = {
      {"s4e-faultsim", "--mutants 12x", "--mutants"},
      {"s4e-faultsim", "--seed abc", "--seed"},
      {"s4e-faultsim", "--harts 0", "--harts"},
      {"s4e-mutate", "--max -5", "--max"},
      {"s4e-mutate", "--jobs", "--jobs"},  // trailing, no value
      {"s4e-faultsim", "--jobs 5000", "--jobs"},
      {"s4e-campaignd", "--worker-jobs 9999", "--worker-jobs"},
      {"s4e-campaignd", "--workers x", "--workers"},
      {"s4e-campaignd", "--checkpoint", "--checkpoint"},
      {"s4e-faultsim", "--metrics-out", "--metrics-out"},
      {"s4e-mutate", "--post-mortem-dir", "--post-mortem-dir"},
      {"s4e-campaignd", "--worker", "--worker"},
      {"s4e-faultsim", "--shard", "--shard"},
  };
  for (const auto& c : cases) {
    auto result =
        run_command(tool(c.tool) + " " + elf_path + " " + c.args);
    EXPECT_EQ(result.exit_code, 2) << c.tool << " " << c.args << ": "
                                   << result.output;
    EXPECT_NE(result.output.find(std::string(c.tool) + ": " + c.flag +
                                 " expects"),
              std::string::npos)
        << c.tool << " " << c.args << ": " << result.output;
  }
  std::remove(elf_path.c_str());
}

// --seed takes every value it declares (0..2^63-1), and only those.
TEST(ToolFlags, SeedTakesTheWholeDeclaredRange) {
  const std::string elf_path = temp_path("tools_seed.elf");
  ASSERT_EQ(run_command(tool("s4e-as") + " --workload bubble_sort -o " +
                        elf_path)
                .exit_code,
            0);
  const auto big = run_command(tool("s4e-faultsim") + " " + elf_path +
                               " --mutants 5 --seed 20261016000048");
  EXPECT_EQ(big.exit_code, 0) << big.output;
  const auto past = run_command(tool("s4e-faultsim") + " " + elf_path +
                                " --mutants 5 --seed 9223372036854775808");
  EXPECT_EQ(past.exit_code, 2) << past.output;
  EXPECT_NE(past.output.find("s4e-faultsim: --seed expects"),
            std::string::npos)
      << past.output;
  std::remove(elf_path.c_str());
}

TEST(ToolFlags, EveryToolRejectsUnknownFlags) {
  for (const char* name : kAllTools) {
    auto result = run_command(tool(name) + " --no-such-flag-zz");
    EXPECT_EQ(result.exit_code, 2) << name << ": " << result.output;
    EXPECT_NE(result.output.find("unknown option"), std::string::npos)
        << name;
  }
}

TEST(ToolFlags, HelpDocumentsEveryParsedFlag) {
  for (const char* name : kAllTools) {
    auto flags = run_command(tool(name) + " --list-flags");
    ASSERT_EQ(flags.exit_code, 0) << name;
    auto help = run_command(tool(name) + " --help");
    ASSERT_EQ(help.exit_code, 0) << name;
    EXPECT_NE(help.output.find("usage:"), std::string::npos) << name;
    std::size_t start = 0;
    while (start < flags.output.size()) {
      std::size_t end = flags.output.find('\n', start);
      if (end == std::string::npos) end = flags.output.size();
      const std::string flag = flags.output.substr(start, end - start);
      start = end + 1;
      if (flag.empty()) continue;
      EXPECT_NE(help.output.find(flag), std::string::npos)
          << name << " --help does not mention " << flag;
    }
  }
}

TEST(ToolFlags, BrokenStdoutIsReportedNotSilent) {
  // /dev/full makes every stdout write fail with ENOSPC — a deterministic
  // stand-in for the closed-pipe (`tool | head`) case. Tools must exit 1
  // with a diagnostic on stderr instead of pretending the report was
  // written (or dying to SIGPIPE with no message at all).
  for (const char* name : kAllTools) {
    auto result =
        run_command("sh -c '" + tool(name) + " --help > /dev/full'");
    EXPECT_EQ(result.exit_code, 1) << name << ": " << result.output;
    EXPECT_NE(result.output.find("error writing to stdout"),
              std::string::npos)
        << name << ": " << result.output;
  }
}

TEST(ToolFaultsim, BrokenStdoutAfterCampaignExitsNonZero) {
  // The full-report path (not just --help) must also surface the write
  // failure: a fault campaign whose report went nowhere is not a success.
  const std::string elf_path = temp_path("tools_full.elf");
  auto assembled =
      run_command(tool("s4e-as") + " --workload checksum -o " + elf_path);
  ASSERT_EQ(assembled.exit_code, 0);
  auto result = run_command("sh -c '" + tool("s4e-faultsim") + " " +
                            elf_path + " --mutants 5 > /dev/full'");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("error writing to stdout"), std::string::npos)
      << result.output;
  std::remove(elf_path.c_str());
}

// Byte-identity guard for the campaign tools: stdout of fixed campaigns,
// and the record and done lines of a fleet shard, compared byte for byte
// with reports checked in under tests/golden/.
std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(S4E_SOURCE_DIR) + "/tests/golden/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string without_meta_line(const std::string& stream) {
  std::string out;
  std::size_t start = 0;
  while (start < stream.size()) {
    std::size_t end = stream.find('\n', start);
    end = end == std::string::npos ? stream.size() : end + 1;
    const std::string line = stream.substr(start, end - start);
    if (line.find("\"meta\"") == std::string::npos) out += line;
    start = end;
  }
  return out;
}

TEST(ToolCampaign, ReportsMatchCheckedInBytes) {
  const std::string sort_elf = temp_path("tools_golden_sort.elf");
  const std::string sum_elf = temp_path("tools_golden_sum.elf");
  ASSERT_EQ(run_command(tool("s4e-as") + " --workload bubble_sort -o " +
                        sort_elf)
                .exit_code,
            0);
  ASSERT_EQ(
      run_command(tool("s4e-as") + " --workload checksum -o " + sum_elf)
          .exit_code,
      0);
  const std::string faultsim = tool("s4e-faultsim") + " " + sort_elf +
                               " --mutants 25 --seed 3 --jobs 1";
  const std::string mutate =
      tool("s4e-mutate") + " " + sum_elf + " --max 40 --jobs 1";

  auto list = run_command(faultsim + " --list", false);
  EXPECT_EQ(list.exit_code, 0);
  EXPECT_EQ(list.output, read_golden("faultsim_bubble_sort_list.txt"));
  auto survivors = run_command(mutate + " --survivors", false);
  EXPECT_EQ(survivors.exit_code, 0);
  EXPECT_EQ(survivors.output, read_golden("mutate_checksum_survivors.txt"));
  auto fault_shard =
      run_command(faultsim + " --emit-jsonl --shard 1/3", false);
  EXPECT_EQ(fault_shard.exit_code, 0);
  EXPECT_EQ(without_meta_line(fault_shard.output),
            read_golden("faultsim_bubble_sort_shard1of3.jsonl"));
  auto mutate_shard = run_command(mutate + " --emit-jsonl --shard 1/3", false);
  EXPECT_EQ(mutate_shard.exit_code, 0);
  EXPECT_EQ(without_meta_line(mutate_shard.output),
            read_golden("mutate_checksum_shard1of3.jsonl"));
  std::remove(sort_elf.c_str());
  std::remove(sum_elf.c_str());
}

// The snapshot ledger is a sum over lanes that claim items dynamically, so
// only a single lane makes it a reproducible artifact: at --jobs 1 two runs
// print the same stderr ledger byte for byte.
TEST(ToolCampaign, SnapshotLedgerIsReproducibleAtJobsOne) {
  const std::string elf = temp_path("tools_ledger_fir.elf");
  ASSERT_EQ(run_command(tool("s4e-as") + " --workload fir -o " + elf).exit_code,
            0);
  for (const std::string& campaign :
       {tool("s4e-faultsim") + " " + elf + " --mutants 400 --seed 5",
        tool("s4e-mutate") + " " + elf}) {
    // stderr into the pipe, stdout (the report) discarded.
    const std::string command =
        campaign + " --jobs 1 --snapshot-stats 2>&1 >/dev/null";
    const auto first = run_command(command, false);
    const auto second = run_command(command, false);
    ASSERT_EQ(first.exit_code, 0) << first.output;
    ASSERT_EQ(second.exit_code, 0) << second.output;
    EXPECT_NE(first.output.find("snapshot: "), std::string::npos)
        << first.output;
    EXPECT_EQ(first.output, second.output) << campaign;
  }
  std::remove(elf.c_str());
}

TEST(ToolRun, UartInputReachesGuest) {
  const std::string elf_path = temp_path("tools_lock.elf");
  auto assembled = run_command(tool("s4e-as") + " --workload lock_ctrl -o " +
                               elf_path);
  ASSERT_EQ(assembled.exit_code, 0);
  auto opened = run_command(tool("s4e-run") + " " + elf_path +
                            " --uart-input 1234");
  EXPECT_EQ(opened.exit_code, 0);
  EXPECT_NE(opened.output.find("OPEN"), std::string::npos);
  auto denied = run_command(tool("s4e-run") + " " + elf_path);
  EXPECT_EQ(denied.exit_code, 1);
  EXPECT_NE(denied.output.find("DENY"), std::string::npos);
  std::remove(elf_path.c_str());
}

}  // namespace

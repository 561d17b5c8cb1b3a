#include "core/ecosystem.hpp"

namespace s4e::core {

Result<assembler::Program> Ecosystem::build(const Workload& workload) const {
  return build_source(workload.source);
}

Result<assembler::Program> Ecosystem::build_source(
    const std::string& source) const {
  return assembler::assemble(source);
}

Result<RunOutcome> Ecosystem::run(const assembler::Program& program,
                                  const std::string& uart_input) const {
  vp::Machine machine(machine_config_);
  S4E_TRY_STATUS(machine.load_program(program));
  if (!uart_input.empty()) machine.uart()->push_rx(uart_input);
  RunOutcome outcome;
  outcome.result = machine.run();
  outcome.uart_output = machine.uart()->tx_log();
  return outcome;
}

Result<wcet::AnalysisResult> Ecosystem::analyze_wcet(
    const assembler::Program& program, const std::string& name) const {
  wcet::AnalyzerOptions options;
  options.timing = machine_config_.timing;
  options.program_name = name;
  return wcet::Analyzer(options).analyze(program);
}

Result<Ecosystem::QtaOutcome> Ecosystem::run_qta(
    const assembler::Program& program, const std::string& name) const {
  S4E_TRY(analysis, analyze_wcet(program, name));

  vp::Machine machine(machine_config_);
  S4E_TRY_STATUS(machine.load_program(program));
  qta::QtaPlugin plugin(analysis.annotated);
  plugin.attach(machine.vm_handle());

  QtaOutcome outcome;
  outcome.run.result = machine.run();
  outcome.run.uart_output = machine.uart()->tx_log();
  outcome.report = plugin.report(outcome.run.result.cycles);
  outcome.analysis = std::move(analysis);
  return outcome;
}

Result<coverage::CoverageData> Ecosystem::measure_coverage(
    const assembler::Program& program) const {
  vp::Machine machine(machine_config_);
  S4E_TRY_STATUS(machine.load_program(program));
  coverage::CoveragePlugin plugin;
  plugin.attach(machine.vm_handle());
  machine.run();
  return plugin.data();
}

Result<fault::CampaignResult> Ecosystem::run_campaign(
    const assembler::Program& program,
    const fault::CampaignConfig& config) const {
  fault::CampaignConfig campaign_config = config;
  campaign_config.machine = machine_config_;
  fault::Campaign campaign(program, campaign_config);
  return campaign.run();
}

}  // namespace s4e::core

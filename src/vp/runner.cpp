#include "vp/runner.hpp"

#include <set>
#include <utility>

#include "common/fnv1a.hpp"
#include "vp/s4e_plugin.h"

namespace s4e::vp {

u64 data_memory_hash(Machine& machine, const assembler::Program& program) {
  const assembler::Section* data = program.find_section(".data");
  if (data == nullptr || data->bytes.empty()) return 0;
  // Hashed in place: .data must lie wholly inside one RAM region.
  const Bus::RamWindow window = machine.bus().ram_window(data->base);
  if (window.data == nullptr) return 0;
  const u64 offset = u64{data->base} - window.base;
  if (offset + data->bytes.size() > window.size) return 0;
  return fnv1a(window.data + offset, data->bytes.size());
}

u64 hang_budget(u64 golden_instructions, u64 factor,
                u64 max_instructions) noexcept {
  const u64 budget = saturating_add(
      saturating_mul(golden_instructions, factor), 10'000);
  return budget < max_instructions ? budget : max_instructions;
}

Result<GoldenRun> run_golden(Machine& machine,
                             const assembler::Program& program) {
  S4E_TRY_STATUS(machine.load_program(program));

  // Record touched data memory and executed code through the C API, the
  // same way campaign plugins observe the run.
  struct Tracker {
    std::set<u32> memory;
    std::set<u32> code;
  } tracker;
  s4e_register_mem_cb(
      machine.vm_handle(),
      [](void* userdata, s4e_vm*, const s4e_mem_event* event) {
        static_cast<Tracker*>(userdata)->memory.insert(event->vaddr);
      },
      &tracker);
  s4e_register_tb_trans_cb(
      machine.vm_handle(),
      [](void* userdata, s4e_vm*, const s4e_tb_info* tb) {
        auto* t = static_cast<Tracker*>(userdata);
        for (u32 i = 0; i < tb->n_insns; ++i) {
          t->code.insert(tb->insns[i].address);
        }
      },
      &tracker);

  GoldenRun golden;
  golden.result = machine.run();
  if (!golden.result.normal_exit()) {
    return Error(ErrorCode::kStateError,
                 "golden run did not terminate normally: " +
                     std::string(to_string(golden.result.reason)));
  }
  golden.uart = machine.uart() != nullptr ? machine.uart()->tx_log() : "";
  golden.memory_hash = data_memory_hash(machine, program);
  golden.executed_code.assign(tracker.code.begin(), tracker.code.end());
  golden.touched_memory.assign(tracker.memory.begin(), tracker.memory.end());
  return golden;
}

Result<std::unique_ptr<WorkerVm>> WorkerVm::create(
    const MachineConfig& config, const assembler::Program& program) {
  std::unique_ptr<WorkerVm> vm(new WorkerVm(config));
  S4E_TRY_STATUS(vm->machine_.load_program(program));
  vm->machine_.save_state(vm->baseline_);
  return vm;
}

Machine& WorkerVm::prepare() {
  machine_.clear_plugins();
  machine_.restore_state(baseline_);
  return machine_;
}

}  // namespace s4e::vp

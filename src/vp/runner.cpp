#include "vp/runner.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/fnv1a.hpp"
#include "isa/defuse.hpp"
#include "vp/s4e_plugin.h"

namespace s4e::vp {

u64 data_memory_hash(Machine& machine, const assembler::Program& program) {
  const assembler::Section* data = program.find_section(".data");
  if (data == nullptr || data->bytes.empty()) return 0;
  // Hashed in place: .data must lie wholly inside RAM.
  const Bus::RamWindow ram = machine.bus().ram_window();
  const u32 offset = data->base - ram.base;
  if (offset >= ram.size || data->bytes.size() > ram.size - offset) return 0;
  return fnv1a(ram.data + offset, data->bytes.size());
}

u64 hang_budget(u64 golden_instructions, u64 factor,
                u64 max_instructions) noexcept {
  const u64 budget = saturating_add(
      saturating_mul(golden_instructions, factor), 10'000);
  return budget < max_instructions ? budget : max_instructions;
}

void GoldenRecording::History::add(u64 index, bool write) {
  if (!runs.empty() && runs.back().write == write) {
    runs.back().last = index;
  } else {
    runs.push_back({index, index, write});
  }
}

GoldenRecording::Access GoldenRecording::History::next(u64 from) const {
  const auto run = std::partition_point(
      runs.begin(), runs.end(), [from](const Run& r) { return r.last < from; });
  if (run == runs.end()) return Access::kNone;
  return run->write ? Access::kWrite : Access::kRead;
}

GoldenRecording::Access GoldenRecording::next_gpr_access(unsigned reg,
                                                         u64 from) const {
  return gprs_[reg & 31].next(from);
}

GoldenRecording::Access GoldenRecording::next_byte_access(u32 address,
                                                          u64 from) const {
  const auto it = bytes_.find(address);
  return it == bytes_.end() ? Access::kNone : it->second.next(from);
}

// The observers of run_golden: executed code and touched memory for every
// golden run, and the GoldenRecording when one is asked for. Registered
// through the C API, the way campaign plugins observe a run.
struct GoldenRecorder {
  Machine* machine = nullptr;
  GoldenRecording* recording = nullptr;
  std::vector<u32> memory;
  std::vector<u32> code;
  // GPR writes of the instruction whose callback fired last: recorded when
  // the next one starts, unless it trapped (a trapping instruction writes
  // no register).
  u32 pending_writes = 0;
  u64 pending_index = 0;
  u32 pending_pc = 0;

  void flush_writes() {
    for (u32 bits = pending_writes; bits != 0; bits &= bits - 1) {
      recording->gprs_[std::countr_zero(bits)].add(pending_index, true);
    }
    pending_writes = 0;
  }
  void bytes(u32 address, unsigned size, u64 index, bool write) {
    for (unsigned i = 0; i < size; ++i) {
      recording->bytes_[address + i].add(index, write);
    }
  }
  void reads_time(u64 index) { recording->time_end_ = index + 1; }

  static void on_mem(void* userdata, s4e_vm* vm, const s4e_mem_event* event) {
    auto* self = static_cast<GoldenRecorder*>(userdata);
    self->memory.push_back(event->vaddr);
    if (self->recording == nullptr) return;
    const u64 index = s4e_icount(vm) - 1;  // counted before it executes
    if (!self->machine->bus().is_ram(event->vaddr, event->size)) {
      // CLINT and GPIO registers move with device time; the UART's do not.
      const u32 address = event->vaddr;
      if (event->is_store == 0 &&
          (address - Clint::kDefaultBase < Clint::kWindowSize ||
           address - Gpio::kDefaultBase < Gpio::kWindowSize)) {
        self->reads_time(index);
      }
      return;
    }
    self->bytes(event->vaddr, event->size, index, event->is_store != 0);
  }

  static void on_tb_trans(void* userdata, s4e_vm*, const s4e_tb_info* tb) {
    auto* self = static_cast<GoldenRecorder*>(userdata);
    for (u32 i = 0; i < tb->n_insns; ++i) {
      self->code.push_back(tb->insns[i].address);
    }
  }

  static void on_insn(void* userdata, s4e_vm* vm, const s4e_insn_info* insn) {
    auto* self = static_cast<GoldenRecorder*>(userdata);
    GoldenRecording& rec = *self->recording;
    self->flush_writes();
    const u64 index = s4e_icount(vm);
    ++rec.instructions_;
    isa::Instr instr;
    instr.op = static_cast<isa::Op>(insn->op);
    instr.rd = insn->rd;
    instr.rs1 = insn->rs1;
    instr.rs2 = insn->rs2;
    const isa::DefUse du = isa::def_use(instr);
    rec.gprs_read_ |= du.reads;
    u32 reads = du.reads & ~u32{1};
    if (instr.op == isa::Op::kEcall) {
      reads |= (u32{1} << 10) | (u32{1} << 17);  // exit code, call number
    }
    for (u32 bits = reads; bits != 0; bits &= bits - 1) {
      rec.gprs_[std::countr_zero(bits)].add(index, false);
    }
    self->pending_writes = du.writes;
    self->pending_index = index;
    self->pending_pc = insn->address;
    self->bytes(insn->address, (insn->encoding & 3) == 3 ? 4 : 2, index,
                false);
    Machine& machine = *self->machine;
    if ((instr.info().op_class == isa::OpClass::kCsr &&
         isa::csr_reads_time(insn->csr)) ||
        instr.op == isa::Op::kWfi ||
        (machine.cpu().csr.mie & (kMieMtie | kMieMsie)) != 0) {
      self->reads_time(index);
    }
  }

  static void on_trap(void* userdata, s4e_vm*, const s4e_trap_event* event) {
    auto* self = static_cast<GoldenRecorder*>(userdata);
    if ((event->cause & kCauseInterrupt) == 0 &&
        event->epc == self->pending_pc) {
      self->pending_writes = 0;
    }
  }
};

Result<GoldenRun> run_golden(Machine& machine,
                             const assembler::Program& program,
                             GoldenRecording* recording) {
  S4E_TRY_STATUS(machine.load_program(program));

  GoldenRecorder recorder;
  recorder.machine = &machine;
  recorder.recording = recording;
  s4e_vm* vm = machine.vm_handle();
  s4e_register_mem_cb(vm, GoldenRecorder::on_mem, &recorder);
  s4e_register_tb_trans_cb(vm, GoldenRecorder::on_tb_trans, &recorder);
  if (recording != nullptr) {
    *recording = GoldenRecording{};
    s4e_register_insn_exec_cb(vm, GoldenRecorder::on_insn, &recorder);
    s4e_register_trap_cb(vm, GoldenRecorder::on_trap, &recorder);
  }

  GoldenRun golden;
  golden.result = machine.run();
  if (recording != nullptr) recorder.flush_writes();
  if (!golden.result.normal_exit()) {
    return Error(ErrorCode::kStateError,
                 "golden run did not terminate normally: " +
                     std::string(to_string(golden.result.reason)));
  }
  golden.uart = machine.uart()->tx_log();
  golden.memory_hash = data_memory_hash(machine, program);
  const auto sorted = [](std::vector<u32>& list) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    return std::move(list);
  };
  golden.executed_code = sorted(recorder.code);
  golden.touched_memory = sorted(recorder.memory);
  return golden;
}

Result<std::unique_ptr<WorkerVm>> WorkerVm::create(
    const MachineConfig& config, const assembler::Program& program,
    u64 ladder_instructions) {
  std::unique_ptr<WorkerVm> vm(new WorkerVm(config));
  Machine& machine = vm->machine_;
  S4E_TRY_STATUS(machine.load_program(program));
  machine.save_state(vm->baseline_);
  // Rungs at least kMinRungSpacing apart: closer ones cost more to capture
  // than the golden instructions they save.
  const u64 rungs = std::min<u64>(
      kMaxRungs, ladder_instructions / kMinRungSpacing);
  for (u64 k = 1; k <= rungs; ++k) {
    const u64 target = ladder_instructions * k / (rungs + 1);
    if (target == 0 ||
        (!vm->rungs_.empty() && vm->rungs_.back().icount >= target)) {
      continue;
    }
    if (!machine.run_to_block_head(target)) break;
    machine.save_rung(vm->rungs_.emplace_back(), vm->baseline_);
  }
  return vm;
}

Machine& WorkerVm::prepare(u64 start) {
  machine_.clear_plugins();
  const auto above = std::upper_bound(
      rungs_.begin(), rungs_.end(), start,
      [](u64 at, const Snapshot& rung) { return at < rung.icount; });
  machine_.restore_state(above == rungs_.begin() ? baseline_ : *(above - 1));
  return machine_;
}

}  // namespace s4e::vp

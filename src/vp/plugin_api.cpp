// C plugin API shims: the version-stable boundary between the VP and the
// ecosystem tools, mirroring QEMU's qemu-plugin.h contract.
#include "vp/s4e_plugin.h"

#include "vp/machine.hpp"

struct s4e_vm {
  s4e::vp::Machine* machine;
};

using s4e::vp::Machine;

extern "C" {

uint64_t s4e_register_tb_trans_cb(s4e_vm* vm, s4e_tb_trans_cb cb,
                                  void* userdata) {
  if (vm == nullptr || cb == nullptr) return 0;
  return vm->machine->add_tb_trans_cb(cb, userdata);
}

uint64_t s4e_register_tb_exec_cb(s4e_vm* vm, s4e_tb_exec_cb cb,
                                 void* userdata) {
  if (vm == nullptr || cb == nullptr) return 0;
  return vm->machine->add_tb_exec_cb(cb, userdata);
}

uint64_t s4e_register_insn_exec_cb(s4e_vm* vm, s4e_insn_exec_cb cb,
                                   void* userdata) {
  if (vm == nullptr || cb == nullptr) return 0;
  return vm->machine->add_insn_exec_cb(cb, userdata);
}

uint64_t s4e_register_mem_cb(s4e_vm* vm, s4e_mem_cb cb, void* userdata) {
  if (vm == nullptr || cb == nullptr) return 0;
  return vm->machine->add_mem_cb(cb, userdata);
}

uint64_t s4e_register_trap_cb(s4e_vm* vm, s4e_trap_cb cb, void* userdata) {
  if (vm == nullptr || cb == nullptr) return 0;
  return vm->machine->add_trap_cb(cb, userdata);
}

uint64_t s4e_register_exit_cb(s4e_vm* vm, s4e_exit_cb cb, void* userdata) {
  if (vm == nullptr || cb == nullptr) return 0;
  return vm->machine->add_exit_cb(cb, userdata);
}

int s4e_request_insn_exec_cb(s4e_vm* vm, uint32_t index, s4e_insn_exec_cb cb,
                             void* userdata) {
  if (vm == nullptr || cb == nullptr) return -1;
  return vm->machine->request_insn_exec_cb(index, cb, userdata) ? 0 : -1;
}

uint64_t s4e_register_icount_cb(s4e_vm* vm, uint64_t icount, s4e_icount_cb cb,
                                void* userdata) {
  if (vm == nullptr || cb == nullptr) return 0;
  return vm->machine->add_icount_cb(icount, cb, userdata);
}

uint32_t s4e_read_gpr(s4e_vm* vm, unsigned index) {
  return vm->machine->cpu().read_gpr(index);
}

void s4e_write_gpr(s4e_vm* vm, unsigned index, uint32_t value) {
  vm->machine->cpu().write_gpr(index, value);
}

uint32_t s4e_read_gpr_hart(s4e_vm* vm, unsigned hart, unsigned index) {
  if (hart >= vm->machine->num_harts()) return 0;
  return vm->machine->cpu(hart).read_gpr(index);
}

void s4e_write_gpr_hart(s4e_vm* vm, unsigned hart, unsigned index,
                        uint32_t value) {
  if (hart >= vm->machine->num_harts()) return;
  vm->machine->cpu(hart).write_gpr(index, value);
}

unsigned s4e_num_harts(s4e_vm* vm) { return vm->machine->num_harts(); }

unsigned s4e_current_hart(s4e_vm* vm) { return vm->machine->active_hart(); }

uint32_t s4e_read_pc(s4e_vm* vm) { return vm->machine->cpu().pc; }

uint32_t s4e_read_csr(s4e_vm* vm, unsigned address) {
  auto value = vm->machine->cpu().csr.read(static_cast<s4e::u16>(address),
                                           vm->machine->counter_view());
  return value.ok() ? *value : 0;
}

void s4e_write_csr(s4e_vm* vm, unsigned address, uint32_t value) {
  (void)vm->machine->cpu().csr.write(static_cast<s4e::u16>(address), value);
  // An interrupt-enable write from a callback must end any chained run so
  // the engine's fast-path gate re-evaluates at the next dispatch.
  vm->machine->note_csr_written(static_cast<s4e::u16>(address));
}

int s4e_read_mem(s4e_vm* vm, uint32_t address, void* buffer, uint32_t size) {
  return vm->machine->bus().ram_read(address, buffer, size).ok() ? 0 : -1;
}

int s4e_write_mem(s4e_vm* vm, uint32_t address, const void* buffer,
                  uint32_t size) {
  if (!vm->machine->bus().ram_write(address, buffer, size).ok()) return -1;
  vm->machine->note_ram_written(address, size);
  return 0;
}

int s4e_force_gpr_bit(s4e_vm* vm, unsigned hart, unsigned index,
                      unsigned bit, int value) {
  return vm->machine->force_gpr_bit(hart, index, bit, value != 0) ? 0 : -1;
}

int s4e_force_mem_bit(s4e_vm* vm, uint32_t address, unsigned bit,
                      int value) {
  return vm->machine->force_mem_bit(address, bit, value != 0) ? 0 : -1;
}

uint64_t s4e_icount(s4e_vm* vm) { return vm->machine->icount(); }

uint64_t s4e_cycles(s4e_vm* vm) { return vm->machine->cycles(); }

void s4e_request_exit(s4e_vm* vm, int exit_code) {
  vm->machine->request_exit(exit_code);
}

void s4e_flush_tb_cache(s4e_vm* vm) { vm->machine->request_tb_flush(); }

void s4e_invalidate_tb_range(s4e_vm* vm, uint32_t address, uint32_t size) {
  vm->machine->request_tb_invalidate(address, size);
}

}  // extern "C"

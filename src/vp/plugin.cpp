#include "vp/plugin.hpp"

#include "common/status.hpp"

namespace s4e::vp {

namespace {

void tb_trans_tramp(void* userdata, s4e_vm*, const s4e_tb_info* tb) {
  static_cast<PluginBase*>(userdata)->on_tb_trans(*tb);
}

void tb_exec_tramp(void* userdata, s4e_vm*, uint32_t tb_start) {
  static_cast<PluginBase*>(userdata)->on_tb_exec(tb_start);
}

void insn_exec_tramp(void* userdata, s4e_vm*, const s4e_insn_info* insn) {
  static_cast<PluginBase*>(userdata)->on_insn_exec(*insn);
}

void mem_tramp(void* userdata, s4e_vm*, const s4e_mem_event* event) {
  static_cast<PluginBase*>(userdata)->on_mem(*event);
}

void trap_tramp(void* userdata, s4e_vm*, const s4e_trap_event* event) {
  static_cast<PluginBase*>(userdata)->on_trap(*event);
}

void exit_tramp(void* userdata, s4e_vm*, int exit_code) {
  static_cast<PluginBase*>(userdata)->on_exit(exit_code);
}

void icount_tramp(void* userdata, s4e_vm*, uint64_t icount) {
  static_cast<PluginBase*>(userdata)->on_icount(icount);
}

}  // namespace

void PluginBase::attach(s4e_vm* vm) {
  S4E_CHECK_MSG(vm_ == nullptr, "plugin already attached");
  vm_ = vm;
  const Subscriptions subs = subscriptions();
  if (subs.tb_trans || subs.insn_requests) {
    s4e_register_tb_trans_cb(vm, tb_trans_tramp, this);
  }
  if (subs.insn_requests) s4e_flush_tb_cache(vm);
  if (subs.tb_exec) s4e_register_tb_exec_cb(vm, tb_exec_tramp, this);
  if (subs.insn_exec) s4e_register_insn_exec_cb(vm, insn_exec_tramp, this);
  if (subs.mem) s4e_register_mem_cb(vm, mem_tramp, this);
  if (subs.trap) s4e_register_trap_cb(vm, trap_tramp, this);
  if (subs.exit) s4e_register_exit_cb(vm, exit_tramp, this);
  if (subs.icount) s4e_register_icount_cb(vm, *subs.icount, icount_tramp, this);
}

bool PluginBase::request_insn_exec(u32 index) {
  return s4e_request_insn_exec_cb(vm_, index, insn_exec_tramp, this) == 0;
}

}  // namespace s4e::vp

// C++ convenience adaptor over the C plugin API.
//
// Ecosystem tools derive from PluginBase and override the events they need;
// the adaptor performs all interaction through the C functions in
// s4e_plugin.h only, preserving the property that tools depend on the
// stable C boundary, not on VP internals (the QEMU TCG-plugin discipline).
#pragma once

#include <optional>

#include "common/bits.hpp"
#include "vp/s4e_plugin.h"

namespace s4e::vp {

class PluginBase {
 public:
  virtual ~PluginBase() = default;

  // Register the overridden callbacks with `vm`. Call once per VM.
  void attach(s4e_vm* vm);

  // Inside on_tb_trans() only: deliver on_insn_exec() before instruction
  // `index` of the block being translated (s4e_request_insn_exec_cb).
  bool request_insn_exec(u32 index);

  s4e_vm* vm() const noexcept { return vm_; }

  // Event hooks (public so the C trampolines can dispatch without friend
  // gymnastics; they are still only meant to be *called* by the VP).
  virtual void on_tb_trans(const s4e_tb_info& tb) { (void)tb; }
  virtual void on_tb_exec(u32 tb_start) { (void)tb_start; }
  virtual void on_insn_exec(const s4e_insn_info& insn) { (void)insn; }
  virtual void on_mem(const s4e_mem_event& event) { (void)event; }
  virtual void on_trap(const s4e_trap_event& event) { (void)event; }
  virtual void on_exit(int exit_code) { (void)exit_code; }
  virtual void on_icount(u64 icount) { (void)icount; }

  // Which events to register for; default registers everything overridden
  // cannot be detected in C++, so derived classes state their needs.
  struct Subscriptions {
    bool tb_trans = false;
    bool tb_exec = false;
    bool insn_exec = false;
    bool mem = false;
    bool trap = false;
    bool exit = false;
    // on_tb_trans() picks the instructions that get on_insn_exec() with
    // request_insn_exec(). attach() registers tb_trans and flushes the
    // VM's warm translations once, so every block executed from then on
    // is translated, and requested, again.
    bool insn_requests = false;
    // One-shot on_icount() at this instruction count (s4e_register_icount_cb).
    std::optional<u64> icount;
  };
  virtual Subscriptions subscriptions() const = 0;

 private:
  s4e_vm* vm_ = nullptr;
};

}  // namespace s4e::vp

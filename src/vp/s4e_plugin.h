/*
 * Scale4Edge VP plugin API.
 *
 * Modelled on the QEMU TCG plugin API (qemu-plugin.h, QEMU >= 4.2): a plain
 * C interface, stable across VP versions, through which every analysis tool
 * of the ecosystem (QTA timing analysis, coverage, fault injection, memory
 * watch) observes and instruments execution. Plugins register callbacks for
 * translation-time and execution-time events and may inspect or mutate
 * architectural state through accessor functions.
 *
 * Event model (mirrors QEMU):
 *   - tb_trans:  a translation block was (re)built from guest code. Fires
 *                once per block per translation, not per execution. Inside
 *                it a plugin may request insn_exec callbacks for chosen
 *                instructions of the block (s4e_request_insn_exec_cb).
 *   - tb_exec:   a translated block is about to execute.
 *   - insn_exec: one instruction is about to execute — every instruction
 *                for a whole-run subscriber, the requested ones otherwise.
 *   - mem:       one data memory access executed (load or store).
 *   - trap:      an exception or interrupt was taken.
 *   - exit:      the guest terminated.
 *   - icount:    one-shot: the retired-instruction count reached a value
 *                armed at registration.
 *
 * Execution modes: the VP lowers exec callbacks into its translated code,
 * so instrumented code keeps the chained fast path; only debug state, an
 * armed timer interrupt, the uncached ablation and a block holding an
 * armed icount past its first instruction run the careful per-instruction
 * loop. Both loops deliver the same callbacks, in the same order (tb_exec,
 * then a due icount event, then insn_exec), with the same s4e_read_pc and
 * s4e_icount values. Callbacks cost in proportion to how many fire: a
 * whole-run insn_exec subscriber pays one call per instruction, a plugin
 * that requests a few instructions per block pays only for those.
 */
#ifndef S4E_PLUGIN_H_
#define S4E_PLUGIN_H_

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Opaque VM handle (one per s4e::vp::Machine). */
typedef struct s4e_vm s4e_vm;

/* One decoded instruction inside a translation block.
 * `op` is the stable instruction-type id (s4e::isa::Op), `op_class` the
 * behavioural class (s4e::isa::OpClass). */
typedef struct s4e_insn_info {
  uint32_t address;
  uint32_t encoding;
  uint16_t op;
  uint8_t op_class;
  uint8_t rd;
  uint8_t rs1;
  uint8_t rs2;
  uint16_t csr;
  int32_t imm;
} s4e_insn_info;

typedef struct s4e_tb_info {
  uint32_t start;            /* guest address of the first instruction */
  uint32_t n_insns;
  const s4e_insn_info* insns;
} s4e_tb_info;

typedef struct s4e_mem_event {
  uint32_t pc;               /* address of the accessing instruction */
  uint32_t vaddr;            /* accessed address */
  uint32_t value;            /* value stored / loaded */
  uint8_t size;              /* 1, 2 or 4 */
  uint8_t is_store;          /* 0 = load, 1 = store */
} s4e_mem_event;

typedef struct s4e_trap_event {
  uint32_t cause;            /* mcause value (bit 31 = interrupt) */
  uint32_t epc;
  uint32_t tval;
} s4e_trap_event;

typedef void (*s4e_tb_trans_cb)(void* userdata, s4e_vm* vm,
                                const s4e_tb_info* tb);
typedef void (*s4e_tb_exec_cb)(void* userdata, s4e_vm* vm, uint32_t tb_start);
typedef void (*s4e_insn_exec_cb)(void* userdata, s4e_vm* vm,
                                 const s4e_insn_info* insn);
typedef void (*s4e_mem_cb)(void* userdata, s4e_vm* vm,
                           const s4e_mem_event* event);
typedef void (*s4e_trap_cb)(void* userdata, s4e_vm* vm,
                            const s4e_trap_event* event);
typedef void (*s4e_exit_cb)(void* userdata, s4e_vm* vm, int exit_code);
typedef void (*s4e_icount_cb)(void* userdata, s4e_vm* vm, uint64_t icount);

/* Registration. Each returns a plugin handle id (>0) or 0 on failure.
 * Callbacks stay registered until the host drops the VM's plugins (a
 * campaign worker does so before every run on its reused VM) or destroys
 * the VM. */
uint64_t s4e_register_tb_trans_cb(s4e_vm* vm, s4e_tb_trans_cb cb, void* userdata);
uint64_t s4e_register_tb_exec_cb(s4e_vm* vm, s4e_tb_exec_cb cb, void* userdata);
uint64_t s4e_register_insn_exec_cb(s4e_vm* vm, s4e_insn_exec_cb cb, void* userdata);
uint64_t s4e_register_mem_cb(s4e_vm* vm, s4e_mem_cb cb, void* userdata);
uint64_t s4e_register_trap_cb(s4e_vm* vm, s4e_trap_cb cb, void* userdata);
uint64_t s4e_register_exit_cb(s4e_vm* vm, s4e_exit_cb cb, void* userdata);

/* Valid only inside a tb_trans callback: fire `cb(userdata, vm, insn)`
 * before instruction `index` (0-based, into tb->insns) of the block being
 * translated, every time that translation executes it. Requests belong to
 * the translation: a plugin attached to a VM with warm translations must
 * flush them (s4e_flush_tb_cache) to see tb_trans for every block again.
 * Requests are dropped with the VM's other plugins. Returns 0, or -1
 * outside tb_trans, for an index past the block, or when 64 distinct
 * (cb, userdata) pairs already hold requests on this VM. */
int s4e_request_insn_exec_cb(s4e_vm* vm, uint32_t index, s4e_insn_exec_cb cb,
                             void* userdata);

/* One-shot icount event: `cb` fires once, at exactly the point where an
 * insn_exec callback would first observe s4e_icount() >= `icount` — before
 * the next instruction executes and before any insn_exec callback for it.
 * An `icount` at or below the current count fires before the next
 * instruction. If the run stops first (exit, trap or instruction budget)
 * it does not fire during that run; an unfired callback is dropped with the
 * VM's other plugins. The callback receives the current s4e_icount().
 * Armed from inside an exec callback of the chained engine, it fires at
 * the earliest at the end of the executing block. */
uint64_t s4e_register_icount_cb(s4e_vm* vm, uint64_t icount, s4e_icount_cb cb,
                                void* userdata);

/* Architectural state access. Indexes are architectural (x0..x31).
 * Writes to x0 are ignored, as in hardware. The plain forms address the
 * currently executing hart; the _hart forms address a specific hart on an
 * SMP machine (out-of-range hart indexes read 0 / are ignored). */
uint32_t s4e_read_gpr(s4e_vm* vm, unsigned index);
void s4e_write_gpr(s4e_vm* vm, unsigned index, uint32_t value);
uint32_t s4e_read_gpr_hart(s4e_vm* vm, unsigned hart, unsigned index);
void s4e_write_gpr_hart(s4e_vm* vm, unsigned hart, unsigned index,
                        uint32_t value);

/* SMP topology: number of harts, and the hart currently executing (the one
 * whose instruction stream delivers insn_exec/mem callbacks). */
unsigned s4e_num_harts(s4e_vm* vm);
unsigned s4e_current_hart(s4e_vm* vm);
uint32_t s4e_read_pc(s4e_vm* vm);
uint32_t s4e_read_csr(s4e_vm* vm, unsigned address);
void s4e_write_csr(s4e_vm* vm, unsigned address, uint32_t value);

/* Guest physical memory access (bypasses MMIO side effects: RAM only).
 * Returns 0 on success, -1 if the range is not RAM. */
int s4e_read_mem(s4e_vm* vm, uint32_t address, void* buffer, uint32_t size);
int s4e_write_mem(s4e_vm* vm, uint32_t address, const void* buffer,
                  uint32_t size);

/* Stuck-at forcing: bit `bit` of a register or RAM byte takes `value`
 * (0 or non-zero) now and keeps it across every later write, by any
 * instruction of any hart or by s4e_write_gpr / s4e_write_mem. The VP
 * applies the bit where the state is written, so a forced run keeps the
 * chained fast path. Forcing is per-run state, like plugins: it is dropped
 * when the VM is reset or restored from a snapshot (a campaign worker's
 * per-run preparation hands back an unforced VM).
 *
 * s4e_force_gpr_bit forces bit 0..31 of x1..x31 on `hart`; it returns -1
 * for x0, an out-of-range hart, register or bit.
 * s4e_force_mem_bit forces bit 0..7 of the byte at `address`. One byte per
 * run can be forced (any of its bits); it returns -1 for an address that
 * is not RAM, a bit above 7, or a second byte. Arming a change to a byte of
 * translated code also drops its translations, as s4e_invalidate_tb_range
 * does. Both return 0 on success. */
int s4e_force_gpr_bit(s4e_vm* vm, unsigned hart, unsigned index,
                      unsigned bit, int value);
int s4e_force_mem_bit(s4e_vm* vm, uint32_t address, unsigned bit, int value);

/* Execution statistics. */
uint64_t s4e_icount(s4e_vm* vm);     /* retired instructions */
uint64_t s4e_cycles(s4e_vm* vm);     /* modelled cycles */

/* Request guest termination at the next block boundary (exit_code is
 * reported through the exit callbacks and the run result). */
void s4e_request_exit(s4e_vm* vm, int exit_code);

/* Translation-block maintenance after patching code bytes. Both requests
 * are deferred: the executing block ends after its current instruction and
 * the request is applied at that block boundary (the current instruction
 * still runs its old translation). s4e_flush_tb_cache drops every
 * translated block; s4e_invalidate_tb_range drops only the blocks (and hot
 * traces) overlapping [address, address+size), so the rest of the
 * translated code stays warm. */
void s4e_flush_tb_cache(s4e_vm* vm);
void s4e_invalidate_tb_range(s4e_vm* vm, uint32_t address, uint32_t size);

#ifdef __cplusplus
}
#endif

#endif /* S4E_PLUGIN_H_ */

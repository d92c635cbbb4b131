//===----------------------------------------------------------------------===//
///
/// \file
/// The retained tree-walking reference interpreter. Before the decoded
/// execution engine (src/exec/) existed, this loop — walking BasicBlock
/// instruction lists and re-resolving operands, successors and call
/// targets per executed instruction — *was* sim/Interpreter. It is kept,
/// semantics frozen, for two jobs:
///
///   - the differential suite (tests/ExecEngineTest.cpp) asserts that
///     decoded execution matches it instruction-for-instruction: results,
///     cycle/instruction counts, observer event streams and traces;
///   - BM_ExecEngineVsTreeWalk measures the decoded engine's dispatch
///     speedup against it.
///
/// It implements the same ExecState/ExecObserver contract as the decoded
/// driver, so one observer (profiler, trace collector) serves both.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_SIM_TREEWALKINTERPRETER_H
#define HELIX_SIM_TREEWALKINTERPRETER_H

#include "exec/ExecEngine.h"
#include "ir/Module.h"
#include "sim/Value.h"

#include <cstdint>
#include <string>
#include <vector>

namespace helix {

/// Interprets a module by walking the IR tree. Memory layout, caps and cap
/// traps are identical to the decoded engine's: address 0 reserved, globals
/// from 1, heap after the globals, stack (Alloca) addresses in a disjoint
/// high range, both regions bounded by ExecLimits.
class TreeWalkInterpreter : public ExecState {
public:
  explicit TreeWalkInterpreter(Module &M);

  void setMaxInstructions(uint64_t Max) { MaxInstructions = Max; }
  void setObserver(ExecObserver *O) { Obs = O; }

  /// Runs function \p Name (default signature: no args) to completion.
  ExecResult run(const std::string &Name = "main",
                 const std::vector<Value> &Args = {});

  // --- Introspection for observers (ExecState) ---------------------------
  unsigned callDepth() const override { return unsigned(Frames.size()); }
  const Function *currentFunction() const override;
  Value operandValue(const Operand &O) const override;
  uint64_t globalBase(unsigned Idx) const override { return GlobalBase[Idx]; }

  /// Reads register \p Reg of the current frame.
  Value regValue(unsigned Reg) const;

private:
  struct Frame {
    const Function *F = nullptr;
    std::vector<Value> Regs;
    const BasicBlock *BB = nullptr;
    unsigned Pos = 0;
    uint64_t SavedStackPtr = 0;
    unsigned DestRegInCaller = NoReg;
    bool WantsResult = false;
  };

  bool step(ExecResult &R); // executes one instruction
  Value evalOperand(const Frame &Fr, const Operand &O) const;
  Value loadSlot(uint64_t Addr) const;
  /// \returns false (nothing written) when \p Addr lies past its cap.
  bool storeSlot(uint64_t Addr, Value V);

  Module &M;
  ExecObserver *Obs = nullptr;
  uint64_t MaxInstructions = ExecLimits::DefaultMaxSteps;

  std::vector<Value> Low;   ///< globals + heap
  std::vector<Value> Stack; ///< alloca region
  uint64_t HeapPtr = 0;
  uint64_t StackPtr = 0;
  std::vector<uint64_t> GlobalBase;
  bool GlobalsPastCap = false; ///< every run() fails: no memory was set up

  std::vector<Frame> Frames;
  Value Returned;
  bool HasReturned = false;
};

} // namespace helix

#endif // HELIX_SIM_TREEWALKINTERPRETER_H

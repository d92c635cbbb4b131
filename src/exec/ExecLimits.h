//===----------------------------------------------------------------------===//
///
/// \file
/// Shared execution-budget constants. Every execution engine (the decoded
/// ExecEngine drivers, the retained tree-walk reference interpreter and the
/// threaded runtime) defends against runaway programs with the same default
/// step cap and the same memory caps, and the fuzz hang classifier derives
/// its per-leg budgets from the same headroom formula — one definition
/// instead of a value restated per call site.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_EXEC_EXECLIMITS_H
#define HELIX_EXEC_EXECLIMITS_H

#include <cstdint>

namespace helix {

struct ExecLimits {
  /// Default per-context instruction/step cap: defence against accidental
  /// endless loops when the caller did not choose a budget.
  static constexpr uint64_t DefaultMaxSteps = 400ull * 1000 * 1000;

  /// Word slots of the globals+heap segment (addresses [0, cap)). Loads at
  /// or past the cap read 0; stores there and heap allocations that would
  /// cross it trap. Backed by a lazily zeroed reservation, so the cap costs
  /// address space, not memory (2^26 16-byte words = 1 GiB of it).
  static constexpr uint64_t MaxMemoryWords = uint64_t(1) << 26;

  /// Word slots of one context's alloca region (addresses from
  /// ExecStackBase). Same semantics as MaxMemoryWords: loads past it read
  /// 0, stores and allocas past it trap. The region is an eagerly grown
  /// vector, so its cap is kept smaller (64 MiB per context).
  static constexpr uint64_t MaxStackWords = uint64_t(1) << 22;

  /// Trap messages of the memory caps, shared by every engine so their
  /// results compare equal on hostile programs too.
  static constexpr const char *GlobalsPastCap = "globals past the memory cap";
  static constexpr const char *StorePastCap = "store past the memory cap";
  static constexpr const char *HeapPastCap =
      "heap allocation past the memory cap";
  static constexpr const char *AllocaPastCap =
      "stack allocation past the memory cap";

  /// Budget of a non-reference leg of a differential run whose sequential
  /// reference used \p SeqBudget instructions (or was budgeted at it):
  /// 4x headroom for the sync ops the transform adds, plus a floor so
  /// tiny references don't starve their legs. Saturating — an effectively
  /// unlimited reference budget must not wrap into a tiny leg budget and
  /// classify clean programs as hangs.
  static constexpr uint64_t hangBudget(uint64_t SeqBudget) {
    return SeqBudget > (UINT64_MAX - 10000) / 4 ? UINT64_MAX
                                                : SeqBudget * 4 + 10000;
  }
};

} // namespace helix

#endif // HELIX_EXEC_EXECLIMITS_H

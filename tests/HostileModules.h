//===----------------------------------------------------------------------===//
///
/// \file
/// Modules that address memory the way a hostile or miscompiled program
/// would: wild stores far past the globals+heap cap and into the far end of
/// the alloca range, a heap allocation no machine could back, an alloca
/// past the stack cap, globals larger than the cap, and loads past the
/// cap. Every engine must survive
/// them with the same structured result (tests/ExecEngineTest.cpp,
/// tests/RuntimeTest.cpp, tests/ServeTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_TESTS_HOSTILEMODULES_H
#define HELIX_TESTS_HOSTILEMODULES_H

#include "exec/ExecLimits.h"

#include <string>
#include <vector>

namespace helix {

struct HostileModule {
  const char *Name;
  std::string Text;
  /// The trap message the run must end with; null when it must return 0.
  const char *Trap;
};

/// One @main per case. Addresses: 2^39 lies past the globals+heap cap and
/// below the alloca range; ExecStackBase + 2^45 = 2^40 + 2^45 lies far past
/// the alloca cap; 2^26 + 5 is just past the globals+heap cap. A global of
/// 2^26 words does not fit below the cap at all (globals start at 1).
inline std::vector<HostileModule> hostileModules() {
  auto Main = [](const char *Body) {
    return std::string("func @main(0) {\nentry:\n") + Body + "}\n";
  };
  return {
      {"store-2^39", Main("  store 7, 549755813888\n  ret 0\n"),
       ExecLimits::StorePastCap},
      {"fused-add-store-2^39",
       Main("  r0 = add 549755813888, 1\n  store 7, r0\n  ret 0\n"),
       ExecLimits::StorePastCap},
      {"store-stack-base+2^45", Main("  store 7, 36283883716608\n  ret 0\n"),
       ExecLimits::StorePastCap},
      {"heapalloc-2^62",
       Main("  r0 = halloc 4611686018427387904\n  ret r0\n"),
       ExecLimits::HeapPastCap},
      {"alloca-past-stack-cap", Main("  r0 = alloca 4194305\n  ret 0\n"),
       ExecLimits::AllocaPastCap},
      {"globals-past-cap",
       "global @huge 67108864\n\n" + Main("  store 7, @huge\n  ret 0\n"),
       ExecLimits::GlobalsPastCap},
      {"load-past-cap", Main("  r0 = load 67108869\n  ret r0\n"), nullptr},
      {"fused-add-load-past-cap",
       Main("  r0 = add 67108864, 5\n  r1 = load r0\n"
            "  r2 = load 549755813888\n  r3 = add r1, r2\n  ret r3\n"),
       nullptr},
  };
}

} // namespace helix

#endif // HELIX_TESTS_HOSTILEMODULES_H

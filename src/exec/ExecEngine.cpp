#include "exec/ExecEngine.h"

#include <cerrno>
#include <cstring>
#include <sys/mman.h>

using namespace helix;

ExecObserver::~ExecObserver() = default;

// The segment is never filled with Value(): the kernel's zero pages *are*
// Value()s. That holds while Value is a trivially copyable 16-byte word
// whose all-zero bytes read as the default (IsFloat false, payload 0).
static_assert(std::is_trivially_copyable<Value>::value &&
                  sizeof(Value) == 16 &&
                  std::is_same<decltype(Value::IsFloat), bool>::value,
              "ExecMemory relies on zero bytes being Value()");

ExecMemory::ExecMemory(const ExecProgram &P) {
  if (P.globalEnd() > ExecLimits::MaxMemoryWords) {
    Error = ExecLimits::GlobalsPastCap;
    return;
  }
  void *Base = mmap(nullptr, ExecLimits::MaxMemoryWords * sizeof(Value),
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (Base == MAP_FAILED) {
    Error = formatStr("cannot reserve execution memory: %s",
                      std::strerror(errno));
    return;
  }
  Words = static_cast<Value *>(Base);
  P.initGlobals(Words);
  HeapPtr.store(P.globalEnd(), std::memory_order_relaxed);
}

ExecMemory::~ExecMemory() {
  if (Words)
    munmap(Words, ExecLimits::MaxMemoryWords * sizeof(Value));
}

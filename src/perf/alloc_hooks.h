// Process-wide allocation counters.
//
// alloc_hooks.cc replaces the global operator new/delete family with thin
// wrappers over malloc/free that bump relaxed atomic counters, so any phase
// of a run can be bracketed with two snapshots to get its exact allocation
// count — the mechanism behind the perf suite's "steady state allocates
// nothing" assertion and perfbench's allocation counts.
// The hooks are semantically transparent (ASan still intercepts the
// underlying malloc) and cost one relaxed increment per allocation.

#ifndef SRC_PERF_ALLOC_HOOKS_H_
#define SRC_PERF_ALLOC_HOOKS_H_

#include <cstdint>

namespace rtvirt::perf {

struct AllocSnapshot {
  uint64_t allocs = 0;  // operator new calls since process start
  uint64_t frees = 0;   // operator delete calls on non-null pointers
  uint64_t bytes = 0;   // bytes requested through operator new

  uint64_t Live() const { return allocs - frees; }
};

// Current counter values. All zeros if the hooks did not get linked in
// (see AllocHooksActive()).
AllocSnapshot AllocNow();

// True when the replacement operators are actually the ones in use. Callers
// that assert on allocation counts should check this first instead of
// silently passing on zero deltas.
bool AllocHooksActive();

}  // namespace rtvirt::perf

#endif  // SRC_PERF_ALLOC_HOOKS_H_

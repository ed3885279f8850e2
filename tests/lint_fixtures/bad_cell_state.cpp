// ssq-lint fixture: cell-state discipline violations (check `cell-state`,
// core/segment_queue.hpp's waiter-cell protocol).
//   1. a marker naming an edge outside the protocol: MATCHED is terminal,
//      poisoning a completed rendezvous would let the paired token be
//      observed twice (illegal poison-after-match)
//   2. a mutation of an SSQ_CELL_STATE_FIELD with no adjacent
//      SSQ_CELL_TRANSITION marker at all
//   3. a properly annotated install CAS -- must NOT be reported
#include <atomic>
#include <cstdint>

#include "../../src/support/annotations.hpp"

namespace fix {

inline constexpr std::uintptr_t cell_empty = 0;
inline constexpr std::uintptr_t cell_waiter = 1;
inline constexpr std::uintptr_t cell_matched = 3;
inline constexpr std::uintptr_t cell_poisoned = 4;

struct cell {
  SSQ_CELL_STATE_FIELD
  std::atomic<std::uintptr_t> state{cell_empty};
};

class cell_ops {
 public:
  bool install_waiter(cell &c) noexcept {
    std::uintptr_t st = cell_empty;
    SSQ_CELL_TRANSITION(cell_empty, cell_waiter);
    return c.state.compare_exchange_strong(st, cell_waiter);
  }

  void poison_after_match(cell &c) noexcept {
    SSQ_CELL_TRANSITION(cell_matched, cell_poisoned);
    c.state.store(cell_poisoned);
  }

  bool silent_poison(cell &c) noexcept {
    std::uintptr_t st = cell_waiter;
    return c.state.compare_exchange_strong(st, cell_poisoned);
  }
};

} // namespace fix

// ssq-lint fixture: the macro-expansion pre-pass. The violation lives in a
// project #define body; the frontend must expand the macro at its use site
// and re-stamp the diagnostic onto the use-site line, not the #define.
//   1. a relaxed CAS with no SSQ_MO_JUSTIFIED, hidden inside FIX_CLAIM --
//      reported at the FIX_CLAIM(word_) call line
//   2. the same macro body reached through one level of nesting
//      (FIX_CLAIM_TWICE) -- reported at the nested use line
#include <atomic>

#include "../../src/support/annotations.hpp"

#define FIX_CLAIM(word)                                                     \
  (void)word.compare_exchange_strong(expected, 1, std::memory_order_relaxed)

#define FIX_CLAIM_TWICE(word)                                               \
  FIX_CLAIM(word);                                                          \
  FIX_CLAIM(word)

namespace fix {

class macro_claims {
 public:
  void claim() noexcept {
    int expected = 0;
    FIX_CLAIM(word_);
  }

  void claim_nested() noexcept {
    int expected = 0;
    FIX_CLAIM_TWICE(word_);
  }

 private:
  std::atomic<int> word_{0};
};

} // namespace fix

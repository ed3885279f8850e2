// Minimal mocks so the lint fixtures are self-contained, compilable C++
// while exercising exactly the idioms ssq-lint models (Reclaimer::slot,
// life_cycle arbitration, park_slot episodes). ssq-lint reads the fixtures
// as plain source; compilability keeps them honest C++.
#pragma once

#include <atomic>

namespace fix {

struct life_cycle {
  bool mark_unlinked() noexcept { return true; }
  bool mark_released() noexcept { return true; }
  bool is_unlinked() const noexcept { return false; }
};

struct reclaimer {
  struct slot {
    explicit slot(reclaimer &) noexcept {}
    template <typename T>
    T *protect(const std::atomic<T *> &src) noexcept {
      return src.load();
    }
    template <typename T>
    void set(T *) noexcept {}
    void clear() noexcept {}
  };

  template <typename Node, typename... Args>
  Node *create(Args &&...args) {
    return new Node(static_cast<Args &&>(args)...);
  }
  template <typename Node>
  void retire(Node *n) {
    delete n;
  }
};

struct deadline {};
struct interrupt_token {};

class park_slot {
 public:
  enum class wait_result { woken, timeout, interrupted };
  void prepare() noexcept {}
  wait_result wait(deadline, interrupt_token *) noexcept {
    return wait_result::woken;
  }
  bool disarm() noexcept { return false; }
  void reset() noexcept {}
  void signal() noexcept {}
};

} // namespace fix

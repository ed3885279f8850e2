// dual_queue_basic: the synchronous dual queue exactly as printed in the
// paper's Listing 5 ("Spin-based enqueue; dequeue is symmetric except for
// the direction of data transfer"), plus the memory-reclamation scaffolding
// C++ requires (hazard slots where Java had GC).
//
// No timeout, no parking, no poll/offer: this is the pedagogical reference
// version used by the test suite to cross-check core/transfer_queue.hpp and
// by readers following the paper. Spinning includes a periodic yield so the
// reference version remains usable on a uniprocessor.
//
// Line-number comments refer to Listing 5.
//
// Memory orders (docs/memory_model.md): every atomic operation is seq_cst,
// as Listing 5's Java volatiles are.
#pragma once

#include <atomic>

#include "memory/reclaim.hpp"
#include "support/annotations.hpp"
#include "support/cacheline.hpp"
#include "support/codec.hpp"
#include "support/diagnostics.hpp"
#include "sync/spin_policy.hpp"

namespace ssq {

template <typename T, typename Reclaimer = mem::pooled_hp_reclaimer>
class dual_queue_basic {
  using codec = item_codec<T>;

  struct node {
    SSQ_GUARDED_BY_HAZARD(rec_)
    std::atomic<node *> next{nullptr};
    std::atomic<item_token> data;
    mem::life_cycle life;
    const bool is_request;

    node(item_token d, bool req) noexcept : data(d), is_request(req) {}
  };

 public:
  dual_queue_basic() {
    node *dummy = rec_.template create<node>(empty_token, false);
    dummy->life.preset_released();
    head_.value.store(dummy, std::memory_order_relaxed);
    tail_.value.store(dummy, std::memory_order_relaxed);
  }

  ~dual_queue_basic() {
    node *n = head_.value.load(std::memory_order_relaxed);
    while (n) {
      node *nx = n->next.load(std::memory_order_relaxed);
      item_token d = n->data.load(std::memory_order_relaxed);
      if (!n->is_request && d != empty_token) codec::dispose(d);
      rec_.destroy(n);
      n = nx;
    }
  }

  dual_queue_basic(const dual_queue_basic &) = delete;
  dual_queue_basic &operator=(const dual_queue_basic &) = delete;

  // Listing 5, enqueue().
  void enqueue(T v) {
    const item_token e = codec::encode(std::move(v));
    node *offer = nullptr; // lazily: `new Node(e, Data)` (line 03)
    typename Reclaimer::slot hz_t(rec_), hz_h(rec_), hz_n(rec_);

    for (;;) {                                   // line 05
      node *t = hz_t.protect(tail_.value);       // line 06
      node *h = hz_h.protect(head_.value);       // line 07
      if (h == t || !t->is_request) {            // line 08
        node *n = t->next.load();                // line 09
        if (t == tail_.value.load()) {           // line 10
          if (n != nullptr) {                    // line 11
            cas_tail(t, n);                      // line 12
          } else {
            if (!offer) offer = rec_.template create<node>(e, false);
            if (t->next.compare_exchange_strong(n, offer)) { // line 13
              cas_tail(t, offer);                // line 14
              spin_while([&] {                   // lines 15-16
                return offer->data.load() == e;
              });
              h = hz_h.protect(head_.value);     // line 17
              if (offer == h->next.load())       // line 18
                cas_head(h, offer);              // line 19
              if (offer->life.mark_released()) rec_.retire(offer);
              return;                            // line 20
            }
          }
        }
      } else {                                   // line 23: reservations
        node *n = h->next.load();                // line 24
        hz_n.set(n);
        if (t != tail_.value.load() || h != head_.value.load() ||
            n != h->next.load() || n == nullptr)
          continue;                              // line 25-26: bad snapshot
        item_token expected = empty_token;
        // The data-word CAS is the fulfill linearization point.
        bool success =
            n->data.compare_exchange_strong(expected, e); // line 27
        cas_head(h, n);                          // line 28
        if (success) {                           // line 29
          // allocated on an earlier pass, never linked
          if (offer) rec_.destroy(offer);
          return;                                // line 30
        }
      }
    }
  }

  // Symmetric dequeue (direction of data transfer reversed).
  T dequeue() {
    node *req = nullptr;
    typename Reclaimer::slot hz_t(rec_), hz_h(rec_), hz_n(rec_);

    for (;;) {
      node *t = hz_t.protect(tail_.value);
      node *h = hz_h.protect(head_.value);
      if (h == t || t->is_request) { // empty or contains reservations
        node *n = t->next.load();
        if (t == tail_.value.load()) {
          if (n != nullptr) {
            cas_tail(t, n);
          } else {
            if (!req) req = rec_.template create<node>(empty_token, true);
            if (t->next.compare_exchange_strong(n, req)) {
              cas_tail(t, req);
              spin_while([&] { return req->data.load() == empty_token; });
              h = hz_h.protect(head_.value);
              if (req == h->next.load()) cas_head(h, req);
              item_token got = req->data.load();
              if (req->life.mark_released()) rec_.retire(req);
              return codec::decode_consume(got);
            }
          }
        }
      } else { // queue contains data
        node *n = h->next.load();
        hz_n.set(n);
        if (t != tail_.value.load() || h != head_.value.load() ||
            n != h->next.load() || n == nullptr)
          continue;
        item_token x = n->data.load();
        bool success =
            x != empty_token && n->data.compare_exchange_strong(x, empty_token);
        cas_head(h, n);
        if (success) {
          if (req) rec_.destroy(req); // never linked
          return codec::decode_consume(x);
        }
      }
    }
  }

  // Racy observer: true when only the dummy remains. The answer may be
  // stale when it returns, but the dummy it reads is protected.
  bool is_empty() const noexcept {
    typename Reclaimer::slot hz(rec_);
    node *h = hz.protect(head_.value);
    return h->next.load() == nullptr;
  }

 private:
  template <typename Pred>
  static void spin_while(Pred pred) noexcept {
    auto pol = sync::spin_policy::spin_only();
    for (int i = 0; pred(); ++i) pol.relax(i);
  }

  void cas_tail(node *t, node *nt) noexcept {
    tail_.value.compare_exchange_strong(t, nt);
  }

  void cas_head(node *h, node *nh) {
    if (head_.value.compare_exchange_strong(h, nh)) {
      if (h->life.mark_unlinked()) rec_.retire(h);
    }
  }

  Reclaimer rec_;
  SSQ_GUARDED_BY_HAZARD(rec_)
  padded_atomic<node *> head_;
  SSQ_GUARDED_BY_HAZARD(rec_)
  padded_atomic<node *> tail_;
};

} // namespace ssq

// dual_stack_basic: the synchronous dual stack exactly as printed in the
// paper's Listing 6 ("Spin-based annihilating push; pop is symmetric"),
// plus the reclamation scaffolding C++ requires.
//
// Port note: Listing 6's `match` field is a node pointer; a satisfied waiter
// then reads `match.data` -- safe under GC, not here. We fold the value into
// the match word itself (a reservation's match receives the data token; a
// data node's match receives the fulfiller's address as a claim marker), so
// a waiter only ever reads its own node. The fulfiller reads the waiter's
// immutable data field under a validated hazard *before* the match CAS.
//
// Line-number comments refer to Listing 6.
//
// Memory orders (docs/memory_model.md): every atomic operation is seq_cst,
// as Listing 6's Java volatiles are, except the store that fills a fresh
// node's `next` before the head CAS publishes it.
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
class dual_stack_basic {
  using codec = item_codec<T>;
  enum : unsigned { req_mode = 0, data_mode = 1, fulfilling = 2 };

  struct node {
    SSQ_GUARDED_BY_HAZARD(rec_)
    std::atomic<node *> next{nullptr};
    std::atomic<item_token> match{empty_token};
    item_token data; // immutable after construction
    unsigned mode;   // mutated only while unpublished
    mem::life_cycle life;

    node(item_token d, unsigned m) noexcept : data(d), mode(m) {}
    bool is_data() const noexcept { return (mode & data_mode) != 0; }
    bool is_fulfilling() const noexcept { return (mode & fulfilling) != 0; }
  };

 public:
  dual_stack_basic() = default;

  ~dual_stack_basic() {
    node *n = head_.value.load(std::memory_order_relaxed);
    while (n) {
      node *nx = n->next.load(std::memory_order_relaxed);
      if (n->is_data() && n->data != empty_token &&
          n->match.load(std::memory_order_relaxed) == empty_token)
        codec::dispose(n->data);
      rec_.destroy(n);
      n = nx;
    }
  }

  dual_stack_basic(const dual_stack_basic &) = delete;
  dual_stack_basic &operator=(const dual_stack_basic &) = delete;

  // Listing 6, push().
  void push(T v) { (void)transfer(codec::encode(std::move(v)), data_mode); }

  // Symmetric pop (direction of data transfer reversed).
  T pop() { return codec::decode_consume(transfer(empty_token, req_mode)); }

  bool is_empty() const noexcept {
    return head_.value.load() == nullptr;
  }

 private:
  // Both operations share one body; `mode` distinguishes direction.
  item_token transfer(item_token e, unsigned mode) {
    node *d = nullptr;
    typename Reclaimer::slot hz_h(rec_), hz_n(rec_), hz_nn(rec_);

    for (;;) {                                    // line 05
      node *h = hz_h.protect(head_.value);        // line 06
      if (h == nullptr || h->mode == mode) {      // line 07 (and symmetric)
        if (!d) {
          d = rec_.template create<node>(e, mode); // line 03
        } else {
          d->mode = mode;
        }
        SSQ_MO_JUSTIFIED(
            "relaxed: pre-publication store; the seq_cst head CAS below "
            "publishes the node");
        d->next.store(h, std::memory_order_relaxed); // line 08
        if (!head_.value.compare_exchange_strong(h, d)) // line 09
          continue;                               // line 10
        spin_while([&] {                          // lines 11-12
          return d->match.load() == empty_token;
        });
        item_token m = d->match.load();
        h = hz_h.protect(head_.value);            // line 13
        if (h != nullptr && d == h->next.load()) { // line 14
          pop_two(h, read_next_of(d, hz_n));      // line 15
        }
        if (d->life.mark_released()) rec_.retire(d);
        return (mode == req_mode) ? m : e;        // line 16
      } else if (!h->is_fulfilling()) {           // line 17
        if (!d) {
          d = rec_.template create<node>(e, mode | fulfilling); // line 18
        } else {
          d->mode = mode | fulfilling;
        }
        SSQ_MO_JUSTIFIED(
            "relaxed: pre-publication store; the seq_cst head CAS below "
            "publishes the node");
        d->next.store(h, std::memory_order_relaxed);
        if (!head_.value.compare_exchange_strong(h, d)) // line 19
          continue;                               // line 20
        // Listing 6 line 21 re-reads d->next here; that re-read is not
        // covered by any hazard (the lint's hazard-coverage check catches
        // it). `h` -- the displaced head d->next was stored from, still
        // covered by hz_h -- is the same node, and cannot be unlinked
        // before it is matched.
        item_token theirs = h->data;
        node *n = read_next_of(h, hz_n);          // line 22
        match_word(h, d);                         // line 23
        pop_two_from(d, n);                       // line 24
        if (d->life.mark_released()) rec_.retire(d);
        return (mode == req_mode) ? theirs : e;   // line 25
      } else {                                    // line 26: h is fulfilling
        node *n = read_next_of(h, hz_n);          // line 27
        if (h->life.is_unlinked()) continue;
        if (n == nullptr) {
          // The fulfiller's partner vanished -- only possible transiently
          // here (no cancellation in the basic variant); retry.
          continue;
        }
        node *nn = read_next_of(n, hz_nn);        // line 28
        if (n->life.is_unlinked()) continue;
        match_word(n, h);                         // line 29
        pop_two_from(h, nn);                      // line 30
      }
    }
  }

  // The value the waiter under fulfiller f must receive in its match word.
  static item_token match_value(node *waiter, node *f) noexcept {
    return waiter->is_data() ? reinterpret_cast<item_token>(f) : f->data;
  }

  // casMatch(null, f), folding the payload in (see port note).
  void match_word(node *waiter, node *f) noexcept {
    item_token expected = empty_token;
    // The match CAS is the annihilation linearization point.
    waiter->match.compare_exchange_strong(expected, match_value(waiter, f));
  }

  // Protected read of x->next (same validation argument as the full
  // implementation: a successor can only be retired after its predecessor
  // is unlinked or repointed).
  SSQ_ACQUIRES_HAZARD
  node *read_next_of(node *x, typename Reclaimer::slot &hz) noexcept {
    for (;;) {
      node *n = x->next.load();
      hz.set(n);
      if (x->life.is_unlinked()) return n; // caller rechecks
      if (x->next.load() == n) return n;
    }
  }

  // Pop fulfiller `top` and its matched partner: head: top -> rest.
  // `partner` is only dereferenced after this thread wins the head CAS that
  // unlinks it; life_cycle arbitration then guarantees it cannot be retired
  // before our mark_unlinked resolves (no splicing in the basic variant).
  // ssq-lint: suppress(hazard-coverage) -- see the paragraph above.
  void pop_two_from(node *top, node *rest) {
    node *partner = top->next.load();
    node *expected = top;
    if (head_.value.compare_exchange_strong(expected, rest)) {
      if (top->life.mark_unlinked()) rec_.retire(top);
      if (partner && partner->life.mark_unlinked()) rec_.retire(partner);
    }
  }

  // Identical, used from the waiter side where `top` is the fulfiller above
  // us and `rest` skips ourselves.
  void pop_two(node *top, node *rest) { pop_two_from(top, rest); }

  template <typename Pred>
  static void spin_while(Pred pred) noexcept {
    auto pol = sync::spin_policy::spin_only();
    for (int i = 0; pred(); ++i) pol.relax(i);
  }

  Reclaimer rec_;
  SSQ_GUARDED_BY_HAZARD(rec_)
  padded_atomic<node *> head_;
};

} // namespace ssq

// The synchronous dual queue -- the paper's FAIR algorithm (§3.3, "The
// synchronous dual queue"), extended with timeout, poll/offer, async
// (TransferQueue) modes, and the deferred cancelled-node cleaning strategy
// from the conference version's Pragmatics section.
//
// Structure: a singly linked list with head and tail pointers, derived from
// the M&S queue. The list holds either data nodes or request (reservation)
// nodes, never both: the queue is "empty" exactly when head == tail (only
// the dummy remains). An arriving thread whose mode matches the tail's mode
// appends and waits; one whose mode complements the head's fulfills the
// oldest waiter with a single CAS of that waiter's item word -- strict FIFO
// service, which is the fairness guarantee.
//
// Linearization points (paper §3.3):
//   * same-mode path: the successful t->next CAS that links our node
//     (request), and the observation that our item word changed (follow-up);
//   * complementary path: the successful CAS of the head waiter's item word.
//
// Item-word protocol per node (see support/codec.hpp for token encoding):
//   data node:    item starts at the producer's token; consumer claims it by
//                 CASing token -> empty;
//   request node: item starts empty; producer fulfills by CASing
//                 empty -> token;
//   cancellation: the waiter CASes its *expected* value -> the node's own
//                 address. Exactly one of {fulfill, cancel} wins the CAS.
//
// Memory reclamation (the part Java's GC does implicitly):
//   * every shared-node dereference is covered by a Reclaimer slot (hazard
//     pointer by default);
//   * a node is retired by whichever of {owner-release, unlink} happens
//     second (mem::life_cycle), so a waiter can keep reading its own node
//     after a fulfiller unlinks it;
//   * the clean_me pointer is registered as an external hazard root, so a
//     node it references can never be freed out from under a cleaner.
//
// Memory orders (docs/memory_model.md): every atomic operation is seq_cst.
// The head/tail/next/item CASes are the algorithm's linearization points,
// and the oracle's FIFO-pairing proof quantifies over one total order of
// them.
#pragma once

#include <atomic>
#include <cstddef>

#include "check/schedule_fuzz.hpp"
#include "core/wait_kind.hpp"
#include "memory/reclaim.hpp"
#include "support/annotations.hpp"
#include "support/cacheline.hpp"
#include "support/codec.hpp"
#include "support/diagnostics.hpp"
#include "sync/interrupt.hpp"
#include "sync/park_slot.hpp"
#include "sync/spin_policy.hpp"

namespace ssq {

// How cancelled nodes are removed (paper Pragmatics / ablation_cleaning):
//   deferred_splice -- the real strategy: interior nodes are spliced out
//                      immediately, a cancelled tail is deferred through
//                      clean_me and spliced by the next cleaner;
//   abandon         -- the strawman the paper warns about: mark the node
//                      cancelled and leave it for head traffic to shed.
enum class cleaning_policy { deferred_splice, abandon };

template <typename Reclaimer = mem::pooled_hp_reclaimer>
class transfer_queue {
 public:
  explicit transfer_queue(sync::spin_policy pol = sync::spin_policy::adaptive(),
                          Reclaimer rec = Reclaimer{},
                          cleaning_policy cp = cleaning_policy::deferred_splice)
      : rec_(std::move(rec)), pol_(pol), cleaning_(cp) {
    qnode *dummy = rec_.template create<qnode>(empty_token, /*is_data=*/false);
    dummy->life.preset_released();
    head_.value.store(dummy, std::memory_order_relaxed);
    tail_.value.store(dummy, std::memory_order_relaxed);
    clean_me_.value.store(nullptr, std::memory_order_relaxed);
    rec_.register_root(&clean_me_.value);
  }

  ~transfer_queue() {
    rec_.unregister_root(&clean_me_.value);
    // Single-threaded teardown: free every node still linked. Unconsumed
    // data tokens (async producers') are handed to the disposer.
    qnode *n = head_.value.load(std::memory_order_relaxed);
    while (n) {
      qnode *next = strip(n->next.load(std::memory_order_relaxed));
      item_token it = n->item.load(std::memory_order_relaxed);
      if (n->is_data && disposer_ && it != empty_token && it != n->self_token())
        disposer_(it);
      rec_.destroy(n);
      n = next;
    }
  }

  transfer_queue(const transfer_queue &) = delete;
  transfer_queue &operator=(const transfer_queue &) = delete;

  // How the destructor should drop data tokens still in the queue (only
  // relevant for boxed codecs; the typed facades install this).
  void set_token_disposer(void (*d)(item_token)) noexcept { disposer_ = d; }

  // The unified transfer operation (JDK Transferer::transfer analogue).
  //
  //   is_data=true : `e` is a non-empty token being handed off (put family).
  //                  Returns `e` on success, empty_token on timeout/now-miss/
  //                  interrupt. On failure ownership of `e` stays with the
  //                  caller.
  //   is_data=false: `e` must be empty_token (take family). Returns the
  //                  claimed token, or empty_token on failure.
  item_token xfer(item_token e, bool is_data, wait_kind wk,
                  deadline dl = deadline::unbounded(),
                  sync::interrupt_token *tok = nullptr) {
    SSQ_ASSERT(is_data == (e != empty_token), "token/mode mismatch");
    SSQ_ASSERT(!(wk == wait_kind::async && !is_data),
               "async mode is producers-only");

    qnode *s = nullptr; // the node we append, lazily created
    typename Reclaimer::slot hz_t(rec_), hz_h(rec_), hz_m(rec_);

    for (;;) {
      qnode *t = hz_t.protect(tail_.value);
      qnode *h = hz_h.protect(head_.value);

      if (h == t || t->is_data == is_data) {
        // ------------------------------------------------ same-mode: wait
        qnode *n = t->next.load();
        if (t != tail_.value.load()) continue;
        if (n != nullptr) { // tail lagging (or t dying): help
          advance_tail(t, strip(n));
          continue;
        }
        if (wk == wait_kind::now ||
            (wk == wait_kind::timed && dl.expired_now())) {
          if (s) rec_.destroy(s); // never linked: back through the policy
          return empty_token;
        }
        if (s == nullptr) {
          s = rec_.template create<qnode>(is_data ? e : empty_token, is_data);
          if (wk == wait_kind::async) s->life.preset_released();
        }
        SSQ_INTERLEAVE("tq.link");
        if (!t->cas_next(nullptr, s)) {
          diag::bump(diag::id::cas_fail);
          continue;
        }
        SSQ_INTERLEAVE("tq.linked");
        advance_tail(t, s); // request linearizes at the cas_next above
        if (wk == wait_kind::async) return e;

        item_token x = await_fulfill(s, e, dl, tok);
        if (x == s->self_token()) { // we cancelled
          SSQ_INTERLEAVE("tq.cancelled");
          clean(t, s);
          if (s->life.mark_released()) retire_node(s);
          return empty_token;
        }
        // Fulfilled. Help dequeue ourselves: if still linked, swing head
        // from our predecessor onto us (we become the dummy).
        if (!s->life.is_unlinked()) advance_head(t, s);
        if (s->life.mark_released()) retire_node(s);
        return is_data ? e : x;
      } else {
        // ----------------------------------------- complementary: fulfill
        qnode *mr = h->next.load();
        qnode *m = strip(mr);
        hz_m.set(m);
        // Validate the snapshot: head unmoved and successor word unchanged
        // (raw compare: a tag appearing means h began dying). Passing both
        // proves m was live when the hazard was published.
        if (t != tail_.value.load() ||
            m == nullptr || h != head_.value.load() ||
            mr != h->next.load())
          continue;

        item_token x = m->item.load();
        if (is_data == (x != empty_token) // m already fulfilled
            || x == m->self_token()       // m cancelled
            || !m->cas_item(x, e)) {      // lost the race to fulfill
          advance_head(h, m);             // pop past the dead node and retry
          continue;
        }
        // Fulfilled m: request + follow-up linearize at the cas_item.
        SSQ_INTERLEAVE("tq.fulfilled");
        advance_head(h, m);
        SSQ_INTERLEAVE("tq.fulfill.presignal");
        m->slot.signal();
        if (s) rec_.destroy(s); // allocated earlier, never linked
        return is_data ? e : x;
      }
    }
  }

  // ------------------------------------------------------------ observers

  // Racy observer: true when only the dummy remains. The answer may be
  // stale when it returns, but the dummy it reads is protected.
  bool is_empty() const noexcept {
    typename Reclaimer::slot hz(rec_);
    qnode *h = hz.protect(head_.value);
    return strip(h->next.load()) == nullptr;
  }

  // Number of linked nodes (excluding the dummy), counting cancelled ones:
  // the metric the cancelled-node-buildup tests bound. Racy; single-threaded
  // use only.
  // ssq-lint: suppress(hazard-coverage) -- racy observer by contract (the
  // `unsafe_` prefix is the documentation); callers must quiesce first.
  std::size_t unsafe_length() const noexcept {
    std::size_t n = 0;
    qnode *p = head_.value.load();
    for (p = strip(p->next.load()); p; p = strip(p->next.load()))
      ++n;
    return n;
  }

  // True when the next waiting node (if any) is a data node. Racy in the
  // same way as is_empty().
  bool head_is_data() const noexcept {
    typename Reclaimer::slot hz_h(rec_), hz_n(rec_);
    for (;;) {
      qnode *h = hz_h.protect(head_.value);
      qnode *nr = h->next.load();
      qnode *n = strip(nr);
      hz_n.set(n);
      // Same validation argument as in clean_inner.
      if (h != head_.value.load() || nr != h->next.load())
        continue;
      return n && n->is_data;
    }
  }

 private:
  // -----------------------------------------------------------------
  // Unlink safety (the GC-free part, refined after an ASan-caught race):
  // a cancelled node's predecessor reference in clean() can be *stale* --
  // the predecessor may itself have been unlinked -- and a successful
  // pred->next CAS through a dead predecessor would "retire" a node still
  // reachable from the live chain. Java shrugs (casNext on a dead node is
  // harmless under GC); a native port must make that CAS *fail*.
  //
  // Solution (Harris, DISC 2001 style): before any node is physically
  // unlinked, its own next pointer is frozen by setting a tag bit. Every
  // physical-unlink CAS expects an untagged value, so it can only succeed
  // through a predecessor that has not begun dying. Readers strip the tag.
  // -----------------------------------------------------------------
  struct qnode;

  static qnode *strip(qnode *p) noexcept {
    return reinterpret_cast<qnode *>(reinterpret_cast<std::uintptr_t>(p) &
                                     ~std::uintptr_t(1));
  }
  static bool tagged(qnode *p) noexcept {
    return (reinterpret_cast<std::uintptr_t>(p) & 1) != 0;
  }
  static qnode *with_tag(qnode *p) noexcept {
    return reinterpret_cast<qnode *>(reinterpret_cast<std::uintptr_t>(p) | 1);
  }

  struct qnode {
    SSQ_GUARDED_BY_HAZARD(rec_)
    std::atomic<qnode *> next{nullptr};
    std::atomic<item_token> item;
    sync::park_slot slot;
    mem::life_cycle life;
    const bool is_data;

    qnode(item_token it, bool data) noexcept : item(it), is_data(data) {}

    item_token self_token() const noexcept {
      return reinterpret_cast<item_token>(this);
    }
    bool is_cancelled() const noexcept {
      return item.load() == self_token();
    }
    bool cas_item(item_token expected, item_token desired) noexcept {
      // The item-word CAS is the fulfill/cancel linearization point
      // (paper §3.3).
      return item.compare_exchange_strong(expected, desired);
    }
    bool cas_next(qnode *expected, qnode *desired) noexcept {
      return next.compare_exchange_strong(expected, desired);
    }
  };

  // Freeze n's next pointer (idempotent) and return the stripped successor.
  // A null next is NOT frozen (tagging the append point would wedge the
  // queue); returns nullptr and the caller must re-evaluate.
  SSQ_RETURNS_UNPROTECTED
  static qnode *freeze_next(qnode *n) noexcept {
    for (;;) {
      qnode *raw = n->next.load();
      if (raw == nullptr) return nullptr;
      if (tagged(raw)) return strip(raw);
      if (n->next.compare_exchange_weak(raw, with_tag(raw)))
        return raw;
    }
  }

  // Wait until our item word changes (fulfilled) or patience runs out, in
  // which case cancel by CASing in our self-token. Returns the final item
  // value: self-token means cancelled.
  item_token await_fulfill(qnode *s, item_token e, deadline dl,
                           sync::interrupt_token *tok) {
    auto done = [&] { return s->item.load() != e; };
    // Next in line: we are the first node after the dummy head, so the next
    // counterpart to arrive fulfills us (the JDK's `head.next == s`).
    auto at_front = [&] {
      typename Reclaimer::slot hz(rec_);
      qnode *h = hz.protect(head_.value);
      return strip(h->next.load()) == s;
    };
    auto r = sync::spin_then_park(s->slot, done, at_front, pol_, dl, tok);
    if (r != sync::park_slot::wait_result::woken) {
      // Timeout or interrupt: try to cancel. A concurrent fulfiller may
      // beat us, in which case the transfer happened and we honor it.
      SSQ_INTERLEAVE("tq.cancel.cas");
      s->cas_item(e, s->self_token());
    }
    return s->item.load();
  }

  void advance_tail(qnode *t, qnode *nt) noexcept {
    // No retirement here: the old tail stays linked.
    tail_.value.compare_exchange_strong(t, nt);
  }

  // Pop h (the current or a former dummy), installing `expected_next` --
  // the successor the caller *validated as dead or fulfilled* -- as the new
  // dummy. Freezing first makes h's next immutable; if the frozen value is
  // not the validated successor (a cancelled-node splice raced us), the pop
  // is ABORTED rather than skipping an unvalidated -- possibly live --
  // node. An aborted pop leaves a frozen live dummy, which is benign: reads
  // strip the tag, splices through it fail (they would be unsafe anyway),
  // and the next correctly-validated advance_head pops it.
  void advance_head(qnode *h, qnode *expected_next) {
    SSQ_INTERLEAVE("tq.pop");
    qnode *nh = freeze_next(h);
    if (nh == nullptr || nh != expected_next) return;
    qnode *expected = h;
    if (head_.value.compare_exchange_strong(expected, nh)) {
      if (h->life.mark_unlinked()) retire_node(h);
    }
  }

  void retire_node(qnode *n) {
    // Hygiene: drop a clean_me registration that points at the dying node's
    // record (the external-root scan makes any transient staleness safe;
    // this just stops pinning it).
    void *cm = clean_me_.value.load();
    if (cm == static_cast<void *>(n))
      clean_me_.value.compare_exchange_strong(cm, nullptr);
    rec_.retire(n);
    diag::bump(diag::id::node_free); // freed (possibly deferred)
  }

  // Unlink the cancelled node s whose predecessor (at insertion time) was
  // pred. Faithful port of the JDK/conference-paper strategy: a cancelled
  // *interior* node is spliced out immediately; a cancelled *tail* node
  // cannot be (its predecessor's next pointer is the queue's append point),
  // so its predecessor is parked in clean_me_ and the splice is performed by
  // whoever next finds clean_me_ occupied.
  void clean(qnode *pred, qnode *s) {
    diag::bump(diag::id::clean_call);
    if (cleaning_ == cleaning_policy::abandon) return; // strawman mode
    clean_inner(pred, s);
    // Port deviation from the JDK (which can "splice" through dead
    // predecessors because GC makes the stray casNext harmless): a node
    // whose predecessor died before the splice cannot be unlinked in place
    // here, only shed when the head marches past it. To keep cancelled
    // garbage bounded without relying on unrelated traffic, every clean
    // finishes by draining the cancelled prefix at the head.
    scavenge_cancelled_prefix();
  }

  void clean_inner(qnode *pred, qnode *s) {
    typename Reclaimer::slot hz_h(rec_), hz_x(rec_), hz_t(rec_), hz_d(rec_),
        hz_e(rec_);

    // Loop until s is out of the queue or can no longer be unlinked through
    // pred. Each iteration makes progress by popping a cancelled head,
    // splicing s, or finishing a deferred splice. The loop ends once pred's
    // next is frozen (tagged): no splice through pred can succeed any more,
    // and waiting for the head to march past s would spin until unrelated
    // traffic arrives -- forever if clean_me_ holds the predecessor of a
    // cancelled tail and the only other waiter is untimed. The JDK loop ends
    // there too: advanceHead self-links a popped pred, and a casNext through
    // a spliced-out one succeeds harmlessly. clean() then sheds the
    // cancelled prefix, which keeps garbage bounded.
    while (!s->life.is_unlinked() && pred->next.load() == s) {
      qnode *h = hz_h.protect(head_.value);
      qnode *hnr = h->next.load();
      qnode *hn = strip(hnr);
      hz_x.set(hn);
      // Revalidation: while h is still the head, its successor word being
      // unchanged proves hn was not unlinked when the hazard was published
      // (untagged: an unlink would have changed or tagged the word; tagged:
      // the word is frozen and its referent can only be unlinked by popping
      // h itself, which would move the head).
      if (h != head_.value.load() || hnr != h->next.load())
        continue;
      if (hn != nullptr && hn->is_cancelled()) {
        advance_head(h, hn);
        continue;
      }
      qnode *t = hz_t.protect(tail_.value);
      if (t == h) return; // queue empty: s is no longer linked
      qnode *tn = t->next.load();
      if (t != tail_.value.load()) continue;
      if (tn != nullptr) {
        advance_tail(t, strip(tn));
        continue;
      }
      if (s != t) {
        // Interior: splice it out now. Freeze s first (its successor value
        // becomes immutable), then unlink through pred -- the CAS expects
        // an untagged value, so it cannot succeed through a pred that has
        // itself begun dying (whose own next is tagged). On failure, fall
        // through to the deferred-cleaning block and loop (JDK behaviour):
        // the next iterations shed cancelled heads until s is gone.
        SSQ_INTERLEAVE("tq.clean.splice");
        qnode *sn = freeze_next(s);
        if (sn != nullptr && pred->cas_next(s, sn)) {
          if (s->life.mark_unlinked()) retire_node(s);
          diag::bump(diag::id::clean_unlink);
          return;
        }
      }
      // s is the tail (or the splice failed): defer through clean_me_.
      SSQ_INTERLEAVE("tq.clean.defer");
      qnode *dp = protect_clean_me(hz_d);
      if (dp != nullptr) {
        // Try to finish the previously deferred splice first. dp is pinned
        // via the hazard + external root; its successor d is validated the
        // same way as hn above: an untagged, unchanged dp->next proves dp
        // has not begun dying, hence d (unlinkable only after dp dies or
        // dp->next moves) was live when its hazard was published.
        qnode *dr = dp->next.load();
        qnode *d = strip(dr);
        hz_e.set(d);
        bool resolved = false;
        if (tagged(dr) || dp->life.is_unlinked()) {
          resolved = true; // dp is dying/dead; registration is stale
        } else if (dp->next.load() != dr) {
          continue; // splice finished by someone else; re-examine
        } else if (d == nullptr || !d->is_cancelled()) {
          resolved = true; // nothing (cancelled) left to splice
        } else if (d != tail_.value.load()) {
          qnode *dn = freeze_next(d);
          if (dn != nullptr && dp->cas_next(d, dn)) {
            if (d->life.mark_unlinked()) retire_node(d);
            diag::bump(diag::id::clean_unlink);
            resolved = true;
          }
        }
        if (resolved) cas_clean_me(dp, nullptr);
        if (dp == pred) return; // our s is (already) the deferred one
      } else if (cas_clean_me(nullptr, pred)) {
        return; // deferred: someone will splice s out later
      }
    }
  }

  // Pop cancelled nodes off the head until a live one (or emptiness) is
  // exposed. All pops are head-anchored and validated (advance_head aborts
  // if the frozen successor is not the one checked here), hence safe
  // regardless of how the corpses' predecessors died.
  void scavenge_cancelled_prefix() {
    typename Reclaimer::slot hz_h(rec_), hz_x(rec_);
    for (;;) {
      qnode *h = hz_h.protect(head_.value);
      qnode *hnr = h->next.load();
      qnode *hn = strip(hnr);
      hz_x.set(hn);
      // Same validation argument as in clean_inner above.
      if (h != head_.value.load() || hnr != h->next.load())
        continue;
      if (hn == nullptr || !hn->is_cancelled()) return; // front is live
      qnode *before = head_.value.load();
      advance_head(h, hn);
      if (head_.value.load() == before && before == h)
        return; // aborted pop (raced splice): let others finish
    }
  }

  SSQ_ACQUIRES_HAZARD
  qnode *protect_clean_me(typename Reclaimer::slot &hz) noexcept {
    for (;;) {
      void *p = clean_me_.value.load();
      hz.set(static_cast<qnode *>(p));
      if (clean_me_.value.load() == p)
        return static_cast<qnode *>(p);
    }
  }

  bool cas_clean_me(qnode *expected, qnode *desired) noexcept {
    void *e = expected;
    return clean_me_.value.compare_exchange_strong(e, desired);
  }

  Reclaimer rec_;
  sync::spin_policy pol_;
  cleaning_policy cleaning_;
  void (*disposer_)(item_token) = nullptr;

  SSQ_GUARDED_BY_HAZARD(rec_)
  padded_atomic<qnode *> head_;
  SSQ_GUARDED_BY_HAZARD(rec_)
  padded_atomic<qnode *> tail_;
  SSQ_GUARDED_BY_HAZARD(rec_)
  padded_atomic<void *> clean_me_;
};

} // namespace ssq

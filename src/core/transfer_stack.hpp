// The synchronous dual stack -- the paper's UNFAIR algorithm (§3.3, "The
// synchronous dual stack"), extended with timeout and poll/offer modes.
//
// Structure: a singly linked list with a head pointer, derived from the
// Treiber stack. It holds either data or reservations, plus (transiently) a
// single *fulfilling* node of the opposite type at the top. A fulfiller
// pushes its fulfilling node above a waiting reservation; from that moment
// every other thread must help complete the annihilation of the top two
// nodes before doing its own work (lock-freedom via helping).
//
// Linearization points (paper §3.3):
//   * same-mode path: the head CAS that pushes our node (request), and the
//     observation that our match word changed (follow-up);
//   * fulfilling path: the head CAS that pushes the fulfilling node; the
//     follow-up linearizes immediately after.
//
// Port notes (C++ vs. Java -- what GC was hiding):
//
//  1. Result handoff. The JDK lets a waiter read `match.item` and a
//     fulfiller read `m.item` *after* the nodes are popped, relying on GC to
//     keep the counterpart's node alive. Here each node owns a write-once
//     transfer word (`xword`); the unique winner of the match CAS copies
//     the counterpart's token into each party's own node, so nobody ever
//     dereferences a node it does not own or hold a hazard on:
//
//       waiter node m:  xword: empty -> self-token          (cancelled)
//                              empty -> data token          (m is a request)
//                              empty -> fulfiller address   (m is data)
//       fulfilling s:   xword: empty -> m's data token      (s is a request)
//                              empty -> m's address         (s is data)
//
//  2. Unlink safety. A splice of a cancelled node through a *stale* (already
//     popped) predecessor would retire a node still reachable from the live
//     chain -- harmless in Java, fatal here. As in transfer_queue: before a
//     node is physically unlinked its own next pointer is frozen (tag bit),
//     and every next-pointer splice expects an untagged value, so it cannot
//     succeed through a predecessor that has begun dying. Head pops freeze
//     the victim(s) before the head CAS for the same reason, which also
//     pins the post-pop successor value the CAS installs.
//
// Memory orders (docs/memory_model.md): every atomic operation is seq_cst
// -- the annihilation argument ("a frozen fulfilling node always implies
// its xword is set") and the oracle's pairing proof lean on one total
// order -- except the store that fills a fresh node's `next` before the
// head CAS publishes it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

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

template <typename Reclaimer = mem::pooled_hp_reclaimer>
class transfer_stack {
  enum : unsigned { req_mode = 0, data_mode = 1, fulfilling = 2 };

 public:
  explicit transfer_stack(sync::spin_policy pol = sync::spin_policy::adaptive(),
                          Reclaimer rec = Reclaimer{})
      : rec_(std::move(rec)), pol_(pol) {
    head_.value.store(nullptr, std::memory_order_relaxed);
  }

  ~transfer_stack() {
    snode *n = head_.value.load(std::memory_order_relaxed);
    while (n) {
      snode *next = strip(n->next.load(std::memory_order_relaxed));
      if ((n->mode & data_mode) && disposer_ && n->item != empty_token &&
          n->xword.load(std::memory_order_relaxed) == empty_token)
        disposer_(n->item); // unconsumed data of a still-parked producer
      rec_.destroy(n);
      n = next;
    }
  }

  transfer_stack(const transfer_stack &) = delete;
  transfer_stack &operator=(const transfer_stack &) = delete;

  void set_token_disposer(void (*d)(item_token)) noexcept { disposer_ = d; }

  // See transfer_queue::xfer for the contract; identical here except that
  // service order is LIFO.
  item_token xfer(item_token e, bool is_data, wait_kind wk,
                  deadline dl = deadline::unbounded(),
                  sync::interrupt_token *tok = nullptr) {
    SSQ_ASSERT(is_data == (e != empty_token), "token/mode mismatch");
    SSQ_ASSERT(wk != wait_kind::async, "the dual stack has no async mode");
    const unsigned mode = is_data ? data_mode : req_mode;

    snode *s = nullptr;
    typename Reclaimer::slot hz_h(rec_), hz_m(rec_);

    for (;;) {
      snode *h = hz_h.protect(head_.value);
      if (h == nullptr || h->mode == mode) {
        // ---------------------------------------- empty or same-mode: wait
        if (wk == wait_kind::now ||
            (wk == wait_kind::timed && dl.expired_now())) {
          if (h != nullptr && h->is_cancelled()) {
            pop_head(h); // shed garbage, then retry the whole decision
            continue;
          }
          if (s) rec_.destroy(s); // never linked: back through the policy
          return empty_token;
        }
        if (s == nullptr) {
          s = rec_.template create<snode>(e, mode);
        } else {
          // Reused after a lost push CAS, possibly in the fulfill branch:
          // drop its fulfilling bit. It was never published, so its life
          // bits are still clear.
          s->mode = mode;
        }
        SSQ_MO_JUSTIFIED(
            "relaxed: pre-publication store; the seq_cst head CAS below "
            "publishes the node");
        s->next.store(h, std::memory_order_relaxed);
        SSQ_INTERLEAVE("ts.push");
        if (!head_.value.compare_exchange_strong(h, s)) {
          diag::bump(diag::id::cas_fail);
          continue;
        }
        // Request linearizes at the push above.
        item_token x = await_fulfill(s, dl, tok);
        if (x == s->self_token()) { // cancelled
          SSQ_INTERLEAVE("ts.cancelled");
          clean(s);
          if (s->life.mark_released()) rec_retire(s);
          return empty_token;
        }
        // Fulfilled. The fulfiller pops the pair before it returns (or a
        // helper does), so we only give up our ownership and leave; see
        // docs/algorithms.md §3 on why this port skips Listing 6's
        // waiter-side pop (lines 13-15).
        if (s->life.mark_released()) rec_retire(s);
        return is_data ? e : x;
      } else if (!(h->mode & fulfilling)) {
        // --------------------------------------- complementary: fulfill
        if (h->is_cancelled()) { // shed a cancelled top node
          pop_head(h);
          continue;
        }
        if (s == nullptr) {
          s = rec_.template create<snode>(e, mode | fulfilling);
        } else {
          s->mode = mode | fulfilling; // reused after a lost push CAS
        }
        SSQ_MO_JUSTIFIED(
            "relaxed: pre-publication store; the seq_cst head CAS below "
            "publishes the node");
        s->next.store(h, std::memory_order_relaxed);
        SSQ_INTERLEAVE("ts.fulfill.push");
        if (!head_.value.compare_exchange_strong(h, s)) {
          diag::bump(diag::id::cas_fail);
          continue;
        }
        // Fulfillment loop: annihilate s with the node beneath it. Other
        // threads may help; completion is signalled through s->xword.
        for (;;) {
          item_token got = s->xword.load();
          if (got != empty_token) { // a helper finished the match for us
            if (!s->life.is_unlinked()) pop_pair(s);
            if (s->life.mark_released()) rec_retire(s);
            return is_data ? e : got;
          }
          if (s->life.is_unlinked()) {
            // s left the stack with xword still empty at our read above.
            // Either a match+pop raced between the two reads (xword is set
            // now and final), or a helper retracted us from an empty stack
            // (m == nullptr path) and we must start over.
            got = s->xword.load();
            if (got != empty_token) {
              if (s->life.mark_released()) rec_retire(s);
              return is_data ? e : got;
            }
            if (s->life.mark_released()) rec_retire(s);
            s = nullptr;
            break; // outer loop; fresh node next time
          }
          auto [m, s_dying] = read_next(s, hz_m);
          if (s_dying)
            continue; // a match+pop is in flight; xword is set (try_match
                      // stores it before any pop can freeze s)
          if (m == nullptr) {
            // All waiters vanished (timed out): retract the fulfilling
            // node and start over.
            snode *expected = s;
            if (head_.value.compare_exchange_strong(expected, nullptr)) {
              snode *dead = s;
              s = nullptr;
              if (dead->life.mark_unlinked()) rec_retire(dead);
              if (dead->life.mark_released()) rec_retire(dead);
              break; // outer loop; fresh node next time
            }
            continue;
          }
          if (try_match(m, s)) {
            pop_pair(s);
            item_token r = s->xword.load();
            if (s->life.mark_released()) rec_retire(s);
            return is_data ? e : r;
          }
          // m was cancelled: freeze and splice it out, try its successor.
          snode *mn = freeze_next(m);
          if (s->cas_next(m, mn)) {
            if (m->life.mark_unlinked()) rec_retire(m);
            diag::bump(diag::id::clean_unlink);
          }
        }
      } else {
        // ------------------------------ top is someone else's fulfiller:
        // help complete the annihilation, then retry our own operation.
        help(h, hz_m);
      }
    }
  }

  // ------------------------------------------------------------ observers

  bool is_empty() const noexcept {
    return head_.value.load() == nullptr;
  }

  // ssq-lint: suppress(hazard-coverage) -- racy observer by contract (the
  // `unsafe_` prefix is the documentation); callers must quiesce first.
  std::size_t unsafe_length() const noexcept {
    std::size_t n = 0;
    for (snode *p = head_.value.load(); p; p = strip(p->next.load()))
      ++n;
    return n;
  }

 private:
  struct snode;

  static snode *strip(snode *p) noexcept {
    return reinterpret_cast<snode *>(reinterpret_cast<std::uintptr_t>(p) &
                                     ~std::uintptr_t(1));
  }
  static bool tagged(snode *p) noexcept {
    return (reinterpret_cast<std::uintptr_t>(p) & 1) != 0;
  }
  static snode *with_tag(snode *p) noexcept {
    return reinterpret_cast<snode *>(reinterpret_cast<std::uintptr_t>(p) | 1);
  }

  struct snode {
    SSQ_GUARDED_BY_HAZARD(rec_)
    std::atomic<snode *> next{nullptr};
    std::atomic<item_token> xword{empty_token}; // see file comment
    item_token item;                            // immutable after creation
    unsigned mode;                              // mutated only pre-publish
    sync::park_slot slot;
    mem::life_cycle life;

    snode(item_token it, unsigned md) noexcept : item(it), mode(md) {}

    item_token self_token() const noexcept {
      return reinterpret_cast<item_token>(this);
    }
    bool is_cancelled() const noexcept {
      return xword.load() == self_token();
    }
    bool cas_next(snode *expected, snode *desired) noexcept {
      return next.compare_exchange_strong(expected, desired);
    }
  };

  // Freeze n's next pointer (idempotent); returns the stripped successor.
  // Null is terminal for a stack node's next (nothing is ever inserted
  // below an existing node), so it needs no tag.
  SSQ_RETURNS_UNPROTECTED
  static snode *freeze_next(snode *n) noexcept {
    for (;;) {
      snode *raw = n->next.load();
      if (raw == nullptr) return nullptr;
      if (tagged(raw)) return strip(raw);
      if (n->next.compare_exchange_weak(raw, with_tag(raw)))
        return raw;
    }
  }

  void rec_retire(snode *n) {
    rec_.retire(n);
    diag::bump(diag::id::node_free);
  }

  // Protected read of x->next. On return:
  //   * x_dying == false: `node` was live when its hazard was published
  //     (x's next was untagged and unchanged across the publication);
  //   * x_dying == true: x has begun dying; `node` is the frozen successor
  //     VALUE -- usable as a pointer (e.g. as a head-CAS target) but not
  //     dereferenceable unless protected by other means.
  struct next_read {
    snode *node;
    bool x_dying;
  };
  SSQ_ACQUIRES_HAZARD
  next_read read_next(snode *x, typename Reclaimer::slot &hz) noexcept {
    for (;;) {
      snode *raw = x->next.load();
      hz.set(strip(raw));
      if (tagged(raw)) return {strip(raw), true};
      if (x->next.load() == raw) return {raw, false};
    }
  }

  // The match linearization (JDK SNode::tryMatch). Returns true when m is
  // matched to s (by us or by an earlier helper with the same pair).
  // Precondition: caller holds a hazard on m that was published while m was
  // provably live, and on s (or owns it).
  //
  // Completion is IDEMPOTENT by design: the match is two writes -- the
  // winner's CAS on m->xword, then the report into s->xword -- and a
  // different helper can observe the first while the winner is stalled
  // before the second. Since callers pop the pair on `true`, every thread
  // that recognizes the existing match must finish the s->xword write
  // itself (the value is a pure function of the pair, so duplicate stores
  // agree). Otherwise s's owner could find itself unlinked with xword
  // still empty, misread that as "retracted from an empty stack", and
  // restart -- delivering its item a second time (a real double-delivery
  // the linearizability harness caught as a use-after-free of the
  // value box under TSan).
  bool try_match(snode *m, snode *s) noexcept {
    // Value written into the waiter: a reservation receives the fulfiller's
    // data token; a data node receives the fulfiller's address as a pure
    // "claimed" marker.
    const item_token v = (s->mode & data_mode)
                             ? s->item
                             : reinterpret_cast<item_token>(s);
    const item_token back = (s->mode & data_mode)
                                ? reinterpret_cast<item_token>(m)
                                : m->item;
    item_token expected = empty_token;
    // The xword CAS is the match linearization point.
    if (m->xword.compare_exchange_strong(expected, v)) {
      // Unique winner: report the counterpart into the fulfilling node,
      // then wake the waiter. (Order matters: xword before any pop, so a
      // frozen fulfilling node always implies its xword is set.)
      SSQ_INTERLEAVE("ts.match.mid");
      s->xword.store(back);
      m->slot.signal();
      return true;
    }
    if (expected != v) return false; // m cancelled / claimed by another pair
    // m is matched to this same s, but the winner may still be between its
    // two stores: complete the fulfiller's side (and the wake) on its
    // behalf before reporting the pair poppable.
    if (s->xword.load() == empty_token)
      s->xword.store(back);
    m->slot.signal();
    return true;
  }

  // Pop the fulfilling node `top` and its matched partner together.
  // Freezes both victims' next pointers before the head CAS: stale
  // splicers through them then fail, and the installed successor value is
  // immutable (and provably live until the pop, since it could only become
  // head through this very pop).
  //
  // The partner is NOT generally covered by a caller hazard (the
  // helper-finished-our-match path reaches here with none), and a
  // concurrent thread completing the same pop retires it -- so it must be
  // protected before it is dereferenced. Validation: `head == top` read
  // after publishing the hazard proves the partner was not yet retired at
  // that point (retiring it requires first CASing `top` off the head,
  // both seq_cst), and the freeze CAS in the same iteration pins the
  // protected value against concurrent cancelled-partner splices. Nothing
  // is ever pushed above a fulfilling node, so `head != top` can only mean
  // the pop (or retraction) already completed elsewhere.
  void pop_pair(snode *top) {
    SSQ_INTERLEAVE("ts.pop_pair");
    typename Reclaimer::slot hz(rec_);
    snode *m;
    for (;;) {
      snode *raw = top->next.load();
      m = strip(raw);
      hz.set(m);
      if (head_.value.load() != top)
        return; // popped or retracted elsewhere; that thread retires
      if (raw == nullptr) break; // terminal: nothing is inserted below
      if (tagged(raw)) break;    // already frozen: value final, m protected
      if (top->next.compare_exchange_strong(raw, with_tag(raw)))
        break;
    }
    snode *mn = m ? freeze_next(m) : nullptr;
    snode *expected = top;
    if (head_.value.compare_exchange_strong(expected, mn)) {
      if (top->life.mark_unlinked()) rec_retire(top);
      if (m && m->life.mark_unlinked()) rec_retire(m);
    }
  }

  // Pop a (cancelled) head node.
  void pop_head(snode *h) {
    snode *hn = freeze_next(h);
    snode *expected = h;
    if (head_.value.compare_exchange_strong(expected, hn)) {
      if (h->life.mark_unlinked()) rec_retire(h);
    }
  }

  // Help the fulfilling node h annihilate with its partner. Caller holds a
  // hazard on h (it was protected as head).
  void help(snode *h, typename Reclaimer::slot &hz_m) {
    auto [m, h_dying] = read_next(h, hz_m);
    if (h_dying || h->life.is_unlinked()) return; // pop already in flight
    if (m == nullptr) {
      snode *expected = h;
      if (head_.value.compare_exchange_strong(expected, nullptr)) {
        if (h->life.mark_unlinked()) rec_retire(h);
      }
      return;
    }
    // m is hazard-protected via hz_m; its successor is only ever used as a
    // frozen pointer value inside the pops.
    if (try_match(m, h)) {
      pop_pair(h);
    } else {
      // m is cancelled: freeze and splice it out on the fulfiller's behalf.
      snode *mn = freeze_next(m);
      if (h->cas_next(m, mn)) {
        if (m->life.mark_unlinked()) rec_retire(m);
        diag::bump(diag::id::clean_unlink);
      }
    }
  }

  // Wait for our xword to change; cancel on timeout/interrupt.
  item_token await_fulfill(snode *s, deadline dl,
                           sync::interrupt_token *tok) {
    auto done = [&] { return s->xword.load() != empty_token; };
    auto at_front = [&] {
      // Next in line: on top, the next counterpart pushes the fulfiller that
      // matches us; under a fulfilling head, a match is already draining the
      // stack toward us (the JDK's shouldSpin). The JDK's `h == null` clause
      // is left out: a null head means our node was already popped, which
      // happens only after its match, so `done()` already holds.
      typename Reclaimer::slot hz(rec_);
      snode *h = hz.protect(head_.value);
      return h == s || (h != nullptr && (h->mode & fulfilling));
    };
    auto r = sync::spin_then_park(s->slot, done, at_front, pol_, dl, tok);
    if (r != sync::park_slot::wait_result::woken) {
      SSQ_INTERLEAVE("ts.cancel.cas");
      item_token expected = empty_token;
      s->xword.compare_exchange_strong(expected, s->self_token());
    }
    return s->xword.load();
  }

  // Unlink cancelled nodes at and around s (JDK SNode::clean, minus the
  // `past` cancellation refinement, which would require dereferencing a
  // possibly-dead successor; the pointer is used for comparison only).
  void clean(snode *s) {
    diag::bump(diag::id::clean_call);
    SSQ_INTERLEAVE("ts.clean");
    typename Reclaimer::slot hz_p(rec_), hz_q(rec_);

    snode *past = strip(s->next.load()); // cmp-only

    // Absorb cancelled prefix.
    snode *p;
    for (;;) {
      p = hz_p.protect(head_.value);
      if (p == nullptr || p == past) return;
      if (!p->is_cancelled()) break;
      pop_head(p);
    }
    // Unsplice interior cancelled nodes up to `past`.
    while (p != nullptr && p != past) {
      auto [n, p_dying] = read_next(p, hz_q);
      if (p_dying) return; // lost our anchor; head traffic finishes the job
      if (n != nullptr && n->is_cancelled()) {
        snode *nn = freeze_next(n);
        if (p->cas_next(n, nn)) {
          if (n->life.mark_unlinked()) rec_retire(n);
          diag::bump(diag::id::clean_unlink);
        } else {
          return; // p changed under us (dying or raced); give up
        }
      } else {
        // Advance: transfer protection p <- n. n is covered by hz_q
        // continuously from read_next's validation until hz_p re-publishes
        // it, so the chain of custody is unbroken. No re-read of p->next
        // here: hz_p.set just dropped p's protection, so dereferencing p
        // again would race its reclamation; if n has since been spliced
        // out, the next read_next observes it dying and gives up.
        hz_p.set(n);
        p = n;
      }
    }
  }

  Reclaimer rec_;
  sync::spin_policy pol_;
  void (*disposer_)(item_token) = nullptr;
  SSQ_GUARDED_BY_HAZARD(rec_)
  padded_atomic<snode *> head_;
};

} // namespace ssq

// The segmented synchronous-queue core -- the paper's FAIR dual queue
// rebuilt over CQS-style waiter-cell segments (Koval et al., PAPERS.md)
// instead of per-node linked handoff.
//
// Structure: a singly linked chain of 64-cell cache-contiguous segments.
// Two monotonic index words dispatch arrivals: the i-th sender and the
// i-th receiver share cell i (segment i/64, slot i%64). Whoever arrives
// first installs itself in the cell and waits; the second party commits
// the rendezvous with one CAS of the cell's state word. This keeps the
// linked cores' strict-FIFO fairness (indices are FAA order) while cutting
// allocator and hazard traffic to 1/64th per transfer: segments, not
// nodes, are the unit of allocation and of retirement.
//
// Per-cell state machine (ssq-lint audits every edge; see
// support/annotations.hpp SSQ_CELL_TRANSITION):
//
//   EMPTY ---> WAITER ----> MATCHED        (partner commits, signals)
//     |          `--------> POISONED       (owner timeout/interrupt, or a
//     |                                     losing selector: owner retries)
//     |---> RESERVED -> CLAIMED -> {MATCHED, POISONED}   (select protocol)
//     `---> POISONED                        (now-op found nobody; the
//                                            already-indexed peer retries)
//
// Exactly one of {match, poison} wins the state CAS, which is the
// cancellation linearization point -- O(1), no unlinking, no cleaning
// passes. A party that finds its cell POISONED re-FAAs for a fresh index.
//
// Segment retirement: each cell owes two contributions (shares) to its
// segment's `done` count. A party pays its own share strictly after its
// last access to the cell, with one exception: whoever commits a plain
// waiter (WAITER -> MATCHED) pays both shares, and the woken waiter pays
// none. The waiter's remaining reads (state, item, its slot's disarm) are
// covered instead by the hazard its xfer slot has held on the segment since
// find_segment validated it, so a reaped segment is not freed under them.
// Every other party pays 1, a selector included: its select_register
// hazard is gone by the time it finalizes, so its owed share is what keeps
// the segment linked until then. When a segment's 128th share lands and it
// has a successor, the head is advanced past it and the whole segment is
// retired through the reclaimer seam -- one retire call per 64 transfers
// (ablation_segment measures the ratio). head_id_ is a monotonic
// watermark: a traverser that published a hazard on a next-pointer
// revalidates `head_id_ <= id(s)+1` before trusting it, which is the
// M&S-style protect-validate step rebuilt for chains whose unlink never
// touches the unlinked node. Memory (docs/memory_reclamation.md §8): a
// poisoned cell is finished only when the other side's index reaches it,
// so the segments up to the further of the two indices stay linked. When
// only one side cancels, they grow with its cancellations; unlinking fully
// poisoned segments from the middle of the chain (Aksenov et al.,
// PAPERS.md) is not done yet.
//
// live_ (is_empty, unsafe_length) is written only by a cell's installer:
// +1 when its CAS installs WAITER or a reservation, -1 when it leaves the
// cell (await_match or select_finalize returns). It counts installed cells
// whose owner has not left yet: racy by contract, exact at quiescence.
//
// Memory orders (docs/memory_model.md): every atomic operation is seq_cst,
// as the paper's Java volatiles are, except the stores that fill a cell's
// `item` just before the state CAS or store that publishes it. The
// oracle's FIFO-pairing proof, the now-path's counter Dekker and the
// hazard protect-validate all lean on that one total order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "check/schedule_fuzz.hpp"
#include "core/wait_kind.hpp"
#include "memory/reclaim.hpp"
#include "support/annotations.hpp"
#include "support/cacheline.hpp"
#include "support/codec.hpp"
#include "support/config.hpp"
#include "support/diagnostics.hpp"
#include "sync/interrupt.hpp"
#include "sync/park_slot.hpp"
#include "sync/spin_policy.hpp"

namespace ssq {

// State-word values. Aligned pointers (> cell_state_max) are RESERVED
// states: the word holds the installing selector's seg_select_wait*.
inline constexpr std::uintptr_t cell_empty = 0;
inline constexpr std::uintptr_t cell_waiter = 1;
inline constexpr std::uintptr_t cell_matched = 2;
inline constexpr std::uintptr_t cell_poisoned = 3;
inline constexpr std::uintptr_t cell_claimed = 4;
inline constexpr std::uintptr_t cell_state_max = 7;

struct alignas(cacheline_size) seg_cell {
  SSQ_CELL_STATE_FIELD
  std::atomic<std::uintptr_t> state{cell_empty};
  // Sender-side cells carry the token from before the WAITER install;
  // receiver-side cells have it deposited by the matching sender.
  std::atomic<item_token> item{empty_token};
  sync::park_slot slot;
};

// Non-template so select records can point at segments across reclaimer
// instantiations. Trivially destructible by design: segments recycle
// through the same pooled-alloc seam as qnodes (a dedicated large-block
// size class; node_pool.cpp).
struct seg_segment {
  static constexpr std::size_t cells_per_seg = 64;
  static constexpr unsigned contributions = 2 * cells_per_seg;

  // id and next are read-mostly: every arrival's find_segment reads them.
  // done is written by every contribution, so it gets a line of its own.
  // id is written only before the segment is linked: by the constructor,
  // or when segment_queue's spare is taken for a new extension.
  std::uint64_t id;
  SSQ_GUARDED_BY_HAZARD(rec_)
  std::atomic<seg_segment *> next{nullptr};
  alignas(cacheline_size) std::atomic<unsigned> done{0};
  seg_cell cells[cells_per_seg];

  explicit seg_segment(std::uint64_t id_) noexcept : id(id_) {}
};
static_assert(std::is_trivially_destructible_v<seg_segment>);

// ---------------------------------------------------------------------------
// Select-registration records (core/select.hpp). One arbiter per select
// round, one wait record per registered queue; all records live on the
// selecting thread's stack. A partner that claims a reservation pins the
// arbiter (pins) around every access so the selector cannot pop its frame
// mid-signal: the selector spins pins==0 before returning from a round.
// ---------------------------------------------------------------------------

struct seg_select_arbiter {
  sync::park_slot slot;
  // First committer wins: a seg_select_wait*, or the cancel sentinel
  // installed by the selector's own timeout path.
  std::atomic<void *> winner{nullptr};
  std::atomic<int> pins{0};

  static void *cancel_sentinel() noexcept {
    return reinterpret_cast<void *>(std::uintptr_t{1});
  }
};

struct seg_select_wait {
  seg_select_arbiter *arb = nullptr;
  seg_segment *seg = nullptr;
  seg_cell *cl = nullptr;
  bool is_data = false;
  // Set by a losing partner that poisoned this reservation: the selector
  // must re-run its round (the rendezvous it was offered went elsewhere).
  std::atomic<bool> poisoned{false};
  item_token result = empty_token;
};

enum class seg_reg_status { installed, completed, lost, retry };

// ---------------------------------------------------------------------------

template <typename Reclaimer = mem::pooled_hp_reclaimer>
class segment_queue {
 public:
  using segment = seg_segment;
  static constexpr std::size_t seg_cells = seg_segment::cells_per_seg;
  static constexpr unsigned seg_contribs = seg_segment::contributions;

  explicit segment_queue(sync::spin_policy pol = sync::spin_policy::adaptive(),
                         Reclaimer rec = Reclaimer{})
      : rec_(std::move(rec)), pol_(pol) {
    seg_segment *s0 = rec_.template create<seg_segment>(0);
    diag::bump(diag::id::seg_alloc);
    head_seg_.value.store(s0, std::memory_order_relaxed);
    enq_cursor_.value.store(s0, std::memory_order_relaxed);
    deq_cursor_.value.store(s0, std::memory_order_relaxed);
    head_id_.value.store(0, std::memory_order_relaxed);
    // Cursors are external hazard roots: a protect() on them is valid even
    // though they lag head_seg_ (same pattern as transfer_queue::clean_me_).
    rec_.register_root(&enq_cursor_.value);
    rec_.register_root(&deq_cursor_.value);
  }

  ~segment_queue() {
    rec_.unregister_root(&enq_cursor_.value);
    rec_.unregister_root(&deq_cursor_.value);
    // Single-threaded teardown: free the still-linked suffix. A sender
    // token left in a WAITER cell goes to the disposer; receiver-side
    // waiter cells hold empty_token and are skipped by the same test.
    seg_segment *s = head_seg_.value.load(std::memory_order_relaxed);
    while (s) {
      seg_segment *nx = s->next.load(std::memory_order_relaxed);
      if (disposer_) {
        for (std::size_t i = 0; i < seg_cells; ++i) {
          std::uintptr_t st = s->cells[i].state.load(std::memory_order_relaxed);
          item_token it = s->cells[i].item.load(std::memory_order_relaxed);
          if (st == cell_waiter && it != empty_token) disposer_(it);
        }
      }
      rec_.destroy(s);
      s = nx;
    }
    if (seg_segment *sp = spare_.load(std::memory_order_relaxed))
      rec_.destroy(sp);
  }

  segment_queue(const segment_queue &) = delete;
  segment_queue &operator=(const segment_queue &) = delete;

  void set_token_disposer(void (*d)(item_token)) noexcept { disposer_ = d; }

  // The unified transfer operation; contract identical to
  // transfer_queue::xfer (same facade drives both cores).
  item_token xfer(item_token e, bool is_data, wait_kind wk,
                  deadline dl = deadline::unbounded(),
                  sync::interrupt_token *tok = nullptr) {
    SSQ_ASSERT(is_data == (e != empty_token), "token/mode mismatch");
    SSQ_ASSERT(wk != wait_kind::async, "the segmented core has no async mode");
    typename Reclaimer::slot hz(rec_);
    for (;;) {
      if (wk == wait_kind::now && !counterpart_waiting(is_data))
        return empty_token;
      const std::uint64_t idx = next_index(is_data);
      seg_segment *s = find_segment(idx / seg_cells, is_data, hz);
      seg_cell &c = s->cells[idx % seg_cells];
      item_token out = empty_token;
      switch (run_cell(s, c, idx, e, is_data, wk, dl, tok, out)) {
        case cell_outcome::transferred:
          return out;
        case cell_outcome::cancelled:
          return empty_token;
        case cell_outcome::retry:
          break; // poisoned cell or now-miss race: fresh index / recheck
      }
    }
  }

  // ------------------------------------------------------------ select
  // Registering select support (core/select.hpp). A reservation is the
  // selector's seg_select_wait* installed as the cell state; the partner
  // that would have matched a WAITER instead claims the record and races
  // for its arbiter.

  seg_reg_status select_register(seg_select_wait &w, item_token e,
                                 bool is_data, deadline dl,
                                 sync::interrupt_token *tok) {
    typename Reclaimer::slot hz(rec_);
    for (;;) {
      // seq_cst: the winner word is the select round's decision point and
      // is raced from other queues' partners; keep it totally ordered.
      if (w.arb->winner.load() != nullptr)
        return seg_reg_status::lost;
      const std::uint64_t idx = next_index(is_data);
      seg_segment *s = find_segment(idx / seg_cells, is_data, hz);
      seg_cell &c = s->cells[idx % seg_cells];
      seg_reg_status r = register_cell(s, c, w, e, is_data, dl, tok);
      if (r != seg_reg_status::retry) return r;
    }
  }

  // Resolve an *installed* registration once arbitration is decided
  // (winner set, or the cancel sentinel installed). Returns true iff this
  // registration's cell carried the match; w.result then holds the token
  // for take-side registrations.
  bool select_finalize(seg_select_wait &w) {
    seg_cell &c = *w.cl;
    std::uintptr_t st = c.state.load();
    if (st == reinterpret_cast<std::uintptr_t>(&w)) {
      SSQ_CELL_TRANSITION(cell_resv, cell_poisoned);
      if (c.state.compare_exchange_strong(st, cell_poisoned)) {
        diag::bump(diag::id::cell_poison);
        live_.value.fetch_sub(1);
        contribute(w.seg);
        return false;
      }
    }
    for (int i = 0; st == cell_claimed; ++i) {
      // A partner is between claim and commit -- a handful of instructions.
      pol_.relax(i);
      st = c.state.load();
    }
    const bool matched = st == cell_matched;
    if (matched && !w.is_data) {
      w.result = c.item.load();
    }
    live_.value.fetch_sub(1);
    contribute(w.seg);
    return matched;
  }

  // ---------------------------------------------------------- observers
  // Racy snapshots by contract (facade docs), exact at quiescence.

  bool is_empty() const noexcept {
    return live_.value.load() <= 0;
  }

  std::size_t unsafe_length() const noexcept {
    std::int64_t n = live_.value.load();
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }

 private:
  enum class cell_outcome { transferred, cancelled, retry };

  std::uint64_t next_index(bool is_data) noexcept {
    // seq_cst: the index FAAs and the counterpart_waiting counter reads
    // form the now-path's Dekker; the FIFO-pairing oracle argument orders
    // all four words in one total order (docs/memory_model.md).
    return (is_data ? senders_ : receivers_).value.fetch_add(1);
  }

  bool counterpart_waiting(bool is_data) const noexcept {
    const std::uint64_t peers = (is_data ? receivers_ : senders_).value.load();
    const std::uint64_t mine = (is_data ? senders_ : receivers_).value.load();
    return peers > mine;
  }

  // Walk (extending as needed) to the segment holding cell-index block
  // `id`, leaving it covered by hz. The caller owes its cell a
  // contribution, which pins head_id_ <= id throughout.
  SSQ_ACQUIRES_HAZARD
  seg_segment *find_segment(std::uint64_t id, bool is_data,
                            typename Reclaimer::slot &hz) {
    auto &cursor = is_data ? enq_cursor_ : deq_cursor_;
    seg_segment *s = static_cast<seg_segment *>(hz.protect(cursor.value));
    for (;;) {
      if (s->id > id) {
        // The cursor overshot our block (it lags arbitrary other threads);
        // the head cannot have, since our contribution is still owed.
        s = hz.protect(head_seg_.value);
        continue;
      }
      if (s->id == id) break;
      const std::uint64_t sid = s->id;
      seg_segment *n = s->next.load();
      if (n == nullptr) {
        seg_segment *fresh = take_spare(sid + 1);
        if (s->next.compare_exchange_strong(n, fresh)) {
          diag::bump(diag::id::seg_alloc);
          n = fresh;
        } else {
          keep_spare(fresh); // lost the install race; n holds the winner
        }
      }
      hz.set(n);
      SSQ_INTERLEAVE("sq.walk");
      // Protect-validate: n (= segment sid+1) can only have been unlinked
      // if the head watermark passed it, i.e. moved beyond sid+1. The
      // watermark is bumped before the old head is retired, so a stale
      // reading here implies our hazard published before any scan freed n.
      // seq_cst: this load must order against the hazard publish in
      // hz.set and the reaper's watermark bump (store-load Dekker).
      if (head_id_.value.load() > sid + 1) {
        s = hz.protect(head_seg_.value);
        continue;
      }
      s = n;
    }
    advance_cursor(cursor, s);
    return s;
  }

  // Both parties of a segment's first cell may extend the chain; the loser
  // of the `next` CAS keeps its never-linked segment here for the next
  // extension instead of freeing it. At most one spare per queue.
  seg_segment *take_spare(std::uint64_t id) {
    seg_segment *sp = spare_.exchange(nullptr);
    if (sp == nullptr) return rec_.template create<seg_segment>(id);
    sp->id = id;
    return sp;
  }

  void keep_spare(seg_segment *s) {
    seg_segment *expected = nullptr;
    if (!spare_.compare_exchange_strong(expected, s))
      rec_.destroy(s); // a spare is already kept
  }

  void advance_cursor(padded_atomic<void *> &cursor, seg_segment *s) {
    // s stays covered by the caller's slot; cur needs its own so the
    // id-read and the pointer CAS act on a pinned segment (no ABA: a
    // segment cannot be retired while it is the cursor's current value).
    typename Reclaimer::slot hz(rec_);
    for (;;) {
      seg_segment *cur = static_cast<seg_segment *>(hz.protect(cursor.value));
      if (cur->id >= s->id) return;
      void *expected = static_cast<void *>(cur);
      if (cursor.value.compare_exchange_strong(expected,
                                               static_cast<void *>(s)))
        return;
    }
  }

  // `n` shares of a cell's retirement accounting: 1 for the caller's own,
  // 2 when the committer of a plain waiter pays the waiter's too. Must be
  // the caller's last access to the cell/segment.
  void contribute(seg_segment *s, unsigned n = 1) {
    if (s->done.fetch_add(n) + n == seg_contribs)
      reap_head();
  }

  void reap_head() {
    typename Reclaimer::slot hz(rec_);
    for (;;) {
      seg_segment *h = hz.protect(head_seg_.value);
      if (h->done.load() != seg_contribs) return;
      seg_segment *n = h->next.load();
      if (n == nullptr) return; // never unlink the only segment
      seg_segment *expected = h;
      SSQ_INTERLEAVE("sq.reap");
      // seq_cst: the head swing orders against concurrent protect-validate
      // (hazard publish / watermark read) in find_segment.
      if (head_seg_.value.compare_exchange_strong(expected, n)) {
        bump_head_id(h->id + 1);
        retire_seg(h);
      }
      // Loop: either way the head moved; consecutive done segments are
      // swept in one pass.
    }
  }

  void bump_head_id(std::uint64_t id) noexcept {
    // seq_cst: the watermark is the retire side of the protect-validate
    // Dekker in find_segment; it must be totally ordered with the hazard
    // publish and the validation load.
    std::uint64_t cur = head_id_.value.load();
    while (cur < id && !head_id_.value.compare_exchange_weak(cur, id)) {
    }
  }

  // One reclaimer transaction covers 64 cells; seg_retire is what
  // ablation_segment reads to show the 64:1 retire-traffic reduction.
  void retire_seg(seg_segment *s) {
    diag::bump(diag::id::seg_retire);
    rec_.retire(s);
    diag::bump(diag::id::node_free); // freed (possibly deferred)
  }

  // Play out one cell. `retry` means the index was burned (poisoned cell
  // or now-race) and the caller should start over.
  cell_outcome run_cell(seg_segment *s, seg_cell &c, std::uint64_t idx,
                        item_token e, bool is_data, wait_kind wk, deadline dl,
                        sync::interrupt_token *tok, item_token &out) {
    std::uintptr_t st = c.state.load();
    for (;;) {
      if (st == cell_empty) {
        if (wk == wait_kind::now) {
          // The counter pre-check proved our counterpart already took this
          // index; it just has not arrived. A now-op cannot wait: kill the
          // cell (the counterpart will re-FAA) and re-check the counters.
          SSQ_INTERLEAVE("sq.now.poison");
          SSQ_CELL_TRANSITION(cell_empty, cell_poisoned);
          if (c.state.compare_exchange_strong(st, cell_poisoned)) {
            diag::bump(diag::id::cell_poison);
            contribute(s);
            return cell_outcome::retry;
          }
          continue; // counterpart arrived after all; st reloaded
        }
        if (is_data) {
          SSQ_MO_JUSTIFIED(
              "relaxed: the EMPTY -> WAITER CAS below publishes it");
          c.item.store(e, std::memory_order_relaxed);
        }
        SSQ_INTERLEAVE("sq.install");
        SSQ_CELL_TRANSITION(cell_empty, cell_waiter);
        if (c.state.compare_exchange_strong(st, cell_waiter)) {
          live_.value.fetch_add(1);
          const cell_outcome r = await_match(s, c, idx, e, is_data, dl, tok,
                                             out);
          live_.value.fetch_sub(1);
          return r;
        }
        continue;
      }
      if (st == cell_poisoned) {
        contribute(s);
        return cell_outcome::retry;
      }
      if (st == cell_waiter) {
        item_token got = e;
        if (is_data) {
          SSQ_MO_JUSTIFIED(
              "relaxed: the WAITER -> MATCHED CAS below publishes it");
          c.item.store(e, std::memory_order_relaxed);
        } else {
          got = c.item.load();
        }
        SSQ_INTERLEAVE("sq.match.cas");
        SSQ_CELL_TRANSITION(cell_waiter, cell_matched);
        if (c.state.compare_exchange_strong(st, cell_matched)) {
          c.slot.signal();
          contribute(s, 2); // the waiter's share too: see the file comment
          out = got;
          return cell_outcome::transferred;
        }
        continue; // waiter cancelled (or a losing selector poisoned it)
      }
      if (st == cell_claimed) {
        // A cell's only parties are its two index-holders; CLAIMED is
        // written by a partner claiming a reservation, and we are the
        // partner. Unreachable.
        SSQ_ASSERT(false, "segment_queue: partner observed CLAIMED");
        return cell_outcome::retry;
      }
      // RESERVED: the counterpart is a registered selector.
      return claim_reservation(s, c, st, e, is_data, out);
    }
  }

  // Commit or refuse a rendezvous against a reservation found in our cell.
  cell_outcome claim_reservation(seg_segment *s, seg_cell &c,
                                 std::uintptr_t st, item_token e, bool is_data,
                                 item_token &out) {
    auto *w = reinterpret_cast<seg_select_wait *>(st);
    std::uintptr_t ex = st;
    SSQ_INTERLEAVE("sq.resv.claim");
    SSQ_CELL_TRANSITION(cell_resv, cell_claimed);
    if (!c.state.compare_exchange_strong(ex, cell_claimed)) {
      // The selector resolved the reservation first (poisoned it).
      contribute(s);
      return cell_outcome::retry;
    }
    // From CLAIMED until our final-state store the selector spins in
    // select_finalize, and from pins++ until pins-- it cannot pop the
    // record's frame: both ends of the access window are covered.
    seg_select_arbiter *arb = w->arb;
    arb->pins.fetch_add(1);
    void *expect_w = nullptr;
    if (arb->winner.compare_exchange_strong(expect_w, w)) {
      item_token got = e;
      if (is_data) {
        SSQ_MO_JUSTIFIED(
            "relaxed: the CLAIMED -> MATCHED store below publishes it");
        c.item.store(e, std::memory_order_relaxed);
      } else {
        got = c.item.load();
      }
      SSQ_CELL_TRANSITION(cell_claimed, cell_matched);
      c.state.store(cell_matched);
      arb->slot.signal();
      arb->pins.fetch_sub(1);
      contribute(s);
      out = got;
      return cell_outcome::transferred;
    }
    // The select committed elsewhere: kill the cell and nudge the selector
    // awake so it can re-run its round.
    SSQ_CELL_TRANSITION(cell_claimed, cell_poisoned);
    c.state.store(cell_poisoned);
    diag::bump(diag::id::cell_poison);
    w->poisoned.store(true);
    arb->slot.signal();
    arb->pins.fetch_sub(1);
    contribute(s);
    return cell_outcome::retry;
  }

  // Installed-waiter wait loop: park until the partner commits, our
  // deadline/interrupt cancels, or a losing selector poisons us.
  cell_outcome await_match(seg_segment *s, seg_cell &c, std::uint64_t idx,
                           item_token e, bool is_data, deadline dl,
                           sync::interrupt_token *tok, item_token &out) {
    auto done = [&c] { return c.state.load() != cell_waiter; };
    auto &peer_ctr = is_data ? receivers_ : senders_;
    // Next in line: the peer counter has reached our index, so the next
    // counterpart's FAA lands on this cell. (`>` would hold only once that
    // counterpart has already claimed it, when spinning no longer helps.)
    // spin_then_park asks this only once the short spin has run out, so a
    // handoff caught early never reads the partner's counter line.
    auto at_front = [&peer_ctr, idx] { return peer_ctr.value.load() >= idx; };
    auto r = sync::spin_then_park(c.slot, done, at_front, pol_, dl, tok);
    if (r != sync::park_slot::wait_result::woken) {
      SSQ_INTERLEAVE("sq.cancel.cas");
      std::uintptr_t ex = cell_waiter;
      SSQ_CELL_TRANSITION(cell_waiter, cell_poisoned);
      if (c.state.compare_exchange_strong(ex, cell_poisoned)) {
        diag::bump(diag::id::cell_poison);
        contribute(s);
        out = empty_token;
        return cell_outcome::cancelled;
      }
      // Lost the race to a concurrent finalizer; fall through to read it.
    }
    // A committer may already have paid our share and reaped the segment;
    // only our hazard keeps it from being freed under the reads below.
    SSQ_INTERLEAVE("sq.woken");
    std::uintptr_t st = c.state.load();
    if (st == cell_poisoned) {
      // Foreign poison (a selector whose select went elsewhere): our claim
      // on a rendezvous is still open, retry at a fresh index.
      contribute(s);
      return cell_outcome::retry;
    }
    SSQ_ASSERT(st == cell_matched, "waiter woke to a non-final cell state");
    out = is_data ? e : c.item.load();
    // No contribution: the committer paid both of this cell's shares.
    return cell_outcome::transferred;
  }

  // One registration attempt at one cell; see select_register.
  seg_reg_status register_cell(seg_segment *s, seg_cell &c, seg_select_wait &w,
                               item_token e, bool is_data, deadline dl,
                               sync::interrupt_token *tok) {
    std::uintptr_t st = c.state.load();
    for (;;) {
      if (st == cell_empty) {
        if (is_data) {
          SSQ_MO_JUSTIFIED(
              "relaxed: the EMPTY -> RESERVED CAS below publishes it");
          c.item.store(e, std::memory_order_relaxed);
        }
        w.seg = s;
        w.cl = &c;
        w.is_data = is_data;
        SSQ_INTERLEAVE("sq.resv.install");
        SSQ_CELL_TRANSITION(cell_empty, cell_resv);
        if (c.state.compare_exchange_strong(
                st, reinterpret_cast<std::uintptr_t>(&w))) {
          live_.value.fetch_add(1);
          return seg_reg_status::installed;
        }
        continue;
      }
      if (st == cell_poisoned) {
        contribute(s);
        return seg_reg_status::retry;
      }
      if (st == cell_waiter)
        return arbitrate_waiter(s, c, w, e, is_data, dl, tok);
      if (st == cell_claimed) {
        SSQ_ASSERT(false, "segment_queue: selector observed CLAIMED");
        return seg_reg_status::retry;
      }
      return arbitrate_peer_select(s, c, st, w, e, is_data, dl, tok);
    }
  }

  // A plain waiter already owns our cell: win our arbiter, then commit.
  seg_reg_status arbitrate_waiter(seg_segment *s, seg_cell &c,
                                  seg_select_wait &w, item_token e,
                                  bool is_data, deadline dl,
                                  sync::interrupt_token *tok) {
    void *expect_w = nullptr;
    if (!w.arb->winner.compare_exchange_strong(expect_w, &w)) {
      resolve_lost_peer(s, c);
      return seg_reg_status::lost;
    }
    item_token got = e;
    if (is_data) {
      SSQ_MO_JUSTIFIED("relaxed: the WAITER -> MATCHED CAS below publishes it");
      c.item.store(e, std::memory_order_relaxed);
    } else {
      got = c.item.load();
    }
    std::uintptr_t ex = cell_waiter;
    SSQ_CELL_TRANSITION(cell_waiter, cell_matched);
    if (c.state.compare_exchange_strong(ex, cell_matched)) {
      c.slot.signal();
      contribute(s, 2); // the waiter's share too: see the file comment
      w.result = got;
      return seg_reg_status::completed;
    }
    // The waiter cancelled between arbitration and commit. The select is
    // already decided in our favor, so finish directly on this queue.
    contribute(s);
    w.result = xfer(e, is_data,
                    dl.is_unbounded() ? wait_kind::sync : wait_kind::timed, dl,
                    tok);
    return seg_reg_status::completed;
  }

  // Our select lost arbitration but this cell still owes its waiter a
  // resolution (our index is burned either way).
  void resolve_lost_peer(seg_segment *s, seg_cell &c) {
    std::uintptr_t ex = cell_waiter;
    SSQ_CELL_TRANSITION(cell_waiter, cell_poisoned);
    if (c.state.compare_exchange_strong(ex, cell_poisoned)) {
      diag::bump(diag::id::cell_poison);
      c.slot.signal(); // the waiter re-checks state and retries elsewhere
    }
    contribute(s);
  }

  // Both parties of this cell are selects: claim the peer's record, then
  // race the two arbiters -- ours first (it decides whether we may commit
  // at all), then theirs.
  seg_reg_status arbitrate_peer_select(seg_segment *s, seg_cell &c,
                                       std::uintptr_t st, seg_select_wait &w,
                                       item_token e, bool is_data, deadline dl,
                                       sync::interrupt_token *tok) {
    auto *peer = reinterpret_cast<seg_select_wait *>(st);
    std::uintptr_t ex = st;
    SSQ_CELL_TRANSITION(cell_resv, cell_claimed);
    if (!c.state.compare_exchange_strong(ex, cell_claimed)) {
      contribute(s); // peer resolved it first (poisoned)
      return seg_reg_status::retry;
    }
    seg_select_arbiter *parb = peer->arb;
    parb->pins.fetch_add(1);
    void *mine_expect = nullptr;
    if (!w.arb->winner.compare_exchange_strong(mine_expect, &w)) {
      // Our select committed elsewhere: release the peer poisoned and wake
      // it to re-run its round.
      poison_claimed_peer(s, c, peer, parb);
      return seg_reg_status::lost;
    }
    void *peer_expect = nullptr;
    if (parb->winner.compare_exchange_strong(peer_expect, peer)) {
      item_token got = e;
      if (is_data) {
        SSQ_MO_JUSTIFIED(
            "relaxed: the CLAIMED -> MATCHED store below publishes it");
        c.item.store(e, std::memory_order_relaxed);
      } else {
        got = c.item.load();
      }
      SSQ_CELL_TRANSITION(cell_claimed, cell_matched);
      c.state.store(cell_matched);
      parb->slot.signal();
      parb->pins.fetch_sub(1);
      contribute(s);
      w.result = got;
      return seg_reg_status::completed;
    }
    // The peer's select also committed elsewhere; kill the cell and finish
    // our (already won) select directly on this queue.
    poison_claimed_peer(s, c, peer, parb);
    w.result = xfer(e, is_data,
                    dl.is_unbounded() ? wait_kind::sync : wait_kind::timed, dl,
                    tok);
    return seg_reg_status::completed;
  }

  void poison_claimed_peer(seg_segment *s, seg_cell &c, seg_select_wait *peer,
                           seg_select_arbiter *parb) {
    SSQ_CELL_TRANSITION(cell_claimed, cell_poisoned);
    c.state.store(cell_poisoned);
    diag::bump(diag::id::cell_poison);
    peer->poisoned.store(true);
    parb->slot.signal();
    parb->pins.fetch_sub(1);
    contribute(s);
  }

  Reclaimer rec_;
  sync::spin_policy pol_;
  void (*disposer_)(item_token) = nullptr;

  SSQ_GUARDED_BY_HAZARD(rec_) padded_atomic<seg_segment *> head_seg_;
  // Monotonic watermark of the oldest still-linked segment id; bumped
  // before the displaced head is retired (see find_segment's validation).
  padded_atomic<std::uint64_t> head_id_;
  // Lagging traversal-start hints, registered as external hazard roots.
  SSQ_GUARDED_BY_HAZARD(rec_) padded_atomic<void *> enq_cursor_;
  SSQ_GUARDED_BY_HAZARD(rec_) padded_atomic<void *> deq_cursor_;
  padded_atomic<std::uint64_t> senders_;
  padded_atomic<std::uint64_t> receivers_;
  // Installed cells whose installer has not left yet; only the installer
  // writes it (see the file comment). Observers only.
  padded_atomic<std::int64_t> live_;
  // A never-linked segment for the next extension (take_spare); touched
  // once per extension race, so it shares no line with the hot words.
  std::atomic<seg_segment *> spare_{nullptr};
};

} // namespace ssq

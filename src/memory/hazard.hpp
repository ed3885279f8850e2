// Hazard-pointer safe memory reclamation (Michael, PODC 2002 style).
//
// Why this exists: the paper's algorithms retire nodes that other threads may
// still hold references to (a dequeued dummy, an annihilated stack pair, an
// unlinked cancelled node). The Java original leans on the garbage collector;
// this domain provides the equivalent guarantee -- a node handed to retire()
// is deallocated only once no thread has a hazard slot pointing at it.
//
// Design notes:
//  * Per-thread records with a fixed number of slots, linked into a lock-free
//    list and recycled across threads via an active-flag CAS, so short-lived
//    threads neither leak records nor race on a registry lock in steady
//    state.
//  * Retired nodes accumulate per-thread and are freed by an amortized scan
//    (threshold proportional to #records), bounding unreclaimed garbage at
//    O(records * threshold).
//  * Threads that exit with pending retirees push them onto the domain's
//    orphan list; the next scan adopts them. A thread_local destructor that
//    runs after the thread's record cache is gone still works: its guards
//    claim records of their own and its retirees go straight to the orphans.
//  * A parked waiter may keep hazards armed across a kernel block. That
//    pins O(1) nodes per waiter (benign) and never blocks other threads'
//    reclamation -- the property that makes HP, and not epoch-based
//    reclamation, the right default for *blocking* dual data structures
//    (docs/memory_reclamation.md section 6).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/annotations.hpp"
#include "support/config.hpp"

namespace ssq::mem {

class hazard_domain {
 public:
  static constexpr std::size_t slots_per_record = max_hazards_per_thread;

  hazard_domain();
  // Precondition: no thread is concurrently operating on structures using
  // this domain. Frees every pending retiree unconditionally.
  ~hazard_domain();

  hazard_domain(const hazard_domain &) = delete;
  hazard_domain &operator=(const hazard_domain &) = delete;

  // The process-wide default domain.
  static hazard_domain &global() noexcept;

  struct retired_node {
    void *ptr;
    void (*deleter)(void *);
  };

  // One thread's hazard slots + retired list. Internal, exposed for tests.
  struct record {
    std::atomic<const void *> slots[slots_per_record];
    std::atomic<bool> active{false};
    record *next = nullptr; // immutable once linked
    // retired.size(), republished by the owner after every change so that
    // approx_retired() can read it from any thread. Only the owner writes.
    std::atomic<std::size_t> pending{0};
    // Owner-thread-only state:
    std::uint32_t used_mask = 0;
    std::vector<retired_node> retired;
  };

  // RAII guard over one hazard slot of the calling thread.
  class hazard {
   public:
    explicit hazard(hazard_domain &d = global()) noexcept;
    ~hazard() noexcept;
    hazard(const hazard &) = delete;
    hazard &operator=(const hazard &) = delete;

    // Standard protect loop: read src, publish, re-validate. On return the
    // pointer (if non-null) cannot be freed until this slot changes.
    template <typename T>
    T *protect(const std::atomic<T *> &src) noexcept {
      SSQ_MO_JUSTIFIED(
          "acquire suffices for the first guess: the seq_cst re-validation "
          "load below is what establishes the protect ordering");
      T *p = src.load(std::memory_order_acquire);
      for (;;) {
        set(p);
        T *q = src.load(std::memory_order_seq_cst);
        if (q == p) return p;
        p = q;
      }
    }

    // Publish a pointer whose safety the caller has established by other
    // means (e.g. it was just validated against a still-protected parent).
    void set(const void *p) noexcept {
      slot_->store(p, std::memory_order_seq_cst);
    }

    void clear() noexcept {
      SSQ_MO_JUSTIFIED(
          "release: a scanner that reads null here synchronizes with our "
          "prior accesses to the node; no later access needs ordering");
      slot_->store(nullptr, std::memory_order_release);
    }

    const void *get() const noexcept {
      SSQ_MO_JUSTIFIED(
          "relaxed: owner-thread read of its own slot, no cross-thread "
          "ordering derived from the value");
      return slot_->load(std::memory_order_relaxed);
    }

   private:
    std::atomic<const void *> *slot_;
    record *rec_;
    // Set when the thread had no record cache left and this guard claimed
    // rec_ for itself; the destructor hands it back to this domain.
    hazard_domain *claimed_from_ = nullptr;
    unsigned idx_;
  };

  // Hand a node to the domain; `deleter(ptr)` runs once no hazard covers it.
  void retire(void *ptr, void (*deleter)(void *));

  // External hazard roots: shared atomics (e.g. transfer_queue's clean_me
  // pointer) whose current value must be treated as protected during scans.
  // Java's GC protects such references implicitly; here a structure
  // registers the root for its lifetime.
  void add_root(const std::atomic<void *> *root);
  void remove_root(const std::atomic<void *> *root);

  template <typename T>
  void retire(T *p) {
    retire(const_cast<void *>(static_cast<const void *>(p)),
           [](void *q) { delete static_cast<T *>(q); });
  }

  // Force a reclamation pass on the calling thread's retirees plus adopted
  // orphans. Returns how many nodes were freed.
  std::size_t scan();

  // Scan until no further progress (tests; nodes pinned by live hazards
  // survive).
  std::size_t drain();

  // Count of not-yet-freed retirees across the domain: every record's
  // pending count plus the orphans. Approximate while threads retire or
  // scan; exact once they are quiescent.
  std::size_t approx_retired() const noexcept;

  std::size_t record_count() const noexcept {
    SSQ_MO_JUSTIFIED("relaxed: scan-threshold heuristic, staleness benign");
    return nrecords_.load(std::memory_order_relaxed);
  }

  // Unique per construction; lets thread-local caches reject a different
  // domain that happens to be allocated at a reused address.
  std::uint64_t uid() const noexcept { return uid_; }

  // Per-thread record cache; defined in hazard.cpp, public so the
  // thread_local instance can name it.
  struct tl_cache;

 private:
  friend class hazard;

  // This thread's record (cached); nullptr once the thread's cache is gone.
  record *acquire_record();
  record *claim_record();            // adopt an inactive record or allocate
  void release_record(record *rec);  // thread exit / cache eviction

  std::size_t scan_with(record *rec);

  const std::uint64_t uid_;
  std::atomic<record *> head_{nullptr};
  std::atomic<std::size_t> nrecords_{0};

  // Retirees inherited from exited threads, guarded by a plain mutex that is
  // only touched at thread exit and during scans.
  struct orphan_list;
  orphan_list *orphans_;

  struct root_list;
  root_list *roots_;
};

} // namespace ssq::mem

#include "memory/hazard.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "support/annotations.hpp"
#include "support/diagnostics.hpp"

namespace ssq::mem {

// ---------------------------------------------------------------------------
// Live-domain registry.
//
// Thread-local record caches hold raw pointers into domains. A domain (other
// than the global one) may be destroyed while threads that used it are still
// alive; their cache destructors must not touch freed memory. The registry
// is consulted under its mutex before any cache-eviction dereference. It is
// a function-local static constructed before any domain, hence destroyed
// after all of them.
// ---------------------------------------------------------------------------

namespace {

struct domain_registry {
  std::mutex mu;
  // live domain -> uid. The uid guards against a destroyed domain's address
  // being reused by a newly constructed one.
  std::unordered_map<const hazard_domain *, std::uint64_t> live;
};

domain_registry &registry() {
  static domain_registry r;
  return r;
}

std::uint64_t next_domain_uid() {
  static std::atomic<std::uint64_t> seq{1};
  SSQ_MO_JUSTIFIED("relaxed: uid counter, only uniqueness matters");
  return seq.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

struct hazard_domain::orphan_list {
  std::mutex mu;
  std::vector<retired_node> nodes;
};

struct hazard_domain::root_list {
  std::mutex mu;
  std::vector<const std::atomic<void *> *> roots;
};

// ---------------------------------------------------------------------------
// Per-thread record cache.
// ---------------------------------------------------------------------------

struct hazard_domain::tl_cache {
  struct entry {
    hazard_domain *dom;
    std::uint64_t uid;
    record *rec;
  };
  // A thread rarely touches more than a couple of domains; linear scan wins.
  std::vector<entry> entries;

  record *find(hazard_domain *d) noexcept {
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->dom == d) {
        if (it->uid == d->uid()) return it->rec;
        // Same address, different domain: the old one is gone; its record
        // was freed with it.
        entries.erase(it);
        return nullptr;
      }
    }
    return nullptr;
  }

  ~tl_cache() {
    std::lock_guard<std::mutex> lk(registry().mu);
    for (auto &e : entries) {
      auto it = registry().live.find(e.dom);
      if (it != registry().live.end() && it->second == e.uid)
        e.dom->release_record(e.rec);
    }
  }
};

namespace {

// Thread-local cache access that stays safe through thread teardown, split
// as in node_pool.cpp: the slot is trivially destructible, so reading it
// after the thread's other thread_local destructors have started is fine;
// the owner's destructor releases the cached records and marks the slot
// dead. A queue used from a later thread_local destructor then finds no
// cache, and each caller takes its dead-slot path: a guard claims a record
// for itself, retire goes to the orphan list, scan does nothing.
struct tl_slot {
  hazard_domain::tl_cache *cache;
  bool dead;
};
thread_local tl_slot g_slot; // trivial: zero-init, no registered destructor

struct tl_owner {
  ~tl_owner() {
    hazard_domain::tl_cache *c = g_slot.cache;
    g_slot.cache = nullptr;
    g_slot.dead = true;
    delete c;
  }
  void touch() noexcept {}
};
thread_local tl_owner g_owner;

} // namespace

// ---------------------------------------------------------------------------
// Domain lifecycle.
// ---------------------------------------------------------------------------

hazard_domain::hazard_domain()
    : uid_(next_domain_uid()), orphans_(new orphan_list),
      roots_(new root_list) {
  std::lock_guard<std::mutex> lk(registry().mu);
  registry().live.emplace(this, uid_);
}

void hazard_domain::add_root(const std::atomic<void *> *root) {
  std::lock_guard<std::mutex> lk(roots_->mu);
  roots_->roots.push_back(root);
}

void hazard_domain::remove_root(const std::atomic<void *> *root) {
  std::lock_guard<std::mutex> lk(roots_->mu);
  auto &v = roots_->roots;
  for (auto it = v.begin(); it != v.end(); ++it) {
    if (*it == root) {
      v.erase(it);
      return;
    }
  }
}

hazard_domain::~hazard_domain() {
  {
    std::lock_guard<std::mutex> lk(registry().mu);
    registry().live.erase(this);
  }
  // Contract: no concurrent users remain. Everything pending is freed.
  {
    std::lock_guard<std::mutex> lk(orphans_->mu);
    for (auto &rn : orphans_->nodes) rn.deleter(rn.ptr);
    orphans_->nodes.clear();
  }
  record *r = head_.load(std::memory_order_acquire);
  while (r) {
    record *next = r->next;
    for (auto &rn : r->retired) rn.deleter(rn.ptr);
    delete r;
    r = next;
  }
  delete orphans_;
  delete roots_;
}

hazard_domain &hazard_domain::global() noexcept {
  static hazard_domain d;
  return d;
}

// ---------------------------------------------------------------------------
// Record acquisition / release.
// ---------------------------------------------------------------------------

hazard_domain::record *hazard_domain::acquire_record() {
  tl_cache *c = g_slot.cache;
  if (c) {
    if (record *r = c->find(this)) return r;
  } else {
    if (g_slot.dead) return nullptr;
    g_owner.touch(); // force construction so the release destructor registers
    c = g_slot.cache = new tl_cache;
  }
  record *r = claim_record();
  c->entries.push_back({this, uid_, r});
  return r;
}

hazard_domain::record *hazard_domain::claim_record() {
  // Try to adopt an inactive record before allocating.
  SSQ_MO_JUSTIFIED("acquire: list traversal; a record's next is immutable "
                   "once the publishing acq_rel CAS links it");
  for (record *r = head_.load(std::memory_order_acquire); r; r = r->next) {
    bool expected = false;
    SSQ_MO_JUSTIFIED("relaxed: cheap pre-screen; the acq_rel CAS below is "
                     "the deciding operation");
    if (!r->active.load(std::memory_order_relaxed)) {
      SSQ_MO_JUSTIFIED("acq_rel: adopting synchronizes with the releasing "
                       "thread's slot clears in release_record");
      if (r->active.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel))
        return r;
    }
  }

  auto *r = new record;
  for (auto &s : r->slots) {
    SSQ_MO_JUSTIFIED("relaxed: record is thread-private until the head CAS "
                     "below publishes it");
    s.store(nullptr, std::memory_order_relaxed);
  }
  SSQ_MO_JUSTIFIED("relaxed: record is thread-private until the head CAS "
                   "below publishes it");
  r->active.store(true, std::memory_order_relaxed);
  // Lock-free push onto the record list.
  SSQ_MO_JUSTIFIED("acquire: first guess for the publishing CAS loop");
  record *h = head_.load(std::memory_order_acquire);
  SSQ_MO_JUSTIFIED("acq_rel: the CAS publishes the initialized record; "
                   "acquire on failure refreshes the head snapshot");
  do {
    r->next = h;
  } while (!head_.compare_exchange_weak(h, r, std::memory_order_acq_rel,
                                        std::memory_order_acquire));
  SSQ_MO_JUSTIFIED("relaxed: scan-threshold heuristic counter");
  nrecords_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

void hazard_domain::release_record(record *rec) {
  // Move leftover retirees to the orphan list so they are not stranded in an
  // inactive record.
  if (!rec->retired.empty()) {
    std::lock_guard<std::mutex> lk(orphans_->mu);
    orphans_->nodes.insert(orphans_->nodes.end(), rec->retired.begin(),
                           rec->retired.end());
    rec->retired.clear();
    SSQ_MO_JUSTIFIED("relaxed: owner-written monitoring count; the release "
                     "store of `active` below publishes it to an adopter");
    rec->pending.store(0, std::memory_order_relaxed);
  }
  for (auto &s : rec->slots) {
    SSQ_MO_JUSTIFIED("release: a scanner reading null synchronizes with our "
                     "prior accesses; no later access needs ordering");
    s.store(nullptr, std::memory_order_release);
  }
  rec->used_mask = 0;
  SSQ_MO_JUSTIFIED("release: publishes the cleared slots and used_mask to "
                   "the adopter's acq_rel CAS");
  rec->active.store(false, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Hazard slot guard.
// ---------------------------------------------------------------------------

hazard_domain::hazard::hazard(hazard_domain &d) noexcept {
  rec_ = d.acquire_record();
  if (!rec_) {
    // The thread's record cache is gone (thread exit): this guard claims a
    // record of its own and hands it back in its destructor.
    rec_ = d.claim_record();
    claimed_from_ = &d;
  }
  // Find a free slot; the used mask is owner-thread-only state.
  unsigned i = 0;
  while (i < slots_per_record && (rec_->used_mask & (1u << i))) ++i;
  SSQ_ASSERT(i < slots_per_record,
             "thread exceeded max_hazards_per_thread simultaneous guards");
  idx_ = i;
  rec_->used_mask |= (1u << i);
  slot_ = &rec_->slots[i];
}

hazard_domain::hazard::~hazard() noexcept {
  slot_->store(nullptr, std::memory_order_release);
  rec_->used_mask &= ~(1u << idx_);
  if (claimed_from_) claimed_from_->release_record(rec_);
}

// ---------------------------------------------------------------------------
// Retirement and scanning.
// ---------------------------------------------------------------------------

void hazard_domain::retire(void *ptr, void (*deleter)(void *)) {
  diag::bump(diag::id::node_retire);
  record *rec = acquire_record();
  if (!rec) {
    // Thread exit: no record to hold it; the next scan anywhere adopts it.
    std::lock_guard<std::mutex> lk(orphans_->mu);
    orphans_->nodes.push_back({ptr, deleter});
    return;
  }
  rec->retired.push_back({ptr, deleter});
  SSQ_MO_JUSTIFIED("relaxed: owner-written monitoring count, read racily by "
                   "approx_retired()");
  rec->pending.store(rec->retired.size(), std::memory_order_relaxed);

  // Amortized threshold: R >= H (total hazard slots) guarantees each scan
  // frees at least R - H nodes.
  SSQ_MO_JUSTIFIED("relaxed: scan-threshold heuristic, staleness benign");
  const std::size_t threshold =
      std::max<std::size_t>(64, 2 * slots_per_record *
                                    nrecords_.load(std::memory_order_relaxed));
  if (rec->retired.size() >= threshold) scan_with(rec);
}

std::size_t hazard_domain::scan() {
  record *rec = acquire_record();
  return rec ? scan_with(rec) : 0;
}

std::size_t hazard_domain::scan_with(record *rec) {
  diag::bump(diag::id::hp_scan);

  // Adopt orphans first so exited threads' garbage participates.
  {
    std::lock_guard<std::mutex> lk(orphans_->mu);
    if (!orphans_->nodes.empty()) {
      rec->retired.insert(rec->retired.end(), orphans_->nodes.begin(),
                          orphans_->nodes.end());
      orphans_->nodes.clear();
    }
  }
  if (rec->retired.empty()) return 0;

  // Stage 1: snapshot every published hazard.
  std::vector<const void *> hazards;
  SSQ_MO_JUSTIFIED("relaxed: capacity hint only");
  hazards.reserve(slots_per_record *
                  nrecords_.load(std::memory_order_relaxed));
  SSQ_MO_JUSTIFIED("acquire: list traversal; the seq_cst slot loads inside "
                   "are the ordering anchor of the scan");
  for (record *r = head_.load(std::memory_order_acquire); r; r = r->next) {
    for (auto &s : r->slots) {
      const void *p = s.load(std::memory_order_seq_cst);
      if (p) hazards.push_back(p);
    }
  }
  {
    // External roots (see add_root): whatever they point at right now is
    // reachable from shared state and must survive this scan.
    std::lock_guard<std::mutex> lk(roots_->mu);
    for (const auto *root : roots_->roots) {
      const void *p = root->load(std::memory_order_seq_cst);
      if (p) hazards.push_back(p);
    }
  }
  std::sort(hazards.begin(), hazards.end());

  // Stage 2: free everything not covered.
  std::vector<retired_node> survivors;
  survivors.reserve(hazards.size());
  std::size_t freed = 0;
  for (auto &rn : rec->retired) {
    if (std::binary_search(hazards.begin(), hazards.end(),
                           static_cast<const void *>(rn.ptr))) {
      survivors.push_back(rn);
    } else {
      rn.deleter(rn.ptr);
      ++freed;
    }
  }
  rec->retired.swap(survivors);
  SSQ_MO_JUSTIFIED("relaxed: owner-written monitoring count, read racily by "
                   "approx_retired()");
  rec->pending.store(rec->retired.size(), std::memory_order_relaxed);
  return freed;
}

std::size_t hazard_domain::approx_retired() const noexcept {
  std::size_t n = 0;
  {
    std::lock_guard<std::mutex> lk(orphans_->mu);
    n = orphans_->nodes.size();
  }
  SSQ_MO_JUSTIFIED("acquire: list traversal; a record's next is immutable "
                   "once the publishing acq_rel CAS links it");
  for (record *r = head_.load(std::memory_order_acquire); r; r = r->next) {
    SSQ_MO_JUSTIFIED("relaxed: monitoring count, documented approximate");
    n += r->pending.load(std::memory_order_relaxed);
  }
  return n;
}

std::size_t hazard_domain::drain() {
  std::size_t total = 0;
  for (;;) {
    std::size_t freed = scan();
    total += freed;
    if (freed == 0) return total;
  }
}

} // namespace ssq::mem

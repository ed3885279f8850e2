// Bounded linearizability checks: the recorded mixed workload
// (check/driver.hpp) over every implementation x both hazard-pointer
// reclaimers, validated by the synchronous-queue oracle. These are the
// ctest-sized versions of `torture --check=linearize`; the workload itself
// mixes every wait_kind (now / short-timed at the now-equivalence edge /
// long-timed / async where the structure offers it).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "baselines/java5_sq.hpp"
#include "baselines/naive_sq.hpp"
#include "check/driver.hpp"
#include "check/oracle.hpp"
#include "check/schedule_fuzz.hpp"
#include "core/channel.hpp"
#include "core/eliminating_sq.hpp"
#include "core/linked_transfer_queue.hpp"
#include "core/select.hpp"
#include "core/synchronous_queue.hpp"

using namespace ssq;
using namespace ssq::check;

namespace {

driver_cfg small_cfg(std::uint64_t seed) {
  driver_cfg cfg;
  cfg.threads = 4;
  cfg.seed = seed;
  cfg.duration = std::chrono::milliseconds(400);
  cfg.max_ops_per_thread = 2000;
  return cfg;
}

template <typename Q>
void expect_clean_run(std::shared_ptr<Q> q, bool fair, std::uint64_t seed,
                      sync::interrupt_token *tok = nullptr) {
  checked_ops ops = make_checked_ops(q, fair, tok);
  driver_cfg cfg = small_cfg(seed);
  recorder rec(static_cast<std::size_t>(cfg.threads) + 1,
               cfg.max_ops_per_thread);
  driver_stats st;
  run_mixed(ops, cfg, rec, &st);
  rules r;
  r.fifo = fair;
  report rep = check_history(rec.collect(), r);
  EXPECT_TRUE(rep.ok()) << summarize(rep);
  EXPECT_GT(rep.pairs, 0u) << "workload transferred nothing";
}

} // namespace

// ------------------------------------------- dual queue / dual stack matrix

TEST(LinearizeCheck, FairPooledHp) {
  expect_clean_run(
      std::make_shared<
          synchronous_queue<std::uint64_t, true, mem::pooled_hp_reclaimer>>(),
      true, 101);
}

TEST(LinearizeCheck, FairPlainHp) {
  expect_clean_run(
      std::make_shared<
          synchronous_queue<std::uint64_t, true, mem::hp_reclaimer>>(),
      true, 102);
}

// Segmented core (core/segment_queue.hpp): FIFO pairing by cell index; the
// oracle's FIFO rule is load-bearing here.
TEST(LinearizeCheck, SegmentedPooledHp) {
  expect_clean_run(
      std::make_shared<segmented_synchronous_queue<std::uint64_t>>(), true,
      112);
}

TEST(LinearizeCheck, SegmentedPlainHp) {
  expect_clean_run(
      std::make_shared<
          synchronous_queue<std::uint64_t, true, mem::hp_reclaimer,
                            core_kind::segmented>>(),
      true, 113);
}

TEST(LinearizeCheck, UnfairPooledHp) {
  expect_clean_run(
      std::make_shared<
          synchronous_queue<std::uint64_t, false, mem::pooled_hp_reclaimer>>(),
      false, 103);
}

TEST(LinearizeCheck, UnfairPlainHp) {
  expect_clean_run(
      std::make_shared<
          synchronous_queue<std::uint64_t, false, mem::hp_reclaimer>>(),
      false, 104);
}

// ------------------------------------------------------------- baselines

TEST(LinearizeCheck, Java5Fair) {
  expect_clean_run(std::make_shared<java5_sq<std::uint64_t, true>>(), true,
                   105);
}

TEST(LinearizeCheck, Java5Unfair) {
  expect_clean_run(std::make_shared<java5_sq<std::uint64_t, false>>(), false,
                   106);
}

TEST(LinearizeCheck, Naive) {
  expect_clean_run(std::make_shared<naive_sq<std::uint64_t>>(), false, 107);
}

TEST(LinearizeCheck, Eliminating) {
  expect_clean_run(std::make_shared<eliminating_sq<std::uint64_t>>(), false,
                   108);
}

// ------------------------------------------- elimination arena regression
//
// Satellite of the withdraw-vs-claim audit (core/elimination_arena.hpp):
// seeded schedule perturbation around arena.claim.pre / arena.handoff /
// arena.withdraw widens the window where a claimer has won the slot CAS
// but not yet published `got`, while the owner is timing out. The audit's
// conclusion (no unprotected deref: classification never touches the node,
// the settle loops keep the frame alive) is pinned by running the checked
// workload with near-arena-sized patience under several seeds. Without
// SSQ_SCHEDULE_FUZZ compiled in the perturbation points are no-ops and
// this degrades to a plain stress run -- still a valid regression test.
TEST(LinearizeCheck, EliminationArenaWithdrawClaimFuzz) {
  for (std::uint64_t seed : {1201ull, 1202ull, 1203ull}) {
#if defined(SSQ_SCHEDULE_FUZZ)
    fuzz::config fc;
    fc.seed = seed;
    fuzz::enable(fc);
#endif
    auto q = std::make_shared<eliminating_sq<std::uint64_t>>(
        std::chrono::microseconds(50));
    checked_ops ops = make_checked_ops(q, false);
    driver_cfg cfg = small_cfg(seed);
    cfg.max_patience_us = 100; // timed ops expire inside the arena window
    recorder rec(static_cast<std::size_t>(cfg.threads) + 1,
                 cfg.max_ops_per_thread);
    run_mixed(ops, cfg, rec);
    report rep = check_history(rec.collect(), rules{});
    EXPECT_TRUE(rep.ok()) << "seed " << seed << "\n" << summarize(rep);
#if defined(SSQ_SCHEDULE_FUZZ)
    fuzz::disable();
#endif
  }
}

// ------------------------------------------- segmented registering select
//
// Registering select (core/select.hpp) over two segmented queues, mixed
// with plain operations on each queue: every produce/consume picks one of
// {select over both, queue a, queue b}, and plain ops use the wait kind
// run_mixed picks (offer/poll for now, try_put/try_take for timed). That
// reaches the reservation protocol from every side -- select_register,
// arbitrate_waiter (a select meets a plain waiter), resolve_lost_peer (a
// select that already won elsewhere poisons a plain waiter's cell) and
// claim_reservation (a plain op meets a select) -- under the oracle.
// Judged by P1-P3 only: a plain waiter whose cell a losing select poisoned
// retries at a fresh index, so FIFO is not promised here.
TEST(LinearizeCheck, SegmentedRegisteringSelect) {
  using seg_q = segmented_synchronous_queue<std::uint64_t>;
  for (std::uint64_t seed : {1301ull, 1302ull, 1303ull, 1304ull}) {
#if defined(SSQ_SCHEDULE_FUZZ)
    fuzz::config fc;
    fc.seed = seed;
    fuzz::enable(fc);
#endif
    auto a = std::make_shared<seg_q>();
    auto b = std::make_shared<seg_q>();
    std::atomic<std::uint64_t> selects_ok{0};
    // 0 = select over both queues, 1 = queue a, 2 = queue b.
    auto route = [seed] {
      thread_local xoshiro256 rng{
          seed ^ std::hash<std::thread::id>{}(std::this_thread::get_id())};
      return rng.below(3);
    };
    checked_ops ops;
    ops.produce = [&](std::uint64_t v, wait_kind wk, deadline dl) {
      const deadline use = wk == wait_kind::now ? deadline::expired() : dl;
      bool ok;
      switch (route()) {
        case 0:
          ok = select_put(v, use, *a, *b).has_value();
          if (ok) selects_ok.fetch_add(1, std::memory_order_relaxed);
          break;
        case 1: ok = a->try_put(v, use); break;
        default: ok = b->try_put(v, use); break;
      }
      if (ok) return op_status::ok;
      return wk == wait_kind::now ? op_status::miss : op_status::timeout;
    };
    ops.consume = [&](wait_kind wk, deadline dl)
        -> std::pair<op_status, std::uint64_t> {
      const deadline use = wk == wait_kind::now ? deadline::expired() : dl;
      std::optional<std::uint64_t> got;
      switch (route()) {
        case 0:
          if (auto r = select_take<std::uint64_t>(use, *a, *b)) {
            got = r->second;
            selects_ok.fetch_add(1, std::memory_order_relaxed);
          }
          break;
        case 1: got = a->try_take(use); break;
        default: got = b->try_take(use); break;
      }
      if (got) return {op_status::ok, *got};
      return {wk == wait_kind::now ? op_status::miss : op_status::timeout, 0};
    };
    driver_cfg cfg = small_cfg(seed);
    recorder rec(static_cast<std::size_t>(cfg.threads) + 1,
                 cfg.max_ops_per_thread);
    run_mixed(ops, cfg, rec);
    report rep = check_history(rec.collect(), rules{});
    EXPECT_TRUE(rep.ok()) << "seed " << seed << "\n" << summarize(rep);
    EXPECT_GT(selects_ok.load(), 0u) << "seed " << seed;
    EXPECT_TRUE(a->is_empty()) << "seed " << seed;
    EXPECT_TRUE(b->is_empty()) << "seed " << seed;
#if defined(SSQ_SCHEDULE_FUZZ)
    fuzz::disable();
#endif
  }
}

// ---------------------------------------------------------- ltq / channel

TEST(LinearizeCheck, LinkedTransferQueueAsync) {
  auto q = std::make_shared<linked_transfer_queue<std::uint64_t>>();
  checked_ops ops = make_checked_transfer_ops(q);
  driver_cfg cfg = small_cfg(109);
  recorder rec(static_cast<std::size_t>(cfg.threads) + 1,
               cfg.max_ops_per_thread);
  driver_stats st;
  run_mixed(ops, cfg, rec, &st);
  rules r;
  r.fifo = true; // the FIFO check has real teeth here: async producers
  report rep = check_history(rec.collect(), r);
  EXPECT_TRUE(rep.ok()) << summarize(rep);
  EXPECT_GT(rep.pairs, 0u);
}

TEST(LinearizeCheck, Channel) {
  auto ch = std::make_shared<channel<std::uint64_t>>();
  checked_ops ops = make_checked_channel_ops(ch);
  driver_cfg cfg = small_cfg(110);
  recorder rec(static_cast<std::size_t>(cfg.threads) + 1,
               cfg.max_ops_per_thread);
  run_mixed(ops, cfg, rec);
  rules r;
  r.fifo = true;
  report rep = check_history(rec.collect(), r);
  EXPECT_TRUE(rep.ok()) << summarize(rep);
}

// ------------------------------------------- cancellation-heavy clean paths

TEST(LinearizeCheck, CancellationStormFairCleanPaths) {
  // Regression lock on transfer_queue::clean(): tiny patience makes the
  // tail a cancelled node most of the time, so nearly every cancellation
  // exercises the clean_me deferred-splice handoff and the
  // stale-predecessor abort; park_only arms a park_slot on every wait, so
  // node recycling stresses episode hygiene too. The oracle (not just
  // conservation) must stay clean: a mis-splice that detaches a *live*
  // node shows up as a lost item, a double-splice as a duplication, a
  // cancel/fulfill double-win as a cancelled-value delivery.
  auto q = std::make_shared<
      synchronous_queue<std::uint64_t, true, mem::pooled_hp_reclaimer>>(
      sync::spin_policy::park_only());
  checked_ops ops = make_checked_ops(q, true);
  driver_cfg cfg = small_cfg(113);
  cfg.max_patience_us = 300; // almost everything cancels
  recorder rec(static_cast<std::size_t>(cfg.threads) + 1,
               cfg.max_ops_per_thread);
  driver_stats st;
  run_mixed(ops, cfg, rec, &st);
  rules r;
  r.fifo = true;
  report rep = check_history(rec.collect(), r);
  EXPECT_TRUE(rep.ok()) << summarize(rep);
  EXPECT_GT(rep.cancelled, 0u) << "storm produced no cancellations";
}

TEST(LinearizeCheck, CancellationStormUnfairCleanPaths) {
  // Same storm against the dual stack's clean()/past-node compare path.
  auto q = std::make_shared<
      synchronous_queue<std::uint64_t, false, mem::pooled_hp_reclaimer>>(
      sync::spin_policy::park_only());
  checked_ops ops = make_checked_ops(q, false);
  driver_cfg cfg = small_cfg(114);
  cfg.max_patience_us = 300;
  recorder rec(static_cast<std::size_t>(cfg.threads) + 1,
               cfg.max_ops_per_thread);
  run_mixed(ops, cfg, rec);
  report rep = check_history(rec.collect(), rules{});
  EXPECT_TRUE(rep.ok()) << summarize(rep);
  EXPECT_GT(rep.cancelled, 0u);
}

TEST(LinearizeCheck, UnfairHelperPopStress) {
  // Regression lock on transfer_stack::pop_pair(): the matched partner
  // beneath a fulfilling node must be hazard-protected before it is
  // dereferenced. The helper-finished-our-match path used to reach
  // pop_pair with no hazard covering the partner; a concurrent thread
  // completing the same pop could retire-and-free it first
  // (heap-use-after-free under TSan, found by the 30s schedule-fuzz
  // torture run). Plain hp (eager frees) + spin_only (waiters stay on-CPU
  // inside xfer, maximizing concurrent helping) recreate that shape; run
  // under TSan/ASan this is the bounded version of the catcher.
  auto q = std::make_shared<
      synchronous_queue<std::uint64_t, false, mem::hp_reclaimer>>(
      sync::spin_policy::spin_only());
  checked_ops ops = make_checked_ops(q, false);
  driver_cfg cfg = small_cfg(115);
  cfg.duration = std::chrono::milliseconds(800);
  cfg.max_patience_us = 200; // heavy cancellation: cancelled partners get
                             // spliced while pops race over them
  recorder rec(static_cast<std::size_t>(cfg.threads) + 1,
               cfg.max_ops_per_thread);
  run_mixed(ops, cfg, rec);
  report rep = check_history(rec.collect(), rules{});
  EXPECT_TRUE(rep.ok()) << summarize(rep);
  EXPECT_GT(rep.pairs, 0u);
}

// --------------------------------------------------- interruption mid-run

TEST(LinearizeCheck, InterruptMidRunStaysLinearizable) {
  // Fire an interrupt token halfway through: every op cancelled by it must
  // record `interrupted` and must not transfer (oracle P2).
  auto q = std::make_shared<synchronous_queue<std::uint64_t, true>>();
  sync::interrupt_token tok;
  checked_ops ops = make_checked_ops(q, true, &tok);
  driver_cfg cfg = small_cfg(112);
  recorder rec(static_cast<std::size_t>(cfg.threads) + 1,
               cfg.max_ops_per_thread);
  std::thread firer([&] {
    std::this_thread::sleep_for(cfg.duration / 2);
    tok.interrupt();
  });
  driver_stats st;
  run_mixed(ops, cfg, rec, &st);
  firer.join();
  rules r;
  r.fifo = true;
  report rep = check_history(rec.collect(), r);
  EXPECT_TRUE(rep.ok()) << summarize(rep);
  EXPECT_GT(st.interrupts.load(), 0u) << "interrupt never observed";
}

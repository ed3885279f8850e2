// Unit tests for the synchronous-queue oracle (check/oracle.hpp) on
// hand-built histories, plus "teeth" tests: deliberately broken toy
// implementations driven through the real recording workload must be
// flagged. The latter is the mutation-testing acceptance gate for the
// harness -- an oracle that passes broken queues is worthless.
#include <gtest/gtest.h>

#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "check/driver.hpp"
#include "check/history.hpp"
#include "check/oracle.hpp"

using namespace ssq;
using namespace ssq::check;

namespace {

event ev(std::uint32_t tid, op_role role, op_status st, std::uint64_t inv,
         std::uint64_t ret, std::uint64_t given, std::uint64_t got,
         wait_kind wk = wait_kind::timed) {
  event e;
  e.thread = tid;
  e.role = role;
  e.status = st;
  e.invoke = inv;
  e.ret = ret;
  e.given = given;
  e.got = got;
  e.wk = wk;
  return e;
}

bool has_violation(const report &r, const char *needle) {
  for (const auto &v : r.violations)
    if (v.what.find(needle) != std::string::npos) return true;
  return false;
}

} // namespace

// ------------------------------------------------------------ happy paths

TEST(Oracle, AcceptsMatchedOverlappingPairs) {
  std::vector<event> h{
      ev(0, op_role::produce, op_status::ok, 1, 4, 7, 0),
      ev(1, op_role::consume, op_status::ok, 2, 3, 0, 7),
      ev(0, op_role::produce, op_status::ok, 5, 8, 9, 0),
      ev(1, op_role::consume, op_status::ok, 6, 7, 0, 9),
  };
  report r = check_history(h, rules{});
  EXPECT_TRUE(r.ok()) << summarize(r);
  EXPECT_EQ(r.pairs, 2u);
}

TEST(Oracle, AcceptsCancelledOpsWithoutTransfers) {
  std::vector<event> h{
      ev(0, op_role::produce, op_status::timeout, 1, 2, 5, 0),
      ev(1, op_role::consume, op_status::miss, 3, 4, 0, 0),
      ev(2, op_role::produce, op_status::interrupted, 5, 6, 6, 0),
  };
  report r = check_history(h, rules{});
  EXPECT_TRUE(r.ok()) << summarize(r);
  EXPECT_EQ(r.cancelled, 3u);
}

// ------------------------------------------------------------- violations

TEST(Oracle, FlagsDuplicateConsume) {
  std::vector<event> h{
      ev(0, op_role::produce, op_status::ok, 1, 4, 7, 0),
      ev(1, op_role::consume, op_status::ok, 2, 3, 0, 7),
      ev(2, op_role::consume, op_status::ok, 5, 6, 0, 7),
  };
  report r = check_history(h, rules{});
  EXPECT_TRUE(has_violation(r, "consumed twice")) << summarize(r);
}

TEST(Oracle, FlagsLostItem) {
  std::vector<event> h{
      ev(0, op_role::produce, op_status::ok, 1, 2, 7, 0),
  };
  report r = check_history(h, rules{});
  EXPECT_TRUE(has_violation(r, "lost item")) << summarize(r);
  rules lax;
  lax.require_all_consumed = false;
  EXPECT_TRUE(check_history(h, lax).ok());
}

TEST(Oracle, FlagsCancelledProduceDelivered) {
  // The cancellation-vs-fulfillment race: producer reported timeout but its
  // value showed up at a consumer anyway.
  std::vector<event> h{
      ev(0, op_role::produce, op_status::timeout, 1, 2, 7, 0),
      ev(1, op_role::consume, op_status::ok, 3, 4, 0, 7),
  };
  report r = check_history(h, rules{});
  EXPECT_TRUE(has_violation(r, "cancelled produce")) << summarize(r);
}

TEST(Oracle, FlagsNeverProducedValue) {
  std::vector<event> h{
      ev(1, op_role::consume, op_status::ok, 3, 4, 0, 99),
  };
  report r = check_history(h, rules{});
  EXPECT_TRUE(has_violation(r, "never produced")) << summarize(r);
}

TEST(Oracle, FlagsFailedConsumeWithValue) {
  std::vector<event> h{
      ev(1, op_role::consume, op_status::timeout, 3, 4, 0, 42),
  };
  report r = check_history(h, rules{});
  EXPECT_TRUE(has_violation(r, "failed consume")) << summarize(r);
}

TEST(Oracle, FlagsSynchronyViolation) {
  // Producer returned (stamp 2) before the consumer even arrived (stamp 3):
  // a synchronous handoff cannot do that.
  std::vector<event> h{
      ev(0, op_role::produce, op_status::ok, 1, 2, 7, 0),
      ev(1, op_role::consume, op_status::ok, 3, 4, 0, 7),
  };
  report r = check_history(h, rules{});
  EXPECT_TRUE(has_violation(r, "synchrony")) << summarize(r);
  // Async producers are exempt: they leave before the handshake.
  h[0].wk = wait_kind::async;
  EXPECT_TRUE(check_history(h, rules{}).ok());
}

TEST(Oracle, FlagsConsumeBeforeProduceInvoked) {
  std::vector<event> h{
      ev(1, op_role::consume, op_status::ok, 1, 2, 0, 7),
      ev(0, op_role::produce, op_status::ok, 3, 4, 7, 0, wait_kind::async),
  };
  report r = check_history(h, rules{});
  EXPECT_TRUE(has_violation(r, "before its produce")) << summarize(r);
}

TEST(Oracle, FlagsFifoInversionForAsyncProducers) {
  // A enqueued strictly before B (A.ret=2 < B.inv=10) yet A can only have
  // been delivered after B: A's delivery window is [50,60], B's [20,30].
  std::vector<event> h{
      ev(0, op_role::produce, op_status::ok, 1, 2, 7, 0, wait_kind::async),
      ev(0, op_role::produce, op_status::ok, 10, 11, 8, 0, wait_kind::async),
      ev(1, op_role::consume, op_status::ok, 20, 30, 0, 8),
      ev(1, op_role::consume, op_status::ok, 50, 60, 0, 7),
  };
  rules r;
  r.fifo = true;
  report rep = check_history(h, r);
  EXPECT_TRUE(has_violation(rep, "FIFO")) << summarize(rep);
  // Same history without the FIFO rule is clean (async exempts synchrony).
  EXPECT_TRUE(check_history(h, rules{}).ok());
}

TEST(Oracle, AcceptsFifoOrderForAsyncProducers) {
  std::vector<event> h{
      ev(0, op_role::produce, op_status::ok, 1, 2, 7, 0, wait_kind::async),
      ev(0, op_role::produce, op_status::ok, 10, 11, 8, 0, wait_kind::async),
      ev(1, op_role::consume, op_status::ok, 20, 30, 0, 7),
      ev(1, op_role::consume, op_status::ok, 50, 60, 0, 8),
  };
  rules r;
  r.fifo = true;
  report rep = check_history(h, r);
  EXPECT_TRUE(rep.ok()) << summarize(rep);
}

// ------------------------------------------------------------------ teeth
//
// Mutation test: an intentionally broken "synchronous" queue driven through
// the real recording workload must be flagged by the oracle. This is the
// acceptance gate: if these fail, the harness has no teeth.

namespace {

// A buffered queue masquerading as synchronous: offer() succeeds
// immediately (stashing the value), poll() takes from the buffer. Violates
// synchrony -- a producer can return long before any consumer arrives.
class buffered_impostor {
 public:
  bool offer(std::uint64_t v, deadline) {
    std::lock_guard<std::mutex> g(mu_);
    buf_.push_back(v);
    return true;
  }
  std::optional<std::uint64_t> poll(deadline dl) {
    for (;;) {
      {
        std::lock_guard<std::mutex> g(mu_);
        if (!buf_.empty()) {
          std::uint64_t v = buf_.front();
          buf_.pop_front();
          return v;
        }
      }
      if (dl.expired_now()) return std::nullopt;
      std::this_thread::yield();
    }
  }

 private:
  std::mutex mu_;
  std::deque<std::uint64_t> buf_;
};

// An async (buffering, LTQ-like) queue that hands values out in LIFO
// order: violates FIFO pairing without violating synchrony.
class lifo_impostor {
 public:
  void put(std::uint64_t v) {
    std::lock_guard<std::mutex> g(mu_);
    buf_.push_back(v);
  }
  bool try_transfer(std::uint64_t, deadline) { return false; }
  std::optional<std::uint64_t> poll(deadline) {
    std::lock_guard<std::mutex> g(mu_);
    if (buf_.empty()) return std::nullopt;
    std::uint64_t v = buf_.back(); // LIFO: the seeded ordering bug
    buf_.pop_back();
    return v;
  }

 private:
  std::mutex mu_;
  std::deque<std::uint64_t> buf_;
};

} // namespace

TEST(OracleTeeth, BufferedImpostorFailsSynchrony) {
  auto q = std::make_shared<buffered_impostor>();
  checked_ops ops = make_checked_ops(q, /*fair=*/false);
  driver_cfg cfg;
  cfg.threads = 2;
  cfg.seed = 11;
  cfg.duration = std::chrono::milliseconds(300);
  cfg.max_ops_per_thread = 4000;
  recorder rec(static_cast<std::size_t>(cfg.threads) + 1,
               cfg.max_ops_per_thread);
  run_mixed(ops, cfg, rec);
  report rep = check_history(rec.collect(), rules{});
  ASSERT_FALSE(rep.ok()) << "oracle accepted a buffered (non-synchronous) "
                            "impostor: the harness has no teeth";
  EXPECT_TRUE(has_violation(rep, "synchrony")) << summarize(rep);
}

TEST(OracleTeeth, LifoImpostorFailsFifo) {
  // Deterministic drive: two async puts in program order, then two polls.
  // LIFO delivery inverts them; the FIFO sweep must notice.
  lifo_impostor q;
  recorder rec(1);
  {
    op_scope s(rec, 0, op_role::produce, wait_kind::async);
    q.put(1);
    s.commit(op_status::ok, 1, 0);
  }
  {
    op_scope s(rec, 0, op_role::produce, wait_kind::async);
    q.put(2);
    s.commit(op_status::ok, 2, 0);
  }
  for (int i = 0; i < 2; ++i) {
    op_scope s(rec, 0, op_role::consume, wait_kind::now);
    auto got = q.poll(deadline::expired());
    ASSERT_TRUE(got.has_value());
    s.commit(op_status::ok, 0, *got);
  }
  rules r;
  r.fifo = true;
  report rep = check_history(rec.collect(), r);
  ASSERT_FALSE(rep.ok()) << "oracle accepted LIFO delivery under FIFO rules";
  EXPECT_TRUE(has_violation(rep, "FIFO")) << summarize(rep);
}

TEST(OracleTeeth, LifoImpostorFailsFifoUnderConcurrentLoad) {
  // Same impostor through the full concurrent workload (all-async
  // producers); the sweep must still catch inversions in a noisy history.
  auto q = std::make_shared<lifo_impostor>();
  checked_ops ops = make_checked_transfer_ops(q);
  driver_cfg cfg;
  cfg.threads = 2;
  cfg.seed = 5;
  cfg.duration = std::chrono::milliseconds(300);
  cfg.max_ops_per_thread = 4000;
  cfg.async_pct = 100;
  recorder rec(static_cast<std::size_t>(cfg.threads) + 1,
               cfg.max_ops_per_thread);
  run_mixed(ops, cfg, rec);
  rules r;
  r.fifo = true;
  report rep = check_history(rec.collect(), r);
  EXPECT_FALSE(rep.ok()) << "oracle accepted a LIFO impostor under load";
}

TEST(Oracle, DumpHistoryWritesSortedReplayableLines) {
  std::vector<event> h{
      ev(1, op_role::consume, op_status::ok, 2, 3, 0, 7),
      ev(0, op_role::produce, op_status::ok, 1, 4, 7, 0),
  };
  std::FILE *f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  dump_history(f, h);
  std::rewind(f);
  char line[256];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_EQ(std::string(line),
            "# tid role wk status invoke ret given got\n");
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  // Sorted by invoke stamp: the produce (invoke=1) comes first.
  EXPECT_EQ(std::string(line), "0 produce timed ok 1 4 7 0\n");
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_EQ(std::string(line), "1 consume timed ok 2 3 0 7\n");
  std::fclose(f);
}

TEST(OracleTeeth, LossyImpostorFlagged) {
  // Hand-built: producer ok, value vanishes.
  recorder rec(1);
  {
    op_scope s(rec, 0, op_role::produce, wait_kind::timed);
    s.commit(op_status::ok, 1, 0);
  }
  report rep = check_history(rec.collect(), rules{});
  EXPECT_TRUE(has_violation(rep, "lost item")) << summarize(rep);
}

// Tests for the elimination components: elimination_arena and the
// eliminating synchronous queue.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/elimination_arena.hpp"
#include "core/eliminating_sq.hpp"

using namespace ssq;

// ------------------------------------------------------- elimination arena

TEST(EliminationArena, ComplementaryPairEliminates) {
  // One slot, so the two parties cannot probe different ones. Each retries
  // short attempts until they meet; one meeting completes both.
  elimination_arena<1> arena;
  auto pol = sync::spin_policy::adaptive();
  auto eliminate = [&](item_token e, bool is_data) {
    item_token r = empty_token;
    for (int i = 0; i < 500 && r == empty_token; ++i)
      r = arena.try_eliminate(e, is_data,
                              deadline::in(std::chrono::milliseconds(10)), pol);
    return r;
  };
  std::atomic<item_token> got{empty_token};
  std::thread consumer([&] { got.store(eliminate(empty_token, false)); });
  item_token t = item_codec<int>::encode(55);
  EXPECT_EQ(eliminate(t, true), t);
  consumer.join();
  ASSERT_NE(got.load(), empty_token);
  EXPECT_EQ(item_codec<int>::decode_consume(got.load()), 55);
}

TEST(EliminationArena, LoneThreadTimesOut) {
  elimination_arena<4> arena;
  auto pol = sync::spin_policy::adaptive();
  item_token r = arena.try_eliminate(
      empty_token, false, deadline::in(std::chrono::milliseconds(20)), pol);
  EXPECT_EQ(r, empty_token);
}

TEST(EliminationArena, SameModeNeverPairs) {
  // Two producers must never exchange with each other.
  elimination_arena<1> arena; // force the same slot
  auto pol = sync::spin_policy::adaptive();
  item_token t1 = item_codec<int>::encode(1);
  item_token t2 = item_codec<int>::encode(2);
  std::atomic<item_token> r1{empty_token}, r2{empty_token};
  std::thread a([&] {
    r1.store(arena.try_eliminate(t1, true,
                                 deadline::in(std::chrono::milliseconds(40)),
                                 pol));
  });
  std::thread b([&] {
    r2.store(arena.try_eliminate(t2, true,
                                 deadline::in(std::chrono::milliseconds(40)),
                                 pol));
  });
  a.join();
  b.join();
  // At most... in fact exactly zero can succeed (no consumer exists).
  EXPECT_EQ(r1.load(), empty_token);
  EXPECT_EQ(r2.load(), empty_token);
  item_codec<int>::dispose(t1);
  item_codec<int>::dispose(t2);
}

// ------------------------------------------------------- eliminating SQ

TEST(EliminatingSq, PairHandoff) {
  eliminating_sq<int> q;
  std::thread p([&] { q.put(5); });
  EXPECT_EQ(q.take(), 5);
  p.join();
}

TEST(EliminatingSq, ManyHandoffsConserve) {
  eliminating_sq<int> q;
  const int n = 3000;
  std::thread p([&] {
    for (int i = 0; i < n; ++i) q.put(i);
  });
  long sum = 0;
  for (int i = 0; i < n; ++i) sum += q.take();
  p.join();
  EXPECT_EQ(sum, static_cast<long>(n - 1) * n / 2);
}

TEST(EliminatingSq, NToNConservation) {
  eliminating_sq<int> q;
  const int np = 3, nc = 3, per = 1500;
  std::atomic<long> in{0}, out{0};
  std::vector<std::thread> ts;
  for (int p = 0; p < np; ++p)
    ts.emplace_back([&, p] {
      for (int i = 0; i < per; ++i) {
        int v = p * per + i + 1;
        q.put(v);
        in.fetch_add(v);
      }
    });
  for (int c = 0; c < nc; ++c)
    ts.emplace_back([&] {
      for (int i = 0; i < per; ++i) out.fetch_add(q.take());
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(in.load(), out.load());
}

TEST(EliminatingSq, OfferPollBypassArena) {
  eliminating_sq<int> q;
  EXPECT_FALSE(q.offer(1));
  EXPECT_FALSE(q.poll().has_value());
  EXPECT_FALSE(q.poll(deadline::in(std::chrono::milliseconds(15))).has_value());
}

TEST(EliminatingSq, BoxedPayload) {
  eliminating_sq<std::string> q;
  std::thread p([&] { q.put("eliminated"); });
  EXPECT_EQ(q.take(), "eliminated");
  p.join();
}

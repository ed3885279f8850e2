// Tests for the elimination components: exchanger, elimination_arena, and
// the eliminating synchronous queue.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/elimination_arena.hpp"
#include "core/eliminating_sq.hpp"
#include "core/exchanger.hpp"

using namespace ssq;

// ------------------------------------------------------------- exchanger

TEST(Exchanger, PairSwapsValues) {
  exchanger<int> ex;
  std::atomic<int> a{-1}, b{-1};
  std::thread ta([&] { a.store(ex.exchange(1)); });
  std::thread tb([&] { b.store(ex.exchange(2)); });
  ta.join();
  tb.join();
  EXPECT_EQ(a.load(), 2);
  EXPECT_EQ(b.load(), 1);
}

TEST(Exchanger, TimedExchangeExpiresAlone) {
  exchanger<int> ex;
  auto t0 = steady_clock::now();
  auto r = ex.exchange_until(5, deadline::in(std::chrono::milliseconds(30)));
  EXPECT_FALSE(r.has_value());
  EXPECT_GE(steady_clock::now() - t0, std::chrono::milliseconds(25));
}

TEST(Exchanger, BoxedPayloadSwap) {
  exchanger<std::string> ex;
  std::string a, b;
  std::thread ta([&] { a = ex.exchange("from-a"); });
  std::thread tb([&] { b = ex.exchange("from-b"); });
  ta.join();
  tb.join();
  EXPECT_EQ(a, "from-b");
  EXPECT_EQ(b, "from-a");
}

TEST(Exchanger, EvenCrowdAllPairUp) {
  // 2k threads exchange; every offered value must come back exactly once.
  exchanger<int> ex;
  const int n = 8;
  std::vector<int> got(n, -1);
  std::vector<std::thread> ts;
  for (int i = 0; i < n; ++i)
    ts.emplace_back([&, i] { got[static_cast<std::size_t>(i)] = ex.exchange(i); });
  for (auto &t : ts) t.join();
  std::multiset<int> all(got.begin(), got.end());
  for (int i = 0; i < n; ++i) EXPECT_EQ(all.count(i), 1u);
  for (int i = 0; i < n; ++i)
    EXPECT_NE(got[static_cast<std::size_t>(i)], i)
        << "a thread cannot receive its own value";
}

TEST(Exchanger, SequentialRounds) {
  exchanger<int> ex;
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> a{-1};
    std::thread t([&] { a.store(ex.exchange(round)); });
    int b = ex.exchange(round + 1000);
    t.join();
    EXPECT_EQ(a.load(), round + 1000);
    EXPECT_EQ(b, round);
  }
}

TEST(Exchanger, SimultaneousArrivalsPairUp) {
  // Parties released together collide on slot 0 (a lost install or claim
  // CAS); the loser grows its arena bound and may install in an outer slot.
  // That waiter must move back inward, or two leftover parties can wait in
  // different slots for each other until their patience runs out.
  exchanger<int> ex;
  const int n = 4;
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> ready{0};
    std::vector<std::optional<int>> got(n);
    std::vector<std::thread> ts;
    for (int i = 0; i < n; ++i)
      ts.emplace_back([&, i] {
        ready.fetch_add(1);
        while (ready.load() < n) cpu_relax();
        got[static_cast<std::size_t>(i)] =
            ex.exchange_until(i, deadline::in(std::chrono::seconds(2)));
      });
    for (auto &t : ts) t.join();
    std::multiset<int> all;
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(got[static_cast<std::size_t>(i)].has_value())
          << "round " << round << ": party " << i << " never met a partner";
      all.insert(*got[static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i < n; ++i) EXPECT_EQ(all.count(i), 1u);
  }
}

// ------------------------------------------------------- elimination arena

TEST(EliminationArena, ComplementaryPairEliminates) {
  elimination_arena<4> arena;
  auto pol = sync::spin_policy::adaptive();
  std::atomic<int> got{-1};
  std::thread consumer([&] {
    item_token r = arena.try_eliminate(
        empty_token, false, deadline::in(std::chrono::seconds(5)), pol);
    if (r != empty_token) got.store(item_codec<int>::decode_consume(r));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  item_token t = item_codec<int>::encode(55);
  item_token r =
      arena.try_eliminate(t, true, deadline::in(std::chrono::seconds(5)), pol);
  consumer.join();
  if (r != empty_token) {
    EXPECT_EQ(got.load(), 55);
  } else {
    // Producer missed (probed a different slot): consumer must have missed
    // too, and the token remains ours.
    item_codec<int>::dispose(t);
    EXPECT_EQ(got.load(), -1);
  }
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

// Tests for the support layer: item codec, deadlines, RNG, padding,
// diagnostics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "memory/node_pool.hpp"
#include "support/cacheline.hpp"
#include "support/codec.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"
#include "support/time.hpp"

using namespace ssq;

// ---------------------------------------------------------------- codec

TEST(Codec, IntIsInlineEncoded) {
  static_assert(!item_codec<int>::boxed);
  item_token t = item_codec<int>::encode(42);
  EXPECT_NE(t, empty_token);
  EXPECT_EQ(t & 1u, 1u) << "inline tokens are odd (never aligned pointers)";
  EXPECT_EQ(item_codec<int>::decode_consume(t), 42);
}

TEST(Codec, NegativeValuesRoundTrip) {
  item_token t = item_codec<int>::encode(-123456);
  EXPECT_EQ(item_codec<int>::decode_consume(t), -123456);
}

TEST(Codec, ZeroIsNotEmptyToken) {
  // The whole point of the tag bit: value 0 must be distinguishable from
  // "no item".
  item_token t = item_codec<int>::encode(0);
  EXPECT_NE(t, empty_token);
  EXPECT_EQ(item_codec<int>::decode_consume(t), 0);
}

TEST(Codec, SmallTypesInline) {
  static_assert(!item_codec<char>::boxed);
  static_assert(!item_codec<short>::boxed);
  static_assert(!item_codec<float>::boxed);
  static_assert(!item_codec<std::uint32_t>::boxed);
  EXPECT_EQ(item_codec<char>::decode_consume(item_codec<char>::encode('x')),
            'x');
  EXPECT_FLOAT_EQ(
      item_codec<float>::decode_consume(item_codec<float>::encode(3.5f)),
      3.5f);
}

TEST(Codec, SevenByteStructInline) {
  struct seven {
    char b[7];
  };
  static_assert(!item_codec<seven>::boxed);
  seven in{};
  std::memcpy(in.b, "abcdef", 7);
  seven out = item_codec<seven>::decode_consume(item_codec<seven>::encode(in));
  EXPECT_EQ(0, std::memcmp(in.b, out.b, 7));
}

TEST(Codec, EightByteTypesAreBoxed) {
  // A full 64-bit value cannot share a word with the tag bit.
  static_assert(item_codec<std::uint64_t>::boxed);
  static_assert(item_codec<double>::boxed);
  item_token t = item_codec<std::uint64_t>::encode(0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(t & 1u, 0u) << "boxed tokens are aligned pointers";
  EXPECT_EQ(item_codec<std::uint64_t>::decode_consume(t),
            0xDEADBEEFCAFEBABEULL);
}

TEST(Codec, StringIsBoxedAndRoundTrips) {
  static_assert(item_codec<std::string>::boxed);
  std::string s(1000, 'q');
  item_token t = item_codec<std::string>::encode(s);
  EXPECT_EQ(item_codec<std::string>::decode_consume(t), s);
}

TEST(Codec, MoveOnlyTypeThroughBox) {
  using up = std::unique_ptr<int>;
  item_token t = item_codec<up>::encode(std::make_unique<int>(7));
  up p = item_codec<up>::decode_consume(t);
  ASSERT_TRUE(p);
  EXPECT_EQ(*p, 7);
}

TEST(Codec, DisposeFreesBox) {
  diag::reset_all();
  item_token t = item_codec<std::string>::encode("to-be-dropped");
  EXPECT_EQ(diag::read(diag::id::box_alloc), 1u);
  item_codec<std::string>::dispose(t);
  EXPECT_EQ(diag::read(diag::id::box_free), 1u);
}

TEST(Codec, DisposeOfEmptyIsNoop) {
  item_codec<std::string>::dispose(empty_token); // must not crash
}

TEST(Codec, BoxesRecycleThroughThePool) {
  // A box is a pool block: after the first round carves (at most) one
  // chunk, every later encode reuses the block the previous decode freed.
  using codec = item_codec<std::uint64_t>;
  const std::uint64_t recycled = diag::read(diag::id::pool_recycle);
  const std::uint64_t fresh = diag::read(diag::id::pool_fresh);
  for (std::uint64_t i = 0; i < 1000; ++i)
    ASSERT_EQ(codec::decode_consume(codec::encode(i)), i);
  EXPECT_GE(diag::read(diag::id::pool_recycle) - recycled, 999u);
  EXPECT_LE(diag::read(diag::id::pool_fresh) - fresh, 1u);
}

namespace {
struct throwing_move {
  std::uint64_t word[2] = {};
  throwing_move() = default;
  throwing_move(throwing_move &&) { throw std::runtime_error("move"); }
};
} // namespace

TEST(Codec, ThrowingMoveReturnsItsBlock) {
  using codec = item_codec<throwing_move>;
  static_assert(codec::boxed);
  mem::node_pool &pool = codec::pool();
  pool.deallocate(pool.allocate()); // stock the magazine: no carve below
  const std::size_t before = pool.magazine_size();
  EXPECT_THROW(codec::encode(throwing_move{}), std::runtime_error);
  EXPECT_EQ(pool.magazine_size(), before);
}

// Pool blocks are poisoned while free, so ASan still reports a read of a
// box after its value was taken -- the bug class behind the double
// delivery in docs/testing.md item 3.
TEST(CodecDeathTest, StaleBoxReadIsUseAfterPoison) {
#if defined(__SANITIZE_ADDRESS__)
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  using codec = item_codec<std::uint64_t>;
  EXPECT_DEATH(
      {
        item_token t = codec::encode(42);
        (void)codec::decode_consume(t);
        volatile std::uint64_t stale =
            *reinterpret_cast<volatile std::uint64_t *>(t);
        (void)stale;
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "pool blocks are poisoned only under AddressSanitizer";
#endif
}

TEST(Codec, DistinctValuesDistinctTokens) {
  item_token a = item_codec<int>::encode(1);
  item_token b = item_codec<int>::encode(2);
  EXPECT_NE(a, b);
  (void)item_codec<int>::decode_consume(a);
  (void)item_codec<int>::decode_consume(b);
}

// ---------------------------------------------------------------- deadline

TEST(Deadline, UnboundedNeverExpires) {
  auto dl = deadline::unbounded();
  EXPECT_TRUE(dl.is_unbounded());
  EXPECT_FALSE(dl.expired_now());
  EXPECT_EQ(dl.remaining(), nanoseconds::max());
}

TEST(Deadline, ExpiredIsImmediatelyExpired) {
  auto dl = deadline::expired();
  EXPECT_FALSE(dl.is_unbounded());
  EXPECT_TRUE(dl.expired_now());
  EXPECT_EQ(dl.remaining(), nanoseconds::zero());
}

TEST(Deadline, ZeroAndNegativeDurationsAreExpired) {
  EXPECT_TRUE(deadline::in(std::chrono::seconds(0)).expired_now());
  EXPECT_TRUE(deadline::in(std::chrono::seconds(-5)).expired_now());
  EXPECT_EQ(deadline::in(std::chrono::seconds(-5)), deadline::expired());
}

TEST(Deadline, FutureDeadlineCountsDown) {
  auto dl = deadline::in(std::chrono::milliseconds(50));
  EXPECT_FALSE(dl.expired_now());
  auto rem = dl.remaining();
  EXPECT_GT(rem, nanoseconds::zero());
  EXPECT_LE(rem, std::chrono::milliseconds(51));
}

TEST(Deadline, EventuallyExpires) {
  auto dl = deadline::in(std::chrono::milliseconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(dl.expired_now());
}

TEST(Deadline, HugeDurationSaturatesToUnbounded) {
  EXPECT_TRUE(deadline::in(std::chrono::hours(1000000000)).is_unbounded());
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound) {
  xoshiro256 r(99);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
  EXPECT_EQ(r.below(0), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, ChanceIsRoughlyCalibrated) {
  xoshiro256 r(123);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (r.chance(1, 4)) ++hits;
  EXPECT_NEAR(hits, n / 4, n / 40); // within 10% relative
}

TEST(Rng, SplitmixAdvancesState) {
  std::uint64_t s = 0;
  auto a = splitmix64(s);
  auto b = splitmix64(s);
  EXPECT_NE(a, b);
  EXPECT_NE(s, 0u);
}

// ---------------------------------------------------------------- padding

TEST(Padding, PaddedOccupiesFullLines) {
  EXPECT_EQ(sizeof(padded<char>), cacheline_size);
  EXPECT_EQ(sizeof(padded_atomic<void *>), cacheline_size);
  EXPECT_EQ(alignof(padded<char>), cacheline_size);
  struct big {
    char b[70];
  };
  EXPECT_EQ(sizeof(padded<big>) % cacheline_size, 0u);
  EXPECT_GE(sizeof(padded<big>), 2 * cacheline_size);
}

TEST(Padding, AdjacentPaddedAtomicsOnDistinctLines) {
  struct pair {
    padded_atomic<int> a;
    padded_atomic<int> b;
  } p;
  auto delta = reinterpret_cast<char *>(&p.b) - reinterpret_cast<char *>(&p.a);
  EXPECT_GE(static_cast<std::size_t>(delta), cacheline_size);
}

// ---------------------------------------------------------------- diag

TEST(Diag, BumpAndReadAndReset) {
  diag::reset_all();
  EXPECT_EQ(diag::read(diag::id::park), 0u);
  diag::bump(diag::id::park);
  diag::bump(diag::id::park, 4);
  EXPECT_EQ(diag::read(diag::id::park), 5u);
  diag::reset_all();
  EXPECT_EQ(diag::read(diag::id::park), 0u);
}

TEST(Diag, SnapshotDeltas) {
  diag::reset_all();
  auto before = diag::snapshot::take();
  diag::bump(diag::id::unpark, 3);
  auto after = diag::snapshot::take();
  auto d = after - before;
  EXPECT_EQ(d[diag::id::unpark], 3u);
  EXPECT_EQ(d[diag::id::park], 0u);
}

TEST(Diag, CountersAreThreadSafe) {
  diag::reset_all();
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i)
    ts.emplace_back([] {
      for (int j = 0; j < 10000; ++j) diag::bump(diag::id::spin_retry);
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(diag::read(diag::id::spin_retry), 40000u);
}

TEST(Diag, ResetZeroesLiveThreadShards) {
  // A live thread's counts take part in every read and every reset, and
  // they survive the thread's exit.
  constexpr auto which = diag::id::clean_unlink;
  diag::reset_all();
  std::atomic<int> step{0};
  auto await_step = [&](int n) {
    while (step.load() != n) std::this_thread::yield();
  };
  std::thread worker([&] {
    diag::bump(which);
    step.store(1);
    await_step(2);
    diag::bump(which);
    step.store(3);
    await_step(4);
  });
  await_step(1);
  diag::reset_all();
  EXPECT_EQ(diag::read(which), 0u);
  step.store(2);
  await_step(3);
  EXPECT_EQ(diag::read(which), 1u);
  step.store(4);
  worker.join();
  EXPECT_EQ(diag::read(which), 1u) << "an exited thread's count survives";
}

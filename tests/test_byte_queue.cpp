// ByteQueue against a std::deque<uint8_t> model: random append / copy_out /
// pieces / indexing / pop sequences must agree byte for byte, including
// ranges that straddle the ring's seam, growth while the ring is wrapped,
// and clamping at the end. Randomized: seeded from CB_TEST_SEED.
#include <gtest/gtest.h>

#include <deque>

#include "common/rng.hpp"
#include "test_seed.hpp"
#include "transport/byte_queue.hpp"

namespace cb::transport {
namespace {

using Model = std::deque<std::uint8_t>;

Bytes model_range(const Model& m, std::size_t offset, std::size_t len) {
  if (offset >= m.size()) return {};
  len = std::min(len, m.size() - offset);
  return Bytes(m.begin() + static_cast<std::ptrdiff_t>(offset),
               m.begin() + static_cast<std::ptrdiff_t>(offset + len));
}

Bytes joined(const ByteQueue::Pieces& p) {
  Bytes out(p.first.begin(), p.first.end());
  out.insert(out.end(), p.second.begin(), p.second.end());
  return out;
}

Bytes peek(const ByteQueue& q, std::size_t offset, std::size_t len) {
  return joined(q.pieces(offset, len));
}

Bytes counting_bytes(std::size_t n, std::uint8_t start) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(start + i);
  return out;
}

// Every read path over one range agrees with the model.
void expect_range(const ByteQueue& q, const Model& m, std::size_t offset, std::size_t len) {
  const Bytes want = model_range(m, offset, len);
  const ByteQueue::Pieces p = q.pieces(offset, len);
  EXPECT_EQ(joined(p), want) << "pieces " << offset << "+" << len;
  if (p.first.size() < want.size()) EXPECT_FALSE(p.second.empty());
  Bytes out(want.size() + 8, 0xEE);  // guard bytes must survive
  EXPECT_EQ(q.copy_out(offset, len, out.data()), want.size());
  EXPECT_TRUE(std::equal(want.begin(), want.end(), out.begin()));
  EXPECT_TRUE(std::all_of(out.begin() + static_cast<std::ptrdiff_t>(want.size()), out.end(),
                          [](std::uint8_t b) { return b == 0xEE; }));
}

TEST(ByteQueueDiff, RandomOpsMatchDequeModel) {
  const std::uint64_t seed = cb::test::seed_or(2024);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  Rng rng(seed);
  ByteQueue q;
  Model m;
  std::size_t peak = 0;
  for (int step = 0; step < 4000; ++step) {
    switch (rng.next_below(5)) {
      case 0:
      case 1: {  // append (sometimes empty, sometimes large enough to grow)
        const std::size_t max = rng.chance(0.1) ? 9000 : 700;
        const std::size_t n = rng.chance(0.05) ? 0 : 1 + rng.next_below(max);
        const Bytes chunk = rng.random_bytes(n);
        q.append(chunk);
        m.insert(m.end(), chunk.begin(), chunk.end());
        break;
      }
      case 2: {  // pop, occasionally past the end (clamped)
        const std::size_t n = rng.next_below(m.size() + (rng.chance(0.1) ? 50 : 1));
        q.pop(n);
        m.erase(m.begin(), m.begin() + static_cast<std::ptrdiff_t>(std::min(n, m.size())));
        break;
      }
      default: {  // reads, including ranges running past the end
        const std::size_t offset = rng.next_below(m.size() + 20);
        const std::size_t len = rng.next_below(m.size() + 20);
        expect_range(q, m, offset, len);
        if (!m.empty()) {
          const std::size_t i = rng.next_below(m.size());
          EXPECT_EQ(q[i], m[i]);
        }
        break;
      }
    }
    peak = std::max(peak, m.size());
    ASSERT_EQ(q.size(), m.size()) << "step " << step;
    ASSERT_EQ(q.empty(), m.empty());
    // A power of two holding at most twice the largest backlog.
    const std::size_t cap = q.capacity();
    ASSERT_TRUE(cap == 0 || (cap & (cap - 1)) == 0) << cap;
    ASSERT_LE(cap, std::max<std::size_t>(64, 2 * peak));
  }
  expect_range(q, m, 0, m.size());
}

TEST(ByteQueueDiff, RangeAcrossTheSeam) {
  ByteQueue q;
  q.append(counting_bytes(64, 0));
  ASSERT_EQ(q.capacity(), 64u);
  q.pop(40);
  q.append(counting_bytes(30, 64));  // 24 live at the ring's end, 30 wrapped
  ASSERT_EQ(q.capacity(), 64u);
  const ByteQueue::Pieces p = q.pieces(0, q.size());
  EXPECT_EQ(p.first.size(), 24u);
  EXPECT_EQ(p.second.size(), 30u);
  EXPECT_EQ(peek(q, 0, q.size()), counting_bytes(54, 40));
  EXPECT_EQ(peek(q, 20, 10), counting_bytes(10, 60));  // straddles the seam
  EXPECT_TRUE(q.pieces(30, 5).second.empty());        // wholly past the seam
  EXPECT_EQ(q[23], 63);
  EXPECT_EQ(q[24], 64);
}

TEST(ByteQueueDiff, GrowthWhileWrapped) {
  ByteQueue q;
  q.append(counting_bytes(64, 0));
  q.pop(50);
  q.append(counting_bytes(40, 64));  // wrapped: 14 at the end, 40 from 0
  q.append(counting_bytes(100, 104));  // 154 live: grows to 256
  EXPECT_EQ(q.capacity(), 256u);
  EXPECT_EQ(peek(q, 0, q.size()), counting_bytes(154, 50));
  EXPECT_TRUE(q.pieces(0, q.size()).second.empty());  // unwrapped on growth
}

TEST(ByteQueueDiff, ClampsAtTheEnd) {
  ByteQueue q;
  EXPECT_TRUE(peek(q, 0, 10).empty());
  EXPECT_EQ(q.copy_out(0, 10, nullptr), 0u);
  q.pop(5);
  EXPECT_TRUE(q.empty());
  q.append(counting_bytes(10, 0));
  std::uint8_t out[16] = {};
  EXPECT_EQ(q.copy_out(7, 100, out), 3u);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[2], 9);
  EXPECT_EQ(q.copy_out(10, 1, out), 0u);
  EXPECT_TRUE(q.pieces(10, 5).first.empty());
  q.pop(100);
  EXPECT_TRUE(q.empty());
  // An emptied ring restarts at its front: the next range is unsplit.
  q.append(counting_bytes(60, 0));
  EXPECT_TRUE(q.pieces(0, 60).second.empty());
}

TEST(ByteQueueDiff, MoveKeepsContents) {
  ByteQueue q;
  q.append(counting_bytes(64, 0));
  q.pop(10);
  q.append(counting_bytes(5, 64));
  ByteQueue moved(std::move(q));
  EXPECT_EQ(peek(moved, 0, moved.size()), counting_bytes(59, 10));
  ByteQueue assigned;
  assigned.append(counting_bytes(3, 200));
  assigned = std::move(moved);
  EXPECT_EQ(peek(assigned, 0, assigned.size()), counting_bytes(59, 10));
}

}  // namespace
}  // namespace cb::transport

#include "flow/reorder_buffer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace comove::flow {
namespace {

/// Items across the groups a drain returned.
template <typename T>
std::size_t Items(
    const std::vector<typename TimeReorderBuffer<T>::Group>& groups) {
  std::size_t n = 0;
  for (const auto& [t, items] : groups) n += items.size();
  return n;
}

TEST(TimeReorderBuffer, DrainsInAscendingTimeOrder) {
  TimeReorderBuffer<std::string> buf;
  buf.Add(3, {"c"});
  buf.Add(1, {"a"});
  buf.Add(2, {"b"});
  const auto out = buf.DrainThrough(3);
  ASSERT_EQ(out.size(), 3u);
  using Group = TimeReorderBuffer<std::string>::Group;
  EXPECT_EQ(out[0], (Group{1, {"a"}}));
  EXPECT_EQ(out[1], (Group{2, {"b"}}));
  EXPECT_EQ(out[2], (Group{3, {"c"}}));
}

TEST(TimeReorderBuffer, HoldsItemsBeyondWatermark) {
  TimeReorderBuffer<int> buf;
  buf.Add(5, {50});
  buf.Add(2, {20});
  auto out = buf.DrainThrough(3);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, 2);
  EXPECT_TRUE(buf.HoldsThrough(5));
  out = buf.DrainThrough(10);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, 5);
  EXPECT_FALSE(buf.HoldsThrough(10));
}

TEST(TimeReorderBuffer, MultipleItemsPerTimePreserveInsertionOrder) {
  TimeReorderBuffer<int> buf;
  buf.Add(1, {10, 11});
  buf.Add(1, {12});
  const auto out = buf.DrainThrough(1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, 1);
  EXPECT_EQ(out[0].second, (std::vector<int>{10, 11, 12}));
}

TEST(TimeReorderBuffer, DrainAllIgnoresWatermark) {
  TimeReorderBuffer<int> buf;
  buf.Add(100, {1});
  buf.Add(7, {2});
  const auto out = buf.DrainAll();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 7);
  EXPECT_EQ(out[1].first, 100);
  EXPECT_TRUE(buf.DrainAll().empty());
}

TEST(TimeReorderBuffer, EmptyDrains) {
  TimeReorderBuffer<int> buf;
  EXPECT_TRUE(buf.DrainThrough(1000).empty());
  EXPECT_TRUE(buf.DrainAll().empty());
}

TEST(TimeReorderBuffer, BufferedTracksEveryMutation) {
  // What the drains return must account for every Add, across partial
  // and full drains and a save / restore round trip.
  TimeReorderBuffer<int> buf;
  for (int t = 0; t < 5; ++t) buf.Add(t, {10 * t, 10 * t + 1});
  EXPECT_EQ(Items<int>(buf.DrainThrough(2)), 6u);
  buf.Add(9, {90});

  std::string bytes;
  BinaryWriter writer(&bytes);
  buf.SaveState(&writer,
                [](BinaryWriter* w, const int& v) { w->WriteI64(v); });
  TimeReorderBuffer<int> restored;
  BinaryReader reader(bytes);
  ASSERT_TRUE(restored.RestoreState(&reader, [](BinaryReader* r) {
    return static_cast<int>(r->ReadI64());
  }));
  EXPECT_EQ(Items<int>(restored.DrainThrough(3)), 2u);
  EXPECT_EQ(Items<int>(restored.DrainAll()), 3u);
  EXPECT_TRUE(restored.DrainAll().empty());
  EXPECT_EQ(Items<int>(buf.DrainAll()), 5u);
}

}  // namespace
}  // namespace comove::flow

#include "core/mapping_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

namespace nocmap {
namespace {

Mapping sample_mapping() {
  Mapping m;
  m.thread_to_tile = {3, 0, 2, 1};
  return m;
}

TEST(MappingIo, RoundTripThroughStreams) {
  const Mapping original = sample_mapping();
  std::stringstream ss;
  write_mapping_csv(original, ss);
  const Mapping loaded = read_mapping_csv(ss);
  EXPECT_EQ(loaded.thread_to_tile, original.thread_to_tile);
}

TEST(MappingIo, RoundTripThroughFile) {
  const std::string path = ::testing::TempDir() + "/nocmap_mapping.csv";
  save_mapping_csv(sample_mapping(), path);
  const Mapping loaded = load_mapping_csv(path);
  EXPECT_EQ(loaded.thread_to_tile, sample_mapping().thread_to_tile);
  std::remove(path.c_str());
}

TEST(MappingIo, HeaderRequired) {
  std::stringstream ss("0,3\n");
  EXPECT_THROW(read_mapping_csv(ss), Error);
}

TEST(MappingIo, EmptyRejected) {
  std::stringstream empty("");
  EXPECT_THROW(read_mapping_csv(empty), Error);
  std::stringstream header_only("thread,tile\n");
  EXPECT_THROW(read_mapping_csv(header_only), Error);
}

TEST(MappingIo, ThreadGapRejected) {
  std::stringstream ss("thread,tile\n0,1\n2,0\n");
  EXPECT_THROW(read_mapping_csv(ss), Error);
}

TEST(MappingIo, DuplicateTileRejected) {
  std::stringstream ss("thread,tile\n0,1\n1,1\n");
  EXPECT_THROW(read_mapping_csv(ss), Error);
}

TEST(MappingIo, OutOfRangeTileRejected) {
  std::stringstream ss("thread,tile\n0,0\n1,7\n");
  EXPECT_THROW(read_mapping_csv(ss), Error);
}

TEST(MappingIo, NonNumericRejected) {
  std::stringstream ss("thread,tile\n0,a\n");
  EXPECT_THROW(read_mapping_csv(ss), Error);
}

// Each malformed row below sits in a mapping that is otherwise the valid
// permutation [1, 0], so only the cell check can reject it.
TEST(MappingIo, TrailingJunkRejected) {
  std::stringstream tile_junk("thread,tile\n0,1abc\n1,0\n");
  EXPECT_THROW(read_mapping_csv(tile_junk), Error);
  std::stringstream thread_junk("thread,tile\n0x,1\n1,0\n");
  EXPECT_THROW(read_mapping_csv(thread_junk), Error);
}

TEST(MappingIo, ExtraColumnRejected) {
  std::stringstream ss("thread,tile\n0,1,9\n1,0\n");
  EXPECT_THROW(read_mapping_csv(ss), Error);
}

TEST(MappingIo, TileBeyondTileIdRangeRejected) {
  // 2^32 does not fit a TileId; wrapped to tile 0 it would make the valid
  // mapping [1, 0].
  std::stringstream ss("thread,tile\n0,1\n1,4294967296\n");
  EXPECT_THROW(read_mapping_csv(ss), Error);
}

TEST(MappingIo, WindowsLineEndings) {
  std::stringstream ss("thread,tile\r\n0,1\r\n1,0\r\n");
  const Mapping m = read_mapping_csv(ss);
  EXPECT_EQ(m.thread_to_tile, (std::vector<TileId>{1, 0}));
}

TEST(MappingIo, MissingFileThrows) {
  EXPECT_THROW(load_mapping_csv("/nonexistent/m.csv"), Error);
  EXPECT_THROW(save_mapping_csv(sample_mapping(), "/nonexistent/m.csv"),
               Error);
}

}  // namespace
}  // namespace nocmap

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "test_paths.h"
#include "vsim/core/similarity.h"
#include "vsim/data/dataset.h"

namespace vsim {
namespace {

ExtractionOptions SmallOptions() {
  ExtractionOptions opt;
  opt.histogram_resolution = 12;
  opt.cover_resolution = 12;
  opt.num_covers = 5;
  return opt;
}

TEST(SerializationTest, RoundTripPreservesEverything) {
  const Dataset ds = MakeCarDataset(20, 13);
  StatusOr<CadDatabase> built = CadDatabase::FromDataset(ds, SmallOptions());
  ASSERT_TRUE(built.ok());

  const std::string path = TestTempPath("roundtrip.vsimdb");
  ASSERT_TRUE(built->Save(path).ok());
  StatusOr<CadDatabase> loaded = CadDatabase::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  ASSERT_EQ(loaded->size(), built->size());
  EXPECT_EQ(loaded->labels(), built->labels());
  EXPECT_EQ(loaded->options().num_covers, built->options().num_covers);
  EXPECT_EQ(loaded->options().cover_resolution,
            built->options().cover_resolution);
  for (size_t i = 0; i < built->size(); ++i) {
    const ObjectRepr& a = built->object(static_cast<int>(i));
    const ObjectRepr& b = loaded->object(static_cast<int>(i));
    EXPECT_EQ(a.volume, b.volume);
    EXPECT_EQ(a.solid_angle, b.solid_angle);
    EXPECT_EQ(a.cover_vector, b.cover_vector);
    EXPECT_EQ(a.centroid, b.centroid);
    EXPECT_EQ(a.voxel_count, b.voxel_count);
    EXPECT_EQ(a.original_extent, b.original_extent);
    ASSERT_EQ(a.vector_set.size(), b.vector_set.size());
    for (size_t v = 0; v < a.vector_set.size(); ++v) {
      EXPECT_EQ(a.vector_set.vectors[v], b.vector_set.vectors[v]);
    }
    ASSERT_EQ(a.cover_sequence.covers.size(), b.cover_sequence.covers.size());
    for (size_t c = 0; c < a.cover_sequence.covers.size(); ++c) {
      EXPECT_EQ(a.cover_sequence.covers[c], b.cover_sequence.covers[c]);
    }
    EXPECT_EQ(a.cover_sequence.error_history, b.cover_sequence.error_history);
  }
  // Distances agree bit-for-bit.
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      for (ModelType m : {ModelType::kVolume, ModelType::kVectorSet,
                          ModelType::kCoverSequence}) {
        EXPECT_EQ(built->Distance(m, i, j), loaded->Distance(m, i, j));
      }
    }
  }
}

TEST(SerializationTest, MissingFileFails) {
  StatusOr<CadDatabase> db = CadDatabase::Load("/nonexistent/file.vsimdb");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kIOError);
}

TEST(SerializationTest, BadMagicRejected) {
  const std::string path = TestTempPath("bad_magic.vsimdb");
  std::ofstream out(path, std::ios::binary);
  out << "NOTVSIMDBx and some garbage";
  out.close();
  StatusOr<CadDatabase> db = CadDatabase::Load(path);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializationTest, TruncatedFileFails) {
  // Write a valid database, then truncate it in the middle.
  const Dataset ds = MakeCarDataset(6, 3);
  StatusOr<CadDatabase> built = CadDatabase::FromDataset(ds, SmallOptions());
  ASSERT_TRUE(built.ok());
  const std::string path = TestTempPath("truncated.vsimdb");
  ASSERT_TRUE(built->Save(path).ok());
  // Read, truncate to 60%, rewrite.
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  content.resize(content.size() * 3 / 5);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.close();
  StatusOr<CadDatabase> db = CadDatabase::Load(path);
  EXPECT_FALSE(db.ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, EmptyDatabaseRoundTrips) {
  CadDatabase db(SmallOptions());
  const std::string path = TestTempPath("empty.vsimdb");
  ASSERT_TRUE(db.Save(path).ok());
  StatusOr<CadDatabase> loaded = CadDatabase::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vsim

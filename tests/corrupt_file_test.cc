// Corrupt- and truncated-file corpus for the persisted-format loaders:
// take *valid* VectorSetStore / PagedFile / CadDatabase files, then
// truncate them at every interesting length and flip bytes throughout,
// asserting the loaders return clean Status errors -- never crashes,
// hangs, runaway allocations or out-of-bounds reads. Complements
// parser_robustness_test.cc (random garbage): mutations of valid files
// exercise the deep, past-the-magic parsing paths that garbage rarely
// reaches. The whole file doubles as a regression corpus for the
// UBSan/ASan stages of tools/check_static.sh.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "test_paths.h"
#include "vsim/common/rng.h"
#include "vsim/core/similarity.h"
#include "vsim/data/dataset.h"
#include "vsim/index/disk_xtree.h"
#include "vsim/index/xtree.h"
#include "vsim/storage/vector_set_store.h"

namespace vsim {
namespace {

std::vector<char> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Builds a small but multi-page store file and returns its bytes.
std::vector<char> MakeValidStoreFile(const std::string& path) {
  Rng rng(31);
  StatusOr<VectorSetStore> store = VectorSetStore::Create(path, 512, 4);
  EXPECT_TRUE(store.ok());
  for (int i = 0; i < 30; ++i) {
    VectorSet set;
    const int n = 1 + static_cast<int>(rng.NextBounded(4));
    for (int v = 0; v < n; ++v) {
      FeatureVector vec(6);
      for (double& d : vec) d = rng.NextDouble();
      set.vectors.push_back(std::move(vec));
    }
    EXPECT_TRUE(store->Append(set).ok());
  }
  EXPECT_TRUE(store->Flush().ok());
  return ReadFile(path);
}

// Opens a (possibly corrupt) store and drags every reachable record
// through Get(); all failures must be Status errors.
void ExerciseStore(const std::string& path) {
  StatusOr<VectorSetStore> store = VectorSetStore::Open(path, 4);
  if (!store.ok()) return;  // clean rejection is fine
  for (int id = 0; id < static_cast<int>(store->size()); ++id) {
    (void)store->Get(id);  // any status; must not crash
  }
}

TEST(CorruptFileTest, TruncatedStoreFilesFailCleanly) {
  const std::string path = TestTempPath("trunc.vspg");
  const std::vector<char> valid = MakeValidStoreFile(path);
  ASSERT_GT(valid.size(), 1024u);
  // Every truncation point in the header page, then page-granular and
  // odd offsets through the rest.
  for (size_t len = 0; len < valid.size();
       len += (len < 600 ? 7 : 211)) {
    WriteFile(path, std::vector<char>(valid.begin(), valid.begin() + len));
    ExerciseStore(path);
  }
  std::remove(path.c_str());
}

TEST(CorruptFileTest, BitFlippedStoreFilesFailCleanly) {
  const std::string path = TestTempPath("flip.vspg");
  const std::vector<char> valid = MakeValidStoreFile(path);
  Rng rng(37);
  // Single-byte corruptions sweeping the whole file (headers, record
  // counts, record length fields, payloads).
  for (size_t pos = 0; pos < valid.size(); pos += 13) {
    std::vector<char> mutated = valid;
    mutated[pos] = static_cast<char>(mutated[pos] ^
                                     (1 + rng.NextBounded(255)));
    WriteFile(path, mutated);
    ExerciseStore(path);
  }
  // Targeted: maximal record counts / record sizes in every data page
  // (the fields the directory scan trusts most).
  for (size_t page_start = 512; page_start + 4 <= valid.size();
       page_start += 512) {
    std::vector<char> mutated = valid;
    mutated[page_start] = static_cast<char>(0xff);
    mutated[page_start + 1] = static_cast<char>(0xff);
    mutated[page_start + 2] = static_cast<char>(0xff);
    mutated[page_start + 3] = static_cast<char>(0xff);
    WriteFile(path, mutated);
    ExerciseStore(path);
  }
  std::remove(path.c_str());
}

TEST(CorruptFileTest, StoreHeaderPageCountLiesFailCleanly) {
  const std::string path = TestTempPath("count.vspg");
  std::vector<char> valid = MakeValidStoreFile(path);
  // Inflate the header's page count far past the real file size: reads
  // of the phantom pages must fail with short-read Status errors.
  for (int i = 0; i < 8; ++i) valid[16 + i] = static_cast<char>(0x7f);
  WriteFile(path, valid);
  ExerciseStore(path);
  std::remove(path.c_str());
}

// Regression for a real incident: a corrupt node count sent
// DiskXTree::Open into a ~60 GB directory resize, and cyclic child
// pointers made queries traverse forever. Queries on a mutated tree
// must terminate and never index outside the directory.
TEST(CorruptFileTest, MutatedDiskTreeFilesFailCleanly) {
  Rng rng(43);
  XTree tree(4);
  for (int i = 0; i < 200; ++i) {
    FeatureVector p(4);
    for (double& v : p) v = rng.Uniform(-2, 2);
    ASSERT_TRUE(tree.Insert(p, i).ok());
  }
  const std::string path = TestTempPath("mutated.vsdx");
  ASSERT_TRUE(DiskXTree::Write(tree, path, 512).ok());
  const std::vector<char> valid = ReadFile(path);
  ASSERT_GT(valid.size(), 1024u);

  FeatureVector query(4, 0.3);
  auto exercise = [&] {
    StatusOr<DiskXTree> disk = DiskXTree::Open(path, 8);
    if (!disk.ok()) return;  // clean rejection is fine
    (void)disk->RangeQuery(query, 1.0);
    (void)disk->KnnQuery(query, 5);
  };
  // Truncations.
  for (size_t len = 0; len < valid.size();
       len += (len < 600 ? 7 : 173)) {
    WriteFile(path, std::vector<char>(valid.begin(), valid.begin() + len));
    exercise();
  }
  // Byte flips everywhere (header, directory, node blobs) plus
  // all-ones stomps of the count/pointer-heavy directory region.
  for (size_t pos = 0; pos < valid.size(); pos += 11) {
    std::vector<char> mutated = valid;
    mutated[pos] = static_cast<char>(mutated[pos] ^
                                     (1 + rng.NextBounded(255)));
    WriteFile(path, mutated);
    exercise();
  }
  for (size_t pos = 512; pos + 4 <= valid.size() && pos < 2048; pos += 16) {
    std::vector<char> mutated = valid;
    for (size_t i = 0; i < 4; ++i) mutated[pos + i] = static_cast<char>(0xff);
    WriteFile(path, mutated);
    exercise();
  }
  std::remove(path.c_str());
}

TEST(CorruptFileTest, MutatedDatabaseFilesFailCleanly) {
  ExtractionOptions opt;
  opt.histogram_resolution = 12;
  opt.cover_resolution = 12;
  opt.num_covers = 5;
  const Dataset ds = MakeCarDataset(6, 3);
  StatusOr<CadDatabase> built = CadDatabase::FromDataset(ds, opt);
  ASSERT_TRUE(built.ok());

  const std::string path = TestTempPath("mutated.vsimdb");
  ASSERT_TRUE(built->Save(path).ok());
  const std::vector<char> valid = ReadFile(path);
  ASSERT_GT(valid.size(), 64u);

  Rng rng(41);
  // Truncations: dense near the front (magic, options, counts), then
  // sparse through the payload.
  for (size_t len = 0; len < valid.size();
       len += (len < 256 ? 5 : valid.size() / 97 + 1)) {
    WriteFile(path, std::vector<char>(valid.begin(), valid.begin() + len));
    StatusOr<CadDatabase> loaded = CadDatabase::Load(path);
    EXPECT_FALSE(loaded.ok()) << "truncation at " << len << " loaded";
  }
  // Byte flips: loaders may accept payload-only flips (doubles have no
  // checksum), but must never crash; flips in length/count fields must
  // be rejected or parsed to a consistent database.
  for (size_t pos = 0; pos < valid.size();
       pos += valid.size() / 211 + 1) {
    std::vector<char> mutated = valid;
    mutated[pos] = static_cast<char>(mutated[pos] ^
                                     (1 + rng.NextBounded(255)));
    WriteFile(path, mutated);
    (void)CadDatabase::Load(path);  // any status; must not crash
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vsim

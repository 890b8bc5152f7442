#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/io.h"
#include "core/clusterer.h"
#include "core/fully_dynamic_clusterer.h"
#include "core/method_registry.h"
#include "persist/snapshot_io.h"
#include "tests/test_util.h"

namespace ddc {
namespace {

std::string TempDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "ddc_snap_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A clusterer with a realistic mix of blobs, noise, and deletions — dead
/// ids, noise points, and multi-cluster structure all exercised.
std::unique_ptr<Clusterer> BuildClusterer(const std::string& spec,
                                          const DbscanParams& params, int n,
                                          uint64_t seed) {
  std::unique_ptr<Clusterer> c = MakeMethod(spec, params);
  Rng rng(seed);
  const std::vector<Point> pts =
      BlobPoints(rng, n, params.dim, 100.0, 4, 2.5);
  std::vector<PointId> ids;
  for (const Point& p : pts) ids.push_back(c->Insert(p));
  for (size_t i = 0; i < ids.size(); i += 7) c->Delete(ids[i]);
  c->Flush();
  return c;
}

/// Asserts `loaded` answers queries bit-identically to `original` — the
/// full id universe, random subsets, and per-id alive bits.
void ExpectBitIdentical(const ClusterSnapshot& original,
                        const ClusterSnapshot& loaded, PointId max_id,
                        uint64_t seed) {
  ASSERT_EQ(loaded.size(), original.size());
  ASSERT_EQ(loaded.epoch(), original.epoch());
  std::vector<PointId> all;
  for (PointId id = 0; id < max_id; ++id) {
    EXPECT_EQ(loaded.alive(id), original.alive(id)) << "id " << id;
    all.push_back(id);
  }
  // Ids past the end of the dataset must be handled, not trusted.
  all.push_back(max_id + 1000);

  CGroupByResult want = original.Query(all);
  CGroupByResult got = loaded.Query(all);
  want.Canonicalize();
  got.Canonicalize();
  ASSERT_TRUE(want == got) << "full-universe query diverged";

  Rng rng(seed);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<PointId> subset;
    for (PointId id = 0; id < max_id; ++id) {
      if (rng.NextBernoulli(0.3)) subset.push_back(id);
    }
    want = original.Query(subset);
    got = loaded.Query(subset);
    want.Canonicalize();
    got.Canonicalize();
    ASSERT_TRUE(want == got) << "subset query " << trial << " diverged";
  }
}

TEST(SnapshotIoTest, GridRoundTripIsBitIdentical) {
  DbscanParams params;
  params.dim = 2;
  params.eps = 2.0;
  params.min_pts = 5;
  params.rho = 0.001;
  const int n = 400;
  std::unique_ptr<Clusterer> c = BuildClusterer("double-approx", params, n, 11);
  std::shared_ptr<const ClusterSnapshot> snap = c->Snapshot();

  const std::string path = TempDir("grid") + "/" + SnapshotFileName(123);
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*snap, c->params(), 123, path, &error)) << error;

  SnapshotMeta meta;
  std::shared_ptr<const ClusterSnapshot> loaded =
      LoadSnapshot(path, &meta, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(meta.format_version, kSnapshotFormatVersion);
  EXPECT_EQ(meta.kind, "grid");
  EXPECT_EQ(meta.last_seq, 123u);
  EXPECT_EQ(meta.epoch, snap->epoch());
  ExpectBitIdentical(*snap, *loaded, n, 21);
}

TEST(SnapshotIoTest, ShardedRoundTripAcrossShardCounts) {
  DbscanParams params;
  params.dim = 2;
  params.eps = 2.0;
  params.min_pts = 5;
  params.rho = 0.001;
  const int n = 600;
  for (int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string spec = "sharded-double-approx:shards=" +
                             std::to_string(shards) + ",threads=2";
    std::unique_ptr<Clusterer> c = BuildClusterer(spec, params, n, 13);
    std::shared_ptr<const ClusterSnapshot> snap = c->Snapshot();

    const std::string path =
        TempDir("sharded" + std::to_string(shards)) + "/" + SnapshotFileName(9);
    std::string error;
    ASSERT_TRUE(SaveSnapshot(*snap, c->params(), 9, path, &error)) << error;

    SnapshotMeta meta;
    std::shared_ptr<const ClusterSnapshot> loaded =
        LoadSnapshot(path, &meta, &error);
    ASSERT_NE(loaded, nullptr) << error;
    EXPECT_EQ(meta.kind, "sharded");
    ExpectBitIdentical(*snap, *loaded, n, 31);
  }
}

TEST(SnapshotIoTest, ParamsRoundTripBitExactly) {
  // eps/rho travel through the JSON manifest; awkward doubles must come
  // back bit-for-bit, not via decimal round trip.
  DbscanParams params;
  params.dim = 3;
  params.eps = 0.1;  // Not exactly representable.
  params.min_pts = 4;
  params.rho = 1e-17;
  std::unique_ptr<Clusterer> c = BuildClusterer("double-approx", params, 60, 5);
  const std::string path = TempDir("params") + "/" + SnapshotFileName(1);
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*c->Snapshot(), c->params(), 1, path, &error))
      << error;
  SnapshotMeta meta;
  ASSERT_NE(LoadSnapshot(path, &meta, &error), nullptr) << error;
  EXPECT_EQ(std::bit_cast<uint64_t>(meta.params.eps),
            std::bit_cast<uint64_t>(params.eps));
  EXPECT_EQ(std::bit_cast<uint64_t>(meta.params.rho),
            std::bit_cast<uint64_t>(params.rho));
  EXPECT_EQ(meta.params.dim, 3);
  EXPECT_EQ(meta.params.min_pts, 4);
}

/// Saves `snap` to `path` and returns the file's bytes.
std::string SaveAndRead(const ClusterSnapshot& snap, const DbscanParams& params,
                        const std::string& path) {
  std::string error, bytes;
  EXPECT_TRUE(SaveSnapshot(snap, params, 7, path, &error)) << error;
  EXPECT_TRUE(ReadFileToString(path, &bytes, &error)) << error;
  return bytes;
}

/// The on-disk format does not depend on the in-memory layout: a fixed
/// clusterer's snapshot file keeps its exact bytes. BFS connectivity keeps
/// the CC labels (which the file stores) free of heap addresses.
TEST(SnapshotIoTest, FileBytesArePinned) {
  const DbscanParams params{.dim = 2, .eps = 2.0, .min_pts = 5, .rho = 0.001};
  FullyDynamicClusterer::Options options;
  options.connectivity = ConnectivityKind::kBfs;
  FullyDynamicClusterer c(params, options);
  Rng rng(11);
  std::vector<PointId> ids;
  for (const Point& p : BlobPoints(rng, 400, 2, 100.0, 4, 2.5)) {
    ids.push_back(c.Insert(p));
  }
  for (size_t i = 0; i < ids.size(); i += 7) c.Delete(ids[i]);
  const std::string bytes = SaveAndRead(
      *c.Snapshot(), params, TempDir("pinned") + "/" + SnapshotFileName(7));
  EXPECT_EQ(bytes.size(), 30615u);
  EXPECT_EQ(Crc32(bytes), 1035873938u);
}

/// Loading pages the flat sections back into blocks; saving the loaded
/// snapshot must reproduce the file byte for byte — for a first freeze and
/// for one frozen over earlier snapshots (whose clean blocks are shared).
TEST(SnapshotIoTest, ResavingALoadedSnapshotIsByteIdentical) {
  const DbscanParams params{.dim = 3, .eps = 2.0, .min_pts = 5, .rho = 0.001};
  std::unique_ptr<Clusterer> c = MakeMethod("double-approx", params);
  Rng rng(5);
  std::vector<PointId> alive;
  PointId max_id = 0;
  const std::string dir = TempDir("resave");
  for (int round = 0; round < 4; ++round) {
    for (const Point& p : BlobPoints(rng, 150, 3, 60.0, 3, 3.0)) {
      alive.push_back(c->Insert(p));
      max_id = alive.back() + 1;
    }
    for (size_t i = 0; i < alive.size(); i += 4) {
      c->Delete(alive[i]);
      alive[i] = alive.back();
      alive.pop_back();
    }
    SCOPED_TRACE("round " + std::to_string(round));
    const std::shared_ptr<const ClusterSnapshot> snap = c->Snapshot();
    const std::string first = SaveAndRead(*snap, params, dir + "/a.snap");
    std::string error;
    std::shared_ptr<const ClusterSnapshot> loaded =
        LoadSnapshot(dir + "/a.snap", nullptr, &error);
    ASSERT_NE(loaded, nullptr) << error;
    EXPECT_EQ(SaveAndRead(*loaded, params, dir + "/b.snap"), first);
    ExpectBitIdentical(*snap, *loaded, max_id, 3);
  }
}

/// Writes a small valid snapshot and returns its path.
std::string WriteValidSnapshot(const std::string& dir, uint64_t last_seq) {
  DbscanParams params;
  params.eps = 2.0;
  params.min_pts = 5;
  params.rho = 0;
  std::unique_ptr<Clusterer> c =
      BuildClusterer("double-approx", params, 80, last_seq);
  const std::string path = dir + "/" + SnapshotFileName(last_seq);
  std::string error;
  EXPECT_TRUE(SaveSnapshot(*c->Snapshot(), c->params(), last_seq, path, &error))
      << error;
  return path;
}

TEST(SnapshotIoTest, BadMagicIsRejectedAtOffsetZero) {
  const std::string dir = TempDir("magic");
  const std::string path = dir + "/" + SnapshotFileName(1);
  ASSERT_TRUE(WriteFile(path, "XXXXXXXXnot a snapshot at all............"));
  std::string error;
  EXPECT_EQ(LoadSnapshot(path, nullptr, &error), nullptr);
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_NE(error.find("at offset 0"), std::string::npos) << error;
}

TEST(SnapshotIoTest, TruncatedFileIsRejectedWithOffset) {
  const std::string dir = TempDir("trunc");
  const std::string path = WriteValidSnapshot(dir, 1);
  std::string data, error;
  ASSERT_TRUE(ReadFileToString(path, &data, &error));
  for (size_t keep : {size_t{10}, size_t{40}, data.size() - 5}) {
    std::string cut = data.substr(0, keep);
    ASSERT_TRUE(WriteFile(path, cut, &error));
    std::string why;
    EXPECT_EQ(LoadSnapshot(path, nullptr, &why), nullptr) << "keep " << keep;
    EXPECT_NE(why.find(path), std::string::npos) << why;
    EXPECT_NE(why.find("offset"), std::string::npos) << why;
  }
}

TEST(SnapshotIoTest, FlippedManifestBitIsRejected) {
  const std::string dir = TempDir("manifest");
  const std::string path = WriteValidSnapshot(dir, 1);
  std::string data, error;
  ASSERT_TRUE(ReadFileToString(path, &data, &error));
  data[20] ^= 0x04;  // Inside the JSON manifest.
  ASSERT_TRUE(WriteFile(path, data, &error));
  EXPECT_EQ(LoadSnapshot(path, nullptr, &error), nullptr);
  EXPECT_NE(error.find("corrupt snapshot manifest"), std::string::npos)
      << error;
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_NE(error.find("offset"), std::string::npos) << error;
}

TEST(SnapshotIoTest, FlippedSectionBitNamesTheSection) {
  const std::string dir = TempDir("section");
  const std::string path = WriteValidSnapshot(dir, 1);
  std::string data, error;
  ASSERT_TRUE(ReadFileToString(path, &data, &error));
  data[data.size() - 3] ^= 0x40;  // Inside the last binary section.
  ASSERT_TRUE(WriteFile(path, data, &error));
  EXPECT_EQ(LoadSnapshot(path, nullptr, &error), nullptr);
  EXPECT_NE(error.find("section"), std::string::npos) << error;
  EXPECT_NE(error.find("CRC32 check"), std::string::npos) << error;
  EXPECT_NE(error.find(path), std::string::npos) << error;
}

TEST(SnapshotIoTest, FutureFormatVersionIsRejected) {
  const std::string dir = TempDir("version");
  const std::string path = WriteValidSnapshot(dir, 1);
  std::string data, error;
  ASSERT_TRUE(ReadFileToString(path, &data, &error));
  // Patch the manifest text and re-seal its CRC, so the *only* defect is
  // the version number.
  const std::string needle = "\"format_version\":1";
  const size_t pos = data.find(needle);
  ASSERT_NE(pos, std::string::npos);
  data[pos + needle.size() - 1] = '9';
  const uint32_t manifest_len =
      ReadLe32(reinterpret_cast<const unsigned char*>(data.data()) + 8);
  std::string crc;
  AppendLe32(crc, Crc32(data.data() + 16, static_cast<size_t>(manifest_len)));
  data.replace(12, 4, crc);
  ASSERT_TRUE(WriteFile(path, data, &error));

  EXPECT_EQ(LoadSnapshot(path, nullptr, &error), nullptr);
  EXPECT_NE(error.find("format_version 9"), std::string::npos) << error;
  EXPECT_NE(error.find("this build reads version"), std::string::npos)
      << error;
}

TEST(SnapshotIoDeathTest, CorruptManifestDiesNamingFileAndOffset) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const std::string dir = TempDir("death");
  const std::string path = dir + "/" + SnapshotFileName(1);
  ASSERT_TRUE(WriteFile(path, "DDCSNAP1garbage manifest follows......."));
  EXPECT_DEATH(LoadSnapshotOrDie(path, nullptr), "snap-0000000000000001");
  EXPECT_DEATH(LoadSnapshotOrDie(path, nullptr), "offset");
}

TEST(SnapshotIoTest, ListSnapshotsSortsBySeq) {
  const std::string dir = TempDir("list");
  WriteValidSnapshot(dir, 300);
  WriteValidSnapshot(dir, 5);
  WriteValidSnapshot(dir, 42);
  ASSERT_TRUE(WriteFile(dir + "/not-a-snapshot.txt", "ignored"));
  std::vector<SnapshotFileInfo> infos;
  std::string error;
  ASSERT_TRUE(ListSnapshots(dir, &infos, &error)) << error;
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[0].last_seq, 5u);
  EXPECT_EQ(infos[1].last_seq, 42u);
  EXPECT_EQ(infos[2].last_seq, 300u);
}

TEST(SnapshotIoTest, NewestValidSnapshotWinsAndCorruptionIsReported) {
  const std::string dir = TempDir("newest");
  WriteValidSnapshot(dir, 10);
  const std::string newest = WriteValidSnapshot(dir, 20);
  // Corrupt the newest: the loader must fall back to seq 10 and say why.
  std::string data, error;
  ASSERT_TRUE(ReadFileToString(newest, &data, &error));
  data[data.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFile(newest, data, &error));

  SnapshotMeta meta;
  std::vector<std::string> notes;
  std::shared_ptr<const ClusterSnapshot> snap =
      LoadNewestValidSnapshot(dir, &meta, &notes);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(meta.last_seq, 10u);
  ASSERT_FALSE(notes.empty());
  bool named = false;
  for (const std::string& note : notes) {
    if (note.find(SnapshotFileName(20)) != std::string::npos) named = true;
  }
  EXPECT_TRUE(named) << "notes never name the corrupt snapshot";
}

TEST(SnapshotIoTest, EmptyDirectoryYieldsNoSnapshot) {
  const std::string dir = TempDir("none");
  SnapshotMeta meta;
  std::vector<std::string> notes;
  EXPECT_EQ(LoadNewestValidSnapshot(dir, &meta, &notes), nullptr);
  EXPECT_TRUE(notes.empty());
}

}  // namespace
}  // namespace ddc

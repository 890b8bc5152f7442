#include "persist/snapshot_io.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/crc32.h"
#include "common/io.h"
#include "common/json.h"
#include "engine/sharded_snapshot.h"
#include "telemetry/metrics.h"

namespace ddc {

namespace {

constexpr char kSnapshotMagic[8] = {'D', 'D', 'C', 'S', 'N', 'A', 'P', '1'};
constexpr size_t kFileHeaderBytes = 8 + 4 + 4;  // magic + len + crc

/// Doubles that must survive bit-identically cross the manifest as hex bit
/// patterns — JSON number round-trips may not preserve the last ulp.
std::string HexBits(double v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, std::bit_cast<uint64_t>(v));
  return buf;
}

bool ParseHexBits(const std::string& s, double* out) {
  uint64_t bits = 0;
  if (s.rfind("0x", 0) != 0 ||
      std::sscanf(s.c_str() + 2, "%16" SCNx64, &bits) != 1) {
    return false;
  }
  *out = std::bit_cast<double>(bits);
  return true;
}

// ---- Little-endian blob encoding. On a little-endian host the arrays are
// memcpy'd wholesale; the element-wise fallback keeps the format portable.

void AppendI32s(std::string& out, const int32_t* v, size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    out.append(reinterpret_cast<const char*>(v), n * 4);
  } else {
    for (size_t i = 0; i < n; ++i) {
      AppendLe32(out, static_cast<uint32_t>(v[i]));
    }
  }
}

void AppendF64s(std::string& out, const double* v, size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    out.append(reinterpret_cast<const char*>(v), n * 8);
  } else {
    for (size_t i = 0; i < n; ++i) AppendLeDouble(out, v[i]);
  }
}

// Both readers return early on an empty section: the destination is then
// an empty vector's data(), which may be null, and memcpy forbids null even
// for zero bytes.
void ReadI32s(const unsigned char* p, size_t n, int32_t* out) {
  if (n == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, p, n * 4);
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<int32_t>(ReadLe32(p + i * 4));
    }
  }
}

void ReadF64s(const unsigned char* p, size_t n, double* out) {
  if (n == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, p, n * 8);
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = ReadLeDouble(p + i * 8);
  }
}

/// Accumulates named binary sections; offsets are assigned relative to the
/// end of the manifest (the manifest cannot contain offsets that depend on
/// its own length).
class SectionBuilder {
 public:
  void Add(std::string name, std::string payload) {
    sections_.push_back({std::move(name), std::move(payload)});
  }

  void WriteTable(JsonWriter& j) const {
    int64_t offset = 0;
    j.BeginArray();
    for (const auto& s : sections_) {
      j.BeginObject();
      j.Key("name").String(s.name);
      j.Key("offset").Int(offset);
      j.Key("len").Int(static_cast<int64_t>(s.payload.size()));
      j.Key("crc").Int(static_cast<int64_t>(Crc32(s.payload)));
      j.EndObject();
      offset += static_cast<int64_t>(s.payload.size());
    }
    j.EndArray();
  }

  void AppendPayloads(std::string& out) const {
    for (const auto& s : sections_) out.append(s.payload);
  }

 private:
  struct Section {
    std::string name;
    std::string payload;
  };
  std::vector<Section> sections_;
};

/// Resolves and CRC-verifies sections of a loaded file against its manifest
/// table. Every failure names the file, the section, and the byte offset.
class SectionReader {
 public:
  SectionReader(const std::string& path, std::string_view file_data,
                size_t base_offset)
      : path_(path), data_(file_data), base_(base_offset) {}

  bool Init(const JsonValue& table, std::string* error) {
    if (table.type != JsonValue::Type::kArray) {
      *error = "snapshot manifest of " + path_ +
               " has no section table (expected \"sections\" array)";
      return false;
    }
    for (const JsonValue& s : table.items) {
      const JsonValue* name = s.Find("name");
      const JsonValue* offset = s.Find("offset");
      const JsonValue* len = s.Find("len");
      const JsonValue* crc = s.Find("crc");
      if (name == nullptr || name->type != JsonValue::Type::kString ||
          offset == nullptr || offset->type != JsonValue::Type::kNumber ||
          len == nullptr || len->type != JsonValue::Type::kNumber ||
          crc == nullptr || crc->type != JsonValue::Type::kNumber) {
        *error = "malformed section table entry in snapshot manifest of " +
                 path_;
        return false;
      }
      Entry e;
      e.offset = static_cast<int64_t>(offset->number_value);
      e.len = static_cast<int64_t>(len->number_value);
      e.crc = static_cast<uint32_t>(crc->number_value);
      if (e.offset < 0 || e.len < 0 ||
          base_ + static_cast<size_t>(e.offset + e.len) > data_.size()) {
        *error = "section " + name->string_value + " of " + path_ +
                 " extends past end of file (offset " +
                 std::to_string(base_ + static_cast<size_t>(e.offset)) +
                 ", len " + std::to_string(e.len) + ", file size " +
                 std::to_string(data_.size()) + ")";
        return false;
      }
      entries_.emplace_back(name->string_value, e);
    }
    return true;
  }

  /// The verified bytes of section `name`; nullopt (with *error) when the
  /// section is absent or its CRC does not match.
  std::optional<std::string_view> Get(const std::string& name,
                                      std::string* error) const {
    for (const auto& [n, e] : entries_) {
      if (n != name) continue;
      const std::string_view payload =
          data_.substr(base_ + static_cast<size_t>(e.offset),
                       static_cast<size_t>(e.len));
      if (Crc32(payload) != e.crc) {
        *error = "section " + name + " of " + path_ +
                 " failed its CRC32 check at offset " +
                 std::to_string(base_ + static_cast<size_t>(e.offset)) +
                 " (len " + std::to_string(e.len) + "): corrupt snapshot";
        return std::nullopt;
      }
      return payload;
    }
    *error = "snapshot " + path_ + " is missing section " + name;
    return std::nullopt;
  }

 private:
  struct Entry {
    int64_t offset = 0;
    int64_t len = 0;
    uint32_t crc = 0;
  };
  std::string path_;
  std::string_view data_;
  size_t base_;
  std::vector<std::pair<std::string, Entry>> entries_;
};

// ---- Manifest JSON field access with actionable errors.

bool GetNum(const JsonValue& obj, const char* key, double* out,
            const std::string& path, std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNumber) {
    *error = "snapshot manifest of " + path + " is missing numeric field \"" +
             key + "\"";
    return false;
  }
  *out = v->number_value;
  return true;
}

bool GetInt64(const JsonValue& obj, const char* key, int64_t* out,
              const std::string& path, std::string* error) {
  double d = 0;
  if (!GetNum(obj, key, &d, path, error)) return false;
  *out = static_cast<int64_t>(d);
  return true;
}

bool GetBits(const JsonValue& obj, const char* key, double* out,
             const std::string& path, std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->type != JsonValue::Type::kString ||
      !ParseHexBits(v->string_value, out)) {
    *error = "snapshot manifest of " + path +
             " is missing or has a malformed bit-pattern field \"" + key +
             "\"";
    return false;
  }
  return true;
}

}  // namespace

/// Friend of GridSnapshot / ShardedSnapshot / BoundaryStitcher::LabelTable:
/// the one place allowed to take their frozen representation apart and put
/// it back together.
class SnapshotIO {
 public:
  // -- Save ----------------------------------------------------------------

  static void GridMeta(JsonWriter& j, const GridSnapshot& g) {
    j.BeginObject();
    j.Key("dim").Int(g.dim_);
    j.Key("epoch").Int(static_cast<int64_t>(g.epoch()));
    j.Key("alive").Int(g.alive_);
    j.Key("eps_outer_sq_bits").String(HexBits(g.eps_outer_sq_));
    j.Key("num_points").Int(g.num_points_);
    j.Key("num_cells").Int(static_cast<int64_t>(g.cells_.size()));
    j.EndObject();
  }

  /// The sections are flat arrays: per point up to the id count, then per
  /// cell in id order, each cell's core members and core neighbors at
  /// running offsets. The blocks are flattened into exactly that layout.
  static void GridSections(SectionBuilder& b, const std::string& prefix,
                           const GridSnapshot& g) {
    const size_t dim = static_cast<size_t>(g.dim_);
    const size_t num_points = static_cast<size_t>(g.num_points_);
    {
      std::string cell_of, point_core, point_coords;
      cell_of.reserve(num_points * 4);
      point_core.reserve(num_points);
      point_coords.reserve(num_points * dim * 8);
      for (size_t pg = 0; pg < g.pages_.size(); ++pg) {
        const GridSnapshot::PointPage& page = *g.pages_[pg];
        const size_t first = pg * GridSnapshot::kPageSize;
        const size_t n = std::min<size_t>(GridSnapshot::kPageSize,
                                          num_points - first);
        AppendI32s(cell_of, page.cell, n);
        point_core.append(reinterpret_cast<const char*>(page.core), n);
        AppendF64s(point_coords, page.coords.data(), n * dim);
      }
      b.Add(prefix + "cell_of", std::move(cell_of));
      b.Add(prefix + "point_core", std::move(point_core));
      b.Add(prefix + "point_coords", std::move(point_coords));
    }
    // CellRec: u64 label + i32 members_begin/end + i32 nbr_begin/end, 24
    // bytes, explicitly composed (never memcpy'd as a struct — padding and
    // field order stay nailed down). Box: lo then hi, all kMaxDim
    // coordinates (padding included — the round trip is bit-exact by
    // construction).
    std::string cells, boxes, members, neighbors;
    cells.reserve(g.cells_.size() * 24);
    boxes.reserve(g.cells_.size() * 2 * kMaxDim * 8);
    int32_t members_end = 0;
    int32_t nbr_end = 0;
    for (size_t c = 0; c < g.cells_.size(); ++c) {
      const GridSnapshot::CellBlock& block = *g.cells_[c];
      const int32_t num_nbrs =
          static_cast<int32_t>(block.core_neighbors.size());
      AppendLe64(cells, g.labels_[c]);
      AppendLe32(cells, static_cast<uint32_t>(members_end));
      AppendLe32(cells,
                 static_cast<uint32_t>(members_end + block.num_members));
      AppendLe32(cells, static_cast<uint32_t>(nbr_end));
      AppendLe32(cells, static_cast<uint32_t>(nbr_end + num_nbrs));
      members_end += block.num_members;
      nbr_end += num_nbrs;
      AppendF64s(boxes, block.box.lo().data(), kMaxDim);
      AppendF64s(boxes, block.box.hi().data(), kMaxDim);
      AppendF64s(members, block.members.data(), block.members.size());
      AppendI32s(neighbors, block.core_neighbors.data(),
                 block.core_neighbors.size());
    }
    b.Add(prefix + "cells", std::move(cells));
    b.Add(prefix + "cell_boxes", std::move(boxes));
    b.Add(prefix + "member_coords", std::move(members));
    b.Add(prefix + "core_neighbors", std::move(neighbors));
  }

  static void SaveGrid(JsonWriter& j, SectionBuilder& b,
                       const GridSnapshot& g) {
    j.Key("grid");
    GridMeta(j, g);
    GridSections(b, "", g);
  }

  static void SaveSharded(JsonWriter& j, SectionBuilder& b,
                          const ShardedSnapshot& s) {
    j.Key("alive").Int(s.alive_);
    j.Key("num_points").Int(static_cast<int64_t>(s.points_.size()));
    j.Key("num_shards").Int(static_cast<int64_t>(s.shards_.size()));
    j.Key("shards");
    j.BeginArray();
    for (const auto& shard : s.shards_) GridMeta(j, *shard);
    j.EndArray();

    {
      std::string routing;
      routing.reserve(s.points_.size() * 4);
      for (const auto& rec : s.points_) {
        routing.push_back(static_cast<char>(rec.owner));
        routing.push_back(static_cast<char>(rec.first_holder));
        routing.push_back(static_cast<char>(rec.last_holder));
        routing.push_back(static_cast<char>(rec.alive ? 1 : 0));
      }
      b.Add("routing", std::move(routing));
    }
    for (size_t k = 0; k < s.shards_.size(); ++k) {
      const std::string prefix = "shard" + std::to_string(k) + ".";
      GridSections(b, prefix, *s.shards_[k]);
      // global id -> local id, sorted by gid so the blob is deterministic
      // regardless of hash-table iteration order.
      std::vector<std::pair<PointId, PointId>> pairs;
      pairs.reserve(s.local_of_[k].size());
      s.local_of_[k].ForEach([&](const PointId& gid, const PointId& local) {
        pairs.emplace_back(gid, local);
      });
      std::sort(pairs.begin(), pairs.end());
      std::string blob;
      blob.reserve(pairs.size() * 8);
      for (const auto& [gid, local] : pairs) {
        AppendLe32(blob, static_cast<uint32_t>(gid));
        AppendLe32(blob, static_cast<uint32_t>(local));
      }
      b.Add(prefix + "local_of", std::move(blob));
    }

    // The stitch label table: (shard, cc) -> union-find index, plus the
    // resolved root per index. Entries sorted for determinism.
    const BoundaryStitcher::LabelTable& t = *s.stitch_;
    std::vector<std::pair<BoundaryStitcher::LabelKey, int32_t>> entries;
    entries.reserve(t.index_.size());
    t.index_.ForEach(
        [&](const BoundaryStitcher::LabelKey& key, const int32_t& idx) {
          entries.emplace_back(key, idx);
        });
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                return a.first.shard != b.first.shard
                           ? a.first.shard < b.first.shard
                           : a.first.cc < b.first.cc;
              });
    std::string index_blob;
    index_blob.reserve(entries.size() * 16);
    for (const auto& [key, idx] : entries) {
      AppendLe32(index_blob, static_cast<uint32_t>(key.shard));
      AppendLe64(index_blob, key.cc);
      AppendLe32(index_blob, static_cast<uint32_t>(idx));
    }
    b.Add("stitch.index", std::move(index_blob));
    std::string root_blob;
    AppendI32s(root_blob, t.root_.data(), t.root_.size());
    b.Add("stitch.root", std::move(root_blob));
  }

  // -- Load ----------------------------------------------------------------

  static std::shared_ptr<const GridSnapshot> LoadGrid(
      const JsonValue& meta, const SectionReader& sections,
      const std::string& prefix, const std::string& path,
      std::string* error) {
    int64_t dim = 0, epoch = 0, alive = 0, num_points = 0, num_cells = 0;
    double eps_outer_sq = 0;
    if (!GetInt64(meta, "dim", &dim, path, error) ||
        !GetInt64(meta, "epoch", &epoch, path, error) ||
        !GetInt64(meta, "alive", &alive, path, error) ||
        !GetBits(meta, "eps_outer_sq_bits", &eps_outer_sq, path, error) ||
        !GetInt64(meta, "num_points", &num_points, path, error) ||
        !GetInt64(meta, "num_cells", &num_cells, path, error)) {
      return nullptr;
    }
    if (dim < 1 || dim > kMaxDim || num_points < 0 || num_cells < 0 ||
        alive < 0) {
      *error = "snapshot manifest of " + path +
               " carries out-of-range grid metadata (dim " +
               std::to_string(dim) + ", points " +
               std::to_string(num_points) + ", cells " +
               std::to_string(num_cells) + ")";
      return nullptr;
    }

    auto section = [&](const char* name,
                       size_t elem_bytes) -> std::optional<std::string_view> {
      std::optional<std::string_view> payload =
          sections.Get(prefix + name, error);
      if (!payload.has_value()) return std::nullopt;
      if (payload->size() % elem_bytes != 0) {
        *error = "section " + prefix + name + " of " + path + " has length " +
                 std::to_string(payload->size()) +
                 ", not a multiple of its element size " +
                 std::to_string(elem_bytes);
        return std::nullopt;
      }
      return payload;
    };
    auto expect_count = [&](const char* name, std::string_view payload,
                            size_t elem_bytes, int64_t count) {
      if (payload.size() == static_cast<size_t>(count) * elem_bytes) {
        return true;
      }
      *error = "section " + prefix + name + " of " + path + " holds " +
               std::to_string(payload.size() / elem_bytes) +
               " elements where the manifest promises " +
               std::to_string(count);
      return false;
    };
    auto bytes = [](std::string_view payload) {
      return reinterpret_cast<const unsigned char*>(payload.data());
    };

    // Read the flat sections first (sized only once their lengths match the
    // manifest), then page them into blocks.
    std::vector<int32_t> cell_of;
    std::string_view point_core;
    std::vector<double> point_coords;
    {
      auto s = section("cell_of", 4);
      if (!s || !expect_count("cell_of", *s, 4, num_points)) return nullptr;
      cell_of.resize(static_cast<size_t>(num_points));
      ReadI32s(bytes(*s), cell_of.size(), cell_of.data());
    }
    {
      auto s = section("point_core", 1);
      if (!s || !expect_count("point_core", *s, 1, num_points)) {
        return nullptr;
      }
      point_core = *s;
    }
    {
      auto s = section("point_coords", 8);
      if (!s || !expect_count("point_coords", *s, 8, num_points * dim)) {
        return nullptr;
      }
      point_coords.resize(static_cast<size_t>(num_points * dim));
      ReadF64s(bytes(*s), point_coords.size(), point_coords.data());
    }
    struct CellRec {
      uint64_t label = 0;
      int32_t members_begin = 0;
      int32_t members_end = 0;
      int32_t nbr_begin = 0;
      int32_t nbr_end = 0;
    };
    std::vector<CellRec> recs;
    {
      auto s = section("cells", 24);
      if (!s || !expect_count("cells", *s, 24, num_cells)) return nullptr;
      recs.resize(static_cast<size_t>(num_cells));
      const unsigned char* p = bytes(*s);
      for (size_t i = 0; i < recs.size(); ++i) {
        CellRec& c = recs[i];
        c.label = ReadLe64(p + i * 24);
        c.members_begin = static_cast<int32_t>(ReadLe32(p + i * 24 + 8));
        c.members_end = static_cast<int32_t>(ReadLe32(p + i * 24 + 12));
        c.nbr_begin = static_cast<int32_t>(ReadLe32(p + i * 24 + 16));
        c.nbr_end = static_cast<int32_t>(ReadLe32(p + i * 24 + 20));
      }
    }
    std::string_view boxes;
    {
      auto s = section("cell_boxes", 2 * kMaxDim * 8);
      if (!s || !expect_count("cell_boxes", *s, 2 * kMaxDim * 8, num_cells)) {
        return nullptr;
      }
      boxes = *s;
    }
    std::vector<double> member_coords;
    {
      auto s = section("member_coords", 8);
      if (!s) return nullptr;
      if (s->size() % (static_cast<size_t>(dim) * 8) != 0) {
        *error = "section " + prefix + "member_coords of " + path +
                 " is not a whole number of dim-" + std::to_string(dim) +
                 " rows";
        return nullptr;
      }
      member_coords.resize(s->size() / 8);
      ReadF64s(bytes(*s), member_coords.size(), member_coords.data());
    }
    std::vector<int32_t> core_neighbors;
    {
      auto s = section("core_neighbors", 4);
      if (!s) return nullptr;
      core_neighbors.resize(s->size() / 4);
      ReadI32s(bytes(*s), core_neighbors.size(), core_neighbors.data());
    }

    // Structural sanity: every cell's ranges must lie inside the arrays
    // they index, and every cell id must name a cell (the CRC already
    // vouches for integrity; this guards against a manifest/section
    // mismatch assembled from mixed files).
    const int32_t num_members =
        static_cast<int32_t>(member_coords.size() / static_cast<size_t>(dim));
    const int32_t num_nbrs = static_cast<int32_t>(core_neighbors.size());
    for (const CellRec& c : recs) {
      if (c.members_begin < 0 || c.members_begin > c.members_end ||
          c.members_end > num_members || c.nbr_begin < 0 ||
          c.nbr_begin > c.nbr_end || c.nbr_end > num_nbrs) {
        *error = "snapshot " + path + " (" + prefix +
                 "cells) indexes outside its member/neighbor sections: "
                 "inconsistent snapshot";
        return nullptr;
      }
    }
    for (const int32_t c : cell_of) {
      if (c < -1 || c >= static_cast<int32_t>(num_cells)) {
        *error = "snapshot " + path + " (" + prefix +
                 "cell_of) references cell " + std::to_string(c) +
                 " outside the cell table";
        return nullptr;
      }
    }
    for (const int32_t c : core_neighbors) {
      if (c < 0 || c >= static_cast<int32_t>(num_cells)) {
        *error = "snapshot " + path + " (" + prefix +
                 "core_neighbors) references cell " + std::to_string(c) +
                 " outside the cell table";
        return nullptr;
      }
    }

    std::shared_ptr<GridSnapshot> g(
        new GridSnapshot(static_cast<uint64_t>(epoch)));
    g->dim_ = static_cast<int>(dim);
    g->eps_outer_sq_ = eps_outer_sq;
    g->alive_ = alive;
    g->num_points_ = num_points;
    constexpr int64_t kPageSize = GridSnapshot::kPageSize;
    const size_t row = static_cast<size_t>(dim);
    for (int64_t first = 0; first < num_points; first += kPageSize) {
      auto page = std::make_shared<GridSnapshot::PointPage>(g->dim_);
      const int64_t n = std::min(kPageSize, num_points - first);
      std::copy_n(cell_of.begin() + first, n, page->cell);
      std::copy_n(point_core.begin() + first, n, page->core);
      std::copy_n(point_coords.begin() + first * dim, n * dim,
                  page->coords.begin());
      g->pages_.push_back(std::move(page));
    }
    const unsigned char* box_bytes = bytes(boxes);
    g->labels_.resize(recs.size());
    for (size_t i = 0; i < recs.size(); ++i) {
      const CellRec& c = recs[i];
      auto block = std::make_shared<GridSnapshot::CellBlock>();
      Point lo, hi;
      for (int k = 0; k < kMaxDim; ++k) {
        lo[k] = ReadLeDouble(box_bytes + (i * 2 * kMaxDim + k) * 8);
        hi[k] = ReadLeDouble(box_bytes + (i * 2 * kMaxDim + kMaxDim + k) * 8);
      }
      block->box = Box(lo, hi);
      block->num_members = c.members_end - c.members_begin;
      block->members.assign(member_coords.begin() + c.members_begin * row,
                            member_coords.begin() + c.members_end * row);
      block->core_neighbors.assign(core_neighbors.begin() + c.nbr_begin,
                                   core_neighbors.begin() + c.nbr_end);
      g->labels_[i] = c.label;
      g->cells_.push_back(std::move(block));
    }
    return g;
  }

  static std::shared_ptr<const ClusterSnapshot> LoadSharded(
      const JsonValue& manifest, const SectionReader& sections,
      uint64_t epoch, const std::string& path, std::string* error) {
    int64_t alive = 0, num_points = 0, num_shards = 0;
    if (!GetInt64(manifest, "alive", &alive, path, error) ||
        !GetInt64(manifest, "num_points", &num_points, path, error) ||
        !GetInt64(manifest, "num_shards", &num_shards, path, error)) {
      return nullptr;
    }
    const JsonValue* shard_metas = manifest.Find("shards");
    if (shard_metas == nullptr ||
        shard_metas->type != JsonValue::Type::kArray ||
        static_cast<int64_t>(shard_metas->items.size()) != num_shards) {
      *error = "snapshot manifest of " + path +
               " promises " + std::to_string(num_shards) +
               " shards but its \"shards\" array disagrees";
      return nullptr;
    }

    std::vector<ShardedSnapshot::GidRec> points;
    {
      std::optional<std::string_view> s = sections.Get("routing", error);
      if (!s.has_value()) return nullptr;
      if (s->size() != static_cast<size_t>(num_points) * 4) {
        *error = "section routing of " + path + " holds " +
                 std::to_string(s->size() / 4) +
                 " records where the manifest promises " +
                 std::to_string(num_points);
        return nullptr;
      }
      points.resize(static_cast<size_t>(num_points));
      const unsigned char* p =
          reinterpret_cast<const unsigned char*>(s->data());
      for (size_t i = 0; i < points.size(); ++i) {
        points[i].owner = p[i * 4];
        points[i].first_holder = p[i * 4 + 1];
        points[i].last_holder = p[i * 4 + 2];
        points[i].alive = p[i * 4 + 3] != 0;
      }
    }

    std::vector<std::shared_ptr<const GridSnapshot>> shards;
    std::vector<FlatHashMap<PointId, PointId>> local_of(
        static_cast<size_t>(num_shards));
    for (int64_t k = 0; k < num_shards; ++k) {
      const std::string prefix = "shard" + std::to_string(k) + ".";
      std::shared_ptr<const GridSnapshot> g = LoadGrid(
          shard_metas->items[static_cast<size_t>(k)], sections, prefix, path,
          error);
      if (g == nullptr) return nullptr;
      shards.push_back(std::move(g));

      std::optional<std::string_view> s =
          sections.Get(prefix + "local_of", error);
      if (!s.has_value()) return nullptr;
      if (s->size() % 8 != 0) {
        *error = "section " + prefix + "local_of of " + path +
                 " is not a whole number of (gid, local) pairs";
        return nullptr;
      }
      const unsigned char* p =
          reinterpret_cast<const unsigned char*>(s->data());
      FlatHashMap<PointId, PointId>& m = local_of[static_cast<size_t>(k)];
      m.Reserve(s->size() / 8);
      for (size_t i = 0; i < s->size() / 8; ++i) {
        const PointId gid = static_cast<PointId>(ReadLe32(p + i * 8));
        const PointId local = static_cast<PointId>(ReadLe32(p + i * 8 + 4));
        m.Emplace(gid, local);
      }
    }

    auto table = std::make_shared<BoundaryStitcher::LabelTable>();
    {
      std::optional<std::string_view> idx = sections.Get("stitch.index",
                                                         error);
      if (!idx.has_value()) return nullptr;
      if (idx->size() % 16 != 0) {
        *error = "section stitch.index of " + path +
                 " is not a whole number of 16-byte entries";
        return nullptr;
      }
      std::optional<std::string_view> root = sections.Get("stitch.root",
                                                          error);
      if (!root.has_value()) return nullptr;
      if (root->size() % 4 != 0) {
        *error = "section stitch.root of " + path +
                 " is not a whole number of 4-byte roots";
        return nullptr;
      }
      table->root_.resize(root->size() / 4);
      ReadI32s(reinterpret_cast<const unsigned char*>(root->data()),
               table->root_.size(), table->root_.data());
      const unsigned char* p =
          reinterpret_cast<const unsigned char*>(idx->data());
      table->index_.Reserve(idx->size() / 16);
      for (size_t i = 0; i < idx->size() / 16; ++i) {
        BoundaryStitcher::LabelKey key;
        key.shard = static_cast<int32_t>(ReadLe32(p + i * 16));
        key.cc = ReadLe64(p + i * 16 + 4);
        const int32_t index = static_cast<int32_t>(ReadLe32(p + i * 16 + 12));
        if (index < 0 ||
            index >= static_cast<int32_t>(table->root_.size())) {
          *error = "section stitch.index of " + path +
                   " references root " + std::to_string(index) +
                   " outside stitch.root (" +
                   std::to_string(table->root_.size()) + " entries)";
          return nullptr;
        }
        table->index_.Emplace(key, index);
      }
    }

    return std::make_shared<ShardedSnapshot>(
        epoch, std::move(points), alive, std::move(shards),
        std::move(local_of), std::move(table));
  }
};

std::string SnapshotFileName(uint64_t last_seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "snap-%016" PRIx64 ".snap", last_seq);
  return buf;
}

bool SaveSnapshot(const ClusterSnapshot& snap, const DbscanParams& params,
                  uint64_t last_seq, const std::string& path,
                  std::string* error) {
  const GridSnapshot* grid = dynamic_cast<const GridSnapshot*>(&snap);
  const ShardedSnapshot* sharded =
      dynamic_cast<const ShardedSnapshot*>(&snap);
  if (grid == nullptr && sharded == nullptr) {
    if (error != nullptr) {
      *error = "SaveSnapshot: unsupported ClusterSnapshot type";
    }
    return false;
  }

  JsonWriter j;
  SectionBuilder b;
  j.BeginObject();
  j.Key("format_version").Int(kSnapshotFormatVersion);
  j.Key("kind").String(grid != nullptr ? "grid" : "sharded");
  j.Key("epoch").Int(static_cast<int64_t>(snap.epoch()));
  j.Key("last_seq").Int(static_cast<int64_t>(last_seq));
  j.Key("params");
  j.BeginObject();
  j.Key("dim").Int(params.dim);
  j.Key("min_pts").Int(params.min_pts);
  j.Key("eps_bits").String(HexBits(params.eps));
  j.Key("rho_bits").String(HexBits(params.rho));
  j.EndObject();
  if (grid != nullptr) {
    SnapshotIO::SaveGrid(j, b, *grid);
  } else {
    SnapshotIO::SaveSharded(j, b, *sharded);
  }
  j.Key("sections");
  b.WriteTable(j);
  j.EndObject();

  const std::string& manifest = j.str();
  std::string file;
  file.reserve(kFileHeaderBytes + manifest.size());
  file.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  AppendLe32(file, static_cast<uint32_t>(manifest.size()));
  AppendLe32(file, Crc32(manifest));
  file.append(manifest);
  b.AppendPayloads(file);

  if (!WriteFileAtomic(path, file, error)) return false;
  DDC_COUNTER_INC("persist.snapshot_saves");
  DDC_COUNTER_ADD("persist.snapshot_bytes_written",
                  static_cast<int64_t>(file.size()));
  return true;
}

std::shared_ptr<const ClusterSnapshot> LoadSnapshot(const std::string& path,
                                                    SnapshotMeta* meta,
                                                    std::string* error) {
  std::string local_error;
  if (error == nullptr) error = &local_error;
  std::string data;
  if (!ReadFileToString(path, &data, error)) return nullptr;

  if (data.size() < kFileHeaderBytes ||
      std::string_view(data.data(), 8) !=
          std::string_view(kSnapshotMagic, 8)) {
    *error = "not a snapshot file (bad magic): " + path + " at offset 0";
    return nullptr;
  }
  const unsigned char* bytes =
      reinterpret_cast<const unsigned char*>(data.data());
  const uint32_t manifest_len = ReadLe32(bytes + 8);
  const uint32_t manifest_crc = ReadLe32(bytes + 12);
  if (kFileHeaderBytes + static_cast<size_t>(manifest_len) > data.size()) {
    *error = "truncated snapshot manifest in " + path + " at offset 8: " +
             "manifest length " + std::to_string(manifest_len) +
             " exceeds file size " + std::to_string(data.size());
    return nullptr;
  }
  const std::string_view manifest_text(data.data() + kFileHeaderBytes,
                                       manifest_len);
  if (Crc32(manifest_text) != manifest_crc) {
    *error = "corrupt snapshot manifest in " + path + " at offset " +
             std::to_string(kFileHeaderBytes) + ": CRC32 mismatch over " +
             std::to_string(manifest_len) + " manifest bytes";
    return nullptr;
  }
  std::string parse_error;
  std::optional<JsonValue> manifest =
      JsonParse(manifest_text, &parse_error);
  if (!manifest.has_value()) {
    *error = "unparsable snapshot manifest in " + path + " at offset " +
             std::to_string(kFileHeaderBytes) + ": " + parse_error;
    return nullptr;
  }

  int64_t version = 0, epoch = 0, last_seq = 0;
  if (!GetInt64(*manifest, "format_version", &version, path, error) ||
      !GetInt64(*manifest, "epoch", &epoch, path, error) ||
      !GetInt64(*manifest, "last_seq", &last_seq, path, error)) {
    return nullptr;
  }
  if (version != kSnapshotFormatVersion) {
    *error = "snapshot " + path + " has format_version " +
             std::to_string(version) + "; this build reads version " +
             std::to_string(kSnapshotFormatVersion);
    return nullptr;
  }
  const JsonValue* kind = manifest->Find("kind");
  if (kind == nullptr || kind->type != JsonValue::Type::kString) {
    *error = "snapshot manifest of " + path + " is missing \"kind\"";
    return nullptr;
  }

  SnapshotMeta parsed;
  parsed.format_version = static_cast<int>(version);
  parsed.kind = kind->string_value;
  parsed.epoch = static_cast<uint64_t>(epoch);
  parsed.last_seq = static_cast<uint64_t>(last_seq);
  const JsonValue* params = manifest->Find("params");
  if (params == nullptr || params->type != JsonValue::Type::kObject) {
    *error = "snapshot manifest of " + path + " is missing \"params\"";
    return nullptr;
  }
  int64_t pdim = 0, pmin = 0;
  if (!GetInt64(*params, "dim", &pdim, path, error) ||
      !GetInt64(*params, "min_pts", &pmin, path, error) ||
      !GetBits(*params, "eps_bits", &parsed.params.eps, path, error) ||
      !GetBits(*params, "rho_bits", &parsed.params.rho, path, error)) {
    return nullptr;
  }
  parsed.params.dim = static_cast<int>(pdim);
  parsed.params.min_pts = static_cast<int>(pmin);

  const JsonValue* table = manifest->Find("sections");
  SectionReader sections(path, data,
                         kFileHeaderBytes + static_cast<size_t>(manifest_len));
  if (table == nullptr || !sections.Init(*table, error)) return nullptr;

  std::shared_ptr<const ClusterSnapshot> snap;
  if (parsed.kind == "grid") {
    const JsonValue* grid_meta = manifest->Find("grid");
    if (grid_meta == nullptr ||
        grid_meta->type != JsonValue::Type::kObject) {
      *error = "snapshot manifest of " + path + " is missing \"grid\"";
      return nullptr;
    }
    snap = SnapshotIO::LoadGrid(*grid_meta, sections, "", path, error);
  } else if (parsed.kind == "sharded") {
    snap = SnapshotIO::LoadSharded(*manifest, sections, parsed.epoch, path,
                                   error);
  } else {
    *error = "snapshot " + path + " has unknown kind \"" + parsed.kind +
             "\"";
    return nullptr;
  }
  if (snap == nullptr) return nullptr;
  if (meta != nullptr) *meta = parsed;
  DDC_COUNTER_INC("persist.snapshot_loads");
  return snap;
}

std::shared_ptr<const ClusterSnapshot> LoadSnapshotOrDie(
    const std::string& path, SnapshotMeta* meta) {
  std::string error;
  std::shared_ptr<const ClusterSnapshot> snap =
      LoadSnapshot(path, meta, &error);
  if (snap == nullptr) {
    std::fprintf(stderr, "LoadSnapshot failed: %s\n", error.c_str());
    std::abort();
  }
  return snap;
}

bool ListSnapshots(const std::string& dir,
                   std::vector<SnapshotFileInfo>* snapshots,
                   std::string* error) {
  snapshots->clear();
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return true;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) != 0 || name.size() != 5 + 16 + 5 ||
        name.substr(21) != ".snap") {
      continue;
    }
    SnapshotFileInfo info;
    info.path = entry.path().string();
    if (std::sscanf(name.substr(5, 16).c_str(), "%16" SCNx64,
                    &info.last_seq) != 1) {
      continue;
    }
    snapshots->push_back(std::move(info));
  }
  if (ec) {
    if (error != nullptr) *error = "cannot list " + dir + ": " + ec.message();
    return false;
  }
  std::sort(snapshots->begin(), snapshots->end(),
            [](const SnapshotFileInfo& a, const SnapshotFileInfo& b) {
              return a.last_seq < b.last_seq;
            });
  return true;
}

std::shared_ptr<const ClusterSnapshot> LoadNewestValidSnapshot(
    const std::string& dir, SnapshotMeta* meta,
    std::vector<std::string>* notes) {
  std::vector<SnapshotFileInfo> files;
  std::string error;
  if (!ListSnapshots(dir, &files, &error)) {
    if (notes != nullptr) notes->push_back(error);
    return nullptr;
  }
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    std::shared_ptr<const ClusterSnapshot> snap =
        LoadSnapshot(it->path, meta, &error);
    if (snap != nullptr) return snap;
    // Never silently accepted: every rejected file is reported, and an
    // older valid snapshot still provides the cold start.
    if (notes != nullptr) {
      notes->push_back("skipping invalid snapshot: " + error);
    }
    DDC_COUNTER_INC("persist.snapshot_load_failures");
  }
  return nullptr;
}

}  // namespace ddc

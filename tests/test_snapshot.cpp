// Snapshot store pins: a serialized ArtifactCache mmaps back as
// zero-copy views that are bitwise-equal to freshly built artifacts —
// same distance matrix, same next-hop index, same spectra — without
// running a single table build.  Corruption (any flipped body byte),
// format-version skew, truncation, and foreign files are all rejected
// with a reason instead of being misread.  A warm-restarted QueryEngine
// answers route/sim/rank byte-identically to the cold engine the
// snapshot came from.

#include "service/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "engine/artifact_cache.hpp"
#include "service/query.hpp"
#include "topo/factory.hpp"

namespace sfly::service {
namespace {

std::string tmp(const std::string& name) {
  return std::string(::testing::TempDir()) + "snapshot_" + name + ".snap";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Register `specs` and force every artifact so write_snapshot has a fully
// materialized cache (the daemon does the same at startup).
void populate(engine::ArtifactCache& cache,
              const std::vector<std::string>& specs,
              std::uint32_t concentration = 8) {
  for (const auto& spec : specs) {
    auto parsed = topo::parse_topology(spec);
    cache.register_topology(parsed.name, std::move(parsed.build), concentration);
  }
  for (const auto& name : cache.names()) {
    auto art = cache.get(name);
    (void)art->graph();
    (void)art->tables();
    (void)art->next_hops();
    (void)art->spectra();
  }
}

template <typename A, typename B>
void expect_span_eq(A a, B b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " diverges at element " << i;
}

TEST(Snapshot, RoundTripIsBitwiseEqualAndZeroCopy) {
  const auto path = tmp("roundtrip");
  engine::ArtifactCache cold;
  populate(cold, {"Paley(13)", "DF(4)", "Hypercube(4)"});
  write_snapshot(path, cold);

  auto snap = Snapshot::open(path);
  engine::ArtifactCache warm;
  Snapshot::load_into(snap, warm);
  ASSERT_EQ(warm.names(), cold.names());

  for (const auto& name : cold.names()) {
    auto a = cold.get(name);
    auto b = warm.get(name);
    EXPECT_EQ(a->concentration(), b->concentration()) << name;

    auto ga = a->graph(), gb = b->graph();
    ASSERT_EQ(ga->num_vertices(), gb->num_vertices()) << name;
    expect_span_eq(ga->raw_offsets(), gb->raw_offsets(), "graph offsets");
    expect_span_eq(ga->raw_adjacency(), gb->raw_adjacency(), "graph adjacency");

    auto ta = a->tables(), tb = b->tables();
    EXPECT_EQ(ta->diameter(), tb->diameter()) << name;
    expect_span_eq(ta->raw_distances(), tb->raw_distances(), "distances");

    auto na = a->next_hops(), nb = b->next_hops();
    EXPECT_EQ(na->words(), nb->words()) << name;
    expect_span_eq(na->raw_masks(), nb->raw_masks(), "next-hop masks");

    auto sa = a->spectra(), sb = b->spectra();
    EXPECT_EQ(sa->radix, sb->radix) << name;
    EXPECT_EQ(sa->lambda2, sb->lambda2) << name;
    EXPECT_EQ(sa->lambda_min, sb->lambda_min) << name;
    EXPECT_EQ(sa->lambda, sb->lambda) << name;
    EXPECT_EQ(sa->mu1, sb->mu1) << name;
    EXPECT_EQ(sa->bipartite, sb->bipartite) << name;
    EXPECT_EQ(sa->ramanujan, sb->ramanujan) << name;

    // Zero-copy: the loaded components are views whose storage lives
    // inside the mapped file, not heap copies of it.
    EXPECT_TRUE(gb->is_view()) << name;
    EXPECT_TRUE(tb->is_view()) << name;
    EXPECT_TRUE(nb->is_view()) << name;
    EXPECT_FALSE(ga->is_view()) << name;
    EXPECT_TRUE(snap->contains(gb->raw_adjacency().data())) << name;
    EXPECT_TRUE(snap->contains(tb->raw_distances().data())) << name;
    EXPECT_TRUE(snap->contains(nb->raw_masks().data())) << name;
    EXPECT_FALSE(snap->contains(ta->raw_distances().data())) << name;
  }
}

TEST(Snapshot, LoadAndQueryRebuildNothing) {
  const auto path = tmp("norebuild");
  engine::ArtifactCache cold;
  populate(cold, {"Paley(13)"});
  write_snapshot(path, cold);

  const auto tables_before = routing::Tables::builds();
  const auto index_before = routing::NextHopIndex::builds();

  auto snap = Snapshot::open(path);
  engine::ArtifactCache warm;
  Snapshot::load_into(snap, warm);
  auto art = warm.get("Paley(13)");
  (void)art->graph();
  (void)art->tables();
  (void)art->next_hops();
  (void)art->spectra();

  EXPECT_EQ(routing::Tables::builds(), tables_before);
  EXPECT_EQ(routing::NextHopIndex::builds(), index_before);
}

TEST(Snapshot, MappingOutlivesTheSnapshotHandle) {
  const auto path = tmp("keepalive");
  engine::ArtifactCache cold;
  populate(cold, {"Paley(13)"});
  write_snapshot(path, cold);

  std::shared_ptr<const routing::Tables> tables;
  {
    auto snap = Snapshot::open(path);
    engine::ArtifactCache warm;
    Snapshot::load_into(snap, warm);
    tables = warm.get("Paley(13)")->tables();
    // snap and warm both die here; the component deleter keeps the map.
  }
  auto fresh = cold.get("Paley(13)")->tables();
  expect_span_eq(tables->raw_distances(), fresh->raw_distances(),
                 "distances after handle drop");
}

TEST(Snapshot, FingerprintRejectsCorruption) {
  const auto path = tmp("corrupt");
  engine::ArtifactCache cache;
  populate(cache, {"Paley(13)"});
  write_snapshot(path, cache);

  auto bytes = slurp(path);
  ASSERT_GT(bytes.size(), 200u);
  bytes[bytes.size() / 2] ^= 0x01;  // one bit, somewhere in the body
  spew(path, bytes);
  try {
    (void)Snapshot::open(path);
    FAIL() << "corrupt snapshot was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos)
        << e.what();
  }
}

TEST(Snapshot, VersionSkewRejectedByName) {
  const auto path = tmp("version");
  engine::ArtifactCache cache;
  populate(cache, {"Paley(13)"});
  write_snapshot(path, cache);

  auto bytes = slurp(path);
  bytes[8] = static_cast<char>(kSnapshotVersion + 1);  // Header.version
  spew(path, bytes);
  try {
    (void)Snapshot::open(path);
    FAIL() << "version-skewed snapshot was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version skew"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(kSnapshotVersion + 1)), std::string::npos)
        << what;
  }
}

TEST(Snapshot, Version2FileRefused) {
  // A v2 file (CSR next-hop blobs) must not be read as v3 slot masks.
  const auto path = tmp("v2");
  engine::ArtifactCache cache;
  populate(cache, {"Paley(13)"});
  write_snapshot(path, cache);

  auto bytes = slurp(path);
  const std::uint32_t v2 = 2;
  std::memcpy(&bytes[8], &v2, sizeof(v2));  // Header.version
  spew(path, bytes);
  try {
    (void)Snapshot::open(path);
    FAIL() << "v2 snapshot was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("format version skew: file v2, reader v" +
                        std::to_string(kSnapshotVersion)),
              std::string::npos)
        << what;
  }
}

// Byte position of a cold artifact's array inside a snapshot file; the
// array's bytes must occur exactly once.
template <class T>
std::size_t find_blob(const std::string& file, std::span<const T> blob) {
  const std::string needle(reinterpret_cast<const char*>(blob.data()),
                           blob.size_bytes());
  const std::size_t at = file.find(needle);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(file.find(needle, at + 1), std::string::npos);
  return at;
}

template <class T>
void poke(std::string& file, std::size_t at, T value) {
  std::memcpy(&file[at], &value, sizeof(value));
}

struct CraftedCase {
  const char* what;
  std::function<void(std::string&)> mutate;
};

// Each case mutates the clean file, re-seals the header fingerprint and
// expects open() to name what is wrong; the clean bytes must still open.
void expect_rejected_by_name(const std::string& path, const std::string& clean,
                             const std::vector<CraftedCase>& cases) {
  for (const CraftedCase& c : cases) {
    SCOPED_TRACE(c.what);
    std::string bytes = clean;
    c.mutate(bytes);
    ASSERT_NE(bytes, clean);
    poke(bytes, 24, fnv1a64(bytes.data() + 64, bytes.size() - 64));  // Header.fingerprint
    spew(path, bytes);
    try {
      (void)Snapshot::open(path);
      ADD_FAILURE() << "crafted snapshot was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.what), std::string::npos) << e.what();
    }
  }
  spew(path, clean);
  EXPECT_NO_THROW((void)Snapshot::open(path));
}

TEST(Snapshot, CraftedContentsRejectedByName) {
  // A crafted file carries a fingerprint that matches its bytes, so each
  // case flips one value a lookup indexes by.
  const auto path = tmp("crafted");
  engine::ArtifactCache cache;
  populate(cache, {"Paley(13)"});
  write_snapshot(path, cache);
  const std::string clean = slurp(path);

  auto art = cache.get("Paley(13)");
  const auto g = art->graph();
  const auto idx = art->next_hops();
  ASSERT_EQ(g->degree(0), 6u);
  ASSERT_EQ(idx->words(), 1u);
  const std::size_t offsets = find_blob(clean, g->raw_offsets());
  const std::size_t adj = find_blob(clean, g->raw_adjacency());
  const std::size_t masks = find_blob(clean, idx->raw_masks());
  const auto row = [&](Vertex u, Vertex v) { return masks + 8 * (u * 13 + v); };
  const std::uint32_t adj_count = g->raw_offsets()[13];

  expect_rejected_by_name(path, clean, {
      {"graph offsets not monotone",
       [&](std::string& f) { poke<std::uint32_t>(f, offsets + 4, 100); }},
      {"graph offsets do not end at graph_adj_count",
       [&](std::string& f) { poke<std::uint32_t>(f, offsets + 4 * 13, adj_count - 1); }},
      {"graph adjacency id out of range",
       [&](std::string& f) { poke<std::uint32_t>(f, adj + 4 * 5, 13); }},
      {"next-hop mask bit at or past degree(u)",
       [&](std::string& f) { f[row(0, 1)] |= 0x40; }},  // bit 6, degree 6
      {"next-hop mask bit is not a minimal hop",  // slot 1 of 0 is 3, two hops from 1
       [&](std::string& f) { f[row(0, 1)] |= 0x02; }},
      {"next-hop row (u, u) not empty",
       [&](std::string& f) { f[row(3, 3)] |= 0x01; }},
      {"empty next-hop row",
       [&](std::string& f) { poke<std::uint64_t>(f, row(0, 1), 0); }},
  });

  // A cell-mode entry: Hypercube(13) has 8192 routers, past
  // kCellExactThreshold.  Several of its blobs hold equal bytes (every
  // vertex is a boundary vertex), so positions follow the write order
  // from cell_of: each blob starts at the next 8-byte boundary.
  const auto cell_path = tmp("crafted_cell");
  QueryEngine cold;
  cold.register_spec("Hypercube(13)");
  auto cell_art = cold.engine().artifacts().get("Hypercube(13)");
  (void)cell_art->spectra();
  const auto cell = cell_art->cell_index();
  ASSERT_FALSE(cell->exact());
  write_snapshot(cell_path, cold.engine().artifacts());
  const std::string cell_clean = slurp(cell_path);
  const auto v = cell->views();
  std::size_t at = find_blob(cell_clean, v.cell_of);
  std::size_t bytes = v.cell_of.size_bytes();
  const auto next = [&](auto blob) {
    at = (at + bytes + 7) / 8 * 8;
    bytes = blob.size_bytes();
    EXPECT_EQ(cell_clean.compare(at, bytes, reinterpret_cast<const char*>(blob.data()),
                                 bytes),
              0);
    return at;
  };
  const std::size_t cell_of = at;
  const std::size_t cell_offsets = next(v.cell_offsets);
  next(v.members);
  const std::size_t local_index = next(v.local_index);
  const std::size_t intra_offsets = next(v.intra_offsets);
  next(v.intra);
  const std::size_t boundary_offsets = next(v.boundary_offsets);
  const std::size_t boundary_local = next(v.boundary_local);
  next(v.overlay_id);
  next(v.overlay_vertex);
  const std::size_t ov_offsets = next(v.ov_offsets);
  const std::size_t ov_adj = next(v.ov_adj);
  const std::uint32_t cells = v.num_cells;
  ASSERT_GT(cells, 1u);
  ASSERT_GT(v.cell_offsets[1], 1u);  // cell 0 has room for a bad local index
  const auto u32 = [](std::string& f, std::size_t blob, std::size_t i, std::uint32_t x) {
    poke<std::uint32_t>(f, blob + 4 * i, x);
  };
  expect_rejected_by_name(cell_path, cell_clean, {
      {"cell offsets do not start at 0",
       [&](std::string& f) { u32(f, cell_offsets, 0, 1); }},
      {"cell offsets not monotone",
       [&](std::string& f) { u32(f, cell_offsets, 1, 0xFFFFFFFF); }},
      {"cell offsets do not end at n",
       [&](std::string& f) { u32(f, cell_offsets, cells, v.n - 1); }},
      {"intra offsets not monotone",
       [&](std::string& f) { u32(f, intra_offsets, 1, 0xFFFFFFFF); }},
      {"intra offsets do not end at intra_count",
       [&](std::string& f) { u32(f, intra_offsets, cells, v.intra_offsets[cells] - 1); }},
      {"boundary offsets do not end at num_boundary",
       [&](std::string& f) { u32(f, boundary_offsets, cells, v.num_boundary - 1); }},
      {"overlay offsets not monotone",
       [&](std::string& f) { u32(f, ov_offsets, 1, 0xFFFFFFFF); }},
      {"overlay offsets do not end at ov_edge_count",
       [&](std::string& f) {
         u32(f, ov_offsets, v.num_boundary, v.ov_offsets[v.num_boundary] - 1);
       }},
      {"cell intra span is not size^2 bytes",
       [&](std::string& f) { u32(f, intra_offsets, 1, v.intra_offsets[1] + 1); }},
      {"cell_of id >= num_cells",
       [&](std::string& f) { u32(f, cell_of, 0, cells); }},
      {"local index past its cell's size",
       [&](std::string& f) { poke<std::uint16_t>(f, local_index, 0xFFFF); }},
      {"boundary local index past its cell's size",
       [&](std::string& f) { poke<std::uint16_t>(f, boundary_local, 0xFFFF); }},
      {"overlay adjacency id >= num_boundary",
       [&](std::string& f) { u32(f, ov_adj, 0, v.num_boundary); }},
  });
}

TEST(Snapshot, TruncationAndForeignFilesRejected) {
  const auto path = tmp("truncated");
  engine::ArtifactCache cache;
  populate(cache, {"Paley(13)"});
  write_snapshot(path, cache);

  const auto bytes = slurp(path);
  spew(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW((void)Snapshot::open(path), std::runtime_error);

  const auto foreign = tmp("foreign");
  spew(foreign, "definitely not a snapshot file, but comfortably > 64 bytes "
                "of padding so the header read itself succeeds....");
  EXPECT_THROW((void)Snapshot::open(foreign), std::runtime_error);

  EXPECT_THROW((void)Snapshot::open(tmp("does_not_exist")),
               std::runtime_error);
}

TEST(Snapshot, FootprintSumsComponentBytes) {
  engine::ArtifactCache cache;
  populate(cache, {"Paley(13)"});
  auto art = cache.get("Paley(13)");
  const auto f = art->footprint();
  EXPECT_EQ(f.graph_bytes, art->graph()->memory_bytes());
  EXPECT_EQ(f.tables_bytes, art->tables()->memory_bytes());
  EXPECT_EQ(f.next_hops_bytes, art->next_hops()->memory_bytes());
  EXPECT_EQ(f.spectra_bytes, sizeof(Spectra));
  EXPECT_EQ(f.total(), f.graph_bytes + f.tables_bytes + f.next_hops_bytes +
                           f.spectra_bytes);
  EXPECT_GT(f.total(), 0u);
}

TEST(Snapshot, WarmRestartAnswersByteIdenticallyWithoutRebuilding) {
  const auto path = tmp("warmqueries");
  QueryEngine cold;
  cold.register_spec("Paley(13)");
  // Materialize through the engine so the snapshot has every component.
  {
    auto art = cold.engine().artifacts().get("Paley(13)");
    (void)art->graph();
    (void)art->tables();
    (void)art->next_hops();
    (void)art->spectra();
  }
  write_snapshot(path, cold.engine().artifacts());

  const std::vector<std::string> requests = {
      R"js({"id":1,"kind":"route","topo":"Paley(13)","src":0,"dst":7,"algo":"ugal-l"})js",
      R"js({"id":2,"kind":"route","topo":"Paley(13)","src":3,"dst":9,"algo":"valiant","seed":7})js",
      R"js({"id":3,"kind":"sim","topo":"Paley(13)","pattern":"random","load":0.5,"seed":42})js",
      R"js({"id":4,"kind":"rank","topos":["Paley(13)"],"job_size":64})js",
  };
  std::vector<std::string> expected;
  for (const auto& r : requests) expected.push_back(cold.handle(r));

  QueryEngine warm;
  auto snap = Snapshot::open(path);
  Snapshot::load_into(snap, warm.engine().artifacts());
  const auto tables_before = routing::Tables::builds();
  const auto index_before = routing::NextHopIndex::builds();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(warm.handle(requests[i]), expected[i]) << requests[i];
    EXPECT_NE(expected[i].find("\"ok\":true"), std::string::npos)
        << expected[i];
  }
  EXPECT_EQ(routing::Tables::builds(), tables_before);
  EXPECT_EQ(routing::NextHopIndex::builds(), index_before);
}

TEST(Snapshot, CellModeEntryRoundTripsAndServesWithoutRebuilding) {
  // Hypercube(13) has 8192 routers — past kCellExactThreshold, so its
  // snapshot entry carries cell-index blobs and no O(V^2) tables.  The
  // warm engine must answer routes byte-identically to the cold one with
  // zero table/index/cell builds.
  const auto path = tmp("cellmode");
  const std::string spec = "Hypercube(13)";

  QueryEngine cold;
  cold.register_spec(spec);
  auto cold_art = cold.engine().artifacts().get(spec);
  (void)cold_art->graph();
  (void)cold_art->spectra();
  auto cold_cell = cold_art->cell_index();
  ASSERT_FALSE(cold_cell->exact());
  ASSERT_FALSE(cold_cell->is_view());
  EXPECT_EQ(cold_art->footprint().tables_bytes, 0u);
  EXPECT_GT(cold_art->footprint().cells_bytes, 0u);
  write_snapshot(path, cold.engine().artifacts());

  const std::vector<std::string> requests = {
      R"js({"id":1,"kind":"route","topo":"Hypercube(13)","src":0,"dst":8191,"algo":"minimal"})js",
      R"js({"id":2,"kind":"route","topo":"Hypercube(13)","src":5,"dst":4000,"algo":"ugal-l","seed":3})js",
      R"js({"id":3,"kind":"route","topo":"Hypercube(13)","src":17,"dst":1234,"algo":"valiant","seed":7})js",
  };
  std::vector<std::string> expected;
  for (const auto& r : requests) expected.push_back(cold.handle(r));

  QueryEngine warm;
  auto snap = Snapshot::open(path);
  Snapshot::load_into(snap, warm.engine().artifacts());
  auto warm_art = warm.engine().artifacts().get(spec);
  auto warm_cell = warm_art->cell_index();
  ASSERT_FALSE(warm_cell->exact());
  EXPECT_TRUE(warm_cell->is_view());
  EXPECT_EQ(warm_cell->num_cells(), cold_cell->num_cells());
  EXPECT_EQ(warm_cell->num_boundary(), cold_cell->num_boundary());
  const auto va = cold_cell->views();
  const auto vb = warm_cell->views();
  expect_span_eq(va.intra, vb.intra, "intra matrices");
  expect_span_eq(va.ov_adj, vb.ov_adj, "overlay adjacency");
  EXPECT_TRUE(snap->contains(vb.intra.data()));

  const auto tables_before = routing::Tables::builds();
  const auto index_before = routing::NextHopIndex::builds();
  const auto cells_before = routing::CellIndex::builds();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(warm.handle(requests[i]), expected[i]) << requests[i];
    EXPECT_NE(expected[i].find("\"ok\":true"), std::string::npos)
        << expected[i];
  }
  EXPECT_EQ(routing::Tables::builds(), tables_before);
  EXPECT_EQ(routing::NextHopIndex::builds(), index_before);
  EXPECT_EQ(routing::CellIndex::builds(), cells_before);
}

}  // namespace
}  // namespace sfly::service

// Snapshot store pins: a serialized ArtifactCache mmaps back as a
// zero-copy graph view and the stored spectra, bitwise-equal to the cold
// artifacts, and the routing tables built from the mapped graph are
// bitwise-equal to the cold ones.  Corruption (any flipped body byte),
// format-version skew, truncation, foreign files and crafted graphs are
// all rejected with a reason instead of being misread, and no mutated
// file crashes the loader or the builders.  A warm-restarted QueryEngine
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
#include "util/rng.hpp"

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

// Register `specs` and build what serving needs, as sflyd does at
// startup; every spec here is at or below the exact threshold.
void populate(engine::ArtifactCache& cache,
              const std::vector<std::string>& specs,
              std::uint32_t concentration = 8) {
  for (const auto& spec : specs) {
    auto parsed = topo::parse_topology(spec);
    cache.register_topology(parsed.name, std::move(parsed.build), concentration);
  }
  for (const auto& name : cache.names()) cache.get(name)->materialize();
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
  populate(cold, {"Paley(13)", "DF(4)", "Hypercube(4)", "Paley(137)"});
  write_snapshot(path, cold);

  auto snap = Snapshot::open(path);
  engine::ArtifactCache warm;
  Snapshot::load_into(snap, warm);
  ASSERT_EQ(warm.names(), cold.names());

  // Every entry is a descriptor, the graph CSR and the spectra, whatever
  // its size: no routing bytes.
  const auto round8 = [](std::size_t b) { return (b + 7) / 8 * 8; };
  std::size_t expected_bytes = 64;
  for (const auto& name : cold.names()) {
    const auto g = cold.get(name)->graph();
    expected_bytes += 80 + round8(g->raw_offsets().size_bytes()) +
                      round8(g->raw_adjacency().size_bytes()) + 40;
  }
  EXPECT_EQ(snap->size_bytes(), expected_bytes);

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

    // Zero-copy: the loaded graph is a view whose storage lives inside
    // the mapped file; the tables built from it are heap arrays.
    EXPECT_TRUE(gb->is_view()) << name;
    EXPECT_FALSE(ga->is_view()) << name;
    EXPECT_TRUE(snap->contains(gb->raw_offsets().data())) << name;
    EXPECT_TRUE(snap->contains(gb->raw_adjacency().data())) << name;
    EXPECT_FALSE(snap->contains(tb->raw_distances().data())) << name;
    EXPECT_FALSE(snap->contains(nb->raw_masks().data())) << name;
  }
}

TEST(Snapshot, LoadBuildsEachExactEntryOnceEqualToCold) {
  // Opening and loading build nothing; the first use of an exact entry's
  // routing tables builds them once, and later uses share that build.
  const auto path = tmp("onebuild");
  engine::ArtifactCache cold;
  populate(cold, {"Paley(13)", "DF(4)"});
  write_snapshot(path, cold);

  const auto tables_before = routing::Tables::builds();
  const auto index_before = routing::NextHopIndex::builds();
  auto snap = Snapshot::open(path);
  engine::ArtifactCache warm;
  Snapshot::load_into(snap, warm);
  EXPECT_EQ(routing::Tables::builds(), tables_before);
  EXPECT_EQ(routing::NextHopIndex::builds(), index_before);

  for (int round = 0; round < 2; ++round)
    for (const auto& name : warm.names()) {
      auto art = warm.get(name);
      art->materialize();
      expect_span_eq(art->tables()->raw_distances(),
                     cold.get(name)->tables()->raw_distances(), "distances");
      expect_span_eq(art->next_hops()->raw_masks(),
                     cold.get(name)->next_hops()->raw_masks(), "next-hop masks");
    }
  EXPECT_EQ(routing::Tables::builds(), tables_before + 2);
  EXPECT_EQ(routing::NextHopIndex::builds(), index_before + 2);
}

TEST(Snapshot, MappingOutlivesTheSnapshotHandle) {
  const auto path = tmp("keepalive");
  engine::ArtifactCache cold;
  populate(cold, {"Paley(13)"});
  write_snapshot(path, cold);

  std::shared_ptr<const Graph> graph;
  std::shared_ptr<const routing::NextHopIndex> next_hops;
  {
    auto snap = Snapshot::open(path);
    engine::ArtifactCache warm;
    Snapshot::load_into(snap, warm);
    auto art = warm.get("Paley(13)");
    graph = art->graph();
    ASSERT_TRUE(snap->contains(graph->raw_adjacency().data()));
    next_hops = art->next_hops();
    // snap and warm both die here; the graph's deleter keeps the map.
  }
  auto fresh = cold.get("Paley(13)");
  expect_span_eq(graph->raw_offsets(), fresh->graph()->raw_offsets(),
                 "graph offsets after handle drop");
  expect_span_eq(graph->raw_adjacency(), fresh->graph()->raw_adjacency(),
                 "graph adjacency after handle drop");
  // The index maps slots to neighbours through its own copy of the graph
  // view, so it alone must keep the mapping too.
  graph.reset();
  const auto cold_hops = fresh->next_hops();
  for (Vertex u = 0; u < 13; ++u)
    for (Vertex v = 0; v < 13; ++v) {
      if (u == v) continue;
      ASSERT_EQ(next_hops->pick(u, v, u + v).vert, cold_hops->pick(u, v, u + v).vert);
    }
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

// A file stamped with an older format version is refused, naming both.
void expect_old_version_refused(std::uint32_t version) {
  const auto path = tmp("v" + std::to_string(version));
  engine::ArtifactCache cache;
  populate(cache, {"Paley(13)"});
  write_snapshot(path, cache);

  auto bytes = slurp(path);
  std::memcpy(&bytes[8], &version, sizeof(version));  // Header.version
  spew(path, bytes);
  try {
    (void)Snapshot::open(path);
    FAIL() << "v" << version << " snapshot was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("format version skew: file v" + std::to_string(version) +
                        ", reader v" + std::to_string(kSnapshotVersion)),
              std::string::npos)
        << what;
  }
}

TEST(Snapshot, Version2FileRefused) {
  // A v2 file (CSR next-hop blobs) must not be read as slot masks.
  expect_old_version_refused(2);
}

TEST(Snapshot, Version3FileRefused) {
  // A v3 file (248-byte descriptors with cell-index blobs) must not be
  // read as v5's 80-byte descriptors.
  expect_old_version_refused(3);
}

TEST(Snapshot, Version4FileRefused) {
  // A v4 file (112-byte descriptors, distance and next-hop blobs) must
  // not be read as v5's 80-byte descriptors.
  expect_old_version_refused(4);
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
  // case changes one value a lookup indexes by, or breaks the simple
  // undirected graph the routing tables are built from.
  const auto path = tmp("crafted");
  engine::ArtifactCache cache;
  populate(cache, {"Paley(13)"});
  write_snapshot(path, cache);
  const std::string clean = slurp(path);

  const auto g = cache.get("Paley(13)")->graph();
  ASSERT_EQ(g->degree(0), 6u);
  const std::size_t offsets = find_blob(clean, g->raw_offsets());
  const std::size_t adj = find_blob(clean, g->raw_adjacency());
  const std::uint32_t adj_count = g->raw_offsets()[13];
  // Vertex 0's neighbours are the squares mod 13: 1, 3, 4, 9, 10, 12.
  ASSERT_EQ(g->neighbors(0)[0], 1u);
  ASSERT_EQ(g->neighbors(0)[1], 3u);

  expect_rejected_by_name(path, clean, {
      {"graph offsets do not start at 0",
       [&](std::string& f) { poke<std::uint32_t>(f, offsets, 1); }},
      {"graph offsets not monotone",
       [&](std::string& f) { poke<std::uint32_t>(f, offsets + 4, 100); }},
      {"graph offsets do not end at graph_adj_count",
       [&](std::string& f) { poke<std::uint32_t>(f, offsets + 4 * 13, adj_count - 1); }},
      {"graph adjacency id out of range",
       [&](std::string& f) { poke<std::uint32_t>(f, adj + 4 * 5, 13); }},
      {"graph self-loop",
       [&](std::string& f) { poke<std::uint32_t>(f, adj, 0); }},
      {"graph adjacency not strictly increasing",
       [&](std::string& f) { poke<std::uint32_t>(f, adj + 4, 1); }},
      {"graph edge has no reverse",  // 2 is not a square mod 13
       [&](std::string& f) { poke<std::uint32_t>(f, adj, 2); }},
  });
}

TEST(Snapshot, MutatedFilesRefuseOrLoadGraphsTheBuildersSurvive) {
  // Random byte mutations of a clean file, resealed so the fingerprint
  // matches: open and load_into either refuse with std::runtime_error or
  // hand out graphs on which the routing builders return or throw.
  // Nothing may crash (the sanitizer jobs run this too).
  const auto path = tmp("mutated");
  engine::ArtifactCache cache;
  populate(cache, {"Paley(13)", "DF(4)", "Hypercube(5)"});
  write_snapshot(path, cache);
  const std::string clean = slurp(path);
  const std::size_t table_end = 64 + 3 * 80;  // header + entry descriptors
  ASSERT_GT(clean.size(), table_end);

  Rng rng(0x5A4F);
  int refused = 0, loaded = 0, built = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes = clean;
    for (int k = 0, edits = 1 + static_cast<int>(rng() % 4); k < edits; ++k) {
      // Half of the edits land in the descriptors, where the offsets and
      // counts are; small aligned words look like plausible ids and counts.
      const std::size_t end = rng() % 2 ? table_end : bytes.size();
      const std::size_t at = 64 + rng() % (end - 64);
      switch (rng() % 3) {
        case 0: bytes[at] ^= static_cast<char>(1u << (rng() % 8)); break;
        case 1: bytes[at] = static_cast<char>(rng()); break;
        default:
          if (at / 4 * 4 + 4 <= bytes.size())
            poke<std::uint32_t>(bytes, at / 4 * 4, static_cast<std::uint32_t>(rng() % 64));
      }
    }
    poke(bytes, 24, fnv1a64(bytes.data() + 64, bytes.size() - 64));  // Header.fingerprint
    spew(path, bytes);
    std::shared_ptr<Snapshot> snap;
    engine::ArtifactCache warm;
    try {
      snap = Snapshot::open(path);
      Snapshot::load_into(snap, warm);
    } catch (const std::runtime_error&) {
      ++refused;
      continue;
    }
    ++loaded;
    for (const auto& name : warm.names()) {
      const auto g = warm.get(name)->graph();
      try {
        const auto tables = routing::Tables::build(*g);
        (void)routing::NextHopIndex::build(*g, tables);
        ++built;
      } catch (const std::exception&) {
      }
    }
  }
  // Both outcomes occur, so the mutations reach past the fingerprint.
  EXPECT_GT(refused, 0);
  EXPECT_GT(loaded, 0);
  EXPECT_GT(built, 0);
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
  // A warm engine builds each exact entry's routing tables once at
  // startup, as sflyd does; the queries after that rebuild nothing.
  const auto path = tmp("warmqueries");
  QueryEngine cold;
  cold.register_spec("Paley(13)");
  cold.engine().artifacts().get("Paley(13)")->materialize();
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
  warm.engine().artifacts().get("Paley(13)")->materialize();
  EXPECT_EQ(routing::Tables::builds(), tables_before + 1);
  EXPECT_EQ(routing::NextHopIndex::builds(), index_before + 1);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(warm.handle(requests[i]), expected[i]) << requests[i];
    EXPECT_NE(expected[i].find("\"ok\":true"), std::string::npos)
        << expected[i];
  }
  EXPECT_EQ(routing::Tables::builds(), tables_before + 1);
  EXPECT_EQ(routing::NextHopIndex::builds(), index_before + 1);
}

}  // namespace
}  // namespace sfly::service

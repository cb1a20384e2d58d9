#pragma once
// Versioned artifact snapshot store (docs/SERVICE.md §Snapshots).
//
// A snapshot serializes every topology in an ArtifactCache — graph CSR
// and spectra, plus the all-pairs distance matrix and minimal next-hop
// index at or below engine::kCellExactThreshold routers — into one
// relocatable, fingerprinted binary file:
//
//     [Header 64B] [EntryDesc x entry_count] [8-byte-aligned blobs ...]
//
// All blob positions are absolute file offsets, so the file maps at any
// address (relocatable).  The FNV-1a fingerprint covers every byte after
// the header; open() re-hashes and rejects corruption, and a format
// version bump rejects stale files instead of misreading them.  Byte
// order and struct layout are native: a snapshot is a warm-restart /
// multi-process vehicle on one machine (OSRM's shared-memory store is
// the blueprint), not an interchange format.  An entry above the
// threshold carries no routing blob at all: sflyd routes it over one BFS
// distance row of the graph per destination.
//
// Snapshot::load_into installs each entry as pre-materialized Artifacts
// whose component deleters hold the Snapshot shared_ptr, so the mapping
// lives exactly as long as the last view over it.

#include <cstdint>
#include <memory>
#include <string>

#include "engine/artifact_cache.hpp"

namespace sfly::service {

/// Snapshot file format version; bumped on any layout change.
/// v2: per-entry artifact flags + hierarchical cell-index blobs, so
/// 50k+-router topologies snapshot a cell index instead of the
/// impractical O(V^2) tables.
/// v3: the next-hop blob is the slot-mask array (n*n*nh_words u64) in
/// place of the CSR offsets/verts/slots triple.
/// v4: the cell-index blobs are gone (112-byte entry descriptors); an
/// entry above the exact threshold is graph + spectra only.
inline constexpr std::uint32_t kSnapshotVersion = 4;

/// 64-bit FNV-1a over `n` bytes (the snapshot fingerprint hash).
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t n);

/// Serialize every topology in `cache` to `path` (written to a temp file
/// and renamed, so readers never see a torn snapshot).  Forces graph and
/// spectra per entry, and the exact tables + next-hop index at or below
/// engine::kCellExactThreshold routers.  Throws
/// std::runtime_error on I/O failure or an unserializable entry (e.g. a
/// topology name too long for the fixed-width descriptor).
void write_snapshot(const std::string& path, engine::ArtifactCache& cache);

/// A validated, read-only mmap of a snapshot file.
class Snapshot {
 public:
  /// Map and validate `path`: magic, format version, size bounds,
  /// fingerprint, per-entry offset bounds, and the contents lookups index
  /// by (graph offsets monotone and ending at the adjacency count,
  /// adjacency ids below n; every distance byte the true hop distance,
  /// i.e. a zero diagonal and d(u, v) = 1 + min over u's neighbours w of
  /// d(w, v), and the diameter byte their maximum; next-hop mask bits
  /// below degree(u), row (u, u) empty, every other row non-empty, and
  /// every hop one step closer).  Throws std::runtime_error with a
  /// reason on any mismatch (version skew names both versions).
  [[nodiscard]] static std::shared_ptr<Snapshot> open(const std::string& path);

  ~Snapshot();
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
  [[nodiscard]] std::size_t size_bytes() const { return size_; }

  /// True when `p` points into the mapped region — lets tests assert that
  /// loaded artifacts really are zero-copy views over the file.
  [[nodiscard]] bool contains(const void* p) const {
    const char* c = static_cast<const char*>(p);
    return c >= base_ && c < base_ + size_;
  }

  /// Install every entry into `cache` as pre-materialized Artifacts.
  /// Every component shared_ptr keeps `self` alive via its deleter, so
  /// dropping the cache (or the Snapshot handle) never dangles a view.
  static void load_into(const std::shared_ptr<Snapshot>& self,
                        engine::ArtifactCache& cache);

 private:
  Snapshot() = default;

  const char* base_ = nullptr;
  std::size_t size_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::uint32_t entry_count_ = 0;
};

}  // namespace sfly::service

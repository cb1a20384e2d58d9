#pragma once
// Versioned artifact snapshot store (docs/SERVICE.md §Snapshots).
//
// A snapshot serializes every topology in an ArtifactCache — its graph
// CSR, spectra, name and concentration — into one relocatable,
// fingerprinted binary file:
//
//     [Header 64B] [EntryDesc x entry_count] [8-byte-aligned blobs ...]
//
// All blob positions are absolute file offsets, so the file maps at any
// address (relocatable).  The FNV-1a fingerprint covers every byte after
// the header; open() re-hashes and rejects corruption, and a format
// version bump rejects stale files instead of misreading them.  Byte
// order and struct layout are native: a snapshot is a warm-restart
// vehicle on one machine, not an interchange format.  The spectra (the
// Ramanujan certificate) are what is costly to rebuild; the routing
// tables are not stored at all, since building them from the graph
// costs less than checking stored ones.
//
// Snapshot::load_into installs each entry as Artifacts that adopt the
// graph (a zero-copy view over the mapping) and the spectra; the deleters
// hold the Snapshot shared_ptr, so the mapping lives exactly as long as
// the last view over it.  Tables and the next-hop index are then built
// from the checked graph on first use, by the same builders a cold start
// runs (sflyd builds them at startup either way).

#include <cstdint>
#include <memory>
#include <string>

#include "engine/artifact_cache.hpp"

namespace sfly::service {

/// Snapshot file format version; bumped on any layout change.
/// v2: per-entry artifact flags + hierarchical cell-index blobs.
/// v3: the next-hop blob is the slot-mask array in place of a CSR triple.
/// v4: the cell-index blobs are gone (112-byte entry descriptors); an
/// entry above the exact threshold is graph + spectra only.
/// v5: every entry is graph + spectra only (80-byte descriptors, no
/// flags, no distance or next-hop blobs).
inline constexpr std::uint32_t kSnapshotVersion = 5;

/// 64-bit FNV-1a over `n` bytes (the snapshot fingerprint hash).
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t n);

/// Serialize every topology in `cache` to `path` (written to a temp file
/// and renamed, so readers never see a torn snapshot).  Forces the graph
/// and spectra per entry.  Throws std::runtime_error on I/O failure or an
/// unserializable entry (e.g. a topology name too long for the
/// fixed-width descriptor).
void write_snapshot(const std::string& path, engine::ArtifactCache& cache);

/// A validated, read-only mmap of a snapshot file.
class Snapshot {
 public:
  /// Map and validate `path`: magic, format version, size bounds,
  /// fingerprint, per-entry offset bounds, and the graph Graph promises:
  /// offsets from 0, monotone and ending at the adjacency count; every
  /// adjacency list strictly increasing, loop-free and of degree at most
  /// 65536, with ids below n; and every edge listed from both ends.
  /// Throws std::runtime_error with a reason on any mismatch (version
  /// skew names both versions).
  [[nodiscard]] static std::shared_ptr<Snapshot> open(const std::string& path);

  ~Snapshot();
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
  [[nodiscard]] std::size_t size_bytes() const { return size_; }

  /// True when `p` points into the mapped region — lets tests assert that
  /// a loaded graph really is a zero-copy view over the file.
  [[nodiscard]] bool contains(const void* p) const {
    const char* c = static_cast<const char*>(p);
    return c >= base_ && c < base_ + size_;
  }

  /// Install every entry into `cache` as Artifacts holding the mapped
  /// graph and the spectra.  Both shared_ptrs keep `self` alive via their
  /// deleters, so dropping the cache (or the Snapshot handle) never
  /// dangles a view.
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

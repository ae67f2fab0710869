//===- AnalysisCache.h - Content-addressed analysis artifacts ---*- C++ -*-===//
///
/// \file
/// A concurrent, content-hash-keyed store of per-thread analysis bundles
/// (liveness, NSR decomposition, GIG/BIG/IIG, register bounds). The batch
/// pipeline keys each renamed thread by an FNV-1a hash of its flat binary
/// encoding (encodeProgram below): fixed-width words covering every field
/// that analysis can observe, byte-stable by construction, so equal bytes
/// mean equal analysis input. Repeated programs and shared kernels across
/// batch jobs then reuse one immutable bundle instead of re-running the
/// dataflow — and keying never pays for an assembly print.
///
/// Soundness against hash collisions: a 64-bit content hash can collide,
/// and serving another program's bundle would silently corrupt allocation.
/// Every entry therefore stores the encoding it was computed from;
/// lookup() compares it against the caller's bytes and treats a mismatch as
/// a miss (counted separately as a collision). The hash is only an index —
/// correctness rests on the byte comparison.
///
/// Integrity against corruption: each entry also records a checksum of its
/// stored assembly at insert time. A lookup that finds the stored text no
/// longer matching its own checksum — truncation or bit-rot of the entry
/// itself, as opposed to a key collision — evicts the entry, counts a miss,
/// and bumps the corruption counter (`cache.corrupt_entries` in the global
/// registry), so a damaged entry costs one recomputation instead of
/// poisoning every later hit. corruptEntryForTesting() plants such damage
/// deliberately for the forced-corruption test.
///
/// Thread safety: lookup and insert are individually atomic. Two workers
/// that miss on the same key may both compute the bundle; the first insert
/// wins and the loser's copy is dropped — wasted work, never wrong results,
/// because bundles for equal content are identical.
///
/// Bounding: an optional byte budget (constructor argument) turns
/// the store into an LRU cache. Every entry is charged an approximate
/// footprint (stored encoding + an estimate of the analysis bundle, which
/// scales with the encoding); when an insert pushes the total past the
/// budget, least-recently-used entries are evicted until it fits. Eviction
/// only ever costs a recomputation — a bundle handed out by lookup() is a
/// shared_ptr, so in-flight users keep their copy alive. The default budget
/// of 0 means unbounded, keeping one-shot batch behavior identical; the
/// long-running serve daemon always sets a budget. `cache.evictions` and
/// `cache.bytes` in the global MetricsRegistry track the bound's activity.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_DRIVER_ANALYSISCACHE_H
#define NPRAL_DRIVER_ANALYSISCACHE_H

#include "alloc/IntraAllocator.h"
#include "ir/Program.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace npral {

/// Flat binary encoding of \p P's analysis-relevant content: thread name,
/// register count, entry block, entry-live list, block structure (fall-
/// throughs) and every instruction field, all as fixed-width little-endian
/// words. Two programs encode equally iff their printed assembly parses to
/// the same IR modulo debug names (register and block labels are excluded —
/// analysis bundles are ID-based and never look at names). Encoding is a
/// straight sweep over the IR with no string formatting, so keying the
/// cache costs memcpy-speed instead of a full assembly print.
std::string encodeProgram(const Program &P);

/// FNV-1a hash of \p P's flat encoding — the cache key. Any difference in
/// thread name, structure or instruction bytes changes the key; debug
/// names do not (they do not affect analysis results).
uint64_t hashProgramContent(const Program &P);

/// The AnalysisCache key of a renamed thread whose flat encoding is \p Text,
/// in the key-space partition \p ProfileHash (0 = unpartitioned). The batch
/// pipeline and the grid's trait extraction both key through here, so a
/// bundle one of them inserts is a hit for the other.
uint64_t analysisCacheKey(std::string_view Text, uint64_t ProfileHash);

class AnalysisCache {
public:
  /// \p MaxBytes caps the approximate footprint of stored entries; 0 (the
  /// default) keeps the cache unbounded.
  explicit AnalysisCache(int64_t MaxBytes = 0) : MaxBytes(MaxBytes) {}

  /// Bundle for \p Key, or null on a miss. \p Text must be the flat
  /// encoding the key was hashed from; an entry whose stored bytes differ
  /// is a hash collision — it is never served, counts as a miss, and bumps
  /// the collision counter.
  std::shared_ptr<const ThreadAnalysisBundle>
  lookup(uint64_t Key, std::string_view Text) const;

  /// Store \p Bundle (computed from the program encoded as \p Text) under
  /// \p Key. If another worker inserted the key first, that entry is kept
  /// and returned instead — even when it holds a colliding program's
  /// bundle, in which case the caller's fresh bundle is handed back
  /// unshared rather than poisoning the table.
  std::shared_ptr<const ThreadAnalysisBundle>
  insert(uint64_t Key, std::string Text,
         std::shared_ptr<const ThreadAnalysisBundle> Bundle);

  int64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  int64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  /// Entries dropped to keep the store under its byte budget.
  int64_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }
  /// Approximate footprint of the stored entries, in bytes.
  int64_t bytes() const { return Bytes.load(std::memory_order_relaxed); }
  /// The byte budget; 0 = unbounded.
  int64_t maxBytes() const { return MaxBytes; }
  /// Lookups whose key matched an entry with different program text.
  int64_t collisions() const {
    return Collisions.load(std::memory_order_relaxed);
  }
  /// Entries evicted because their stored text failed its checksum.
  int64_t corruptions() const {
    return Corruptions.load(std::memory_order_relaxed);
  }
  size_t size() const;

  /// Damage the stored text of the entry under \p Key (truncating it
  /// without refreshing the checksum) so the next lookup exercises the
  /// corruption path. Returns false when the key has no entry. Test hook;
  /// production code never mutates stored entries.
  bool corruptEntryForTesting(uint64_t Key);

private:
  struct Entry {
    std::string Text;
    /// FNV-1a of Text at insert time; revalidated on every lookup.
    uint64_t TextSum = 0;
    std::shared_ptr<const ThreadAnalysisBundle> Bundle;
    /// Approximate footprint charged against the byte budget.
    int64_t Cost = 0;
    /// This entry's position in Lru (most recent at the front).
    std::list<uint64_t>::iterator LruIt;
  };

  /// Remove the entry at \p It, uncharging its cost. Caller holds Mutex.
  void eraseLocked(std::unordered_map<uint64_t, Entry>::iterator It) const;
  /// Evict LRU entries until the footprint fits MaxBytes. Caller holds
  /// Mutex. Entries named in \p Protect (the one just inserted) survive
  /// even when they alone exceed the budget — an oversized entry lives
  /// until the next insert rather than thrashing every lookup.
  void enforceBudgetLocked(uint64_t Protect) const;

  const int64_t MaxBytes;
  mutable std::mutex Mutex;
  mutable std::unordered_map<uint64_t, Entry> Entries;
  /// LRU order over Entries' keys; front = most recently used.
  mutable std::list<uint64_t> Lru;
  mutable std::atomic<int64_t> Hits{0};
  mutable std::atomic<int64_t> Misses{0};
  mutable std::atomic<int64_t> Collisions{0};
  mutable std::atomic<int64_t> Corruptions{0};
  mutable std::atomic<int64_t> Evictions{0};
  mutable std::atomic<int64_t> Bytes{0};
};

} // namespace npral

#endif // NPRAL_DRIVER_ANALYSISCACHE_H

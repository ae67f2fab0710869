//===- AnalysisCache.cpp --------------------------------------------------===//

#include "driver/AnalysisCache.h"

#include "support/StringUtils.h"
#include "trace/MetricsRegistry.h"

#include <cstring>

using namespace npral;

namespace {

void append64(std::string &Out, uint64_t V) {
  char Buf[8];
  for (int I = 0; I < 8; ++I)
    Buf[I] = static_cast<char>((V >> (8 * I)) & 0xFF);
  Out.append(Buf, 8);
}

/// Approximate footprint of an entry holding \p Text plus its analysis
/// bundle. The bundle's liveness bitvectors, interference rows and NSR
/// tables all scale with the program's instruction count, which the flat
/// encoding tracks linearly — a small multiple of the encoding plus a
/// fixed overhead is a sound working estimate for budget enforcement (the
/// bound is a resource guard, not an accountant's ledger).
int64_t entryCost(const std::string &Text) {
  return static_cast<int64_t>(Text.size()) * 4 + 512;
}

} // namespace

std::string npral::encodeProgram(const Program &P) {
  std::string Out;
  // Rough sizing: 4 words per instruction + small per-block overhead.
  Out.reserve(64 + P.Name.size() +
              static_cast<size_t>(P.countInstructions()) * 32 +
              P.Blocks.size() * 16);
  append64(Out, P.Name.size());
  Out += P.Name;
  append64(Out, static_cast<uint64_t>(static_cast<uint32_t>(P.NumRegs)) |
                    (static_cast<uint64_t>(P.IsPhysical) << 32));
  append64(Out, static_cast<uint64_t>(static_cast<uint32_t>(P.EntryBlock)));
  append64(Out, P.EntryLiveRegs.size());
  for (Reg R : P.EntryLiveRegs)
    append64(Out, static_cast<uint64_t>(static_cast<uint32_t>(R)));
  append64(Out, P.Blocks.size());
  for (const BasicBlock &BB : P.Blocks) {
    append64(Out,
             static_cast<uint64_t>(static_cast<uint32_t>(BB.FallThrough)) |
                 (static_cast<uint64_t>(BB.Instrs.size()) << 32));
    for (const Instruction &I : BB.Instrs) {
      append64(Out, static_cast<uint64_t>(static_cast<uint32_t>(I.Op)) |
                        (static_cast<uint64_t>(static_cast<uint32_t>(I.Def))
                         << 32));
      append64(Out, static_cast<uint64_t>(static_cast<uint32_t>(I.Use1)) |
                        (static_cast<uint64_t>(static_cast<uint32_t>(I.Use2))
                         << 32));
      append64(Out, static_cast<uint64_t>(I.Imm));
      append64(Out, static_cast<uint64_t>(static_cast<uint32_t>(I.Target)));
    }
  }
  return Out;
}

uint64_t npral::hashProgramContent(const Program &P) {
  return fnv1aHash(encodeProgram(P));
}

uint64_t npral::analysisCacheKey(std::string_view Text, uint64_t Partition) {
  return fnv1aCombine(fnv1aHash(Text), Partition);
}

void AnalysisCache::eraseLocked(
    std::unordered_map<uint64_t, Entry>::iterator It) const {
  Bytes.fetch_sub(It->second.Cost, std::memory_order_relaxed);
  Lru.erase(It->second.LruIt);
  Entries.erase(It);
  if (MaxBytes > 0)
    MetricsRegistry::global().gauge("cache.bytes").set(
        Bytes.load(std::memory_order_relaxed));
}

void AnalysisCache::enforceBudgetLocked(uint64_t Protect) const {
  if (MaxBytes <= 0)
    return;
  while (Bytes.load(std::memory_order_relaxed) > MaxBytes && !Lru.empty()) {
    uint64_t Victim = Lru.back();
    if (Victim == Protect) {
      // The protected (just-inserted) entry is the oldest one left; the
      // budget is simply smaller than one entry. Keep it — evicting the
      // entry its own insert paid for would make every insert a no-op.
      break;
    }
    auto It = Entries.find(Victim);
    eraseLocked(It);
    Evictions.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::global().counter("cache.evictions").increment();
  }
}

std::shared_ptr<const ThreadAnalysisBundle>
AnalysisCache::lookup(uint64_t Key, std::string_view Text) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Key);
  if (It == Entries.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (fnv1aHash(It->second.Text) != It->second.TextSum) {
    // The entry itself is damaged (truncated or bit-rotted after insert):
    // serving it — or even comparing against it — is meaningless. Evict so
    // the caller recomputes and reinserts a sound entry.
    eraseLocked(It);
    Corruptions.fetch_add(1, std::memory_order_relaxed);
    Misses.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::global().counter("cache.corrupt_entries").increment();
    return nullptr;
  }
  if (It->second.Text != Text) {
    // Same 64-bit hash, different program: serving the stored bundle would
    // be unsound. Report a miss so the caller recomputes.
    Collisions.fetch_add(1, std::memory_order_relaxed);
    Misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Hits.fetch_add(1, std::memory_order_relaxed);
  // A hit is a use: move to the LRU front so hot kernels outlive one-off
  // programs under a byte budget.
  Lru.splice(Lru.begin(), Lru, It->second.LruIt);
  return It->second.Bundle;
}

std::shared_ptr<const ThreadAnalysisBundle>
AnalysisCache::insert(uint64_t Key, std::string Text,
                      std::shared_ptr<const ThreadAnalysisBundle> Bundle) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Key);
  if (It != Entries.end()) {
    if (It->second.Text != Text)
      // The slot is occupied by a colliding program; keep the table as-is
      // and let the caller proceed with its own (correct) bundle.
      return Bundle;
    Lru.splice(Lru.begin(), Lru, It->second.LruIt);
    return It->second.Bundle;
  }
  const uint64_t Sum = fnv1aHash(Text);
  const int64_t Cost = entryCost(Text);
  Lru.push_front(Key);
  Entries.emplace(Key, Entry{std::move(Text), Sum, Bundle, Cost,
                             Lru.begin()});
  Bytes.fetch_add(Cost, std::memory_order_relaxed);
  if (MaxBytes > 0) {
    enforceBudgetLocked(Key);
    MetricsRegistry::global().gauge("cache.bytes").set(
        Bytes.load(std::memory_order_relaxed));
  }
  return Bundle;
}

bool AnalysisCache::corruptEntryForTesting(uint64_t Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Key);
  if (It == Entries.end())
    return false;
  It->second.Text.resize(It->second.Text.size() / 2);
  return true;
}

size_t AnalysisCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

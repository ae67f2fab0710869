//===- Arena.h - Flat string arena + interner -------------------*- C++ -*-===//
///
/// \file
/// Per-program string storage for the arena IR: every label and register
/// name is interned once into a flat byte arena and referred to by a dense
/// `int32_t` id from then on. IR nodes carry only ids, so copying a Program
/// is three `memcpy`-shaped vector copies instead of a walk over hundreds
/// of heap strings, and the analysis hot path never touches characters.
///
/// The interner is value-semantic on purpose: each Program owns its arena,
/// so analysis bundles shared read-only across worker threads never race on
/// a common string table (the lesson of the batch pipeline's cache design).
/// All internal state is flat offset-based vectors, which makes the
/// compiler-generated copy/move correct and cheap.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_SUPPORT_ARENA_H
#define NPRAL_SUPPORT_ARENA_H

#include <cassert>
#include <cstdint>
#include <string_view>
#include <vector>

namespace npral {

/// Sentinel id for "no string".
constexpr int32_t NoStr = -1;

/// A deduplicating string arena. Ids are dense and assigned in first-intern
/// order, so two runs that intern the same sequence of strings produce the
/// same ids — the property the `--jobs 1` vs `--jobs N` stability tests pin.
class StringInterner {
public:
  /// Intern \p S, returning its id (existing id when already present).
  int32_t intern(std::string_view S) {
    const uint64_t H = hashBytes(S);
    if (!Table.empty()) {
      size_t Mask = Table.size() - 1;
      for (size_t Slot = static_cast<size_t>(H) & Mask;;
           Slot = (Slot + 1) & Mask) {
        int32_t Id = Table[Slot];
        if (Id == NoStr)
          break;
        if (view(Id) == S)
          return Id;
      }
    }
    const int32_t Id = static_cast<int32_t>(Offsets.size());
    Offsets.push_back(static_cast<uint32_t>(Bytes.size()));
    Lengths.push_back(static_cast<uint32_t>(S.size()));
    Bytes.insert(Bytes.end(), S.begin(), S.end());
    if ((Offsets.size() + 1) * 2 > Table.size())
      rehash(Table.empty() ? 16 : Table.size() * 2);
    else
      insertIntoTable(Id, H);
    return Id;
  }

  /// Make room for \p MoreStrings more strings of \p MoreBytes bytes in
  /// all, so interning them grows nothing. Ids are unaffected.
  void reserve(int32_t MoreStrings, size_t MoreBytes) {
    const size_t Strings = Offsets.size() + static_cast<size_t>(MoreStrings);
    Offsets.reserve(Strings);
    Lengths.reserve(Strings);
    Bytes.reserve(Bytes.size() + MoreBytes);
    size_t TableSize = Table.empty() ? 16 : Table.size();
    while ((Strings + 1) * 2 > TableSize)
      TableSize *= 2;
    if (TableSize != Table.size())
      rehash(TableSize);
  }

  /// The interned string for \p Id. The view stays valid until the next
  /// intern() (the arena may grow); do not hold it across mutation.
  std::string_view view(int32_t Id) const {
    assert(Id >= 0 && static_cast<size_t>(Id) < Offsets.size() &&
           "bad string id");
    return {Bytes.data() + Offsets[static_cast<size_t>(Id)],
            Lengths[static_cast<size_t>(Id)]};
  }

  int32_t size() const { return static_cast<int32_t>(Offsets.size()); }

  /// Total interned bytes (arena footprint; used by tests/metrics).
  size_t arenaBytes() const { return Bytes.size(); }

private:
  static uint64_t hashBytes(std::string_view S) {
    uint64_t H = 1469598103934665603ull; // FNV-1a
    for (char C : S) {
      H ^= static_cast<unsigned char>(C);
      H *= 1099511628211ull;
    }
    return H;
  }

  void insertIntoTable(int32_t Id, uint64_t H) {
    size_t Mask = Table.size() - 1;
    size_t Slot = static_cast<size_t>(H) & Mask;
    while (Table[Slot] != NoStr)
      Slot = (Slot + 1) & Mask;
    Table[Slot] = Id;
  }

  void rehash(size_t NewSize) {
    Table.assign(NewSize, NoStr);
    for (int32_t Id = 0; Id < size(); ++Id)
      insertIntoTable(Id, hashBytes(view(Id)));
  }

  std::vector<char> Bytes;       ///< All string data, concatenated.
  std::vector<uint32_t> Offsets; ///< Id -> first byte in Bytes.
  std::vector<uint32_t> Lengths; ///< Id -> length.
  std::vector<int32_t> Table;    ///< Open-addressing id table (power of 2).
};

} // namespace npral

#endif // NPRAL_SUPPORT_ARENA_H

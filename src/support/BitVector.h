//===- BitVector.h - Dense fixed-size bit vector ----------------*- C++ -*-===//
///
/// \file
/// A dense bit vector with set-algebra operations, in the spirit of
/// llvm::BitVector. Liveness sets, interference adjacency rows and NSR
/// membership all use this.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_SUPPORT_BITVECTOR_H
#define NPRAL_SUPPORT_BITVECTOR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace npral {

/// A non-owning view of a fixed-size bit set stored in external words —
/// the read side of the flat per-instruction liveness pool. Cheap to pass
/// by value (pointer + size); valid only while the backing storage lives.
class BitSpan {
public:
  BitSpan() = default;
  BitSpan(const uint64_t *Words, int NumBits) : W(Words), NumBits(NumBits) {}

  int size() const { return NumBits; }
  int numWords() const { return (NumBits + 63) / 64; }
  const uint64_t *words() const { return W; }

  bool test(int I) const {
    assert(I >= 0 && I < NumBits && "bit out of range");
    return (W[static_cast<size_t>(I) / 64] >> (I % 64)) & 1;
  }

  bool any() const {
    for (int I = 0, N = numWords(); I < N; ++I)
      if (W[I])
        return true;
    return false;
  }
  bool none() const { return !any(); }

  int count() const {
    int N = 0;
    for (int I = 0, E = numWords(); I < E; ++I)
      N += __builtin_popcountll(W[I]);
    return N;
  }

  /// Call \p Fn for every set bit, in ascending order.
  template <typename FnT> void forEach(FnT Fn) const {
    for (int WI = 0, E = numWords(); WI < E; ++WI) {
      uint64_t Word = W[WI];
      while (Word) {
        int Bit = __builtin_ctzll(Word);
        Fn(WI * 64 + Bit);
        Word &= Word - 1;
      }
    }
  }

  bool operator==(BitSpan Other) const {
    if (NumBits != Other.NumBits)
      return false;
    for (int I = 0, N = numWords(); I < N; ++I)
      if (W[I] != Other.W[I])
        return false;
    return true;
  }

private:
  const uint64_t *W = nullptr;
  int NumBits = 0;
};

class BitVector {
public:
  BitVector() = default;
  explicit BitVector(int Size) { resize(Size); }

  /// Materialise a view into an owning vector (used where a consumer keeps
  /// a liveness set beyond the analysis result's lifetime, e.g. CSBs).
  BitVector(BitSpan Span) { assignSpan(Span); }

  void assignSpan(BitSpan Span) {
    NumBits = Span.size();
    Words.assign(Span.words(), Span.words() + Span.numWords());
  }

  /// Read-only view of this vector's bits.
  BitSpan span() const { return {Words.data(), NumBits}; }

  const uint64_t *words() const { return Words.data(); }
  int numWords() const { return static_cast<int>(Words.size()); }

  int size() const { return NumBits; }

  /// Grow or shrink to \p Size bits, preserving existing bits (new bits are
  /// zero; bits beyond a smaller size are dropped).
  void resize(int Size) {
    assert(Size >= 0 && "negative size");
    NumBits = Size;
    Words.resize(static_cast<size_t>((Size + 63) / 64), 0);
    // Mask stray bits past the new size so count()/any() stay exact.
    if (!Words.empty() && NumBits % 64 != 0)
      Words.back() &= (uint64_t(1) << (NumBits % 64)) - 1;
  }

  void set(int I) {
    assert(I >= 0 && I < NumBits && "bit out of range");
    Words[static_cast<size_t>(I) / 64] |= uint64_t(1) << (I % 64);
  }

  void reset(int I) {
    assert(I >= 0 && I < NumBits && "bit out of range");
    Words[static_cast<size_t>(I) / 64] &= ~(uint64_t(1) << (I % 64));
  }

  bool test(int I) const {
    assert(I >= 0 && I < NumBits && "bit out of range");
    return (Words[static_cast<size_t>(I) / 64] >> (I % 64)) & 1;
  }

  void clear() {
    for (uint64_t &W : Words)
      W = 0;
  }

  bool any() const {
    for (uint64_t W : Words)
      if (W)
        return true;
    return false;
  }

  bool none() const { return !any(); }

  int count() const {
    int N = 0;
    for (uint64_t W : Words)
      N += __builtin_popcountll(W);
    return N;
  }

  /// First set bit, or -1 when empty.
  int findFirst() const {
    for (size_t WI = 0; WI < Words.size(); ++WI)
      if (Words[WI])
        return static_cast<int>(WI * 64) + __builtin_ctzll(Words[WI]);
    return -1;
  }

  /// this |= Span (word-parallel; sizes must match).
  void unionWithSpan(BitSpan Span) {
    assert(NumBits == Span.size() && "size mismatch");
    const uint64_t *O = Span.words();
    for (size_t I = 0; I < Words.size(); ++I)
      Words[I] |= O[I];
  }

  /// this &= ~Span (word-parallel; sizes must match).
  void subtractSpan(BitSpan Span) {
    assert(NumBits == Span.size() && "size mismatch");
    const uint64_t *O = Span.words();
    for (size_t I = 0; I < Words.size(); ++I)
      Words[I] &= ~O[I];
  }

  /// this |= Other. Returns true if any bit changed.
  bool unionWith(const BitVector &Other) {
    assert(NumBits == Other.NumBits && "size mismatch");
    bool Changed = false;
    for (size_t I = 0; I < Words.size(); ++I) {
      uint64_t New = Words[I] | Other.Words[I];
      Changed |= New != Words[I];
      Words[I] = New;
    }
    return Changed;
  }

  /// this &= Other.
  void intersectWith(const BitVector &Other) {
    assert(NumBits == Other.NumBits && "size mismatch");
    for (size_t I = 0; I < Words.size(); ++I)
      Words[I] &= Other.Words[I];
  }

  /// this &= ~Other.
  void subtract(const BitVector &Other) {
    assert(NumBits == Other.NumBits && "size mismatch");
    for (size_t I = 0; I < Words.size(); ++I)
      Words[I] &= ~Other.Words[I];
  }

  bool intersects(const BitVector &Other) const {
    assert(NumBits == Other.NumBits && "size mismatch");
    for (size_t I = 0; I < Words.size(); ++I)
      if (Words[I] & Other.Words[I])
        return true;
    return false;
  }

  bool operator==(const BitVector &Other) const {
    return NumBits == Other.NumBits && Words == Other.Words;
  }

  /// Call \p Fn for every set bit, in ascending order.
  template <typename FnT> void forEach(FnT Fn) const {
    for (size_t WI = 0; WI < Words.size(); ++WI) {
      uint64_t W = Words[WI];
      while (W) {
        int Bit = __builtin_ctzll(W);
        Fn(static_cast<int>(WI * 64 + static_cast<size_t>(Bit)));
        W &= W - 1;
      }
    }
  }

  /// Set bits as a vector, ascending.
  std::vector<int> toVector() const {
    std::vector<int> Out;
    forEach([&](int I) { Out.push_back(I); });
    return Out;
  }

private:
  int NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace npral

#endif // NPRAL_SUPPORT_BITVECTOR_H

//===- support/Bytes.h - Little-endian byte codec ------------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The one little-endian codec behind every balign byte format: the
/// record files of robust/Journal.h (cache store, checkpoint journal),
/// the cache's serialized alignments, the serve wire protocol, and the
/// fixed-width words the cache fingerprint absorbs.
/// Writers append fixed-width integers to a std::string; ByteReader reads
/// them back from a byte span and fails instead of over-reading, which
/// is what keeps arbitrary fuzz bytes crash-free.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SUPPORT_BYTES_H
#define BALIGN_SUPPORT_BYTES_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace balign {

/// Writes \p V as little-endian bytes to \p Out[0, sizeof(T)).
template <typename T> void storeLittleEndian(char *Out, T V) {
  for (size_t I = 0; I != sizeof(T); ++I)
    Out[I] = static_cast<char>(static_cast<uint64_t>(V) >> (8 * I));
}

/// Appends \p V to \p Out as little-endian bytes.
template <typename T> void putLittleEndian(std::string &Out, T V) {
  char Bytes[sizeof(T)];
  storeLittleEndian(Bytes, V);
  Out.append(Bytes, sizeof(T));
}

inline void putU32(std::string &Out, uint32_t V) { putLittleEndian(Out, V); }
inline void putU64(std::string &Out, uint64_t V) { putLittleEndian(Out, V); }

/// Bounds-checked little-endian reads over a byte span. Every getter
/// returns false, consuming nothing, when the span is too short.
class ByteReader {
public:
  explicit ByteReader(std::string_view Bytes) : Bytes(Bytes) {}

  bool u8(uint8_t &Out) { return fixed(Out); }
  bool u32(uint32_t &Out) { return fixed(Out); }
  bool u64(uint64_t &Out) { return fixed(Out); }

  /// The next \p Count bytes, as a view into the span or a copy.
  bool bytes(size_t Count, std::string_view &Out) {
    if (Count > remaining())
      return false;
    Out = Bytes.substr(Pos, Count);
    Pos += Count;
    return true;
  }
  bool bytes(size_t Count, std::string &Out) {
    std::string_view View;
    if (!bytes(Count, View))
      return false;
    Out.assign(View);
    return true;
  }

  size_t pos() const { return Pos; }
  size_t remaining() const { return Bytes.size() - Pos; }
  bool atEnd() const { return Pos == Bytes.size(); }

private:
  template <typename T> bool fixed(T &Out) {
    if (remaining() < sizeof(T))
      return false;
    uint64_t V = 0;
    for (size_t I = 0; I != sizeof(T); ++I)
      V |= static_cast<uint64_t>(static_cast<uint8_t>(Bytes[Pos + I]))
           << (8 * I);
    Pos += sizeof(T);
    Out = static_cast<T>(V);
    return true;
  }

  std::string_view Bytes;
  size_t Pos = 0;
};

} // namespace balign

#endif // BALIGN_SUPPORT_BYTES_H

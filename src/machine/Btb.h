//===- machine/Btb.h - Branch target buffer model --------------------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// A direct-mapped branch target buffer (Lee & Smith, the paper's
/// reference [16]). The paper lists BTBs among the hardware techniques
/// that reduce misfetch penalties — the same penalties branch alignment
/// removes in software — so the natural ablation is: how much of the
/// alignment benefit survives when the frontend has a BTB? On a BTB hit
/// the target of a correctly-predicted redirect is available in time and
/// the misfetch bubble disappears; mispredict penalties are unaffected.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_MACHINE_BTB_H
#define BALIGN_MACHINE_BTB_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace balign {

/// Entries of the simulator's BTB.
inline constexpr size_t BtbEntries = 512;

/// Direct-mapped BTB of (tag, target) entries indexed by branch address.
class Btb {
public:
  /// \p Entries must be a power of two.
  explicit Btb(size_t Entries);

  /// True if the buffer holds the correct \p Target for the branch at
  /// \p Addr (a hit removes the misfetch bubble).
  bool hit(uint64_t Addr, uint64_t Target) const;

  /// Installs/updates the entry for \p Addr.
  void update(uint64_t Addr, uint64_t Target);

  /// Invalidates everything.
  void reset();

  uint64_t hits() const { return Hits; }
  uint64_t lookups() const { return Lookups; }

private:
  size_t indexOf(uint64_t Addr) const;

  std::vector<uint64_t> Tags;    ///< Branch addresses; EmptyTag = invalid.
  std::vector<uint64_t> Targets;
  mutable uint64_t Hits = 0;
  mutable uint64_t Lookups = 0;
};

} // namespace balign

#endif // BALIGN_MACHINE_BTB_H

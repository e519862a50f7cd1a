//===- cache/Fingerprint.h - Content fingerprints for cached alignments ---===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Content-addressed keys for the balign-cache subsystem: a streaming
/// two-lane FNV-style hasher producing 128-bit digests, plus visitors
/// that feed it the canonicalized per-procedure alignment inputs — CFG
/// structure, profile edge counts, machine-model penalties, the
/// result-affecting AlignmentOptions fields, and the derived solver
/// seed. Two procedure instances receive the same fingerprint iff
/// recomputing their alignment would produce bit-identical results, so
/// a fingerprint match is a safe cache key (modulo the 128-bit collision
/// probability, and backstopped by hit validation in the store).
///
/// Deliberately *not* keyed (DESIGN.md §10 records the rationale):
/// procedure/block/program names, AlignmentOptions::Threads, the hook
/// set, the cache configuration itself, and HeldKarpOptions when
/// ComputeBounds is off — none of them affect the cached artifact.
///
/// The absorption schema is fixed-width and little-endian, and is
/// versioned by CacheFormatVersion: any change to what or how we hash
/// must bump it, which atomically invalidates every existing store.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_CACHE_FINGERPRINT_H
#define BALIGN_CACHE_FINGERPRINT_H

#include "align/Pipeline.h"
#include "ir/CFG.h"
#include "machine/MachineModel.h"
#include "profile/Profile.h"
#include "support/Hash.h"
#include "tsp/HeldKarp.h"
#include "tsp/IteratedOpt.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace balign {

/// Version of the fingerprint schema *and* the on-disk store format.
/// Bump on any change to either; old stores then invalidate wholesale.
/// v2: the effort-policy decision (effective solver options plus the
/// greedy-only routing bit) joined the absorbed inputs.
/// v3: the primary-aligner choice joined the absorbed inputs; under
/// PrimaryAligner::ExtTsp the objective kind and the model's Ext-TSP
/// windows/weights are keyed and the (irrelevant) solver options are
/// not.
/// v4: under a variable branch encoding (balign-displace) the encoding
/// kind, short range, long-branch growth, and long-branch penalty are
/// keyed; BranchEncoding::Fixed absorbs nothing extra, so fixed-encoding
/// keys stay stable across the encoding knobs.
/// v5: the store became a robust/Journal.h record file (one record per
/// entry: key, then payload; the checksum frames the whole record). The
/// absorbed inputs are unchanged.
inline constexpr uint32_t CacheFormatVersion = 5;

/// A 128-bit content fingerprint.
struct Fingerprint {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const Fingerprint &O) const {
    return Hi == O.Hi && Lo == O.Lo;
  }
  bool operator!=(const Fingerprint &O) const { return !(*this == O); }

  /// "0123456789abcdef:fedcba9876543210" rendering for stats/debugging.
  std::string str() const;
};

/// Hash functor so Fingerprint can key unordered containers.
struct FingerprintHasher {
  size_t operator()(const Fingerprint &F) const {
    // The digest is already avalanched; fold the lanes.
    return static_cast<size_t>(F.Hi ^ (F.Lo * GoldenGamma));
  }
};

/// Streaming hasher: two independent 64-bit FNV-1a-style lanes over the
/// same byte stream, finalized with a SplitMix64-style avalanche and a
/// length stamp. Byte order is explicit little-endian, so digests (and
/// therefore on-disk stores) are portable across hosts.
class Hasher {
public:
  /// Absorbs \p Size raw bytes.
  void bytes(const void *Data, size_t Size);

  void u8(uint8_t V) { bytes(&V, 1); }
  void u32(uint32_t V);
  void u64(uint64_t V);
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }

  /// Absorbs the IEEE-754 bit pattern (doubles in options are config
  /// values, never computed, so bit equality is the right notion).
  void f64(double V);

  /// Length-prefixed, so ("ab","c") never collides with ("a","bc").
  void str(const std::string &S);

  /// Finalizes a copy of the state; the hasher itself remains usable.
  Fingerprint digest() const;

private:
  // FNV-1a 64-bit offset/prime for lane A; lane B runs an add-multiply
  // variant from a different offset so the lanes decorrelate.
  uint64_t LaneA = Fnv1aOffset;
  uint64_t LaneB = 0x6c62272e07bb0143ULL;
  uint64_t Length = 0;
};

/// Absorbs the structural content of \p Proc: block count, per-block
/// instruction counts and terminator kinds, and the successor lists in
/// canonical forEachEdge order. Names are excluded on purpose.
void hashProcedure(Hasher &H, const Procedure &Proc);

/// Absorbs \p Profile's block and edge counts. The caller must have
/// shape-checked the profile against its procedure (the pipeline does).
void hashProfile(Hasher &H, const ProcedureProfile &Profile);

/// Absorbs the six penalty fields (not the model's display name).
void hashMachineModel(Hasher &H, const MachineModel &Model);

/// Absorbs every solver option, including the seed — pass the *derived*
/// per-procedure seed, not the root.
void hashSolverOptions(Hasher &H, const IteratedOptOptions &Solver);

/// Absorbs the Held-Karp bound options.
void hashHeldKarpOptions(Hasher &H, const HeldKarpOptions &HK);

/// The full cache key for procedure \p ProcIndex of a program aligned
/// under \p Options: format version, CFG, profile, machine model,
/// solver options with the derived seed, and the bounds configuration
/// (only when bounds are computed).
Fingerprint fingerprintProcedureInputs(const Procedure &Proc,
                                       const ProcedureProfile &Train,
                                       const AlignmentOptions &Options,
                                       size_t ProcIndex);

} // namespace balign

#endif // BALIGN_CACHE_FINGERPRINT_H

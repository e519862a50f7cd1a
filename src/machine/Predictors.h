//===- machine/Predictors.h - Hardware branch-prediction models ----------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Hardware prediction schemes beyond the paper's profile-trained static
/// predictor. Section 6 proposes "a trace-driven simulation of the branch
/// prediction hardware in the target machine to derive more accurate
/// frequencies of correct and incorrect predictions", noting (footnote 6)
/// that aliasing effects would change under a new layout. The bimodal
/// table here models exactly that: 2-bit saturating counters indexed by
/// branch address bits, so two branches can collide in the table and the
/// collision pattern depends on the layout.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_MACHINE_PREDICTORS_H
#define BALIGN_MACHINE_PREDICTORS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace balign {

/// Which hardware predicts conditional branches in the simulator.
enum class PredictorKind : uint8_t {
  /// Profile-trained static prediction (the paper's assumption).
  ProfileStatic,
  /// Backward-taken / forward-not-taken static hardware prediction.
  Btfnt,
  /// Bimodal table of 2-bit saturating counters indexed by branch
  /// address (classic Smith predictor; models BHT aliasing).
  Bimodal2Bit,
};

/// Entries of the simulated bimodal table, for the simulator and for
/// the trace-driven outcome costs alike.
inline constexpr size_t BimodalTableEntries = 2048;

/// A table of 2-bit saturating counters indexed by branch address.
class BimodalPredictor {
public:
  /// \p Entries must be a power of two.
  explicit BimodalPredictor(size_t Entries);

  /// Predicts the branch at byte address \p Addr; true = taken.
  bool predict(uint64_t Addr) const;

  /// Trains the counter for \p Addr with the actual outcome.
  void update(uint64_t Addr, bool Taken);

  /// Resets all counters to weakly-not-taken.
  void reset();

private:
  size_t indexOf(uint64_t Addr) const;

  std::vector<uint8_t> Counters; ///< 0..3; >= 2 predicts taken.
};

} // namespace balign

#endif // BALIGN_MACHINE_PREDICTORS_H

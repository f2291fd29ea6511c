// Co-occurrence rate (COR) and T-lagged COR (§III-B2, §IV-B D2).
//
// COR of a target with respect to a candidate is the fraction of the
// target's invoked slots at which the candidate is also invoked. The
// T-lagged variant shifts the candidate forward by T slots, so a high
// T-COR means "the candidate firing at time s predicts the target at
// s + T" — exactly the structure of chained/fan-out workflows. Functions
// whose best T-COR (T <= 10) reaches a threshold are linked; the candidate
// then serves as a pre-warm indicator for the target.

#ifndef SPES_CORE_CORRELATION_H_
#define SPES_CORE_CORRELATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "trace/training_window.h"

namespace spes {

/// \brief Plain (lag-0) co-occurrence rate of `target` w.r.t. `candidate`:
/// |{t : target[t]>0 and candidate[t]>0}| / |{t : target[t]>0}|.
/// Returns 0 when the target never fires.
double CoOccurrenceRate(std::span<const uint32_t> target,
                        std::span<const uint32_t> candidate);

/// \brief T-lagged COR: candidate shifted forward by `lag` slots, i.e.
/// |{t : target[t]>0 and candidate[t-lag]>0}| / |{t : target[t]>0}|.
double LaggedCoOccurrenceRate(std::span<const uint32_t> target,
                              std::span<const uint32_t> candidate, int lag);

/// \brief Best lag in [0, max_lag] and its T-COR value.
struct BestLag {
  int lag = 0;
  double cor = 0.0;
};
BestLag BestLaggedCor(std::span<const uint32_t> target,
                      std::span<const uint32_t> candidate, int max_lag);

/// \brief A mined predictive link: candidate -> target with a fixed lag.
struct CorrelationLink {
  uint32_t target = 0;
  uint32_t candidate = 0;
  int lag = 0;
  double cor = 0.0;
};

/// \brief BestLaggedCor of two functions given as their arrival slots
/// (ascending minutes, as TrainingWindow::slots() gives them): counts each
/// candidate slot within `max_lag` minutes before a target slot once, so it
/// costs O(|target| + |candidate| + |target| * (max_lag + 1)) whatever the
/// window length. Equal to BestLaggedCor on the corresponding dense rows.
BestLag BestLaggedCorFromSlots(std::span<const ArrivalSlot> target,
                               std::span<const ArrivalSlot> candidate,
                               int max_lag);

/// \brief Precision of a candidate -> target link at `lag` (§IV-B D2): the
/// fraction of the candidate's invoked minutes s followed by a target
/// invocation within [s + max(0, lag - theta), s + lag + theta]; 0 when the
/// candidate never fires. A hyperactive candidate that would pre-warm the
/// target non-stop scores low. Both functions are given as arrival slots;
/// O(|target| + |candidate|).
double LinkPrecision(std::span<const ArrivalSlot> target,
                     std::span<const ArrivalSlot> candidate, int lag,
                     int theta);

}  // namespace spes

#endif  // SPES_CORE_CORRELATION_H_

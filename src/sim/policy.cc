#include "sim/policy.h"

#include <algorithm>

namespace spes {

void Policy::Train(const TrainingWindow& window) {
  const Trace prefix = window.Materialize().ValueOrDie();
  Train(prefix, window.train_minutes());
}

void Policy::Train(const Trace& trace, int train_minutes) {
  InMemoryTraceSource source(trace);
  // Minutes past the trace's horizon hold no arrivals.
  const int minutes = std::clamp(train_minutes, 0, trace.num_minutes());
  Train(NeedsTrainingWindow()
            ? TrainingWindow::Build(source, minutes).ValueOrDie()
            : TrainingWindow::MetadataOnly(source, minutes));
}

}  // namespace spes

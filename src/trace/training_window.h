// TrainingWindow: the sparse form of a fleet's training minutes.
//
// Policies train on minutes [0, train_minutes) of a trace (PAPER §IV-B).
// A dense n x train_minutes count matrix is mostly zeros on real fleets
// (most Azure functions fire in a few minutes a day), so the window keeps
// only each function's arrival slots — (minute, count) pairs in ascending
// minute order — in one function-major CSR, plus the function metadata
// borrowed from the source it was built from.
//
// Build() streams the window off a TraceSource in one pass of
// FillArrivals() over 256-minute chunks. Each chunk's minute-major buckets
// are counting-sorted straight into their function-major places, and the
// slot array grows by exactly the chunk's cells, so the window holds
// 8 bytes per non-zero (function, minute) cell plus 8 bytes per function,
// and the build's transient is one chunk's buckets plus one count per
// function. docs/architecture.md tabulates these bytes.

#ifndef SPES_TRACE_TRAINING_WINDOW_H_
#define SPES_TRACE_TRAINING_WINDOW_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "trace/trace.h"
#include "trace/trace_source.h"

namespace spes {

/// \brief One function's arrivals in one training minute.
struct ArrivalSlot {
  int32_t minute = 0;  ///< in [0, train_minutes)
  uint32_t count = 0;  ///< >= 1
};

/// \brief Every function's arrival slots over [0, train_minutes), with the
/// function metadata borrowed from the source. Move-only; the source must
/// outlive the window.
class TrainingWindow {
 public:
  /// Minutes decoded per FillArrivals() call while building.
  static constexpr int kChunkMinutes = 256;

  /// \brief Decodes minutes [0, train_minutes) of `source` in one pass.
  /// InvalidArgument when `train_minutes` is outside [0, horizon]; a
  /// source error is passed through.
  static Result<TrainingWindow> Build(TraceSource& source, int train_minutes);

  /// \brief A window that holds the fleet's shape and metadata but no
  /// arrivals, for policies that learn nothing offline
  /// (Policy::NeedsTrainingWindow() is false). Decodes nothing.
  static TrainingWindow MetadataOnly(const TraceSource& source,
                                     int train_minutes);

  TrainingWindow(TrainingWindow&&) noexcept = default;
  TrainingWindow& operator=(TrainingWindow&&) noexcept = default;

  [[nodiscard]] int train_minutes() const { return train_minutes_; }
  [[nodiscard]] size_t num_functions() const {
    return source_->num_functions();
  }
  /// \brief Static metadata of function `f` (unchecked index).
  [[nodiscard]] const FunctionMeta& meta(size_t f) const {
    return source_->function_meta(f);
  }

  /// \brief False for a MetadataOnly() window.
  [[nodiscard]] bool has_arrivals() const { return !offsets_.empty(); }

  /// \brief Function `f`'s slots in ascending minute order. Requires
  /// has_arrivals().
  [[nodiscard]] std::span<const ArrivalSlot> slots(size_t f) const {
    return {slots_.get() + offsets_[f],
            static_cast<size_t>(offsets_[f + 1] - offsets_[f])};
  }

  /// \brief Writes `f`'s dense counts over minutes [begin, end) into
  /// `row` (resized to end - begin): exactly Trace::Slice(f, begin, end)
  /// of the materialized window. Requires has_arrivals() and
  /// 0 <= begin <= end <= train_minutes().
  void ExpandRow(size_t f, int begin, int end,
                 std::vector<uint32_t>* row) const;

  /// \brief The window as a dense Trace over train_minutes() minutes —
  /// what TraceSource::MaterializePrefix(train_minutes()) returns.
  /// O(num_functions * train_minutes) memory. Requires has_arrivals().
  [[nodiscard]] Result<Trace> Materialize() const;

  /// \brief Function indices grouped by application id / owner id, each
  /// group ascending (the grouping Trace::GroupByApp() gives).
  [[nodiscard]] std::unordered_map<std::string, std::vector<size_t>>
  GroupByApp() const;
  [[nodiscard]] std::unordered_map<std::string, std::vector<size_t>>
  GroupByOwner() const;

  /// \brief Non-zero (function, minute) cells held.
  [[nodiscard]] uint64_t num_cells() const {
    return offsets_.empty() ? 0 : offsets_.back();
  }
  /// \brief Bytes of the slot and offset arrays: 8 per cell plus 8 per
  /// function (and one more offset) once built; 0 for MetadataOnly().
  [[nodiscard]] size_t bytes() const {
    return num_cells() * sizeof(ArrivalSlot) +
           offsets_.size() * sizeof(uint64_t);
  }

 private:
  /// Frees the realloc()-grown slot array.
  struct FreeSlots {
    void operator()(ArrivalSlot* p) const { std::free(p); }
  };

  TrainingWindow(const TraceSource& source, int train_minutes)
      : source_(&source), train_minutes_(train_minutes) {}

  /// Appends one chunk's minute-major buckets, starting at minute
  /// `begin`: moves every function's earlier slots to their new place
  /// and writes the chunk's slots behind them.
  Status AppendChunk(int begin,
                     const std::vector<std::vector<Invocation>>& buckets,
                     int len, std::vector<uint64_t>* cursor);

  const TraceSource* source_;
  int train_minutes_ = 0;
  /// offsets_[f] .. offsets_[f + 1] index f's slots; empty when
  /// MetadataOnly().
  std::vector<uint64_t> offsets_;
  /// Sized exactly to num_cells(): grown by realloc() one chunk at a time,
  /// which remaps a large block's pages instead of copying them.
  std::unique_ptr<ArrivalSlot[], FreeSlots> slots_;
};

}  // namespace spes

#endif  // SPES_TRACE_TRAINING_WINDOW_H_

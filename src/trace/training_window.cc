#include "trace/training_window.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

namespace spes {

namespace {

template <typename Key>
std::unordered_map<std::string, std::vector<size_t>> GroupFunctions(
    const TrainingWindow& window, Key key) {
  std::unordered_map<std::string, std::vector<size_t>> groups;
  for (size_t f = 0; f < window.num_functions(); ++f) {
    groups[key(window.meta(f))].push_back(f);
  }
  return groups;
}

}  // namespace

Result<TrainingWindow> TrainingWindow::Build(TraceSource& source,
                                             int train_minutes) {
  if (train_minutes < 0 || train_minutes > source.num_minutes()) {
    return Status::InvalidArgument(
        "training window of " + std::to_string(train_minutes) +
        " minutes is outside the source horizon of " +
        std::to_string(source.num_minutes()) + " minutes");
  }
  TrainingWindow window(source, train_minutes);
  const size_t n = source.num_functions();
  window.offsets_.assign(n + 1, 0);
  std::vector<std::vector<Invocation>> buckets;
  std::vector<uint64_t> cursor(n);
  for (int begin = 0; begin < train_minutes; begin += kChunkMinutes) {
    const int end = std::min(train_minutes, begin + kChunkMinutes);
    SPES_RETURN_NOT_OK(source.FillArrivals(begin, end, &buckets));
    SPES_RETURN_NOT_OK(
        window.AppendChunk(begin, buckets, end - begin, &cursor));
  }
  return window;
}

TrainingWindow TrainingWindow::MetadataOnly(const TraceSource& source,
                                            int train_minutes) {
  return TrainingWindow(source, train_minutes);
}

Status TrainingWindow::AppendChunk(
    int begin, const std::vector<std::vector<Invocation>>& buckets, int len,
    std::vector<uint64_t>* cursor) {
  const size_t n = offsets_.size() - 1;
  std::vector<uint64_t>& at = *cursor;
  std::fill(at.begin(), at.end(), 0);
  uint64_t added = 0;
  for (int i = 0; i < len; ++i) {
    for (const Invocation& inv : buckets[static_cast<size_t>(i)]) {
      if (inv.function >= n || inv.count == 0) {
        return Status::Internal(
            "training window: the source returned an invocation of function " +
            std::to_string(inv.function) + " with count " +
            std::to_string(inv.count) + " in a fleet of " +
            std::to_string(n));
      }
      ++at[inv.function];
    }
    added += buckets[static_cast<size_t>(i)].size();
  }
  if (added == 0) return Status::OK();

  const uint64_t total = offsets_[n] + added;
  void* grown = std::realloc(slots_.get(), total * sizeof(ArrivalSlot));
  if (grown == nullptr) throw std::bad_alloc();
  (void)slots_.release();
  slots_.reset(static_cast<ArrivalSlot*>(grown));

  // Walk the functions from the back. Function f's earlier slots move
  // right by the chunk cells of every function before it; moving the
  // last function first never overwrites a slot that has yet to move.
  // at[f] turns from f's chunk count into where f's chunk slots go.
  uint64_t before = added;  // chunk cells of functions < f, once f is done
  uint64_t old_end = offsets_[n];
  for (size_t f = n; f-- > 0;) {
    before -= at[f];
    const uint64_t old_begin = offsets_[f];
    const uint64_t kept = old_end - old_begin;
    const uint64_t new_begin = old_begin + before;
    if (before > 0 && kept > 0) {
      std::memmove(slots_.get() + new_begin, slots_.get() + old_begin,
                   kept * sizeof(ArrivalSlot));
    }
    old_end = old_begin;
    offsets_[f] = new_begin;
    at[f] = new_begin + kept;
  }
  offsets_[n] = total;
  for (int i = 0; i < len; ++i) {
    for (const Invocation& inv : buckets[static_cast<size_t>(i)]) {
      slots_[at[inv.function]++] = ArrivalSlot{begin + i, inv.count};
    }
  }
  return Status::OK();
}

void TrainingWindow::ExpandRow(size_t f, int begin, int end,
                               std::vector<uint32_t>* row) const {
  assert(has_arrivals() && 0 <= begin && begin <= end &&
         end <= train_minutes_);
  row->assign(static_cast<size_t>(end - begin), 0);
  const std::span<const ArrivalSlot> s = slots(f);
  auto it = std::lower_bound(
      s.begin(), s.end(), begin,
      [](const ArrivalSlot& slot, int minute) { return slot.minute < minute; });
  for (; it != s.end() && it->minute < end; ++it) {
    (*row)[static_cast<size_t>(it->minute - begin)] = it->count;
  }
}

Result<Trace> TrainingWindow::Materialize() const {
  assert(has_arrivals());
  Trace trace(train_minutes_);
  for (size_t f = 0; f < num_functions(); ++f) {
    FunctionTrace function;
    function.meta = meta(f);
    ExpandRow(f, 0, train_minutes_, &function.counts);
    SPES_RETURN_NOT_OK(trace.Add(std::move(function)));
  }
  return trace;
}

std::unordered_map<std::string, std::vector<size_t>>
TrainingWindow::GroupByApp() const {
  return GroupFunctions(*this,
                        [](const FunctionMeta& meta) -> const std::string& {
                          return meta.app;
                        });
}

std::unordered_map<std::string, std::vector<size_t>>
TrainingWindow::GroupByOwner() const {
  return GroupFunctions(*this,
                        [](const FunctionMeta& meta) -> const std::string& {
                          return meta.owner;
                        });
}

}  // namespace spes

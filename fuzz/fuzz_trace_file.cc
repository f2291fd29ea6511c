// Fuzzes TraceFileSource::FromBytes over raw bytes — the packed trace
// parser consumes whole files from disk, so truncated, corrupt or
// adversarial images must always yield InvalidArgument with a message,
// never undefined behaviour, an unbounded allocation or a crash.
// Properties:
//   * A successful parse decodes every minute without tripping the lazy
//     block validator into UB (decode errors are fine — they must be
//     clean InvalidArgument statuses).
//   * A materialized prefix re-packs into an image that parses and
//     reports the same function count.
//   * The training window of the first block expands to exactly the
//     materialized prefix's counts, and holds no byte beyond its decoded
//     cells and one offset per function, whatever the header claims.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/fuzz_common.h"
#include "trace/trace.h"
#include "trace/trace_file.h"
#include "trace/trace_source.h"
#include "trace/training_window.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);

  auto parsed = spes::TraceFileSource::FromBytes(bytes);
  if (!parsed.ok()) {
    FUZZ_ASSERT(parsed.status().code() ==
                spes::StatusCode::kInvalidArgument);
    FUZZ_ASSERT(!parsed.status().message().empty());
    return 0;
  }
  std::unique_ptr<spes::TraceFileSource> source =
      std::move(parsed).ValueOrDie();

  // Metadata parsed: geometry must be sane before any decode happens.
  FUZZ_ASSERT(source->num_minutes() > 0);
  FUZZ_ASSERT(source->block_minutes() > 0);

  // Keep the work bounded: a hand-crafted header cannot claim a huge
  // geometry anyway (the index/table would not fit the image and the
  // parse above would have failed), but cap defensively.
  if (source->num_minutes() > 1 << 16 || source->num_functions() > 1 << 12) {
    return 0;
  }

  // Stream-decode the whole horizon in misaligned windows. Errors are
  // legitimate (payload bytes are attacker-controlled and validated
  // lazily) but must be clean InvalidArgument with a message.
  bool decode_failed = false;
  std::vector<std::vector<spes::Invocation>> buckets;
  const int window = std::max(1, source->block_minutes() - 1);
  for (int begin = 0; begin < source->num_minutes(); begin += window) {
    const int end = std::min(begin + window, source->num_minutes());
    const spes::Status filled = source->FillArrivals(begin, end, &buckets);
    if (!filled.ok()) {
      FUZZ_ASSERT(filled.code() == spes::StatusCode::kInvalidArgument);
      FUZZ_ASSERT(!filled.message().empty());
      decode_failed = true;
      break;
    }
    for (int i = 0; i < end - begin; ++i) {
      for (const spes::Invocation& inv : buckets[static_cast<size_t>(i)]) {
        FUZZ_ASSERT(inv.function < source->num_functions());
        FUZZ_ASSERT(inv.count > 0);
      }
    }
  }
  if (!decode_failed) {
    // Materialize + re-pack: the round trip must parse and preserve the
    // population shape.
    const int first_block =
        std::min(source->num_minutes(), source->block_minutes());
    auto prefix = source->MaterializePrefix(first_block);
    FUZZ_ASSERT(prefix.ok());

    auto window = spes::TrainingWindow::Build(*source, first_block);
    FUZZ_ASSERT(window.ok());
    uint64_t cells = 0;
    std::vector<uint32_t> row;
    for (size_t f = 0; f < prefix.ValueOrDie().num_functions(); ++f) {
      const std::vector<uint32_t>& counts =
          prefix.ValueOrDie().function(f).counts;
      window.ValueOrDie().ExpandRow(f, 0, first_block, &row);
      FUZZ_ASSERT(row == counts);
      cells += static_cast<uint64_t>(
          std::count_if(counts.begin(), counts.end(),
                        [](uint32_t c) { return c > 0; }));
    }
    FUZZ_ASSERT(window.ValueOrDie().num_cells() == cells);
    FUZZ_ASSERT(window.ValueOrDie().bytes() ==
                cells * sizeof(spes::ArrivalSlot) +
                    (source->num_functions() + 1) * sizeof(uint64_t));
    auto writer = spes::TraceFileWriter::Create(
        prefix.ValueOrDie().num_minutes());
    FUZZ_ASSERT(writer.ok());
    for (size_t f = 0; f < prefix.ValueOrDie().num_functions(); ++f) {
      const spes::FunctionTrace& fn = prefix.ValueOrDie().function(f);
      FUZZ_ASSERT(writer.ValueOrDie().Add(fn.meta, fn.counts).ok());
    }
    auto repacked = writer.ValueOrDie().ToBytes();
    FUZZ_ASSERT(repacked.ok());
    auto reparsed =
        spes::TraceFileSource::FromBytes(std::move(repacked).ValueOrDie());
    FUZZ_ASSERT(reparsed.ok());
    FUZZ_ASSERT(reparsed.ValueOrDie()->num_functions() ==
                source->num_functions());
  }
  return 0;
}

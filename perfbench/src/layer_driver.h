// The traced layer driver.
//
// Replays one engine run layer by layer: it calls each layer's public
// functions in FastFtEngine::Run's per-step order on the workload's inputs,
// taking the per-step decisions it cannot re-derive (which steps ran a
// downstream evaluation, the reward fed back) from that workload's engine
// run. Every call is wrapped in a span (name, start, end, parent) kept in
// memory, and the layer's work counter is read at the span's boundaries.
// Nothing here reaches into engine-private code, and the engine itself is
// not instrumented.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"

namespace perfbench {

/// One timed call into a layer.
struct Span {
  const char* layer = "";  // layer (src/ module) name, or a grouping span
  const char* call = "";   // public function called
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;         // index of the enclosing span, -1 at top level
  int64_t work = 0;        // the layer's work counter for this call
};

struct LayerTotals {
  int64_t calls = 0;
  double busy_ms = 0.0;
};

struct LayerDriverResult {
  std::vector<Span> spans;
  /// Named per-layer metrics (see perfbench/README.md for the list).
  std::map<std::string, double> metrics;
  /// Steps whose "generated" flag matches the engine's trace, out of all
  /// replayed steps: how closely the replay followed the engine's path.
  int steps_matched = 0;
  int steps_total = 0;
};

/// Sums of the spans of `layer`, optionally only those of one `call`.
LayerTotals TotalsOf(const std::vector<Span>& spans, const std::string& layer,
                     const std::string& call = "");

/// Replays `engine_run` (a completed run of `config` on `dataset`) through
/// the layers. Durable configurations write the driver's checkpoints to
/// `checkpoint_path`, never to the engine's own file.
LayerDriverResult DriveLayers(const fastft::Dataset& dataset,
                              const fastft::EngineConfig& config,
                              const fastft::EngineResult& engine_run,
                              const std::string& checkpoint_path);

}  // namespace perfbench

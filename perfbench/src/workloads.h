// The benchmark's workloads: each names a synthetic input shape, generated
// with MakeSynthetic from the benchmark seed, and the engine configuration
// it runs under. See perfbench/README.md for why each one was chosen.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/dataset.h"

namespace perfbench {

struct Workload {
  std::string name;
  fastft::TaskType task = fastft::TaskType::kClassification;
  int samples = 0;
  int features = 0;
  int classes = 0;
  int informative = 0;
  int interaction_terms = 0;
  fastft::RlFramework framework = fastft::RlFramework::kActorCritic;
  int num_threads = 1;
  /// Checkpoint every episode and record the decision stream.
  bool durable = false;
  /// Inputs one benchmark run measures, generated from its seed (more for
  /// cheaper runs, so every workload averages over a similar amount of
  /// input-to-input variation within its time budget).
  int inputs = 1;
  /// Workload whose results this one must reproduce bit for bit (the same
  /// inputs at another thread count); empty when there is none.
  std::string reference;
};

/// Every workload.
const std::vector<Workload>& AllWorkloads();

/// Workload by name, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// The workload's input, generated from `seed` alone.
fastft::Dataset MakeInputs(const Workload& workload, uint64_t seed);

/// The engine configuration of the workload. Durable workloads write their
/// checkpoint and decision record under `io_dir`.
fastft::EngineConfig MakeConfig(const Workload& workload,
                                const std::string& io_dir);

/// Checkpoint and record paths of a durable workload under `io_dir`.
std::string CheckpointPath(const Workload& workload, const std::string& io_dir);
std::string RecordPath(const Workload& workload, const std::string& io_dir);

}  // namespace perfbench

#include "workloads.h"

#include <algorithm>

#include "data/synthetic.h"

namespace perfbench {

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload>& workloads = *new std::vector<Workload>{
      // The dataset zoo's Jannis shape: 4 classes, 48 features (26
      // informative, 16 interaction terms), 900 rows.
      {"wide_eval_t1", fastft::TaskType::kClassification, 900, 48, 4, 26, 16,
       fastft::RlFramework::kActorCritic, 1, false, 6, ""},
      {"wide_eval_t4", fastft::TaskType::kClassification, 900, 48, 4, 26, 16,
       fastft::RlFramework::kActorCritic, 4, false, 6, "wide_eval_t1"},
      // The dataset zoo's OpenML_618 shape: regression, 48 features, 160
      // rows.
      {"small_search_durable", fastft::TaskType::kRegression, 160, 48, 0, 26,
       16, fastft::RlFramework::kDqn, 1, true, 8, ""},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : AllWorkloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

fastft::Dataset MakeInputs(const Workload& workload, uint64_t seed) {
  fastft::SyntheticSpec spec;
  spec.samples = workload.samples;
  spec.features = workload.features;
  spec.classes = std::max(workload.classes, 2);
  spec.informative = workload.informative;
  spec.interaction_terms = workload.interaction_terms;
  spec.seed = seed;
  fastft::Dataset dataset = fastft::MakeSynthetic(workload.task, spec);
  dataset.name = workload.name;
  return dataset;
}

fastft::EngineConfig MakeConfig(const Workload& workload,
                                const std::string& io_dir) {
  // The bench default schedule (bench/bench_util.h DefaultEngineConfig):
  // 10 episodes × 8 steps, 3 cold-start episodes, finetune every 3,
  // downstream evaluation by 3 folds × 8 trees.
  fastft::EngineConfig config;
  config.episodes = 10;
  config.steps_per_episode = 8;
  config.cold_start_episodes = 3;
  config.finetune_every_episodes = 3;
  config.evaluator.folds = 3;
  config.evaluator.forest_trees = 8;
  config.framework = workload.framework;
  config.num_threads = workload.num_threads;
  if (workload.durable) {
    config.checkpoint_path = CheckpointPath(workload, io_dir);
    config.checkpoint_every_episodes = 1;
    config.record_path = RecordPath(workload, io_dir);
  }
  return config;
}

std::string CheckpointPath(const Workload& workload,
                           const std::string& io_dir) {
  return io_dir + "/" + workload.name + ".ffcp";
}

std::string RecordPath(const Workload& workload, const std::string& io_dir) {
  return io_dir + "/" + workload.name + ".ffr";
}

}  // namespace perfbench

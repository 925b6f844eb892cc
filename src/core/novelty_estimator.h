// Novelty Estimator (paper §III-C, Eq. 4) — random network distillation.
//
// A frozen, orthogonally-initialized target network ψ⊥ and a trained
// estimator network ψ share the predictor's sequence encoder architecture
// (paper: target head FC{1}, estimator head FC{16,4,1}, orthogonal scaling
// factor 16). The estimator is trained to match the target on *visited*
// sequences, so the squared prediction error is small on familiar
// transformations and large on unencountered ones — that error is the
// novelty score feeding Eq. 6's exploration bonus.
//
// Scoring runs on the models' cached inference paths. The batch variants fan
// raw novelty computation over the shared pool; NormalizedNoveltyBatch keeps
// its running-scale (Welford) updates on the *calling thread in input
// order*, so the produced scores — and the scale state left behind — are
// bit-identical to the equivalent serial NormalizedNovelty loop at any
// thread count.

#pragma once

#include <cstdint>
#include <vector>

#include "core/performance_predictor.h"
#include "nn/sequence_model.h"

namespace fastft {

class Rng;

struct NoveltyConfig {
  nn::Backbone backbone = nn::Backbone::kLstm;
  int vocab_size = 64;
  int embed_dim = 32;
  int hidden_dim = 32;
  int num_layers = 2;
  /// Paper: "coupled orthogonal initialization scaling factor is 16.0".
  double orthogonal_gain = 16.0;
  double learning_rate = 2e-3;
  /// Byte cap of each network's inference prefix-state cache (0 disables).
  size_t prefix_cache_bytes = 256 * 1024;
  uint64_t seed = 73;
};

class NoveltyEstimator {
 public:
  explicit NoveltyEstimator(const NoveltyConfig& config);

  /// Raw novelty: (ψ(T) − ψ⊥(T))². Large on unvisited sequences.
  double Novelty(const std::vector<int>& tokens) const;

  /// Raw novelties of independent sequences, fanned over the shared pool
  /// with up to `num_threads` executors (<= 1 runs inline). Result order
  /// matches input order; entries are bit-identical to Novelty.
  std::vector<double> NoveltyBatch(const std::vector<std::vector<int>>& batch,
                                   int num_threads) const;

  /// Novelty normalized by a running scale so rewards stay O(1);
  /// clamped to [0, 10].
  double NormalizedNovelty(const std::vector<int>& tokens);

  /// Batch of normalized novelties: raw scores computed in parallel, the
  /// running-scale updates applied here in input order — scores and scale
  /// state are bit-identical to calling NormalizedNovelty in a loop.
  std::vector<double> NormalizedNoveltyBatch(
      const std::vector<std::vector<int>>& batch, int num_threads);

  /// Distills the estimator toward the frozen target on visited sequences.
  /// Returns the final mean distillation loss. The frozen target's outputs
  /// are precomputed once with up to `num_threads` executors (the target
  /// never changes, so per-epoch recomputation is redundant). Scores do not
  /// depend on `num_threads`; with more than one, the target's prefix-cache
  /// counters do (concurrent lookups race concurrent inserts).
  double Fit(const std::vector<std::vector<int>>& sequences, int epochs,
             Rng* rng, int num_threads = 1);

  /// One distillation pass over a finetuning batch (Algorithm 2 line 23).
  double Finetune(const std::vector<std::vector<int>>& sequences,
                  int num_threads = 1);

  /// Target-network embedding of a sequence (fixed by construction) — the
  /// representation used for the Fig. 14 novelty-distance metric.
  std::vector<double> TargetEmbedding(const std::vector<int>& tokens) const;

  /// Target embeddings of independent sequences, fanned over the pool.
  std::vector<std::vector<double>> TargetEmbeddingBatch(
      const std::vector<std::vector<int>>& batch, int num_threads) const;

  /// Embeds estimator weights/optimizer, the frozen target's weights (for
  /// safety against any init drift), and the Welford running scale in a
  /// checkpoint payload.
  void SaveState(common::BinaryWriter* writer);
  /// Restores a SaveState payload (same NoveltyConfig required).
  void LoadState(common::BinaryReader* reader);

 private:
  void UpdateRunningScale(double raw);
  /// Folds one raw novelty into the running scale and returns the
  /// normalized, clamped score (the post-Novelty tail of
  /// NormalizedNovelty). Non-finite raw scores pass through untouched.
  double NormalizeRaw(double raw);

  nn::SequenceModel target_;
  nn::SequenceModel estimator_;
  double running_mean_ = 0.0;
  double running_var_ = 1.0;
  int64_t observations_ = 0;
};

}  // namespace fastft


// fixture-dest: src/core/suppressed_analyze.cc
// Every code-level rule triggered once and silenced by a per-line
// `fastft-analyze: allow(<rule>): reason` suppression. Fires nothing.
#include <numeric>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace fastft {

Status EmitFixture();
Result<int> GrabFixture();

double SuppressedAll(const std::vector<double>& v,
                     const std::unordered_map<int, double>& weight_map) {
  EmitFixture();  // fastft-analyze: allow(discarded-status): fixture demonstrates suppression
  auto grabbed = GrabFixture();
  int x = grabbed.value();  // fastft-analyze: allow(unchecked-value): fixture demonstrates suppression
  double total = std::accumulate(v.begin(), v.end(), 0.0);  // fastft-analyze: allow(fp-reduction): fixture demonstrates suppression
  for (const auto& kv : weight_map) {  // fastft-analyze: allow(unordered-iteration): fixture demonstrates suppression
    total += kv.second;  // fastft-analyze: allow(fp-unordered-accumulate): fixture demonstrates suppression
  }
  return total + x;
}

}  // namespace fastft

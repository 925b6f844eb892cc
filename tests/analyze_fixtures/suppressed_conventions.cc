// fixture-dest: src/core/suppressed.cc
// Must trigger: nothing — each violation carries a per-line allow()
// suppression naming its rule and a reason, the documented escape hatch.
#include <chrono>
#include <unordered_map>

namespace fastft {

std::unordered_map<int, double> diagnostics;

double DebugDump() {
  auto t0 = std::chrono::steady_clock::now();  // fastft-analyze: allow(nondeterminism): fixture demonstrates suppression
  double total = 0.0;
  for (const auto& [k, v] : diagnostics) {  // fastft-analyze: allow(unordered-iteration): fixture demonstrates suppression
    total += v;  // fastft-analyze: allow(fp-unordered-accumulate): fixture demonstrates suppression
  }
  (void)t0;
  return total;
}

}  // namespace fastft

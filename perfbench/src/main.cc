// perfbench_driver: runs the engine benchmark's workloads and prints one
// JSON object per workload on stdout (raw samples and per-run result
// records; perfbench/run.py turns them into metrics and checks them).
//
//   perfbench_driver --workload <name>[,<name>...] --seed <n>
//                    --seconds <s> --trace <0|1> --io-dir <dir>
//
// --trace 0 times whole FastFtEngine::Run calls with tracing off.
// --trace 1 repeats rounds of an untraced run, a run with the engine's
// Chrome trace on, and a replay of the first run through the layer driver
// (layer_driver.h) for per-layer numbers.

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/engine.h"
#include "engine_parts.h"
#include "layer_driver.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::vector<std::string> workloads;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string io_dir = ".";
};

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process CPU time (user + sys, all threads) in seconds.
double CpuS() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

// Resets the kernel's peak-RSS mark to the current RSS, so VmHWM read later
// covers only what ran since.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// Bit pattern of a double: equal strings mean bitwise-equal values.
std::string Hex(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
  return buf;
}

std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Num(values[i]);
  }
  return out + "]";
}

std::string NumMap(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ",";
    out += Quote(name) + ":" + Num(value);
  }
  return out + "}";
}

// Work counters of a run's metrics delta: counts of work done, which repeat
// exactly on every run of the same inputs. Pool counters and latency
// histograms depend on scheduling and are left out.
bool IsWorkCounter(const std::string& name) {
  for (const char* prefix :
       {"evaluator.", "forest.", "encode_cache.", "replay.", "engine."}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// Everything the benchmark checks about one Run, as JSON. Doubles are
// written as bit patterns so the comparison in run.py is bitwise.
std::string RecordJson(const fastft::Result<fastft::EngineResult>& run) {
  std::ostringstream out;
  out << "{\"ok\":" << (run.ok() ? "true" : "false");
  if (!run.ok()) {
    out << ",\"status\":" << Quote(run.status().ToString()) << "}";
    return out.str();
  }
  const fastft::EngineResult& r = run.value();
  out << ",\"interrupted\":" << (r.interrupted ? "true" : "false")
      << ",\"best_score_value\":" << Num(r.best_score)
      << ",\"base_score\":" << Quote(Hex(r.base_score))
      << ",\"best_score\":" << Quote(Hex(r.best_score))
      << ",\"episode_best\":[";
  for (size_t i = 0; i < r.episode_best.size(); ++i) {
    out << (i > 0 ? "," : "") << Quote(Hex(r.episode_best[i]));
  }
  out << "],\"trace\":[";
  for (size_t i = 0; i < r.trace.size(); ++i) {
    const fastft::StepTrace& s = r.trace[i];
    std::ostringstream step;
    step << s.episode << "|" << s.step << "|" << Hex(s.reward) << "|"
         << Hex(s.performance) << "|" << s.downstream_evaluated << "|"
         << s.generated << "|" << Hex(s.novelty) << "|"
         << Hex(s.novelty_distance) << "|" << s.unseen_cumulative << "|"
         << s.top_new_feature;
    out << (i > 0 ? "," : "") << Quote(step.str());
  }
  out << "],\"downstream_evals\":" << r.downstream_evaluations
      << ",\"predictor_estimations\":" << r.predictor_estimations
      << ",\"health\":" << Quote(r.health.ToJson()) << ",\"counters\":{";
  bool first = true;
  for (const fastft::obs::MetricValue& value : r.metrics.values) {
    if (value.kind != fastft::obs::MetricKind::kCounter ||
        !IsWorkCounter(value.name)) {
      continue;
    }
    out << (first ? "" : ",") << Quote(value.name) << ":" << value.counter;
    first = false;
  }
  out << "}}";
  return out.str();
}

struct TimedRun {
  fastft::Result<fastft::EngineResult> result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

TimedRun RunEngine(const fastft::EngineConfig& config,
                   const fastft::Dataset& dataset) {
  fastft::FastFtEngine engine(config);
  const double cpu = CpuS();
  const double start = NowS();
  fastft::Result<fastft::EngineResult> result = engine.Run(dataset);
  const double wall = NowS() - start;
  return TimedRun{std::move(result), wall, CpuS() - cpu};
}

// The engine's starting state, built as Run builds it: feature space,
// evaluator, both estimation networks, and the baseline evaluation of the
// untouched dataset. Returns the seconds taken; the baseline score goes to
// *base so run.py can check it against the engine's own base_score.
double TimeSetup(const fastft::EngineConfig& config,
                 const fastft::Dataset& dataset, double* base) {
  const double start = NowS();
  EngineParts parts(config, dataset);
  *base = parts.evaluator.Evaluate(dataset);
  return NowS() - start;
}

constexpr int kSetupRepeats = 15;

// Each run of a workload measures several inputs generated from its seed,
// so that one input's peculiarities (how many columns survive generation,
// how deep the trees grow) average out across seeds.
std::vector<fastft::Dataset> MakeAllInputs(const Workload& workload,
                                           uint64_t seed) {
  std::vector<fastft::Dataset> inputs;
  for (int i = 0; i < workload.inputs; ++i) {
    inputs.push_back(
        MakeInputs(workload, fastft::DeriveSeed(seed, static_cast<uint64_t>(i))));
  }
  return inputs;
}

std::string StringList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? "," : "") + items[i];
  }
  return out + "]";
}

// --trace 0: set-up and whole-run timings with tracing off.
std::string MeasureEndToEnd(const Workload& workload, const Args& args) {
  ResetPeakRss();
  const std::vector<fastft::Dataset> inputs =
      MakeAllInputs(workload, args.seed);
  const fastft::EngineConfig config = MakeConfig(workload, args.io_dir);

  // The first input at the reference workload's settings: this workload's
  // results on it must match bit for bit.
  std::string reference = "null";
  if (const Workload* ref = FindWorkload(workload.reference)) {
    reference = RecordJson(
        RunEngine(MakeConfig(*ref, args.io_dir), inputs[0]).result);
  }

  const int k = workload.inputs;
  std::vector<double> setup_s;
  std::vector<std::vector<std::string>> setup_base(k);
  for (int r = 0; r < kSetupRepeats; ++r) {
    double base = 0.0;
    setup_s.push_back(TimeSetup(config, inputs[r % k], &base));
    setup_base[r % k].push_back(Quote(Hex(base)));
  }

  // Round-robin over the inputs until the time is up, every input ran, and
  // the first input ran twice (later runs are checked against its first).
  std::vector<std::vector<double>> run_s(k);
  std::vector<std::vector<double>> cpu_s(k);
  std::vector<std::vector<std::string>> records(k);
  const double start = NowS();
  for (int n = 0; NowS() - start < args.seconds || n <= k; ++n) {
    const int i = n % k;
    TimedRun run = RunEngine(config, inputs[static_cast<size_t>(i)]);
    run_s[i].push_back(run.wall_s);
    cpu_s[i].push_back(run.cpu_s);
    records[i].push_back(RecordJson(run.result));
  }

  std::ostringstream out;
  out << "{\"workload\":" << Quote(workload.name) << ",\"mode\":\"e2e\""
      << ",\"threads\":" << workload.num_threads
      << ",\"setup_s\":" << NumList(setup_s)
      << ",\"peak_rss_mb\":" << Num(PeakRssMb())
      << ",\"reference\":" << reference << ",\"inputs\":[";
  for (int i = 0; i < k; ++i) {
    out << (i > 0 ? "," : "") << "{\"setup_base\":"
        << StringList(setup_base[i]) << ",\"run_s\":" << NumList(run_s[i])
        << ",\"cpu_s\":" << NumList(cpu_s[i])
        << ",\"records\":" << StringList(records[i]) << "}";
  }
  out << "]}";
  return out.str();
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

double SpanTotalMs(const std::vector<fastft::obs::SpanStats>& summary,
                   const std::string& name) {
  for (const fastft::obs::SpanStats& stats : summary) {
    if (stats.name == name) return static_cast<double>(stats.total_ns) / 1e6;
  }
  return 0.0;
}

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"layer\":" << Quote(s.layer)
        << ",\"call\":" << Quote(s.call) << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"work\":" << s.work << "}" << (i + 1 < spans.size() ? "," : "")
        << "\n";
  }
  out << "]\n";
}

// Reconciles one driver replay with the engine spans that contain each of
// its layers (driver total ÷ engine total; 0 where the engine has no span).
std::map<std::string, double> Reconcile(
    const LayerDriverResult& driver,
    const std::vector<fastft::obs::SpanStats>& summary) {
  const std::vector<Span>& spans = driver.spans;
  double select = TotalsOf(spans, "clustering").busy_ms +
                  TotalsOf(spans, "state").busy_ms +
                  TotalsOf(spans, "generation", "ApplyOperation").busy_ms;
  for (const char* call : {"SelectHead", "SelectOperation", "SelectTail"}) {
    select += TotalsOf(spans, "agent", call).busy_ms;
  }
  return {
      {"reconcile.evaluator",
       Share(TotalsOf(spans, "evaluator").busy_ms,
             SpanTotalMs(summary, "engine/evaluate"))},
      {"reconcile.seqmodel",
       Share(TotalsOf(spans, "seqmodel").busy_ms,
             SpanTotalMs(summary, "engine/coldstart_train") +
                 SpanTotalMs(summary, "engine/finetune"))},
      {"reconcile.select_action",
       Share(select, SpanTotalMs(summary, "engine/select_action"))},
      {"reconcile.estimation",
       Share(TotalsOf(spans, "estimation").busy_ms,
             SpanTotalMs(summary, "engine/estimate"))},
      {"reconcile.io",
       Share(TotalsOf(spans, "io").busy_ms,
             SpanTotalMs(summary, "engine/checkpoint_serialize") +
                 SpanTotalMs(summary, "engine/checkpoint_write"))},
  };
}

// Replay rounds of the traced run at least; run.py takes the median of each
// per-layer metric over the rounds.
constexpr int kMinReplays = 3;

// --trace 1: on the first input, rounds of an untraced engine run, a run
// with the engine's trace on (its span summary is what the driver is
// reconciled with, and the pair gives the tracing overhead) and one
// layer-driver replay of the first run, until the time is up.
std::string MeasureLayers(const Workload& workload, const Args& args) {
  const fastft::Dataset dataset =
      MakeInputs(workload, fastft::DeriveSeed(args.seed, 0));
  const fastft::EngineConfig config = MakeConfig(workload, args.io_dir);
  fastft::EngineConfig traced_config = config;
  traced_config.trace_path = args.io_dir + "/" + workload.name + ".trace.json";
  std::vector<std::string> records;
  std::vector<std::string> replays;

  TimedRun first = RunEngine(config, dataset);
  records.push_back(RecordJson(first.result));
  const double start = NowS();
  for (int r = 0; first.result.ok() &&
                  (r < kMinReplays || NowS() - start < args.seconds);
       ++r) {
    TimedRun untraced = RunEngine(config, dataset);
    records.push_back(RecordJson(untraced.result));
    TimedRun traced = RunEngine(traced_config, dataset);
    records.push_back(RecordJson(traced.result));
    const std::vector<fastft::obs::SpanStats> summary =
        fastft::obs::SummarizeSpans(fastft::obs::SnapshotTrace());
    const LayerDriverResult driver = DriveLayers(
        dataset, config, first.result.value(),
        args.io_dir + "/" + workload.name + ".driver.ffcp");
    WriteSpans(driver.spans,
               args.io_dir + "/" + workload.name + ".driver_spans.json");
    std::map<std::string, double> layers = driver.metrics;
    const bool io = workload.durable;
    layers["io.checkpoint_bytes"] =
        io ? FileBytes(CheckpointPath(workload, args.io_dir)) : 0.0;
    layers["io.record_bytes"] =
        io ? FileBytes(RecordPath(workload, args.io_dir)) : 0.0;
    std::ostringstream replay;
    replay << "{\"untraced_run_s\":" << Num(untraced.wall_s)
           << ",\"traced_run_s\":" << Num(traced.wall_s)
           << ",\"layers\":" << NumMap(layers)
           << ",\"reconcile\":" << NumMap(Reconcile(driver, summary))
           << ",\"steps_matched\":" << driver.steps_matched
           << ",\"steps_total\":" << driver.steps_total << "}";
    replays.push_back(replay.str());
  }

  std::ostringstream out;
  out << "{\"workload\":" << Quote(workload.name) << ",\"mode\":\"trace\""
      << ",\"threads\":" << workload.num_threads
      << ",\"replays\":" << StringList(replays)
      << ",\"inputs\":[{\"records\":" << StringList(records) << "}]}";
  return out.str();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      std::stringstream names(value);
      std::string name;
      while (std::getline(names, name, ',')) args->workloads.push_back(name);
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--io-dir") {
      args->io_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 == 0 || args->workloads.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name>[,<name>...] --seed <n> "
                 "--seconds <s> --trace <0|1> --io-dir <dir>\n");
    return false;
  }
  for (const std::string& name : args->workloads) {
    if (FindWorkload(name) == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  std::error_code ec;
  std::filesystem::create_directories(args.io_dir, ec);
  for (const std::string& name : args.workloads) {
    const perfbench::Workload& workload = *perfbench::FindWorkload(name);
    const std::string line = args.trace
                                 ? perfbench::MeasureLayers(workload, args)
                                 : perfbench::MeasureEndToEnd(workload, args);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }
  return 0;
}
